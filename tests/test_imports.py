import ast
import importlib
import importlib.util
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import synthetic as syn

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"


def test_runtime_modules_do_not_import_scipy_signal():
    # scipy.signal alone adds tens of MiB to every process that imports rnx
    code = (
        "import sys\n"
        "import rnx.pipeline, rnx.dataset, rnx.training, rnx.cli\n"
        "print('scipy.signal' in sys.modules)\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (str(SRC), os.environ.get("PYTHONPATH")))))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"


@pytest.mark.parametrize("module", ["training.py", "neural.py"])
def test_engine_imports_no_scipy(module):
    # the network engine's logistic is numpy; scipy stays out of its imports
    tree = ast.parse((SRC / "rnx" / module).read_text())
    modules = [alias.name for node in ast.walk(tree) if isinstance(node, ast.Import) for alias in node.names]
    modules += [node.module or "" for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)]
    assert modules and not [m for m in modules if m.split(".")[0] == "scipy"]


def _load_perfbench(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", ROOT / "perfbench" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_perfbench_patch_targets_resolve():
    # the traced benchmark wraps these names; one that no longer resolves
    # turns its per-layer metric into null
    layers = _load_perfbench("layers")
    assert layers.PATCHES
    for target, _ in layers.PATCHES:
        module_name, _, path = target.partition(":")
        owner = importlib.import_module(module_name)
        for part in path.split("."):
            owner = getattr(owner, part)
        assert callable(owner), target


def test_perfbench_hooks_yield_finite_metrics():
    # the traced benchmark's hooks read what the wrapped calls return; a
    # changed return type breaks a hook, and then the run prints no result
    from rnx import dataset, neural, pipeline, training
    from rnx.audio_io import AudioBuffer
    from rnx.features import EXTENDED_DIM

    spans, layers = _load_perfbench("spans"), _load_perfbench("layers")
    rng = np.random.default_rng(5)
    model = neural.init_weights(3, EXTENDED_DIM)
    x = syn.speech_like(rng, 0.25, pauses=False)
    clean = AudioBuffer(syn.speech_like(rng, 0.5, pauses=False))
    noise = AudioBuffer(syn.babble_noise(rng, 0.5))
    feats = rng.normal(size=(2, 8, EXTENDED_DIM))
    gains = rng.uniform(size=(2, 8, 22))
    vads = (rng.uniform(size=(2, 8)) > 0.5).astype(np.float64)

    tracer = spans.Tracer()
    layers.install(tracer)
    try:
        state = pipeline.create_state(model)
        for k in range(20):
            pipeline.process_hop(state, x[k * 480 : (k + 1) * 480])
        dataset.mix_and_label(clean, noise, dataset.MixConfig(seed=1))
        grads, _ = training.backward_tbptt(model, feats, gains, vads)
        params = model.parameters()
        training.adam_update(params, grads, training.AdamState.init_like(params), 1e-3)
    finally:
        tracer.restore()

    assert tracer.absent == []
    metrics = layers.per_layer_metrics(tracer, 0.0)
    assert metrics
    for name, (value, _) in metrics.items():
        assert value is not None, name
        assert isinstance(value, (int, float)) and math.isfinite(value), (name, value)
    assert metrics["pipeline.process_hop.calls"][0] == 20
    assert metrics["training.backward_tbptt.calls"][0] == 1
