import ast
import importlib
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

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


def test_perfbench_patch_targets_resolve():
    # the traced benchmark wraps these names; one that no longer resolves
    # turns its per-layer metric into null
    spec = importlib.util.spec_from_file_location("perfbench_layers", ROOT / "perfbench" / "layers.py")
    layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layers)
    assert layers.PATCHES
    for target, _ in layers.PATCHES:
        module_name, _, path = target.partition(":")
        owner = importlib.import_module(module_name)
        for part in path.split("."):
            owner = getattr(owner, part)
        assert callable(owner), target
