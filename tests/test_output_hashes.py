import importlib.util
import json
from pathlib import Path

import numpy as np
import pytest

import synthetic as syn
from rnx.audio_io import AudioBuffer, store_audio

ROOT = Path(__file__).resolve().parents[1]
KEYS = {
    "stream", "stream_periods", "stream_pitch_strengths", "stream_masks_and_vads", "buffer_4s",
    "analyze_signal", "clean_energies", "model_rnxm", "mix_rnxf", "held.wav",
    "backward_tbptt_float32", "backward_tbptt_float64", "train_6_steps",
    "mix_reference_rnxf", "backward_tbptt_reference_float32", "train_reference_2_steps",
    "stream_reference", "buffer_4s_bypass_pitch",
}
# Every hash of the one-second input below, and the numpy build and SIMD
# targets they were recorded under: the bits depend on those too. A change
# that moves output bits on purpose replaces "hashes" with the values the
# failing assertion prints.
GOLDEN = json.loads((Path(__file__).with_name("output_hashes_golden.json")).read_text())


def _load_tool():
    spec = importlib.util.spec_from_file_location("output_hashes", ROOT / "tools" / "output_hashes.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _inputs(root: Path) -> Path:
    """One second of each input, in the directory layout perfbench/gen.py writes."""
    rng = np.random.default_rng(811)
    speech = syn.speech_like(rng, 1.0)
    noise = syn.babble_noise(rng, 1.0) * 0.3
    for sub in ("clean", "noise", "heldout"):
        (root / sub).mkdir(parents=True)
    np.save(root / "stream.npy", speech + noise)
    store_audio(AudioBuffer(speech), root / "clean" / "utt0.wav")
    store_audio(AudioBuffer(noise), root / "noise" / "babble.wav")
    store_audio(AudioBuffer(speech + noise), root / "heldout" / "held.wav")
    return root


def _environment() -> dict:
    """numpy's version, its BLAS build and the SIMD targets it dispatches to on this CPU."""
    from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "numpy": np.__version__,
        "blas": {key: blas.get(key) for key in ("name", "version", "openblas configuration")},
        "simd_dispatch": [target for target in __cpu_dispatch__ if __cpu_features__.get(target)],
    }


@pytest.fixture(scope="module")
def one_second(tmp_path_factory):
    """The one-second inputs and their hashes, computed once for the module."""
    inputs = _inputs(tmp_path_factory.mktemp("hashes") / "inputs")
    return inputs, _load_tool().output_hashes(inputs)


def test_output_hashes_equal_the_recorded_values(one_second):
    recorded = GOLDEN["environment"]
    if _environment() != recorded:
        pytest.skip(f"the golden hashes hold for {recorded}; this run has {_environment()}")
    assert one_second[1] == GOLDEN["hashes"]


def test_output_hashes_repeat_on_a_one_second_input(one_second, capsys):
    tool = _load_tool()
    inputs, first = one_second
    assert set(first) == KEYS == set(GOLDEN["hashes"])
    assert all(len(value) == 16 and int(value, 16) >= 0 for value in first.values())
    assert tool.main(["--inputs", str(inputs)]) == 0
    assert json.loads(capsys.readouterr().out.strip().splitlines()[-1]) == first
