import importlib.util
import json
from pathlib import Path

import numpy as np

import synthetic as syn
from rnx.audio_io import AudioBuffer, store_audio

ROOT = Path(__file__).resolve().parents[1]
KEYS = {
    "stream", "stream_periods", "stream_pitch_strengths", "stream_masks_and_vads", "buffer_4s",
    "analyze_signal", "clean_energies", "mix_rnxf", "held.wav",
    "backward_tbptt_float32", "backward_tbptt_float64", "train_6_steps",
}


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


def test_output_hashes_repeat_on_a_one_second_input(tmp_path, capsys):
    tool = _load_tool()
    inputs = _inputs(tmp_path / "inputs")
    first = tool.output_hashes(inputs)
    assert set(first) == KEYS
    assert all(len(value) == 16 and int(value, 16) >= 0 for value in first.values())
    assert tool.main(["--inputs", str(inputs)]) == 0
    assert json.loads(capsys.readouterr().out.strip().splitlines()[-1]) == first
