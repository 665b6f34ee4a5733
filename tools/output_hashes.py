"""Hash every output that rnx's bitwise gates compare, from one seed's benchmark inputs.

    python3 perfbench/gen.py --seed 1001 --out INPUTS
    python3 tools/output_hashes.py --inputs INPUTS [--src SRC]

rnx is imported from SRC (default: the src/ next to this directory), so
the one script hashes two trees: run it once with each tree's src/ on the
same inputs and compare the lines. It prints one JSON object that maps
each name below to the first 16 hex digits of the sha256 of its bytes.
Every array is hashed as `ndarray.tobytes()`: C order, native
little-endian, float64 unless said otherwise.

Streaming, with init_weights(7, 45), fed stream.npy hop by hop through
process_hop (len // 480 hops; a shorter tail is dropped):
  stream                  the output samples of every hop, in order, as
                          one (hops * 480,) array: the bytes perfbench's
                          stream digest hashes
  stream_periods          the period of every hop, int64 (hops,)
  stream_pitch_strengths  the pitch strength of every hop (hops,)
  stream_masks_and_vads   every hop's mask as one (hops, 22) array, then
                          every hop's VAD as one (hops,) array
Whole buffers, on the first 4 s of stream.npy (all of it when shorter):
  buffer_4s               denoise_buffer's output samples, same model
  analyze_signal          analyze_signal(x, clean) with x those samples
                          with [0.5 s, 0.8 s) and [2.0 s, 2.1 s) set to
                          exact zeros and clean = x / 2: period (int64),
                          pitch_strength, features (T, 42), extended_raw
                          (T, 3), band_energies (T, 22) and band_corr
                          (T, 22), concatenated in that order
  clean_energies          that call's clean_energies (T, 22)
Model file:
  model_rnxm              the bytes save_model writes for init_weights(7, 45)
Offline, as in perfbench's offline workload:
  mix_rnxf                the bytes of the .rnxf file that build_dataset
                          writes over clean/*.wav and noise/*.wav
                          (MixConfig(seed=11), extended, threads=1)
  mix_reference_rnxf      the same in reference mode
  <name>.wav              the bytes of the file denoise_file writes for
                          heldout/<name>.wav with init_weights(7, 42)
Training:
  backward_tbptt_float32  backward_tbptt on init_weights(5, 45) set to
  backward_tbptt_float64  that precision, on a (4, 60, 45) batch drawn
                          from default_rng(0) (features normal, gains
                          uniform in [0, 1) with band 3 of every frame
                          set to the -1 sentinel, VADs 0/1): every
                          gradient in sorted name order, then the loss
                          as one float64
  backward_tbptt_reference_float32
                          the same in float32 on init_weights(5, 42) and
                          the first 42 feature columns of that batch
  train_6_steps           train(TrainConfig(epochs=1, steps_per_epoch=6,
                          seed=5, sequence_len=min(500, frames)),
                          "extended") on the mix_rnxf file: every
                          parameter of the trained model in sorted name
                          order, then the per-step losses as one
                          float64 array
  train_reference_2_steps the same with steps_per_epoch=2, "reference",
                          on the mix_reference_rnxf file

stream, stream_periods, stream_pitch_strengths, stream_masks_and_vads,
buffer_4s, mix_rnxf, the WAVs and train_6_steps use the byte layouts of
the BENCH_14.json record, so on the same seed they equal its values.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
BUFFER_S = 4.0
SAMPLE_RATE = 48000
SILENT_STRETCHES_S = ((0.5, 0.8), (2.0, 2.1))


def digest(*parts) -> str:
    """First 16 hex digits of the sha256 of the parts' bytes, in order."""
    h = hashlib.sha256()
    for part in parts:
        h.update(part if isinstance(part, bytes) else np.ascontiguousarray(part).tobytes())
    return h.hexdigest()[:16]


def import_rnx(src: Path):
    """rnx's modules from `src` and from nowhere else."""
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    rnx = importlib.import_module("rnx")
    if src.resolve() not in Path(rnx.__file__).resolve().parents:
        raise SystemExit(f"rnx resolved to {rnx.__file__}, outside {src}")
    names = ("audio_io", "dataset", "features", "neural", "pipeline", "training")
    return {name: importlib.import_module(f"rnx.{name}") for name in names}


def stream_hashes(rnx, x: np.ndarray) -> dict:
    pipeline, neural = rnx["pipeline"], rnx["neural"]
    hops = len(x) // 480
    state = pipeline.create_state(neural.init_weights(7, 45))
    out = np.empty((hops, 480))
    periods = np.empty(hops, dtype=np.int64)
    strengths, vads = np.empty(hops), np.empty(hops)
    masks = np.empty((hops, 22))
    for k in range(hops):
        res = pipeline.process_hop(state, x[480 * k : 480 * (k + 1)])
        out[k], periods[k], strengths[k], masks[k], vads[k] = (
            res.samples, res.period, res.pitch_strength, res.mask, res.vad
        )
    return {
        "stream": digest(out),
        "stream_periods": digest(periods),
        "stream_pitch_strengths": digest(strengths),
        "stream_masks_and_vads": digest(masks, vads),
    }


def buffer_hashes(rnx, x: np.ndarray) -> dict:
    pipeline, neural, features = rnx["pipeline"], rnx["neural"], rnx["features"]
    x = x[: int(BUFFER_S * SAMPLE_RATE)]
    out, _ = pipeline.denoise_buffer(neural.init_weights(7, 45), rnx["audio_io"].AudioBuffer(x))
    gapped = x.copy()
    for start, stop in SILENT_STRETCHES_S:
        gapped[int(start * SAMPLE_RATE) : int(stop * SAMPLE_RATE)] = 0.0
    a = features.analyze_signal(gapped, gapped / 2.0)
    return {
        "buffer_4s": digest(out.samples),
        "analyze_signal": digest(
            a.period.astype(np.int64), a.pitch_strength, a.features, a.extended_raw, a.band_energies, a.band_corr
        ),
        "clean_energies": digest(a.clean_energies),
    }


def offline_hashes(rnx, inputs: Path, work: Path) -> dict:
    pipeline, neural, dataset = rnx["pipeline"], rnx["neural"], rnx["dataset"]
    clean = sorted((inputs / "clean").glob("*.wav"))
    noise = sorted((inputs / "noise").glob("*.wav"))
    rnxm = work / "model.rnxm"
    neural.save_model(neural.init_weights(7, 45), rnxm)
    out = {"model_rnxm": digest(rnxm.read_bytes())}
    for mode, key in (("extended", "mix_rnxf"), ("reference", "mix_reference_rnxf")):
        rnxf = work / f"mix_{mode}.rnxf"
        dataset.build_dataset(clean, noise, dataset.MixConfig(seed=11), mode, rnxf, threads=1)
        out[key] = digest(rnxf.read_bytes())
    model = neural.init_weights(7, 42)
    for path in sorted((inputs / "heldout").glob("*.wav")):
        target = work / path.name
        pipeline.denoise_file(model, path, target)
        out[path.name] = digest(target.read_bytes())
    return out


def training_hashes(rnx, work: Path) -> dict:
    neural, training, dataset = rnx["neural"], rnx["training"], rnx["dataset"]
    rng = np.random.default_rng(0)
    feats = rng.normal(size=(4, 60, 45))
    gains = rng.uniform(size=(4, 60, 22))
    gains[..., 3] = -1.0
    vads = (rng.uniform(size=(4, 60)) < 0.5).astype(np.float64)
    out = {}
    runs = (
        ("backward_tbptt_float32", 45, np.float32),
        ("backward_tbptt_float64", 45, np.float64),
        ("backward_tbptt_reference_float32", 42, np.float32),
    )
    for key, dim, dtype in runs:
        model = neural.init_weights(5, dim)
        for layer in model.layers():  # as train runs it: every tensor at this precision
            for attr in ("weights", "recurrent", "bias"):
                if getattr(layer, attr) is not None:
                    setattr(layer, attr, getattr(layer, attr).astype(dtype))
        grads, loss = training.backward_tbptt(
            model, feats[..., :dim].astype(dtype), gains.astype(dtype), vads.astype(dtype)
        )
        out[key] = digest(*(grads[name] for name in sorted(grads)), np.float64(loss))
    for key, mode, steps in (("train_6_steps", "extended", 6), ("train_reference_2_steps", "reference", 2)):
        data = dataset.load_feature_file(work / f"mix_{mode}.rnxf")
        losses = []
        cfg = training.TrainConfig(
            epochs=1, steps_per_epoch=steps, seed=5, sequence_len=min(training.TrainConfig().sequence_len, len(data))
        )
        model = training.train(data, cfg, mode, on_step=lambda epoch, step, loss: losses.append(loss))
        params = model.parameters()
        out[key] = digest(*(params[name] for name in sorted(params)), np.array(losses, dtype=np.float64))
    return out


def output_hashes(inputs, src=ROOT / "src") -> dict:
    """Every hash named in the module docstring, for the inputs in `inputs`."""
    rnx = import_rnx(Path(src))
    inputs = Path(inputs)
    x = np.load(inputs / "stream.npy")
    out = {**stream_hashes(rnx, x), **buffer_hashes(rnx, x)}
    with tempfile.TemporaryDirectory() as work:
        out.update(offline_hashes(rnx, inputs, Path(work)))
        out.update(training_hashes(rnx, Path(work)))
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="hash rnx's outputs on one seed's benchmark inputs")
    parser.add_argument("--inputs", type=Path, required=True, help="a directory written by perfbench/gen.py")
    parser.add_argument("--src", type=Path, default=ROOT / "src", help="the src/ directory to import rnx from")
    args = parser.parse_args(argv)
    print(json.dumps(output_hashes(args.inputs, args.src), sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
