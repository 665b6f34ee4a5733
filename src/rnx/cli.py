"""Command-line surface for the toolchain.

Subcommands mirror the processing stages: mix a corpus into a feature
file, train a model, denoise audio, evaluate an A/B pair, dump features
for one file, and run the finite-difference gradient gate. All randomness
derives from --seed; fixed seeds give bitwise-identical outputs.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from rnx import dataset, evaluate, neural, pipeline, training
from rnx.audio_io import AUDIO_SUFFIXES


def _list_audio(directory) -> list:
    """The files in `directory` whose suffix, in any case, names an audio format, sorted."""
    d = Path(directory)
    if not d.is_dir():
        raise ValueError(f"not a directory: {directory}")
    files = sorted(p for p in d.iterdir() if p.suffix.lower() in AUDIO_SUFFIXES and p.is_file())
    if not files:
        raise ValueError(f"no audio files in {directory}")
    return files


def _cmd_mix(args) -> int:
    cfg = dataset.MixConfig(
        snr_range_db=(args.snr_min, args.snr_max),
        seed=args.seed,
        frame_target=args.frames,
    )
    count = dataset.build_dataset(_list_audio(args.clean), _list_audio(args.noise), cfg, args.mode, args.out)
    print(f"wrote {count} frames to {args.out}")
    return 0


def _cmd_train(args) -> int:
    data = dataset.load_feature_file(args.data)
    cfg = training.TrainConfig(
        epochs=args.epochs,
        steps_per_epoch=args.steps,
        learning_rate=args.lr,
        sequence_len=args.seq_len,
        batch_sequences=args.batch,
        seed=args.seed,
    )
    model = training.train(
        data, cfg, args.mode,
        on_step=lambda e, s, l: print(f"epoch={e} step={s} loss={l:.6f}"),
    )
    neural.save_model(model, args.out)
    print(f"saved model to {args.out}")
    return 0


def _cmd_denoise(args) -> int:
    model = neural.load_model(args.model)
    stats = pipeline.denoise_file(
        model, args.in_path, args.out,
        bypass_mask=args.no_mask,
        bypass_pitch=args.no_pitch_filter,
        dump_masks_path=args.dump_masks,
    )
    print(
        f"frames={stats.frames} mean_vad={stats.mean_vad:.6f} "
        f"mean_gain={stats.mean_gain:.6f} mean_hop_ms={stats.mean_hop_ms:.3f}"
    )
    return 0


def _cmd_eval(args) -> int:
    from rnx.audio_io import load_audio

    clean = load_audio(args.clean)
    noisy = load_audio(args.noisy)
    den_a = load_audio(args.denoised_a)
    den_b = load_audio(args.denoised_b)
    reports, deltas = evaluate.ab_compare(
        clean, noisy, den_a, den_b, condition=args.condition, export_dir=args.export_dir
    )
    ordered = [reports["noisy"], reports["reference"], reports["extended"]]
    evaluate.write_report(args.report, ordered)
    for rep in ordered:
        print(evaluate.report_line(rep))
    return 0


def _cmd_features(args) -> int:
    from rnx.audio_io import load_audio
    from rnx import bands
    from rnx.features import analyze_signal, feature_rows, mode_dim

    analysis = analyze_signal(load_audio(args.in_path).samples)
    feats = feature_rows(analysis.features, analysis.extended_raw, mode_dim(args.mode))
    # no targets for a bare dump: sentinel gains, vad 0
    gains = np.full((len(feats), bands.NUM_BANDS), -1.0)
    dataset.write_feature_file(args.out, feats.shape[1], feats, gains, np.zeros(len(feats)))
    print(f"wrote {len(feats)} frames to {args.out}")
    return 0


def _cmd_gradcheck(args) -> int:
    result = training.gradient_check(seed=args.seed, instances=args.instances)
    print(
        f"gradcheck instances={result.instances} checked={result.checked} "
        f"failures={result.failures} max_rel_err={result.max_rel_err:.3e} "
        f"max_abs_err={result.max_abs_err:.3e}"
    )
    return 0 if result.passed else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="rnx", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("mix", help="mix clean/noise corpora into a feature file")
    p.add_argument("--clean", required=True, help="directory of clean utterances")
    p.add_argument("--noise", required=True, help="directory of noise tracks")
    p.add_argument("--out", required=True)
    p.add_argument("--mode", choices=("reference", "extended"), default="extended")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--frames", type=int, default=None, help="cap the frame count")
    p.add_argument("--snr-min", type=float, default=-5.0)
    p.add_argument("--snr-max", type=float, default=20.0)
    p.set_defaults(func=_cmd_mix)

    p = sub.add_parser("train", help="train a model on a feature file")
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--mode", choices=("reference", "extended"), default="extended")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--epochs", type=int, default=120)
    p.add_argument("--steps", type=int, default=8)
    p.add_argument("--lr", type=float, default=0.001)
    p.add_argument("--seq-len", type=int, default=500)
    p.add_argument("--batch", type=int, default=32)
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("denoise", help="run the streaming denoiser over a file")
    p.add_argument("--model", required=True)
    p.add_argument("--in", dest="in_path", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--no-pitch-filter", action="store_true")
    p.add_argument("--no-mask", action="store_true")
    p.add_argument("--dump-masks", default=None)
    p.set_defaults(func=_cmd_denoise)

    p = sub.add_parser("eval", help="A/B metric comparison against a clean reference")
    p.add_argument("--clean", required=True)
    p.add_argument("--noisy", required=True)
    p.add_argument("--denoised-a", required=True, help="reference-mode output")
    p.add_argument("--denoised-b", required=True, help="extended-mode output")
    p.add_argument("--report", required=True)
    p.add_argument("--condition", default="all")
    p.add_argument("--export-dir", default=None)
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("features", help="dump per-frame features for one file")
    p.add_argument("--in", dest="in_path", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--mode", choices=("reference", "extended"), default="extended")
    p.set_defaults(func=_cmd_features)

    p = sub.add_parser("gradcheck", help="finite-difference gradient verification")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--instances", type=int, default=20)
    p.set_defaults(func=_cmd_gradcheck)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
