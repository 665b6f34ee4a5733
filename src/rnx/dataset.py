"""Training corpus construction: mixing, target labeling, feature files.

Each clean utterance is paired with a noise track, the noise is looped or
truncated to length and scaled to a random SNR, a random level offset is
applied, and every 960-sample analysis window (480-sample hop) yields one
training row: noisy-signal features, per-band energy-ratio targets from
the clean/noisy spectra, and a clean-energy VAD label.

`build_dataset` mixes on two cores: the calling process mixes the
even-indexed utterances and this process's worker (`rnx.worker`) the
odd-indexed ones, one after the other in job order. Each utterance draws
from its own child of cfg.seed's SeedSequence, so the bytes do not depend
on which process mixed it. Where no worker can start (no "fork" start
method, or a daemonic caller), the same generator runs in the caller.

Rows are stored in a flat little-endian feature file (.rnxf) of float32:
magic "RNXF", version, feature_dim, target_dim (23), frame count, then
frame_count rows of [features | 22 gains | vad]. `write_feature_file`
refuses, before it opens the path, any rows that `load_feature_file`
would reject.
"""

from __future__ import annotations

import contextlib
import struct
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from rnx import bands, dsp, worker
from rnx.audio_io import AudioBuffer, load_audio
from rnx.features import EXTENDED_DIM, REFERENCE_DIM, analyze_signal, feature_rows, mode_dim

MAGIC = b"RNXF"
FORMAT_VERSION = 1
TARGET_DIM = bands.NUM_BANDS + 1

VAD_MEDIAN_WINDOW = 100
VAD_MEDIAN_RATIO = 0.1
VAD_ABS_FLOOR = 1e-7


class FeatureFileError(ValueError):
    """Raised for malformed feature files."""


@dataclass
class MixConfig:
    snr_range_db: tuple = (-5.0, 20.0)
    gain_range_db: tuple = (-6.0, 6.0)
    seed: int = 0
    frame_target: int | None = None

    def __post_init__(self):
        for what, (low, high) in (("snr", self.snr_range_db), ("gain", self.gain_range_db)):
            # a NaN or infinite bound, or a width that overflows, makes high - low non-finite
            if not np.isfinite(float(high) - float(low)):
                raise ValueError(f"{what} range {low}..{high} is not finite")
            if low > high:
                raise ValueError(f"{what} range inverted")
        if self.frame_target is not None and self.frame_target < 0:
            raise ValueError("frame_target must not be negative")


@dataclass
class FeatureDataset:
    feature_dim: int
    features: np.ndarray  # (n, feature_dim), raw
    gains: np.ndarray  # (n, 22), -1 sentinels allowed
    vad: np.ndarray  # (n,), 0/1

    def __len__(self):
        return self.features.shape[0]


def vad_target(clean_frame_energy, running_median):
    """1 iff the frame clears both the relative and absolute energy floors (elementwise)."""
    energy = np.asarray(clean_frame_energy)
    return ((energy > VAD_MEDIAN_RATIO * running_median) & (energy > VAD_ABS_FLOOR)).astype(np.int64)


def vad_labels(clean_frames: np.ndarray) -> np.ndarray:
    """VAD label per clean frame, against the median energy of the last 100 frames.

    The first 99 frames take the median of all frames so far: their windows
    start with +inf padding, which sorts last, so only `count` values count.
    """
    energy = np.mean(np.square(clean_frames), axis=-1)
    padded = np.concatenate((np.full(VAD_MEDIAN_WINDOW, np.inf), energy))
    ordered = np.sort(sliding_window_view(padded, VAD_MEDIAN_WINDOW)[1:], axis=-1)
    count = np.minimum(np.arange(1, len(energy) + 1), VAD_MEDIAN_WINDOW)[:, None]
    middle = np.take_along_axis(ordered, np.hstack(((count - 1) // 2, count // 2)), axis=1)
    return vad_target(energy, middle.mean(axis=1))


def mix_and_label(
    clean: AudioBuffer,
    noise: AudioBuffer,
    cfg: MixConfig,
    mode: str = "extended",
    rng: np.random.Generator | None = None,
):
    """Mix one utterance and label all its frames.

    Returns (noisy AudioBuffer, features (n, F) raw, gains (n, 22),
    vad (n,)). The rng defaults to a fresh generator from cfg.seed; dataset
    building passes per-utterance spawned generators instead.
    """
    feature_dim = mode_dim(mode)
    if len(clean) == 0 or len(noise) == 0:
        raise ValueError("empty audio buffer")
    if rng is None:
        rng = np.random.default_rng(cfg.seed)
    c = clean.samples
    clean_power = float(np.mean(np.square(c)))
    if clean_power < 1e-10:
        raise ValueError("silent clean utterance rejected")

    n = np.resize(noise.samples, len(c))
    noise_power = float(np.mean(np.square(n)))
    snr_db = rng.uniform(*cfg.snr_range_db)
    level_db = rng.uniform(*cfg.gain_range_db)
    if noise_power > 1e-20:
        n = n * np.sqrt(clean_power / (noise_power * 10.0 ** (snr_db / 10.0)))
    level = 10.0 ** (level_db / 20.0)
    c = c * level
    noisy = c + n * level
    peak = max(float(np.max(np.abs(noisy))), float(np.max(np.abs(c))))
    if peak > 1.0:
        c = c / peak
        noisy = noisy / peak

    analysis = analyze_signal(noisy, clean=c)
    gains = bands.compute_irm(analysis.clean_energies, analysis.band_energies)
    vads = vad_labels(dsp.framed(c)).astype(np.float64)
    return AudioBuffer(noisy), feature_rows(analysis.features, analysis.extended_raw, feature_dim), gains, vads


def write_feature_file(path, feature_dim: int, features, gains, vad) -> None:
    """Write rows as .rnxf; a ValueError for rows load_feature_file would reject leaves path untouched."""
    if feature_dim not in (REFERENCE_DIM, EXTENDED_DIM):
        raise ValueError(f"unexpected feature_dim {feature_dim}")
    features = np.asarray(features, dtype=np.float64)
    gains = np.asarray(gains, dtype=np.float64)
    vad = np.asarray(vad, dtype=np.float64)
    n = features.shape[0]
    if features.shape != (n, feature_dim) or gains.shape != (n, bands.NUM_BANDS) or vad.shape != (n,):
        raise ValueError("feature/target shapes inconsistent")
    with np.errstate(over="ignore"):  # a value beyond float32's range becomes inf, refused below
        rows = np.hstack((features, gains, vad[:, None])).astype("<f4")
    if not np.isfinite(rows).all():
        raise ValueError("non-finite value in feature rows, as float32")
    with open(path, "wb") as fh:
        fh.write(struct.pack("<4sIIIQ", MAGIC, FORMAT_VERSION, feature_dim, TARGET_DIM, n))
        fh.write(rows.tobytes())


def load_feature_file(path) -> FeatureDataset:
    with open(path, "rb") as fh:
        data = fh.read()
    head = struct.calcsize("<4sIIIQ")
    if len(data) < head:
        raise FeatureFileError("truncated feature file header")
    magic, version, feature_dim, target_dim, count = struct.unpack("<4sIIIQ", data[:head])
    if magic != MAGIC:
        raise FeatureFileError("bad magic")
    if version != FORMAT_VERSION:
        raise FeatureFileError(f"unsupported feature file version {version}")
    if target_dim != TARGET_DIM:
        raise FeatureFileError(f"unexpected target_dim {target_dim}")
    if feature_dim not in (REFERENCE_DIM, EXTENDED_DIM):
        raise FeatureFileError(f"unexpected feature_dim {feature_dim}")
    row_bytes = 4 * (feature_dim + TARGET_DIM)
    if len(data) != head + count * row_bytes:
        raise FeatureFileError("feature file size does not match frame count")
    rows = np.frombuffer(data[head:], dtype="<f4").reshape(count, feature_dim + TARGET_DIM)
    if not np.isfinite(rows).all():
        raise FeatureFileError("non-finite value in feature rows")
    rows = rows.astype(np.float64)
    return FeatureDataset(
        feature_dim,
        rows[:, :feature_dim],
        rows[:, feature_dim : feature_dim + bands.NUM_BANDS],
        rows[:, -1],
    )


def _mix_job(args):
    clean_path, noise_path, seed_seq, cfg, mode = args
    clean = load_audio(clean_path)
    noise = load_audio(noise_path)
    rng = np.random.default_rng(seed_seq)
    _, feats, gains, vads = mix_and_label(clean, noise, cfg, mode, rng)
    return feats, gains, vads


def _mix_jobs(jobs):
    """_mix_job's result for each job in turn, for `worker.stream`."""
    for job in jobs:
        yield _mix_job(job)


def build_dataset(clean_paths, noise_paths, cfg: MixConfig, mode, out_path, threads=None) -> int:
    """Mix every clean utterance against cycled noise tracks and write .rnxf.

    The odd-indexed utterances are mixed in this process's worker, the
    rest here (see the module docstring); the bytes are the same either
    way. The first utterance to fail, in corpus order, raises. Returns
    the frame count written.
    """
    # threads is accepted and ignored: perfbench still passes threads=1; it goes once perfbench stops
    clean_paths = list(clean_paths)
    noise_paths = list(noise_paths)
    if not clean_paths or not noise_paths:
        raise ValueError("empty corpus: need at least one clean and one noise file")
    children = np.random.SeedSequence(cfg.seed).spawn(len(clean_paths))
    jobs = [
        (clean_paths[i], noise_paths[i % len(noise_paths)], children[i], cfg, mode)
        for i in range(len(clean_paths))
    ]
    with worker.stream(_mix_jobs, jobs[1::2]) if len(jobs) > 1 else contextlib.nullcontext(iter(())) as theirs:
        results = [_mix_job(job) if i % 2 == 0 else next(theirs) for i, job in enumerate(jobs)]
        next(theirs, None)  # the generator's end: a call that stops short stops the worker

    feats = np.concatenate([r[0] for r in results], axis=0)
    gains = np.concatenate([r[1] for r in results], axis=0)
    vads = np.concatenate([r[2] for r in results], axis=0)
    if cfg.frame_target is not None:
        feats = feats[: cfg.frame_target]
        gains = gains[: cfg.frame_target]
        vads = vads[: cfg.frame_target]
    write_feature_file(out_path, mode_dim(mode), feats, gains, vads)
    return feats.shape[0]
