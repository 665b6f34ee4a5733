"""Quantitative comparison metrics and A/B reporting.

Two proxy metrics: segmental SNR over non-overlapping 20 ms frames (clamped
per frame, silent clean frames excluded) and log-spectral distance over the
windowed analysis frames. The A/B harness scores a noisy baseline and two
denoised versions against the clean reference and writes a flat text
report; it reports numbers only and never declares a winner.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from rnx import dsp
from rnx.audio_io import AudioBuffer, store_audio

SEG_FRAME = dsp.FRAME_LEN
SEG_CLAMP_DB = (-10.0, 35.0)
# frames whose clean mean square sits below this carry no reference signal
SEG_SILENCE_FLOOR = 1e-8
_EPS = 1e-12


@dataclass
class MetricsReport:
    system: str
    condition: str
    seg_snr_db: float
    lsd_db: float
    frames_scored: int


def _samples(x) -> np.ndarray:
    if isinstance(x, AudioBuffer):
        return x.samples
    return np.asarray(x, dtype=np.float64)


def segmental_snr(clean, test) -> float:
    """Mean clamped per-frame SNR in dB over 960-sample frames."""
    c = _samples(clean)
    t = _samples(test)
    if c.shape != t.shape:
        raise ValueError(f"length mismatch: {c.shape} vs {t.shape}")
    n_frames = len(c) // SEG_FRAME
    if n_frames == 0:
        raise ValueError("no scoreable frames")
    cf = c[: n_frames * SEG_FRAME].reshape(n_frames, SEG_FRAME)
    tf = t[: n_frames * SEG_FRAME].reshape(n_frames, SEG_FRAME)
    sig = np.sum(cf * cf, axis=1)
    err = np.sum((cf - tf) ** 2, axis=1)
    keep = sig / SEG_FRAME >= SEG_SILENCE_FLOOR
    if not np.any(keep):
        raise ValueError("no scoreable frames")
    snr = 10.0 * np.log10(sig[keep] / (err[keep] + _EPS))
    return float(np.mean(np.clip(snr, *SEG_CLAMP_DB)))


def _log_spectra(x: np.ndarray) -> np.ndarray:
    return 20.0 * np.log10(np.abs(dsp.analyze_frame(dsp.framed(x))) + _EPS)


def log_spectral_distance(clean, test) -> float:
    """Mean over frames of the RMS log-magnitude gap across bins, in dB."""
    c = _samples(clean)
    t = _samples(test)
    if c.shape != t.shape:
        raise ValueError(f"length mismatch: {c.shape} vs {t.shape}")
    if len(c) < dsp.FRAME_LEN:
        raise ValueError("signal shorter than one analysis frame")
    gap = _log_spectra(c) - _log_spectra(t)
    return float(np.mean(np.sqrt(np.mean(gap * gap, axis=1))))


def score_pair(clean, test, system: str = "test", condition: str = "all") -> MetricsReport:
    if not re.fullmatch(r"\S+", condition):
        raise ValueError(f"condition {condition!r} must be non-empty and contain no whitespace")
    c = _samples(clean)
    n_frames = len(c) // SEG_FRAME
    return MetricsReport(
        system=system,
        condition=condition,
        seg_snr_db=segmental_snr(clean, test),
        lsd_db=log_spectral_distance(clean, test),
        frames_scored=n_frames,
    )


def ab_compare(
    clean,
    noisy,
    denoised_ref,
    denoised_ext,
    condition: str = "all",
    export_dir=None,
):
    """Score noisy/reference/extended against clean; returns reports and deltas.

    Deltas are (system minus noisy) per metric; the harness reports numbers
    without ranking. With export_dir set, aligned WAVs are written for
    external perceptual scoring.
    """
    reports = {
        "noisy": score_pair(clean, noisy, "noisy", condition),
        "reference": score_pair(clean, denoised_ref, "reference", condition),
        "extended": score_pair(clean, denoised_ext, "extended", condition),
    }
    base = reports["noisy"]
    deltas = {
        name: {
            "seg_snr_db": rep.seg_snr_db - base.seg_snr_db,
            "lsd_db": rep.lsd_db - base.lsd_db,
        }
        for name, rep in reports.items()
        if name != "noisy"
    }
    if export_dir is not None:
        export_dir = Path(export_dir)
        export_dir.mkdir(parents=True, exist_ok=True)
        for name, sig in (
            ("clean", clean), ("noisy", noisy),
            ("denoised_reference", denoised_ref), ("denoised_extended", denoised_ext),
        ):
            store_audio(AudioBuffer(_samples(sig)), export_dir / f"{name}.wav")
    return reports, deltas


def report_line(rep: MetricsReport) -> str:
    """One report entry as the line `write_report` writes and `parse_report` reads, without newline."""
    return (
        f"system={rep.system} condition={rep.condition} "
        f"seg_snr_db={rep.seg_snr_db:.6f} lsd_db={rep.lsd_db:.6f} frames={rep.frames_scored}"
    )


def write_report(path, reports) -> None:
    """Append-free flat report: one line per (system, condition) entry."""
    with open(path, "w") as fh:
        fh.writelines(report_line(rep) + "\n" for rep in reports)


_LINE = re.compile(
    r"system=(\S+) condition=(\S+) seg_snr_db=(\S+) lsd_db=(\S+) frames=(\d+)"
)


def parse_report(path):
    out = []
    for line in Path(path).read_text().splitlines():
        m = _LINE.fullmatch(line.strip())
        if not m:
            raise ValueError(f"malformed report line: {line!r}")
        out.append(
            MetricsReport(m.group(1), m.group(2), float(m.group(3)), float(m.group(4)), int(m.group(5)))
        )
    return out
