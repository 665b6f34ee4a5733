"""Pitch-period estimation and the pitch comb filter.

The estimator keeps 1760 samples of history: the current 960-sample frame
plus 800 extra samples so every candidate lag in [60, 800] has a full
delayed window to correlate against. Voiced frames then get a comb filter
that averages the spectrum with its pitch-delayed twin, weighted per band
by how coherent the two actually are.

All 741 lag correlations come from one circular cross-correlation of the
history with the current frame, through real FFTs of the history length
(1760). The circular correlation at offset j sums
history[(j + i) mod 1760] * frame[i] over the 960 frame samples. Lag T
reads offset j = 800 - T, and for every j <= 800 the last index
j + 959 <= 1759 stays inside the history, so no term wraps: each value
is the linear correlation, with no zero padding beyond the frame's.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from rnx.bands import BAND_WEIGHTS, NUM_BANDS
from rnx.dsp import FRAME_LEN, HOP, NUM_BINS

PITCH_MIN_PERIOD = 60
PITCH_MAX_PERIOD = 800
HISTORY_LEN = FRAME_LEN + PITCH_MAX_PERIOD

# Correlation at a candidate sub-period must reach this fraction of the raw
# peak to override it.
SUBHARMONIC_RATIO = 0.9
SILENCE_FLOOR = 1e-10

_LAGS = np.arange(PITCH_MIN_PERIOD, PITCH_MAX_PERIOD + 1)
_LAGS.setflags(write=False)
_STARTS = PITCH_MAX_PERIOD - _LAGS  # where the window delayed by each lag starts


def _subharmonic_windows() -> np.ndarray:
    """Indices into r of the windows _prefer_subharmonics scans.

    Entry [b - 60, k - 2] is the +/-2 window around round(b / k) (halves
    to even), clipped to [60, 800], for raw peak b and divisor k. Only the
    first b // 60 - 1 windows of row b - 60 are scanned (k <= b // 60).
    """
    best = _LAGS[:, None]
    ks = np.arange(2, PITCH_MAX_PERIOD // PITCH_MIN_PERIOD + 1)
    centers = np.round(best / ks).astype(np.int64)
    windows = np.clip(centers[..., None] + np.arange(-2, 3), PITCH_MIN_PERIOD, PITCH_MAX_PERIOD)
    return windows - PITCH_MIN_PERIOD


_SUBHARMONIC_WINDOWS = _subharmonic_windows()
_SUBHARMONIC_WINDOWS.setflags(write=False)


@dataclass
class PitchState:
    """Rolling input history plus the last accepted estimate."""

    history: np.ndarray = field(default_factory=lambda: np.zeros(HISTORY_LEN))
    last_period: int = 480


def _normalized_lag_correlations(history: np.ndarray):
    """r(T) for every lag T in [60, 800], as (lags, r) arrays.

    r(T) correlates the current frame (the last 960 history samples) with
    the window starting T samples earlier, normalized by both energies.
    A (k, 1760) stack of histories gives (k, 741) values, each row bitwise
    equal to that history's own call.
    """
    frame = history[..., PITCH_MAX_PERIOD:]
    # num_by_j[j] = sum_i history[j+i] * frame[i]; lag T is j = 800 - T (nothing
    # wraps, see the module docstring). An explicit ufunc output, since `*` on a
    # large temporary takes a complex loop that rounds differently from a frame's.
    cross = np.conj(np.fft.rfft(frame, HISTORY_LEN))
    np.multiply(np.fft.rfft(history), cross, out=cross)
    num = np.fft.irfft(cross, HISTORY_LEN).take(_STARTS, axis=-1)
    del cross
    sq = np.zeros(history.shape[:-1] + (HISTORY_LEN + 1,))
    np.cumsum(history * history, axis=-1, out=sq[..., 1:])
    e_delayed = sq.take(_STARTS + FRAME_LEN, axis=-1) - sq.take(_STARTS, axis=-1)
    r = num / np.sqrt(np.vecdot(frame, frame)[..., None] * e_delayed + 1e-15)
    return _LAGS, r


def _prefer_subharmonics(r: np.ndarray, best_lag: int) -> int:
    """Swap the raw peak for the shortest near-divisor period that holds up.

    The raw argmax often lands on a multiple of the true period (the
    correlation is just as high there). Scan candidate divisors best/k for
    k = 2, 3, ..., refine each within +/-2 samples (clipped to [60, 800],
    first maximum wins), and accept the smallest period whose correlation
    reaches SUBHARMONIC_RATIO of the peak: the candidate of the largest
    passing k.
    """
    peak = r[best_lag - PITCH_MIN_PERIOD]
    windows = _SUBHARMONIC_WINDOWS[best_lag - PITCH_MIN_PERIOD, : best_lag // PITCH_MIN_PERIOD - 1]
    values = r[windows]
    passing = np.flatnonzero(values.max(axis=1) >= SUBHARMONIC_RATIO * peak)
    if passing.size == 0:
        return best_lag
    last = passing[-1]
    return PITCH_MIN_PERIOD + int(windows[last, values[last].argmax()])


def estimate_pitch(state: PitchState, frame: np.ndarray):
    """Advance the history by one hop and estimate (period, strength).

    The frame is the current 960-sample analysis window; its last 480
    samples are the new hop (the first 480 already sit in the history).
    On silence the estimate falls back to the previous period with zero
    strength.
    """
    frame = np.asarray(frame, dtype=np.float64)
    if frame.shape != (FRAME_LEN,):
        raise ValueError(f"expected a frame of {FRAME_LEN} samples, got shape {frame.shape}")
    if not np.isfinite(frame).all():
        raise ValueError("non-finite samples in pitch frame")
    state.history = np.concatenate((state.history[HOP:], frame[FRAME_LEN - HOP :]))

    current = state.history[PITCH_MAX_PERIOD:]
    if float(current @ current) < SILENCE_FLOOR:
        return state.last_period, 0.0

    lags, r = _normalized_lag_correlations(state.history)
    best = int(lags[np.argmax(r)])
    best = _prefer_subharmonics(r, best)
    strength = min(max(float(r[best - PITCH_MIN_PERIOD]), 0.0), 1.0)
    state.last_period = best
    return best, strength


def track_pitch(histories: np.ndarray, last_period: int):
    """estimate_pitch's (periods, strengths), bitwise, for consecutive (k, 1760) history rows.

    `last_period` is the period accepted before row 0; silent rows repeat
    the last accepted period (a forward fill) with zero strength.
    """
    current = histories[:, PITCH_MAX_PERIOD:]
    voiced = np.vecdot(current, current) >= SILENCE_FLOOR
    _, r = _normalized_lag_correlations(histories)
    raw = PITCH_MIN_PERIOD + r.argmax(axis=-1)
    periods = np.full(len(r), last_period)
    for i in np.flatnonzero(voiced):
        periods[i] = _prefer_subharmonics(r[i], raw[i])
    strengths = np.where(voiced, r[np.arange(len(r)), periods - PITCH_MIN_PERIOD].clip(0.0, 1.0), 0.0)
    latest = np.maximum.accumulate(np.where(voiced, np.arange(len(r)), -1))
    return np.where(latest >= 0, periods[latest], last_period), strengths


def pitch_delayed_frame(state: PitchState, period: int) -> np.ndarray:
    """The 960-sample window ending `period` samples before the current frame."""
    if not PITCH_MIN_PERIOD <= period <= PITCH_MAX_PERIOD:
        raise ValueError(f"period {period} outside [{PITCH_MIN_PERIOD}, {PITCH_MAX_PERIOD}]")
    start = PITCH_MAX_PERIOD - period
    return state.history[start : start + FRAME_LEN].copy()


def comb_filter(x_spec: np.ndarray, p_spec: np.ndarray, band_corr: np.ndarray) -> np.ndarray:
    """Average the spectrum with its pitch-delayed twin, per-band weighted.

    Y(k) = (X(k) + a(k) P(k)) / (1 + a(k)), where a interpolates the squared
    clipped band correlations onto bins. A band with zero correlation passes
    through untouched; a fully coherent band keeps unit gain because the
    denominator renormalizes the sum. (..., 481) stacks with (..., 22)
    correlations filter row by row, each row bitwise equal to its own call.
    """
    x_spec = np.asarray(x_spec)
    p_spec = np.asarray(p_spec)
    band_corr = np.asarray(band_corr, dtype=np.float64)
    if x_spec.shape[-1:] != (NUM_BINS,) or p_spec.shape != x_spec.shape:
        raise ValueError("comb_filter expects two half spectra")
    if band_corr.shape != x_spec.shape[:-1] + (NUM_BANDS,):
        raise ValueError(f"expected {NUM_BANDS} band correlations, got shape {band_corr.shape}")
    alpha_band = band_corr.clip(0.0, 1.0) ** 2
    alpha = np.vecmat(alpha_band, BAND_WEIGHTS)
    return (x_spec + alpha * p_spec) / (1.0 + alpha)
