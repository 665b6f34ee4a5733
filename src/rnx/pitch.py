"""Pitch-period estimation and the pitch comb filter.

The estimator keeps 1760 samples of history: the current 960-sample frame
(two 480-sample hops) plus 800 extra samples so every candidate lag in
[60, 800] has a full delayed window to correlate against. Voiced frames
then get a comb filter that averages the spectrum with its pitch-delayed
twin, weighted per band by how coherent the two actually are.

r(T) is the frame's correlation with the window T samples earlier,
normalized by both energies. Its numerator and the delayed window's
energy are sums over the frame's samples, so each splits into one half
per hop. A hop's "partial" holds, for every lag T in [60, 800], the sum
over the hop of x[i] * x[i - T] and of x[i - T]^2. It reads only the
hop's "segment": its 480 samples plus the 800 before them (1280 samples).
A frame's numerator and delayed energy are its first hop's partial plus
its second hop's, and each hop's partial is computed once, although two
frames contain the hop.

The numerators come from one circular cross-correlation of the segment
with its hop, through real FFTs of the segment length (1280). The
circular correlation at offset j sums segment[(j + i) mod 1280] * hop[i]
over the 480 hop samples. Lag T reads offset j = 800 - T, and for every
j <= 740 the last index j + 479 <= 1219 stays inside the segment, so no
term wraps: each value is the linear correlation. The delayed energies
are differences of one running sum of the segment's squares. A lag whose
delayed window is digital silence gets a numerator of exactly 0.

The streaming state (PitchState) carries the partial of the latest hop,
which is the next frame's first hop. A silent frame runs no FFT and
carries nothing; the next voiced frame then computes its first hop's
partial from the first 1280 history samples. track_pitch computes the
partials of a block of consecutive frames in one stack, takes the first
hop's from its caller, and returns the last one to carry into the next
block. Either way each value is bitwise the same.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from rnx.bands import BAND_WEIGHTS, NUM_BANDS
from rnx.dsp import FRAME_LEN, HOP, NUM_BINS

PITCH_MIN_PERIOD = 60
PITCH_MAX_PERIOD = 800
HISTORY_LEN = FRAME_LEN + PITCH_MAX_PERIOD
SEGMENT_LEN = HOP + PITCH_MAX_PERIOD  # one hop and the 800 samples before it

# Correlation at a candidate sub-period must reach this fraction of the raw
# peak to override it.
SUBHARMONIC_RATIO = 0.9
SILENCE_FLOOR = 1e-10

_LAGS = np.arange(PITCH_MIN_PERIOD, PITCH_MAX_PERIOD + 1)
_LAGS.setflags(write=False)
# lag T reads the window delayed by T, which starts at offset 800 - T of the
# segment: lags 60..800 are offsets 740 down to 0, and the windows end 480 later
_STARTS = slice(PITCH_MAX_PERIOD - PITCH_MIN_PERIOD, None, -1)
_ENDS = slice(SEGMENT_LEN - PITCH_MIN_PERIOD, HOP - 1, -1)


def _subharmonic_tables():
    """Indices into r of the windows _prefer_subharmonics scans, and the divisor of each.

    windows[b - 60, k - 1] is the +/-2 window around round(b / k) (halves to
    even), clipped to [60, 800], for raw peak b and divisor k = 2 .. 13, and
    b itself five times for k = 1. divisors[b - 60, k - 1] is k where row b
    scans divisor k (k <= b // 60) and 0 where it does not.
    """
    ks = np.arange(1, PITCH_MAX_PERIOD // PITCH_MIN_PERIOD + 1)
    centers = np.round(_LAGS[:, None] / ks).astype(np.int64)
    windows = np.clip(centers[..., None] + np.arange(-2, 3), PITCH_MIN_PERIOD, PITCH_MAX_PERIOD)
    windows[:, 0] = _LAGS[:, None]
    divisors = np.where(ks <= _LAGS[:, None] // PITCH_MIN_PERIOD, ks, 0)
    return windows - PITCH_MIN_PERIOD, divisors


_SUBHARMONIC_WINDOWS, _SUBHARMONIC_DIVISORS = _subharmonic_tables()
_SUBHARMONIC_WINDOWS.setflags(write=False)
_SUBHARMONIC_DIVISORS.setflags(write=False)


@dataclass
class PitchState:
    """Rolling input history, the last accepted estimate and the latest hop's partial.

    `partial` is None after a silent frame (see the module docstring).
    """

    history: np.ndarray = field(default_factory=lambda: np.zeros(HISTORY_LEN))
    last_period: int = 480
    partial: np.ndarray | None = None


def _hop_partials(segments: np.ndarray) -> np.ndarray:
    """The partial of the hop ending each 1280-sample segment, as (..., 2, 741).

    Row 0 holds the numerators and row 1 the delayed energies, lag 60
    first. A (k, 1280) stack gives (k, 2, 741) values, each bitwise equal
    to that segment's own call.
    """
    partials = np.empty(segments.shape[:-1] + (2, _LAGS.size))
    num, energy = partials[..., 0, :], partials[..., 1, :]
    # offset j of the cross-correlation holds sum_i segment[j+i] * hop[i] (nothing
    # wraps, see the module docstring). An explicit ufunc output, since `*` on a
    # large temporary takes a complex loop that rounds differently from a row's.
    cross = np.fft.rfft(segments[..., PITCH_MAX_PERIOD:], SEGMENT_LEN)
    np.conjugate(cross, out=cross)
    np.multiply(np.fft.rfft(segments), cross, out=cross)
    np.copyto(num, np.fft.irfft(cross, SEGMENT_LEN)[..., _STARTS])
    del cross
    sq = np.zeros(segments.shape[:-1] + (SEGMENT_LEN + 1,))
    np.square(segments, out=sq[..., 1:])
    np.cumsum(sq[..., 1:], axis=-1, out=sq[..., 1:])
    np.subtract(sq[..., _ENDS], sq[..., _STARTS], out=energy)
    # a delayed window of digital silence correlates to exactly 0; the FFT leaves
    # round-off there, which the 1e-15 floor of r would scale up to about 1e-8
    np.copyto(num, 0.0, where=energy == 0.0)
    return partials


def _frame_correlations(first: np.ndarray, second: np.ndarray, energy) -> np.ndarray:
    """r(T) for every lag T in [60, 800] from the partials of a frame's two hops.

    `energy` is the frame's own energy. (k, 2, 741) partials with (k, 1)
    energies give (k, 741) values, each row bitwise equal to that frame's
    own call.
    """
    total = first + second
    # in place, so that a block makes one (k, 741) temporary for r
    r = np.multiply(energy, total[..., 1, :])
    r += 1e-15
    np.sqrt(r, out=r)
    return np.divide(total[..., 0, :], r, out=r)


def _prefer_subharmonics(r: np.ndarray, best_lag):
    """Swap the raw peak for the shortest near-divisor period that holds up.

    The raw argmax often lands on a multiple of the true period (the
    correlation is just as high there). Scan candidate divisors best/k for
    k = 2, 3, ..., best // 60, refine each within +/-2 samples (clipped to
    [60, 800], first maximum wins), and accept the smallest period whose
    correlation reaches SUBHARMONIC_RATIO of the peak: the candidate of the
    largest passing k. (n, 741) curves with (n,) peaks give (n,) periods;
    one curve with one peak gives an array of one.
    """
    best = np.atleast_1d(best_lag) - PITCH_MIN_PERIOD
    rows = np.arange(best.size)[:, None]
    windows = _SUBHARMONIC_WINDOWS[best]  # (n, divisor, 5)
    values = r.reshape(best.size, _LAGS.size)[rows[..., None], windows]
    # column 0 is k = 1: the peak itself, which stands when no divisor passes
    passing = values.max(axis=-1) >= SUBHARMONIC_RATIO * values[:, :1, 0]
    last = (passing * _SUBHARMONIC_DIVISORS[best]).argmax(axis=-1)[:, None]
    chosen = windows[rows, last, values[rows, last].argmax(axis=-1)]
    return PITCH_MIN_PERIOD + chosen[:, 0]


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
    energy = current @ current
    if energy < SILENCE_FLOOR:
        state.partial = None
        return state.last_period, 0.0

    first = state.partial if state.partial is not None else _hop_partials(state.history[:SEGMENT_LEN])
    state.partial = _hop_partials(state.history[HOP:])
    r = _frame_correlations(first, state.partial, energy)
    best = int(_prefer_subharmonics(r, PITCH_MIN_PERIOD + np.argmax(r))[0])
    strength = min(max(float(r[best - PITCH_MIN_PERIOD]), 0.0), 1.0)
    state.last_period = best
    return best, strength


def track_pitch(histories: np.ndarray, last_period: int, partial: np.ndarray | None = None):
    """estimate_pitch's (periods, strengths), bitwise, for consecutive (k, 1760) history rows.

    `last_period` and `partial` are the state before row 0: the period
    accepted last, and the partial of row 0's first hop (None: computed
    here). Silent rows repeat the last accepted period (a forward fill)
    with zero strength. Unlike estimate_pitch, this correlates the hops of
    silent rows too, in the same stack, and drops their r. Returns the
    periods, the strengths and the partial of the last row's second hop,
    the next row's first.
    """
    current = histories[:, PITCH_MAX_PERIOD:]
    energy = np.vecdot(current, current)
    voiced = energy >= SILENCE_FLOOR
    if partial is None:
        partial = _hop_partials(histories[0, :SEGMENT_LEN])
    # partials[i] is row i's first hop, partials[i + 1] its second
    partials = np.concatenate((partial[None], _hop_partials(histories[:, HOP:])))
    r = _frame_correlations(partials[:-1], partials[1:], energy[:, None])[voiced]
    found = _prefer_subharmonics(r, PITCH_MIN_PERIOD + r.argmax(axis=-1))
    strengths = np.zeros(len(histories))
    strengths[voiced] = r[np.arange(len(r)), found - PITCH_MIN_PERIOD].clip(0.0, 1.0)
    # each row takes the latest voiced row's period; index -1 (none yet) reads last_period
    periods = np.append(found, last_period)[np.cumsum(voiced) - 1]
    return periods, strengths, partials[-1].copy()


def pitch_delayed_frame(history: np.ndarray, period: int) -> np.ndarray:
    """A view of the 960-sample window `period` samples behind a 1760-sample history row's frame."""
    if not PITCH_MIN_PERIOD <= period <= PITCH_MAX_PERIOD:
        raise ValueError(f"period {period} outside [{PITCH_MIN_PERIOD}, {PITCH_MAX_PERIOD}]")
    start = PITCH_MAX_PERIOD - period
    return history[start : start + FRAME_LEN]


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
    alpha_band = np.maximum(band_corr, 0.0)
    np.minimum(alpha_band, 1.0, out=alpha_band)
    np.square(alpha_band, out=alpha_band)
    alpha = np.vecmat(alpha_band, BAND_WEIGHTS)
    return (x_spec + alpha * p_spec) / (1.0 + alpha)
