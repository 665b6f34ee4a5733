"""Feature computation: one core over blocks of frames, for streaming and whole signals.

frame_features turns k consecutive frames' spectra, pitch-delayed spectra
and pitch estimates into their features, carrying the derivative and flux
history. The streaming FeatureExtractor runs it on one frame per call
after estimate_pitch; analysis_blocks runs it on blocks of up to
ANALYSIS_CHUNK frames after track_pitch. Both yield SignalAnalysis rows.

The baseline vector is 42 values per frame, in a fixed layout:

    [0:22]   band cepstrum (orthonormal DCT of log band energies)
    [22:28]  first differences of cepstra 0..5
    [28:34]  second differences of cepstra 0..5
    [34:40]  first 6 DCT coefficients of the band pitch correlations
    [40]     pitch period scaled by the 800-sample search ceiling
    [41]     non-stationarity: mean absolute log-band-energy flux

Extended mode appends three spectral-shape scalars at [42:45]: centroid,
bandwidth and roll-off. Analysis keeps them raw and apart from the 42
(`extended_raw`); `feature_rows` is the one place that builds a network
or file row from the two. Feature files store the trio raw, and the
network sees it as (raw - mean) / std with the training-set statistics
that travel with the model. `mode_dim` maps a mode name to its width.
Derivative and flux histories start at zero, so the first frame's first
difference equals its cepstrum.

frame_features takes each frame's log band energies once. The cepstra
are their DCT; the differences and the flux are taken between
consecutive rows of two stacks, the cepstra and the logs, each with the
carried history on top as the rows before the block's first frame. One
concatenate packs the 42 values. Every stage works row by row, so a
k-row call and k one-row calls give the same bits.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, replace

import numpy as np

from rnx import bands, dsp, pitch as pitch_mod

E_FLOOR = 1e-10
NUM_BFCC = 22
NUM_DERIV = 6
NUM_PITCH_DCT = 6
REFERENCE_DIM = 42
EXTENDED_DIM = 45
MODE_DIMS = {"reference": REFERENCE_DIM, "extended": EXTENDED_DIM}
STD_FLOOR = 1e-6
ROLLOFF_THRESHOLD = 0.9
# frames per block in analysis_blocks: bounds each temporary to about 0.5 MB,
# and runs as fast as larger batches and faster than one whole-signal pass
ANALYSIS_CHUNK = 32
_EPS = 1e-15
_BINS = np.arange(dsp.NUM_BINS)  # spectral_shape's bin index
_BINS.setflags(write=False)


@dataclass
class FeatureStats:
    """Mean and floored std for the three extended features."""

    mean: np.ndarray
    std: np.ndarray

    def __post_init__(self):
        self.mean = np.asarray(self.mean, dtype=np.float64)
        self.std = np.maximum(np.asarray(self.std, dtype=np.float64), STD_FLOOR)
        if self.mean.shape != (3,) or self.std.shape != (3,):
            raise ValueError("stats cover exactly the three extended features")


@dataclass
class FeatureHistory:
    """Per-stream memory for the difference and flux features."""

    bfcc_prev: np.ndarray = field(default_factory=lambda: np.zeros(NUM_BFCC))
    bfcc_prev2: np.ndarray = field(default_factory=lambda: np.zeros(NUM_BFCC))
    log_energy_prev: np.ndarray = field(default_factory=lambda: np.zeros(bands.NUM_BANDS))


def log_band_energies(energies: np.ndarray) -> np.ndarray:
    return np.log(np.asarray(energies, dtype=np.float64) + E_FLOOR)


def bfcc_derivatives(cepstra: np.ndarray):
    """Backward first and second differences of cepstra 0..5, as two (k, 6) arrays.

    `cepstra` stacks k + 2 consecutive frames' cepstra, the two frames
    before the first of the k at the top; row i of each result belongs to
    row i + 2.
    """
    c, p, p2 = cepstra[2:, :NUM_DERIV], cepstra[1:-1, :NUM_DERIV], cepstra[:-2, :NUM_DERIV]
    return c - p, c - 2.0 * p + p2


def pitch_dct_features(corr: np.ndarray) -> np.ndarray:
    """First 6 DCT coefficients of the 22 band pitch correlations."""
    corr = np.asarray(corr, dtype=np.float64)
    if corr.shape[-1:] != (bands.NUM_BANDS,):
        raise ValueError(f"expected {bands.NUM_BANDS} correlations, got shape {corr.shape}")
    return dsp.dct_ii(corr)[..., :NUM_PITCH_DCT]


def nonstationarity(log_energies: np.ndarray) -> np.ndarray:
    """Mean absolute change of log band energy, (k,), for the rows after the first of k + 1.

    The sum over the 22 bands divided by 22 is bitwise np.mean's value.
    """
    flux = log_energies[1:] - log_energies[:-1]
    return np.abs(flux, out=flux).sum(axis=-1) / bands.NUM_BANDS


def spectral_shape(spectrum: np.ndarray) -> np.ndarray:
    """Raw (centroid, bandwidth, roll-off) of a spectrum, from one bin power.

    Centroid is the power-weighted mean bin index and bandwidth the
    power-weighted spread around it, both in bin units. Roll-off is the
    largest bin h with cumulative power below ROLLOFF_THRESHOLD * total
    power: zero-energy frames roll off at 0, and a single occupied bin k
    rolls off at k - 1 (the cumulative sum first meets the total at k
    itself). (..., bins) spectra give (..., 3) rows.
    """
    power = np.abs(np.asarray(spectrum))
    np.square(power, out=power)
    total = power.sum(axis=-1)
    denom = total + _EPS
    trio = np.empty(power.shape[:-1] + (3,))
    centroid = np.divide((_BINS * power).sum(axis=-1), denom, out=trio[..., 0])
    spread = _BINS - centroid[..., None]
    np.square(spread, out=spread)
    spread *= power
    np.sqrt(spread.sum(axis=-1) / denom, out=trio[..., 1])
    below = (power.cumsum(axis=-1, out=power) < ROLLOFF_THRESHOLD * total[..., None]).sum(axis=-1)
    np.maximum(below - 1, 0, out=trio[..., 2])
    return trio


def compute_stats(raw_trios: np.ndarray) -> FeatureStats:
    """Population mean/std of the raw extended-feature triples, std floored."""
    raw_trios = np.asarray(raw_trios, dtype=np.float64)
    if raw_trios.ndim != 2 or raw_trios.shape[1] != 3:
        raise ValueError(f"expected an (n, 3) array of raw triples, got shape {raw_trios.shape}")
    if raw_trios.shape[0] < 2:
        raise ValueError("need at least 2 frames to compute feature statistics")
    return FeatureStats(raw_trios.mean(axis=0), raw_trios.std(axis=0))


def assemble_features(cepstrum, derivs, pitch_dct, period, flux) -> np.ndarray:
    """Pack the parts of one frame, or of a frame-major stack, into the fixed 42-value layout.

    `derivs` is the pair of first and second differences, as bfcc_derivatives returns it.
    """
    first, second = derivs
    base = np.concatenate(
        (cepstrum, first, second, pitch_dct, np.array((period / pitch_mod.PITCH_MAX_PERIOD, flux)).T), axis=-1
    )
    if base.shape[-1] != REFERENCE_DIM:
        raise ValueError(f"feature parts assemble to {base.shape}, expected ({REFERENCE_DIM},)")
    return base


def mode_dim(mode: str) -> int:
    """The row width of a feature mode: 42 for "reference", 45 for "extended"."""
    if mode not in MODE_DIMS:
        raise ValueError(f"unknown mode {mode!r}")
    return MODE_DIMS[mode]


def feature_rows(
    features: np.ndarray, extended_raw: np.ndarray, feature_dim: int, stats: FeatureStats | None = None
) -> np.ndarray:
    """Rows of width feature_dim: the 42 features, then at width 45 the trio.

    Takes one frame or a frame-major stack. The trio is appended raw, or as
    (raw - mean) / std when stats are given.
    """
    if feature_dim == EXTENDED_DIM:
        trio = extended_raw if stats is None else (extended_raw - stats.mean) / stats.std
        features = np.concatenate((features, trio), axis=-1)
    if features.shape[-1] != feature_dim:
        raise ValueError(f"feature rows are {features.shape[-1]} wide, expected {feature_dim}")
    return features


@dataclass
class SignalAnalysis:
    """Analysis results as (T, ...) arrays, plus the clean frames' band energies.

    The blocks analysis_blocks yields and FeatureExtractor.process's one-row
    results also carry their frames' spectra and pitch-delayed spectra;
    analyze_signal's whole-signal result does not.
    """

    band_energies: np.ndarray
    band_corr: np.ndarray
    period: np.ndarray
    pitch_strength: np.ndarray
    features: np.ndarray  # 42 baseline values per frame, never standardized
    extended_raw: np.ndarray  # raw (centroid, bandwidth, rolloff) per frame
    clean_energies: np.ndarray | None
    spectrum: np.ndarray | None = None
    pitch_spectrum: np.ndarray | None = None


def frame_features(spectrum, pitch_spectrum, period, strength, history: FeatureHistory):
    """The features of k consecutive frames from their (k, 481) spectra and pitch-delayed spectra.

    `period` and `strength` are the frames' pitch estimates, (k,) each, and
    `history` holds the cepstra and log band energies of the frames before
    them. Each frame's derivatives and flux take the rows before it as
    history, the carried history before the first, so one k-row call equals
    k one-row calls bitwise. Returns the k-row SignalAnalysis (no clean
    energies) and the history after the last frame.
    """
    corr, energies = bands.band_correlation(spectrum, pitch_spectrum)
    logs = log_band_energies(energies)
    cepstrum = dsp.dct_ii(logs)
    # the carried history on top: the rows before the block's first frame
    cepstra = np.concatenate(((history.bfcc_prev2, history.bfcc_prev), cepstrum))
    logs = np.concatenate(((history.log_energy_prev,), logs))
    features = assemble_features(
        cepstrum, bfcc_derivatives(cepstra), pitch_dct_features(corr), period, nonstationarity(logs)
    )
    analysis = SignalAnalysis(
        energies, corr, period, strength, features, spectral_shape(spectrum), None, spectrum, pitch_spectrum
    )
    return analysis, FeatureHistory(cepstra[-1], cepstra[-2], logs[-1])


class FeatureExtractor:
    """Streaming per-frame analysis shared by training and inference.

    Owns the pitch and history state for one audio stream. Each call takes
    the full 960-sample analysis window (previous hop + new hop) and
    returns frame_features' one-row SignalAnalysis. Extended features are
    returned raw; feature_rows builds the network input from them.
    """

    def __init__(self):
        self.pitch_state = pitch_mod.PitchState()
        self.history = FeatureHistory()

    def process(self, frame: np.ndarray) -> SignalAnalysis:
        # estimate_pitch rejects a bad frame before it changes any state
        period, strength = pitch_mod.estimate_pitch(self.pitch_state, frame)
        frames = np.empty((2, dsp.FRAME_LEN))
        frames[0] = frame
        frames[1] = pitch_mod.pitch_delayed_frame(self.pitch_state.history, period)
        spectra = dsp.analyze_frame(frames)
        analysis, self.history = frame_features(
            spectra[:1], spectra[1:], np.array((period,)), np.array((strength,)), self.history
        )
        return analysis


def analysis_blocks(x: np.ndarray, clean: np.ndarray | None = None):
    """Yield a fresh FeatureExtractor's results for the frames x[480 t : 480 t + 960], in blocks.

    Each block is frame_features' SignalAnalysis of up to ANALYSIS_CHUNK
    consecutive frames; the pitch fallback, the last hop's pitch partial
    and the derivative and flux histories carry from block to block. The
    pitch search is track_pitch, bitwise the extractor's estimate_pitch, so
    every value is bitwise equal to the extractor's. As in the extractor,
    frame 0's first hop never enters the pitch history (1280 zeros, then
    x[480:960]). `clean` adds the band energies of its frames. The signal
    is checked before the first block.
    """
    x = np.asarray(x, dtype=np.float64)
    signals = [x] if clean is None else [x, np.asarray(clean, dtype=np.float64)]
    if x.ndim != 1 or signals[-1].shape != x.shape:
        raise ValueError("expected a mono signal, and a clean signal as long")
    if not all(np.isfinite(s).all() for s in signals):
        raise ValueError("non-finite samples in signal")
    frames = [dsp.framed(s) for s in signals]
    pitch_input = np.concatenate((np.zeros(pitch_mod.PITCH_MAX_PERIOD + dsp.HOP), x[dsp.HOP :]))
    histories = dsp.framed(pitch_input, pitch_mod.HISTORY_LEN)
    last_period, partial = pitch_mod.PitchState().last_period, None
    history = FeatureHistory()
    for start in range(0, len(histories), ANALYSIS_CHUNK):
        rows = slice(start, start + ANALYSIS_CHUNK)
        period, strength, partial = pitch_mod.track_pitch(histories[rows], last_period, partial)
        last_period = period[-1]
        delayed = [pitch_mod.pitch_delayed_frame(h, p) for h, p in zip(histories[rows], period)]
        pitch_spectrum = dsp.analyze_frame(np.stack(delayed))
        spectrum = dsp.analyze_frame(frames[0][rows])
        block, history = frame_features(spectrum, pitch_spectrum, period, strength, history)
        if clean is not None:
            block.clean_energies = bands.band_energies(dsp.analyze_frame(frames[1][rows]))
        yield block


def analyze_signal(x: np.ndarray, clean: np.ndarray | None = None) -> SignalAnalysis:
    """analysis_blocks' results for the whole signal as (T, ...) arrays, without the spectra."""
    blocks = [replace(b, spectrum=None, pitch_spectrum=None) for b in analysis_blocks(x, clean)]
    if not blocks:  # shorter than one frame
        energies, corr, features, trio = (np.zeros((0, n)) for n in (bands.NUM_BANDS,) * 2 + (REFERENCE_DIM, 3))
        clean_energies = None if clean is None else np.zeros((0, bands.NUM_BANDS))
        period, strength = np.zeros(0, dtype=np.int64), np.zeros(0)
        return SignalAnalysis(energies, corr, period, strength, features, trio, clean_energies)

    def joined(name):
        arrays = [getattr(b, name) for b in blocks]
        return None if arrays[0] is None else np.concatenate(arrays)

    return SignalAnalysis(*(joined(f.name) for f in fields(SignalAnalysis)))
