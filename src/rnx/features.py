"""Per-frame feature computation.

The baseline vector is 42 values per frame, in a fixed layout:

    [0:22]   band cepstrum (orthonormal DCT of log band energies)
    [22:28]  first differences of cepstra 0..5
    [28:34]  second differences of cepstra 0..5
    [34:40]  first 6 DCT coefficients of the band pitch correlations
    [40]     pitch period scaled by the 800-sample search ceiling
    [41]     non-stationarity: mean absolute log-band-energy flux

Extended mode appends three spectral-shape scalars (centroid, bandwidth,
roll-off), standardized with training-set statistics that travel with the
model. Derivative and flux histories start at zero, so the first frame's
first difference equals its cepstrum.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from rnx import bands, dsp, pitch as pitch_mod

E_FLOOR = 1e-10
NUM_BFCC = 22
NUM_DERIV = 6
NUM_PITCH_DCT = 6
REFERENCE_DIM = 42
EXTENDED_DIM = 45
STD_FLOOR = 1e-6
ROLLOFF_THRESHOLD = 0.9
_EPS = 1e-15


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

    def update(self, bfcc_now: np.ndarray, log_energies_now: np.ndarray):
        self.bfcc_prev2 = self.bfcc_prev
        self.bfcc_prev = np.asarray(bfcc_now, dtype=np.float64).copy()
        self.log_energy_prev = np.asarray(log_energies_now, dtype=np.float64).copy()


def log_band_energies(energies: np.ndarray) -> np.ndarray:
    return np.log(np.asarray(energies, dtype=np.float64) + E_FLOOR)


def bfcc(energies: np.ndarray) -> np.ndarray:
    """Cepstrum of the 22 band energies: orthonormal DCT of their logs."""
    return dsp.dct_ii(log_band_energies(energies))


def bfcc_derivatives(history: FeatureHistory, current: np.ndarray) -> np.ndarray:
    """Backward first and second differences of cepstra 0..5, 12 values."""
    c = np.asarray(current, dtype=np.float64)[:NUM_DERIV]
    p = history.bfcc_prev[:NUM_DERIV]
    p2 = history.bfcc_prev2[:NUM_DERIV]
    return np.concatenate((c - p, c - 2.0 * p + p2))


def pitch_dct_features(corr: np.ndarray) -> np.ndarray:
    """First 6 DCT coefficients of the 22 band pitch correlations."""
    corr = np.asarray(corr, dtype=np.float64)
    if corr.shape != (bands.NUM_BANDS,):
        raise ValueError(f"expected {bands.NUM_BANDS} correlations, got shape {corr.shape}")
    return dsp.dct_ii(corr)[:NUM_PITCH_DCT]


def nonstationarity(history: FeatureHistory, energies: np.ndarray) -> float:
    """Mean absolute change of log band energy since the previous frame."""
    flux = np.abs(log_band_energies(energies) - history.log_energy_prev)
    return float(np.mean(flux))


def spectral_shape(
    spectrum: np.ndarray, centroid: float | None = None, threshold: float = ROLLOFF_THRESHOLD
) -> np.ndarray:
    """Raw (centroid, bandwidth, roll-off) of a spectrum, from one bin power.

    Centroid is the power-weighted mean bin index and bandwidth the
    power-weighted spread around `centroid` (default: that mean), both in
    bin units. Roll-off is the largest bin h with cumulative power below
    threshold * total power: zero-energy frames roll off at 0, and a single
    occupied bin k rolls off at k - 1 (the cumulative sum first meets the
    total at k itself).
    """
    if not 0.0 < threshold < 1.0:
        raise ValueError(f"threshold {threshold} outside (0, 1)")
    power = np.abs(np.asarray(spectrum)) ** 2
    k = np.arange(power.shape[0])
    total = power.sum()
    mean = (k * power).sum() / (total + _EPS)
    if centroid is None:
        centroid = mean
    bandwidth = np.sqrt(((k - centroid) ** 2 * power).sum() / (total + _EPS))
    rolloff = max(int((np.cumsum(power) < threshold * total).sum()) - 1, 0) if total > 0.0 else 0
    return np.array((mean, bandwidth, rolloff), dtype=np.float64)


def spectral_centroid(spectrum: np.ndarray) -> float:
    """Power-weighted mean bin index, in bin units."""
    return float(spectral_shape(spectrum)[0])


def spectral_bandwidth(spectrum: np.ndarray, centroid: float) -> float:
    """Power-weighted spread around the centroid, in bin units."""
    return float(spectral_shape(spectrum, centroid)[1])


def spectral_rolloff(spectrum: np.ndarray, threshold: float = ROLLOFF_THRESHOLD) -> int:
    """Largest bin h with cumulative power below threshold * total power."""
    return int(spectral_shape(spectrum, threshold=threshold)[2])


def rms(frame: np.ndarray) -> float:
    frame = np.asarray(frame, dtype=np.float64)
    return float(np.sqrt(np.mean(frame * frame)))


def spectral_flatness(spectrum: np.ndarray) -> float:
    """Geometric over arithmetic mean of bin powers; 1 for flat, ~0 for tonal."""
    power = np.abs(np.asarray(spectrum)) ** 2 + _EPS
    return float(np.exp(np.mean(np.log(power))) / np.mean(power))


def standardize_extended(raw: np.ndarray, stats: FeatureStats) -> np.ndarray:
    raw = np.asarray(raw, dtype=np.float64)
    return (raw - stats.mean) / stats.std


def compute_stats(raw_trios: np.ndarray) -> FeatureStats:
    """Population mean/std of the raw extended-feature triples, std floored."""
    raw_trios = np.asarray(raw_trios, dtype=np.float64)
    if raw_trios.ndim != 2 or raw_trios.shape[1] != 3:
        raise ValueError(f"expected an (n, 3) array of raw triples, got shape {raw_trios.shape}")
    if raw_trios.shape[0] < 2:
        raise ValueError("need at least 2 frames to compute feature statistics")
    return FeatureStats(raw_trios.mean(axis=0), raw_trios.std(axis=0))


def assemble_features(
    mode: str,
    bfcc_vec: np.ndarray,
    derivs: np.ndarray,
    pitch_dct: np.ndarray,
    period: int,
    flux: float,
    extended_raw: np.ndarray | None = None,
    stats: FeatureStats | None = None,
) -> np.ndarray:
    """Pack the per-frame parts into the fixed 42- or 45-value layout."""
    if mode not in ("reference", "extended"):
        raise ValueError(f"unknown mode {mode!r}")
    base = np.concatenate(
        (
            np.asarray(bfcc_vec, dtype=np.float64),
            np.asarray(derivs, dtype=np.float64),
            np.asarray(pitch_dct, dtype=np.float64),
            [period / pitch_mod.PITCH_MAX_PERIOD, flux],
        )
    )
    if base.shape != (REFERENCE_DIM,):
        raise ValueError(f"feature parts assemble to {base.shape}, expected ({REFERENCE_DIM},)")
    if mode == "reference":
        if extended_raw is not None:
            raise ValueError("reference mode takes no extended features")
        return base
    if extended_raw is None:
        raise ValueError("extended mode requires the raw centroid/bandwidth/roll-off triple")
    trio = np.asarray(extended_raw, dtype=np.float64)
    if trio.shape != (3,):
        raise ValueError(f"expected 3 extended values, got shape {trio.shape}")
    if stats is not None:
        trio = standardize_extended(trio, stats)
    return np.concatenate((base, trio))


@dataclass
class FrameAnalysis:
    """Everything one analysis frame yields, before any filtering."""

    spectrum: np.ndarray
    pitch_spectrum: np.ndarray
    band_energies: np.ndarray
    band_corr: np.ndarray
    period: int
    pitch_strength: float
    features: np.ndarray  # 42 baseline values, never standardized
    extended_raw: np.ndarray  # raw (centroid, bandwidth, rolloff)


class FeatureExtractor:
    """Streaming per-frame analysis shared by training and inference.

    Owns the pitch and history state for one audio stream. Each call takes
    the full 960-sample analysis window (previous hop + new hop) and
    returns a FrameAnalysis. Extended features are returned raw; callers
    standardize with whatever stats apply.
    """

    def __init__(self):
        self.pitch_state = pitch_mod.PitchState()
        self.history = FeatureHistory()

    def process(self, frame: np.ndarray) -> FrameAnalysis:
        # estimate_pitch rejects a bad frame before it changes any state
        period, strength = pitch_mod.estimate_pitch(self.pitch_state, frame)
        delayed = pitch_mod.pitch_delayed_frame(self.pitch_state, period)
        spectrum, pitch_spectrum = dsp.analyze_frame(np.stack((frame, delayed)))
        corr, energies = bands.band_correlation(spectrum, pitch_spectrum)

        cepstrum = bfcc(energies)
        derivs = bfcc_derivatives(self.history, cepstrum)
        flux = nonstationarity(self.history, energies)
        base = assemble_features("reference", cepstrum, derivs, pitch_dct_features(corr), period, flux)
        self.history.update(cepstrum, log_band_energies(energies))
        return FrameAnalysis(
            spectrum=spectrum,
            pitch_spectrum=pitch_spectrum,
            band_energies=energies,
            band_corr=corr,
            period=period,
            pitch_strength=strength,
            features=base,
            extended_raw=spectral_shape(spectrum),
        )
