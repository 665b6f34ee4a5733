"""The 22-band spectral model and per-band mask arithmetic.

Band centers follow a coarse auditory spacing: linear at 200 Hz up to
1.6 kHz, then widening toward 20 kHz. Each band is a triangular weighting
over rfft bins between neighboring centers, so interior bins always split
their energy between exactly two bands and the weights sum to one at every
bin. Bins above the last center (20 kHz sits at bin 400 of 480) carry flat
weight 1 in the top band; without that extension any mask would silently
zero the top 4 kHz.
"""

from __future__ import annotations

import numpy as np

from rnx.dsp import NUM_BINS

NUM_BANDS = 22
BAND_CENTERS_HZ = np.array(
    [0, 200, 400, 600, 800, 1000, 1200, 1400, 1600, 2000, 2400,
     2800, 3200, 4000, 4800, 5600, 6800, 8000, 9600, 12000, 15600, 20000],
    dtype=np.int64,
)
BAND_CENTER_BINS = BAND_CENTERS_HZ // 50

ENERGY_FLOOR = 1e-10
MASK_SENTINEL = -1.0


def _triangle_weights() -> np.ndarray:
    w = np.zeros((NUM_BANDS, NUM_BINS))
    edges = BAND_CENTER_BINS
    for k in range(NUM_BINS):
        if k >= edges[-1]:
            w[NUM_BANDS - 1, k] = 1.0
            continue
        i = int(np.searchsorted(edges, k, side="right")) - 1
        frac = (k - edges[i]) / (edges[i + 1] - edges[i])
        w[i, k] = 1.0 - frac
        w[i + 1, k] = frac
    return w


BAND_WEIGHTS = _triangle_weights()
BAND_WEIGHTS.setflags(write=False)


def band_energies(spectrum: np.ndarray) -> np.ndarray:
    """Triangle-weighted power per band: (..., 481) spectra give (..., 22).

    One matrix-vector product per spectrum, so each row of a stack equals its own call.
    """
    spectrum = np.asarray(spectrum)
    if spectrum.shape[-1:] != (NUM_BINS,):
        raise ValueError(f"expected {NUM_BINS} bins, got shape {spectrum.shape}")
    power = spectrum.real**2 + spectrum.imag**2
    return np.matvec(BAND_WEIGHTS, power)


def band_correlation(spectrum: np.ndarray, pitch_spectrum: np.ndarray):
    """Normalized per-band correlation between a spectrum and its pitch-delayed twin.

    Returns (corr, energies). corr is the real part of the cross-spectrum,
    band-weighted, normalized by the geometric mean of the two band
    energies and clamped to [-1, 1]. energies is band_energies(spectrum),
    returned so that callers need not compute it again. The pitch power
    and the cross power are band-weighted by one product over a
    (..., 481, 2) operand; the normalization and the clamp then run in
    place. (..., 481) stacks give (..., 22) results, each row bitwise equal
    to its own call.
    """
    spectrum = np.asarray(spectrum)
    pitch_spectrum = np.asarray(pitch_spectrum)
    if spectrum.shape[-1:] != (NUM_BINS,) or pitch_spectrum.shape != spectrum.shape:
        raise ValueError("band_correlation expects two half spectra of matching length")
    ex = band_energies(spectrum)
    xr, xi = spectrum.real, spectrum.imag
    pr, pi = pitch_spectrum.real, pitch_spectrum.imag
    products = np.empty(spectrum.shape + (2,))
    np.add(np.square(pr), np.square(pi), out=products[..., 0])
    np.add(xr * pr, xi * pi, out=products[..., 1])
    banded = BAND_WEIGHTS @ products
    ep, num = banded[..., 0], banded[..., 1]
    corr = ex * ep
    corr += 1e-15
    np.sqrt(corr, out=corr)
    np.divide(num, corr, out=corr)
    np.maximum(corr, -1.0, out=corr)
    return np.minimum(corr, 1.0, out=corr), ex


def compute_irm(clean_energies: np.ndarray, noisy_energies: np.ndarray) -> np.ndarray:
    """Per-band energy-ratio mask clip(Ec/En, 0, 1), with -1 marking dead bands.

    Takes the clean and noisy band energies, 22 per frame with any leading
    axes. A band whose noisy energy falls below the floor carries no usable
    evidence; it gets the sentinel value -1 so training can skip it.
    """
    ec = np.asarray(clean_energies, dtype=np.float64)
    en = np.asarray(noisy_energies, dtype=np.float64)
    if ec.shape != en.shape or ec.shape[-1:] != (NUM_BANDS,):
        raise ValueError(f"expected matching clean and noisy energies of {NUM_BANDS} bands")
    mask = (ec / np.maximum(en, ENERGY_FLOOR)).clip(0.0, 1.0)
    mask[en < ENERGY_FLOOR] = MASK_SENTINEL
    return mask


def interpolate_gains(mask: np.ndarray) -> np.ndarray:
    """Spread a 22-band mask to 481 per-bin amplitude gains.

    The per-band value is an energy ratio; its square root is the amplitude
    gain, and the sqrt is taken per band *before* the triangular spread:
    g(k) = sum_b w_b(k) * sqrt(m_b). A uniform mask of 0.25 therefore maps
    to gain 0.5 everywhere, and an all-ones mask is the exact identity.
    (..., 22) masks give (..., 481) gains, each row bitwise equal to its own call.
    """
    mask = np.asarray(mask, dtype=np.float64)
    if mask.shape[-1:] != (NUM_BANDS,):
        raise ValueError(f"expected {NUM_BANDS} band values, got shape {mask.shape}")
    if not (mask >= 0.0).all():  # also catches NaN
        raise ValueError("mask contains negative or NaN values; replace sentinels before interpolation")
    gains = np.vecmat(np.sqrt(mask), BAND_WEIGHTS)
    np.maximum(gains, 0.0, out=gains)
    return np.minimum(gains, 1.0, out=gains)


def apply_gains(spectrum: np.ndarray, gains: np.ndarray) -> np.ndarray:
    """Scale each bin of a half spectrum (or a stack of them) by its gain."""
    spectrum = np.asarray(spectrum)
    gains = np.asarray(gains, dtype=np.float64)
    if spectrum.shape[-1:] != (NUM_BINS,) or gains.shape != spectrum.shape:
        raise ValueError("apply_gains expects a half spectrum and per-bin gains of matching length")
    return spectrum * gains
