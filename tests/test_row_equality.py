"""Each row of a (k, ...) stack gives the bits of its own one-row call.

process_hop runs the shared band, comb and feature code on one-row
blocks and denoise_buffer on blocks of up to 32 rows, and the two are
bitwise equal only while every stage keeps each row independent of the
others, in-place and `out=` forms included.
"""

import numpy as np
import pytest

from rnx import bands, dsp
from rnx.features import FeatureHistory, frame_features, spectral_shape
from rnx.pitch import comb_filter

SIZES = (1, 2, 7, 32)
POOL = 40


def _spectra():
    """(POOL, 481) spectra and pitch-delayed spectra with the edge rows at the top.

    Row 0 is all zeros, row 1 has a single occupied bin, and row 2's
    pitch twin is its negation (correlation -1 in every band). The rest
    are random at levels from -60 to +20 dB, with some zeroed bins.
    """
    rng = np.random.default_rng(2024)
    shape = (POOL, dsp.NUM_BINS)
    scale = 10.0 ** rng.uniform(-3.0, 1.0, (POOL, 1))
    spectrum = (rng.normal(size=shape) + 1j * rng.normal(size=shape)) * scale
    spectrum[rng.uniform(size=shape) < 0.1] = 0.0
    pitch = 0.7 * spectrum + 0.3 * (rng.normal(size=shape) + 1j * rng.normal(size=shape)) * scale
    spectrum[0] = pitch[0] = 0.0
    spectrum[1] = pitch[1] = 0.0
    spectrum[1, 137] = pitch[1, 137] = 0.3 - 0.4j
    pitch[2] = -spectrum[2]
    return spectrum, pitch


def _masks():
    """(POOL, 22) masks: zeros, one open band, all ones, then random values in [0, 1]."""
    rng = np.random.default_rng(2025)
    mask = rng.uniform(size=(POOL, bands.NUM_BANDS))
    mask[0] = 0.0
    mask[1] = 0.0
    mask[1, 9] = 0.64
    mask[2] = 1.0
    return mask


def _stacks(k):
    """Start rows of the k-row stacks: each edge row alone at k = 1, and the pool's end."""
    return sorted({0, 1, 2, POOL - k})


def _assert_rows_equal(stacked, one_row, k):
    for got, want in zip(stacked, one_row):
        assert got.shape[0] == k
        for i in range(k):
            np.testing.assert_array_equal(got[i], want[i][0])


@pytest.mark.parametrize("k", SIZES)
def test_band_stages_rows_equal_one_row_calls(k):
    spectrum, pitch = _spectra()
    mask = _masks()
    for start in _stacks(k):
        rows = slice(start, start + k)
        x, p, m = spectrum[rows], pitch[rows], mask[rows]
        corr, energies = bands.band_correlation(x, p)
        stacked = (corr, energies, bands.band_energies(x), spectral_shape(x), comb_filter(x, p, corr),
                   bands.interpolate_gains(m))
        one_row = []
        for i in range(k):
            r = slice(i, i + 1)
            c1, e1 = bands.band_correlation(x[r], p[r])
            one_row.append((c1, e1, bands.band_energies(x[r]), spectral_shape(x[r]), comb_filter(x[r], p[r], c1),
                            bands.interpolate_gains(m[r])))
        _assert_rows_equal(stacked, list(zip(*one_row)), k)
        # a one-row block equals the unbatched call too
        np.testing.assert_array_equal(spectral_shape(x[0]), spectral_shape(x[:1])[0])
        np.testing.assert_array_equal(bands.interpolate_gains(m[0]), bands.interpolate_gains(m[:1])[0])


def test_edge_rows_hit_their_cases():
    spectrum, pitch = _spectra()
    corr, energies = bands.band_correlation(spectrum[:3], pitch[:3])
    assert not energies[0].any() and not corr[0].any()
    assert np.count_nonzero(energies[1]) == 2  # bin 137 splits between two bands
    assert (corr[2] < -0.999).all()
    np.testing.assert_allclose(spectral_shape(spectrum[1]), [137.0, 0.0, 136.0], rtol=0, atol=1e-9)
    gains = bands.interpolate_gains(_masks()[:3])
    assert not gains[0].any() and gains[1].any()
    np.testing.assert_array_equal(gains[2], 1.0)


@pytest.mark.parametrize("k", SIZES)
def test_frame_features_block_equals_one_row_calls(k):
    spectrum, pitch = _spectra()
    rng = np.random.default_rng(2026)
    period = rng.integers(60, 801, POOL)
    strength = rng.uniform(size=POOL)
    start_history = FeatureHistory(rng.normal(size=22), rng.normal(size=22), rng.normal(size=22))
    for start in _stacks(k):
        rows = slice(start, start + k)
        block, block_history = frame_features(spectrum[rows], pitch[rows], period[rows], strength[rows], start_history)
        history = start_history
        for i in range(start, start + k):
            r = slice(i, i + 1)
            row, history = frame_features(spectrum[r], pitch[r], period[r], strength[r], history)
            for name in ("band_energies", "band_corr", "features", "extended_raw", "period", "pitch_strength"):
                np.testing.assert_array_equal(getattr(block, name)[i - start], getattr(row, name)[0], err_msg=name)
        for name in ("bfcc_prev", "bfcc_prev2", "log_energy_prev"):
            np.testing.assert_array_equal(getattr(block_history, name), getattr(history, name), err_msg=name)
