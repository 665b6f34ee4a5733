import numpy as np
import pytest

from rnx import bands


def oracle_triangle_weights():
    """Independent band-weight construction from the center frequencies."""
    centers = [0, 200, 400, 600, 800, 1000, 1200, 1400, 1600, 2000, 2400,
               2800, 3200, 4000, 4800, 5600, 6800, 8000, 9600, 12000, 15600, 20000]
    bins = [c // 50 for c in centers]
    w = np.zeros((22, 481))
    for b in range(22):
        lo = bins[b - 1] if b > 0 else None
        hi = bins[b + 1] if b < 21 else None
        for k in range(481):
            if lo is not None and lo <= k <= bins[b]:
                w[b, k] = max(w[b, k], (k - lo) / (bins[b] - lo))
            if hi is not None and bins[b] <= k < hi:
                w[b, k] = max(w[b, k], (hi - k) / (hi - bins[b]))
            if b == 0 and k == 0:
                w[b, k] = 1.0
            if b == 21 and k >= bins[21]:
                w[b, k] = 1.0
    return w


def random_spectrum(rng, interior_only=False):
    spec = rng.normal(size=481) + 1j * rng.normal(size=481)
    if interior_only:
        spec[401:] = 0.0
    return spec


def test_layout():
    assert len(bands.BAND_CENTERS_HZ) == 22
    assert all(c % 50 == 0 for c in bands.BAND_CENTERS_HZ)
    assert bands.BAND_CENTERS_HZ[9] == 2000 and bands.BAND_CENTER_BINS[9] == 40
    assert bands.BAND_CENTER_BINS[0] == 0 and bands.BAND_CENTER_BINS[-1] == 400


def test_weights_match_oracle_construction():
    np.testing.assert_allclose(bands.BAND_WEIGHTS, oracle_triangle_weights(), atol=1e-12)


def test_zero_spectrum_energies():
    np.testing.assert_array_equal(bands.band_energies(np.zeros(481, dtype=complex)), np.zeros(22))


def test_single_center_bin_energy():
    spec = np.zeros(481, dtype=complex)
    spec[40] = 3.0  # center of band 9 (2 kHz)
    e = bands.band_energies(spec)
    assert e[9] == pytest.approx(9.0)
    assert np.sum(e) == pytest.approx(9.0)


def test_partition_of_unity_100_spectra():
    rng = np.random.default_rng(23)
    for i in range(100):
        spec = random_spectrum(rng, interior_only=(i % 2 == 0))
        total = np.sum(np.abs(spec) ** 2)
        assert abs(bands.band_energies(spec).sum() - total) / total < 1e-9


def test_correlation_self_and_sign():
    rng = np.random.default_rng(29)
    spec = random_spectrum(rng)
    corr, _ = bands.band_correlation(spec, spec)
    np.testing.assert_allclose(corr, 1.0, atol=1e-6)
    anti, _ = bands.band_correlation(spec, -spec)
    np.testing.assert_allclose(anti, -1.0, atol=1e-6)


def test_correlation_matches_direct_sum():
    rng = np.random.default_rng(31)
    x = random_spectrum(rng)
    p = random_spectrum(rng)
    w = oracle_triangle_weights()
    got, energies = bands.band_correlation(x, p)
    np.testing.assert_allclose(energies, bands.band_energies(x), rtol=1e-12, atol=0.0)
    for b in range(22):
        num = np.sum(w[b] * (x.real * p.real + x.imag * p.imag))
        ex = np.sum(w[b] * np.abs(x) ** 2)
        ep = np.sum(w[b] * np.abs(p) ** 2)
        want = np.clip(num / np.sqrt(ex * ep + 1e-15), -1.0, 1.0)
        assert got[b] == pytest.approx(want, rel=1e-9, abs=1e-9)


def irm_of_spectra(clean, noisy):
    return bands.compute_irm(bands.band_energies(clean), bands.band_energies(noisy))


def test_irm_identity_and_zero():
    rng = np.random.default_rng(37)
    spec = random_spectrum(rng)
    np.testing.assert_allclose(irm_of_spectra(spec, spec), 1.0, atol=1e-12)
    m = irm_of_spectra(np.zeros(481, dtype=complex), spec)
    np.testing.assert_allclose(m, 0.0, atol=1e-12)
    # a stack of frames gives one mask per frame
    stack = np.stack((spec, 0.5 * spec, np.zeros(481, dtype=complex)))
    masks = irm_of_spectra(stack, np.stack((spec, spec, spec)))
    np.testing.assert_allclose(masks, [np.ones(22), np.full(22, 0.25), np.zeros(22)], atol=1e-12)
    with pytest.raises(ValueError):
        bands.compute_irm(np.ones(22), np.ones(21))


def test_irm_sentinel_for_dead_bands():
    clean = np.zeros(481, dtype=complex)
    noisy = np.zeros(481, dtype=complex)
    noisy[40] = 1.0  # only band neighborhood 8..10 has noisy energy
    clean[40] = 0.5
    m = irm_of_spectra(clean, noisy)
    assert m[9] == pytest.approx(0.25)
    dead = [b for b in range(22) if m[b] == -1.0]
    assert 9 not in dead
    assert len(dead) >= 18
    # no values may fall strictly between the sentinel and zero
    assert not np.any((m > -1.0) & (m < 0.0))


def test_irm_clipped_to_unit():
    rng = np.random.default_rng(41)
    noisy = random_spectrum(rng)
    clean = 3.0 * noisy  # clean louder than mixture in every band
    m = irm_of_spectra(clean, noisy)
    np.testing.assert_allclose(m, 1.0, atol=1e-12)


def test_interpolate_identity_and_zero():
    ones = bands.interpolate_gains(np.ones(22))
    np.testing.assert_allclose(ones, 1.0, atol=1e-12)
    zeros = bands.interpolate_gains(np.zeros(22))
    np.testing.assert_array_equal(zeros, np.zeros(481))


def test_interpolate_uniform_quarter():
    g = bands.interpolate_gains(np.full(22, 0.25))
    np.testing.assert_allclose(g, 0.5, atol=1e-12)


def test_interpolate_rejects_sentinels():
    m = np.ones(22)
    m[3] = -1.0
    with pytest.raises(ValueError, match="negative"):
        bands.interpolate_gains(m)


def test_interpolate_rejects_nan():
    m = np.ones(22)
    m[5] = np.nan
    with pytest.raises(ValueError, match="NaN"):
        bands.interpolate_gains(m)
    with pytest.raises(ValueError, match="NaN"):
        bands.interpolate_gains(np.full((3, 22), np.nan))


def test_interpolate_monotone_in_each_band():
    rng = np.random.default_rng(43)
    m = rng.uniform(0.0, 0.9, 22)
    g0 = bands.interpolate_gains(m)
    m2 = m.copy()
    m2[7] += 0.1
    g1 = bands.interpolate_gains(m2)
    assert np.all(g1 >= g0 - 1e-12)
    assert g1[bands.BAND_CENTER_BINS[7]] > g0[bands.BAND_CENTER_BINS[7]]


def test_apply_gains():
    rng = np.random.default_rng(47)
    spec = random_spectrum(rng)
    np.testing.assert_array_equal(bands.apply_gains(spec, np.ones(481)), spec)
    assert np.all(bands.apply_gains(spec, np.zeros(481)) == 0)
    half = bands.apply_gains(spec, np.full(481, 0.5))
    np.testing.assert_allclose(np.abs(half), 0.5 * np.abs(spec), rtol=1e-12)
    # unit-bounded gains can never grow any bin
    g = rng.uniform(0, 1, 481)
    assert np.all(np.abs(bands.apply_gains(spec, g)) <= np.abs(spec) + 1e-15)
