import math

import numpy as np
import pytest

from rnx import dsp


def brute_force_dft(x):
    """O(n^2) half-spectrum oracle, independent of any FFT library."""
    n = len(x)
    k = np.arange(n // 2 + 1)[:, None]
    t = np.arange(n)[None, :]
    kernel = np.exp(-2j * np.pi * k * t / n)
    return kernel @ x


def brute_force_dct_ii(x):
    """Orthonormal DCT-II straight from its cosine definition."""
    n = len(x)
    out = np.zeros(n)
    for k in range(n):
        s = math.sqrt(1.0 / n) if k == 0 else math.sqrt(2.0 / n)
        out[k] = s * sum(x[i] * math.cos(math.pi * (2 * i + 1) * k / (2 * n)) for i in range(n))
    return out


def test_window_scalar_values():
    for n in (0, 17, 479, 480, 959):
        expected = math.sin(
            0.5 * math.pi * math.sin(math.pi * (n + 0.5) / 960) ** 2
        )
        assert dsp.vorbis_window(n) == pytest.approx(expected, abs=1e-15)


def test_window_overlap_identity():
    w = dsp.WINDOW
    dev = np.abs(w[:480] ** 2 + w[480:] ** 2 - 1.0)
    assert np.max(dev) < 1e-12


def test_window_symmetry():
    w = dsp.WINDOW
    np.testing.assert_allclose(w, w[::-1], atol=1e-15)


def test_analyze_zero_frame():
    spec = dsp.analyze_frame(np.zeros(960))
    assert spec.shape == (481,)
    assert np.all(spec == 0)


def test_analyze_linearity():
    rng = np.random.default_rng(3)
    a = rng.normal(size=960)
    b = rng.normal(size=960)
    lhs = dsp.analyze_frame(2.0 * a + 3.0 * b)
    rhs = 2.0 * dsp.analyze_frame(a) + 3.0 * dsp.analyze_frame(b)
    np.testing.assert_allclose(lhs, rhs, rtol=1e-12, atol=1e-12)


def test_analyze_matches_brute_force_dft():
    rng = np.random.default_rng(7)
    for _ in range(3):
        frame = rng.uniform(-1, 1, 960)
        got = dsp.analyze_frame(frame)
        want = brute_force_dft(frame * dsp.WINDOW)
        np.testing.assert_allclose(got, want, rtol=1e-9, atol=1e-9)


def test_analyze_rejects_bad_input():
    with pytest.raises(ValueError):
        dsp.analyze_frame(np.zeros(959))
    bad = np.zeros(960)
    bad[5] = np.nan
    with pytest.raises(ValueError, match="non-finite"):
        dsp.analyze_frame(bad)


def test_synthesize_zero_spectrum():
    out, carry = dsp.synthesize_frame(np.zeros(481, dtype=complex), np.zeros(480))
    assert np.all(out == 0) and np.all(carry == 0)


def test_synthesize_shape_checks():
    with pytest.raises(ValueError):
        dsp.synthesize_frame(np.zeros(100, dtype=complex), np.zeros(480))
    with pytest.raises(ValueError):
        dsp.synthesize_frame(np.zeros(481, dtype=complex), np.zeros(100))


def test_synthesize_stack_equals_frame_loop():
    rng = np.random.default_rng(83)
    spectra = np.fft.rfft(rng.normal(size=(5, 960)))
    carry0 = rng.normal(size=480)
    out, carry = dsp.synthesize_frame(spectra, carry0)
    want_carry = carry0
    for k, spectrum in enumerate(spectra):
        want, want_carry = dsp.synthesize_frame(spectrum, want_carry)
        np.testing.assert_array_equal(out[k], want)
    np.testing.assert_array_equal(carry, want_carry)
    empty, same = dsp.synthesize_frame(np.zeros((0, 481), dtype=complex), carry0)
    assert empty.shape == (0, 480)
    np.testing.assert_array_equal(same, carry0)


def _reconstruct(x):
    """Plain analysis/synthesis loop over hops; returns aligned output."""
    hops = len(x) // dsp.HOP
    pending = np.zeros(dsp.HOP)
    carry = np.zeros(dsp.HOP)
    blocks = []
    for k in range(hops):
        block = x[k * dsp.HOP : (k + 1) * dsp.HOP]
        out, carry = dsp.synthesize_frame(
            dsp.analyze_frame(np.concatenate((pending, block))), carry
        )
        pending = block
        blocks.append(out)
    out, _ = dsp.synthesize_frame(
        dsp.analyze_frame(np.concatenate((pending, np.zeros(dsp.HOP)))), carry
    )
    blocks.append(out)
    return np.concatenate(blocks[1:])[: len(x)]


def test_overlap_add_perfect_reconstruction():
    rng = np.random.default_rng(11)
    x = rng.uniform(-0.8, 0.8, 48000)
    y = _reconstruct(x)
    assert np.max(np.abs(y - x)) / np.max(np.abs(x)) < 1e-6


def test_sine_reconstruction_snr():
    t = np.arange(48000) / 48000
    x = 0.5 * np.sin(2 * np.pi * 440 * t)
    y = _reconstruct(x)
    err = y - x
    snr = 10 * np.log10(np.sum(x**2) / np.sum(err**2))
    assert snr > 120.0


def test_windowed_parseval():
    # sum of squares equals the half-spectrum powers with interior bins doubled
    rng = np.random.default_rng(13)
    x = rng.normal(size=960)
    power = np.abs(dsp.analyze_frame(x)) ** 2
    lhs = np.sum((x * dsp.WINDOW) ** 2)
    rhs = (power[0] + 2 * power[1:480].sum() + power[480]) / 960
    assert abs(lhs - rhs) / rhs < 1e-9


def test_dct_constant_vector():
    c = dsp.dct_ii(np.full(22, 3.0))
    assert c[0] == pytest.approx(math.sqrt(22) * 3.0, rel=1e-12)
    np.testing.assert_allclose(c[1:], 0.0, atol=1e-12)


def test_dct_matches_brute_force():
    rng = np.random.default_rng(17)
    x = rng.normal(size=22)
    np.testing.assert_allclose(dsp.dct_ii(x), brute_force_dct_ii(x), rtol=1e-9, atol=1e-9)
    # any length, and along the last axis of a stack
    for n in (1, 6, 40):
        rows = rng.normal(size=(3, n))
        want = np.array([brute_force_dct_ii(row) for row in rows])
        np.testing.assert_allclose(dsp.dct_ii(rows), want, rtol=1e-9, atol=1e-9)
