import math
from dataclasses import fields
from types import SimpleNamespace

import numpy as np
import pytest

import synthetic as syn
from rnx import bands, dsp
from rnx.pitch import PitchState, estimate_pitch, pitch_delayed_frame
from rnx.features import (
    ANALYSIS_CHUNK,
    EXTENDED_DIM,
    REFERENCE_DIM,
    FeatureExtractor,
    FeatureHistory,
    FeatureStats,
    assemble_features,
    bfcc_derivatives,
    compute_stats,
    feature_rows,
    analyze_signal,
    log_band_energies,
    mode_dim,
    nonstationarity,
    pitch_dct_features,
    spectral_shape,
)


def oracle_dct_ii(x):
    """Orthonormal DCT-II from its cosine-sum definition."""
    n = len(x)
    out = np.empty(n)
    for k in range(n):
        acc = math.fsum(
            x[i] * math.cos(math.pi * (2 * i + 1) * k / (2 * n)) for i in range(n)
        )
        scale = math.sqrt(1.0 / n) if k == 0 else math.sqrt(2.0 / n)
        out[k] = scale * acc
    return out


def bfcc(energies):
    """The band cepstrum frame_features computes: the orthonormal DCT of the log band energies."""
    return dsp.dct_ii(log_band_energies(energies))


def test_bfcc_matches_cosine_sum_oracle():
    rng = np.random.default_rng(101)
    energies = rng.uniform(0.0, 5.0, 22)
    want = oracle_dct_ii(np.log(energies + 1e-10))
    np.testing.assert_allclose(bfcc(energies), want, atol=1e-12)


def test_bfcc_constant_energies():
    c = np.log(2.0 + 1e-10)
    got = bfcc(np.full(22, 2.0))
    assert abs(got[0] - math.sqrt(22) * c) < 1e-12
    np.testing.assert_allclose(got[1:], 0.0, atol=1e-12)


def test_log_band_energies_floor():
    got = log_band_energies(np.zeros(22))
    np.testing.assert_allclose(got, np.log(1e-10), atol=0)


def test_derivatives_first_frame():
    h = FeatureHistory()
    c = np.arange(22, dtype=np.float64)
    first, second = bfcc_derivatives(np.stack((h.bfcc_prev2, h.bfcc_prev, c)))
    np.testing.assert_array_equal(first[0], c[:6])
    np.testing.assert_array_equal(second[0], c[:6])


def test_derivatives_hand_sequence():
    h = FeatureHistory()
    c1 = np.linspace(0.0, 2.1, 22)
    c2 = np.linspace(-1.0, 3.0, 22)
    c3 = np.linspace(0.5, -0.5, 22)
    h = FeatureHistory(bfcc_prev=c2, bfcc_prev2=c1)
    first, second = bfcc_derivatives(np.stack((h.bfcc_prev2, h.bfcc_prev, c3)))
    np.testing.assert_allclose(first[0], (c3 - c2)[:6], atol=1e-15)
    np.testing.assert_allclose(second[0], (c3 - 2 * c2 + c1)[:6], atol=1e-15)


def test_history_update_shifts():
    # the extractor's history after two frames holds the second frame's
    # cepstrum and log energies, and the first frame's cepstrum before it
    rng = np.random.default_rng(109)
    x = syn.speech_like(rng, 0.05, pauses=False)
    ex = FeatureExtractor()
    a = first_row(ex.process(x[:960]))
    b = first_row(ex.process(x[480:1440]))
    np.testing.assert_array_equal(ex.history.bfcc_prev, b.features[:22])
    np.testing.assert_array_equal(ex.history.bfcc_prev2, a.features[:22])
    np.testing.assert_array_equal(ex.history.log_energy_prev, log_band_energies(b.band_energies))


def test_pitch_dct_matches_oracle():
    rng = np.random.default_rng(103)
    corr = rng.uniform(-1.0, 1.0, 22)
    want = oracle_dct_ii(corr)[:6]
    np.testing.assert_allclose(pitch_dct_features(corr), want, atol=1e-12)
    with pytest.raises(ValueError):
        pitch_dct_features(np.zeros(21))


def test_nonstationarity_hand_value():
    prev = np.linspace(-1.0, 1.0, 22)
    h = FeatureHistory(log_energy_prev=prev)
    energies = np.full(22, 3.0)
    want = np.mean(np.abs(np.log(3.0 + 1e-10) - prev))
    assert abs(nonstationarity(np.stack((h.log_energy_prev, log_band_energies(energies))))[0] - want) < 1e-15


def test_centroid_single_and_pair():
    spec = np.zeros(481, dtype=complex)
    spec[100] = 2.0
    assert abs(spectral_shape(spec)[0] - 100.0) < 1e-9
    spec[300] = 2.0
    assert abs(spectral_shape(spec)[0] - 200.0) < 1e-9
    # unequal powers: weighted mean (1*100 + 3*300) / 4
    spec[100] = 1.0
    spec[300] = math.sqrt(3.0)
    assert abs(spectral_shape(spec)[0] - 250.0) < 1e-9


def test_centroid_zero_spectrum():
    assert spectral_shape(np.zeros(481, dtype=complex))[0] == 0.0


def test_bandwidth_cases():
    spec = np.zeros(481, dtype=complex)
    spec[100] = 5.0
    assert spectral_shape(spec)[1] < 1e-6
    spec[300] = 5.0
    # two equal lines 200 bins apart: spread is half the distance
    assert abs(spectral_shape(spec)[1] - 100.0) < 1e-6


def test_rolloff_pinned_cases():
    spec = np.zeros(481, dtype=complex)
    assert spectral_shape(spec)[2] == 0
    spec[7] = 1.0
    assert spectral_shape(spec)[2] == 6
    spec = np.zeros(481, dtype=complex)
    spec[0] = 1.0
    assert spectral_shape(spec)[2] == 0
    flat = np.ones(481, dtype=complex)
    # cumulative (i+1)/481 stays below 0.9 through i = 431
    assert spectral_shape(flat)[2] == 431


def test_rolloff_matches_exhaustive_scan():
    rng = np.random.default_rng(107)
    for _ in range(25):
        power = rng.uniform(0.0, 1.0, 481) ** 2
        power[rng.uniform(size=481) < 0.5] = 0.0
        spec = np.sqrt(power)
        total = math.fsum(power)
        if total == 0.0:
            continue
        count = 0
        run = 0.0
        for p in power:
            run += p
            if run < 0.9 * total:
                count += 1
        want = max(count - 1, 0)
        assert spectral_shape(spec)[2] == want


def test_shape_features_scale_invariance():
    rng = np.random.default_rng(113)
    spec = rng.normal(size=481) + 1j * rng.normal(size=481)
    for scale in (0.01, 7.3):
        s = spec * scale
        assert abs(spectral_shape(s)[0] - spectral_shape(spec)[0]) < 1e-6
        assert abs(spectral_shape(s)[1] - spectral_shape(spec)[1]) < 1e-6
        assert spectral_shape(s)[2] == spectral_shape(spec)[2]


def test_stats_hand_values_and_floor():
    stats = compute_stats(np.array([[1.0, 2.0, 3.0], [3.0, 4.0, 5.0]]))
    np.testing.assert_allclose(stats.mean, [2.0, 3.0, 4.0], atol=0)
    np.testing.assert_allclose(stats.std, [1.0, 1.0, 1.0], atol=0)
    const = compute_stats(np.full((5, 3), 2.5))
    np.testing.assert_allclose(const.mean, 2.5, atol=0)
    np.testing.assert_allclose(const.std, 1e-6, atol=0)


def test_stats_population_not_sample():
    rows = np.array([[0.0, 0.0, 0.0], [2.0, 2.0, 2.0], [4.0, 4.0, 4.0]])
    stats = compute_stats(rows)
    # population std of {0, 2, 4} is sqrt(8/3), not sqrt(4)
    np.testing.assert_allclose(stats.std, math.sqrt(8.0 / 3.0), atol=1e-12)


def test_stats_validation():
    with pytest.raises(ValueError):
        compute_stats(np.zeros((1, 3)))
    with pytest.raises(ValueError):
        compute_stats(np.zeros((4, 2)))
    with pytest.raises(ValueError):
        FeatureStats(np.zeros(2), np.ones(2))


def test_standardize_roundtrip():
    stats = FeatureStats(np.array([1.0, -2.0, 3.0]), np.array([2.0, 0.5, 1.0]))
    raw = np.array([5.0, -2.0, 0.0])
    got = feature_rows(np.zeros(REFERENCE_DIM), raw, EXTENDED_DIM, stats)[REFERENCE_DIM:]
    np.testing.assert_allclose(got, [2.0, 0.0, -3.0], atol=1e-15)


def test_assemble_layout_and_scaling():
    cep = np.arange(22, dtype=np.float64)
    derivs = np.arange(100, 112, dtype=np.float64)
    pdct = np.arange(200, 206, dtype=np.float64)
    vec = assemble_features(cep, (derivs[:6], derivs[6:]), pdct, 400, 0.75)
    assert vec.shape == (REFERENCE_DIM,)
    np.testing.assert_array_equal(vec[0:22], cep)
    np.testing.assert_array_equal(vec[22:34], derivs)
    np.testing.assert_array_equal(vec[34:40], pdct)
    assert vec[40] == 0.5  # 400 / 800
    assert vec[41] == 0.75


def test_assemble_extended_modes():
    base = assemble_features(np.zeros(22), (np.zeros(6), np.zeros(6)), np.zeros(6), 80, 0.0)
    trio = np.array([10.0, 20.0, 30.0])
    stats = FeatureStats(np.array([10.0, 10.0, 10.0]), np.array([1.0, 2.0, 4.0]))
    vec = feature_rows(base, trio, EXTENDED_DIM, stats)
    assert vec.shape == (EXTENDED_DIM,)
    np.testing.assert_array_equal(vec[:42], base)
    np.testing.assert_allclose(vec[42:], [0.0, 5.0, 5.0], atol=1e-15)
    raw = feature_rows(base, trio, EXTENDED_DIM)
    np.testing.assert_array_equal(raw[42:], trio)
    assert feature_rows(base, trio, REFERENCE_DIM, stats) is base
    # frame-major stacks take the same rows
    stack = feature_rows(np.vstack((base, base + 1.0)), np.vstack((trio, trio * 2.0)), EXTENDED_DIM, stats)
    np.testing.assert_array_equal(stack[0], vec)
    np.testing.assert_array_equal(stack[1], feature_rows(base + 1.0, trio * 2.0, EXTENDED_DIM, stats))
    assert (mode_dim("reference"), mode_dim("extended")) == (REFERENCE_DIM, EXTENDED_DIM)


def test_assemble_validation():
    cep = np.zeros(22)
    derivs = (np.zeros(6), np.zeros(6))
    pdct = np.zeros(6)
    base = assemble_features(cep, derivs, pdct, 80, 0.0)
    with pytest.raises(ValueError):
        mode_dim("other")
    with pytest.raises(ValueError):
        feature_rows(base, np.zeros(3), 9)
    with pytest.raises(ValueError):
        feature_rows(base, np.zeros(4), EXTENDED_DIM)
    with pytest.raises(ValueError):
        assemble_features(np.zeros(21), derivs, pdct, 80, 0.0)


def first_row(analysis):
    """The one row of the extractor's SignalAnalysis, as per-frame values."""
    values = {f.name: getattr(analysis, f.name) for f in fields(analysis)}
    assert all(v is None or len(v) == 1 for v in values.values())
    return SimpleNamespace(**{name: None if v is None else v[0] for name, v in values.items()})


def test_extractor_first_two_frames_against_direct_math():
    rng = np.random.default_rng(127)
    x = syn.speech_like(rng, 0.05, pauses=False)
    f1, f2 = x[:960], x[480:1440]

    ex = FeatureExtractor()
    a1 = first_row(ex.process(f1))
    a2 = first_row(ex.process(f2))

    for frame, analysis in ((f1, a1), (f2, a2)):
        spec = dsp.analyze_frame(frame)
        energies = bands.band_energies(spec)
        np.testing.assert_allclose(analysis.band_energies, energies, atol=1e-12)
        np.testing.assert_allclose(analysis.features[0:22], bfcc(energies), atol=1e-12)
        np.testing.assert_allclose(analysis.extended_raw, spectral_shape(spec), atol=1e-12)
        assert analysis.features.shape == (REFERENCE_DIM,)

    # frame 1 differences fall back to the zero history
    c1 = a1.features[0:22]
    np.testing.assert_allclose(a1.features[22:28], c1[:6], atol=1e-12)
    np.testing.assert_allclose(a1.features[28:34], c1[:6], atol=1e-12)
    l1 = log_band_energies(a1.band_energies)
    assert abs(a1.features[41] - np.mean(np.abs(l1))) < 1e-12

    # frame 2 differences use frame 1 as history
    c2 = a2.features[0:22]
    np.testing.assert_allclose(a2.features[22:28], (c2 - c1)[:6], atol=1e-12)
    np.testing.assert_allclose(a2.features[28:34], (c2 - 2 * c1)[:6], atol=1e-12)
    l2 = log_band_energies(a2.band_energies)
    assert abs(a2.features[41] - np.mean(np.abs(l2 - l1))) < 1e-12


def test_extractor_equals_composed_helpers():
    """The extractor's fused path against the public helpers, frame by frame,
    over voiced, unvoiced and digitally silent stretches."""
    rng = np.random.default_rng(131)
    x = np.concatenate(
        (
            syn.voiced_segment(rng, 480 * 60),
            np.zeros(480 * 40),
            syn.fricative_segment(rng, 480 * 50),
            syn.voiced_segment(rng, 480 * 30) + 0.05 * syn.fricative_segment(rng, 480 * 30),
            syn.voiced_segment(rng, 480 * 21),
        )
    )
    frames = [x[k * 480 : k * 480 + 960] for k in range(200)]

    ex = FeatureExtractor()
    pitch_state = PitchState()
    history = FeatureHistory()
    silent = 0
    for frame in frames:
        got = first_row(ex.process(frame))

        spec = dsp.analyze_frame(frame)
        period, strength = estimate_pitch(pitch_state, frame)
        p_spec = dsp.analyze_frame(pitch_delayed_frame(pitch_state.history, period))
        corr, _ = bands.band_correlation(spec, p_spec)
        energies = bands.band_energies(spec)
        cep = bfcc(energies)
        first, second = bfcc_derivatives(np.stack((history.bfcc_prev2, history.bfcc_prev, cep)))
        flux = nonstationarity(np.stack((history.log_energy_prev, log_band_energies(energies))))
        want = np.concatenate(
            (cep, first[0], second[0], pitch_dct_features(corr), [period / 800.0, flux[0]])
        )
        history = FeatureHistory(cep, history.bfcc_prev, log_band_energies(energies))
        trio = spectral_shape(spec)

        assert got.period == period
        assert got.pitch_strength == strength
        np.testing.assert_allclose(got.features, want, rtol=0, atol=1e-12)
        np.testing.assert_allclose(got.extended_raw, trio, rtol=0, atol=1e-12)
        np.testing.assert_allclose(got.band_corr, corr, rtol=0, atol=1e-12)
        np.testing.assert_allclose(got.band_energies, energies, rtol=0, atol=1e-12)
        np.testing.assert_allclose(got.spectrum, spec, rtol=0, atol=1e-12)
        np.testing.assert_allclose(got.pitch_spectrum, p_spec, rtol=0, atol=1e-12)
        silent += strength == 0.0
    assert silent >= 30  # the digital silence reached the pitch fallback


def test_extractor_pitch_consistency():
    x = syn.tone(200.0, 0.5)
    ex = FeatureExtractor()
    last = None
    for k in range(len(x) // 480 - 1):
        last = first_row(ex.process(x[k * 480 : k * 480 + 960]))
    assert abs(last.period - 240) <= 1
    assert last.pitch_strength > 0.95
    assert abs(last.features[40] - last.period / 800.0) < 1e-15
    # a coherent tone keeps high band correlation where the tone lives
    assert np.max(last.band_corr) > 0.9


def test_extractor_determinism():
    rng = np.random.default_rng(131)
    x = syn.speech_like(rng, 0.2, pauses=False)
    outs = []
    for _ in range(2):
        ex = FeatureExtractor()
        feats = [first_row(ex.process(x[k * 480 : k * 480 + 960])).features for k in range(3)]
        outs.append(np.stack(feats))
    np.testing.assert_array_equal(outs[0], outs[1])


def _assert_matches_extractor(x, clean):
    """analyze_signal against a fresh extractor fed the mix framing x[480 t : 480 t + 960]."""
    got = analyze_signal(x, clean)
    count = max((len(x) - 960) // 480 + 1, 0)
    assert got.features.shape == (count, REFERENCE_DIM)
    assert feature_rows(got.features, got.extended_raw, EXTENDED_DIM).shape == (count, EXTENDED_DIM)
    ex = FeatureExtractor()
    for t in range(count):
        want = first_row(ex.process(x[480 * t : 480 * t + 960]))
        if t == 0:
            # frame 0's first hop never enters the pitch history
            np.testing.assert_array_equal(ex.pitch_state.history, np.concatenate((np.zeros(1280), x[480:960])))
        assert got.period[t] == want.period
        assert got.pitch_strength[t] == want.pitch_strength
        np.testing.assert_array_equal(got.features[t], want.features)
        np.testing.assert_array_equal(got.extended_raw[t], want.extended_raw)
        np.testing.assert_array_equal(got.band_energies[t], want.band_energies)
        np.testing.assert_array_equal(got.band_corr[t], want.band_corr)
        clean_energies = bands.band_energies(dsp.analyze_frame(clean[480 * t : 480 * t + 960]))
        np.testing.assert_array_equal(got.clean_energies[t], clean_energies)
    return got


def _signals():
    rng = np.random.default_rng(137)
    n = 480 * 150 + 123
    speech = np.concatenate((syn.speech_like(rng, 0.7), np.zeros(480 * 30), syn.speech_like(rng, 1.0)))
    return {
        "speech_with_silence": speech[:n],
        "stationary_noise": syn.stationary_noise(rng, 1.6)[:n],
        "babble": syn.babble_noise(rng, 1.6)[:n],
        "tones": (syn.tone(180.0, 1.6) + syn.tone(1100.0, 1.6, amplitude=0.2))[:n],
        "pulse_train": syn.pulse_train(170, n),
        "zeros": np.zeros(n),
    }


@pytest.mark.parametrize("name", list(_signals()))
def test_analyze_signal_equals_extractor_loop(name):
    x = _signals()[name]
    got = _assert_matches_extractor(x, x[::-1] * 0.5)
    if name in ("speech_with_silence", "zeros"):
        assert np.any(got.pitch_strength == 0.0)  # the silence fallback ran


def _length_of(frames):
    return 960 + 480 * (frames - 1) + 77  # plus 77 samples that no frame covers


@pytest.mark.parametrize(
    "n", [0, 500] + [_length_of(f) for f in (1, ANALYSIS_CHUNK - 1, ANALYSIS_CHUNK, ANALYSIS_CHUNK + 1)]
)
def test_analyze_signal_lengths_and_chunk_edges(n):
    """0 frames, under one frame, 1 frame, and one chunk minus one, exactly, plus one."""
    speech = _signals()["speech_with_silence"]
    _assert_matches_extractor(speech[:n], speech[::-1][:n])


def test_analyze_signal_rejects_non_finite():
    x = syn.tone(200.0, 0.1)
    for bad in (np.nan, np.inf):
        y = x.copy()
        y[1000] = bad
        with pytest.raises(ValueError, match="non-finite"):
            analyze_signal(y)
        with pytest.raises(ValueError, match="non-finite"):
            analyze_signal(x, clean=y)
    with pytest.raises(ValueError):
        analyze_signal(x, clean=x[:-1])
