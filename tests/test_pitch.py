import numpy as np
import pytest

import synthetic as syn
from rnx import bands, dsp, pitch
from rnx.features import ANALYSIS_CHUNK, analyze_signal
from rnx.pitch import (
    HISTORY_LEN,
    PITCH_MAX_PERIOD,
    PITCH_MIN_PERIOD,
    SEGMENT_LEN,
    SUBHARMONIC_RATIO,
    PitchState,
    _frame_correlations,
    _hop_partials,
    _prefer_subharmonics,
    comb_filter,
    estimate_pitch,
    pitch_delayed_frame,
)


def feed_signal(x, n_frames=None):
    """Run the estimator over a signal hop by hop; returns (state, results)."""
    state = PitchState()
    hops = len(x) // 480 - 1
    if n_frames is not None:
        hops = min(hops, n_frames)
    results = []
    for k in range(hops):
        frame = x[k * 480 : k * 480 + 960]
        results.append(estimate_pitch(state, frame))
    return state, results


def test_pure_tone_200hz():
    x = syn.tone(200.0, 1.0)
    _, results = feed_signal(x)
    period, strength = results[-1]
    assert abs(period - 240) <= 1
    assert strength > 0.95


def test_periodic_signals_within_one_sample():
    rng = np.random.default_rng(53)
    for target in (100, 240, 480):
        cycle = rng.uniform(-0.5, 0.5, target)
        x = np.tile(cycle, 4800 // target + 2)
        _, results = feed_signal(x)
        period, strength = results[-1]
        assert abs(period - target) <= 1, (target, period)
        assert strength > 0.9


def test_pulse_train_period():
    x = syn.pulse_train(240, 48000)
    _, results = feed_signal(x)
    period, _ = results[-1]
    assert abs(period - 240) <= 1


def test_silence_returns_last_period_and_zero_strength():
    # a tone that stops: once the analysis window is all zeros the estimate
    # falls back to the last voiced period with zero strength
    x = np.concatenate((syn.tone(200.0, 0.2), np.zeros(2400)))
    state = PitchState()
    last_voiced = None
    saw_steady_tone = False
    for k in range(len(x) // 480 - 1):
        period, strength = estimate_pitch(state, x[k * 480 : k * 480 + 960])
        if strength > 0.0:
            last_voiced = period
        if strength > 0.9:
            saw_steady_tone = abs(period - 240) <= 1
    assert strength == 0.0
    assert period == last_voiced
    assert saw_steady_tone


def test_fresh_silence_fallback():
    state = PitchState()
    period, strength = estimate_pitch(state, np.zeros(960))
    assert period == 480 and strength == 0.0


def test_white_noise_strength_95th_percentile():
    strengths = []
    for seed in range(100):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=480 * 6) * 0.3
        _, results = feed_signal(x)
        strengths.append(results[-1][1])
    assert np.quantile(strengths, 0.95) < 0.4


def test_delayed_frame_is_slice_of_history():
    rng = np.random.default_rng(59)
    x = rng.uniform(-1, 1, 480 * 8)
    state, _ = feed_signal(x)
    for period in (60, 333, 800):
        got = pitch_delayed_frame(state.history, period)
        want = state.history[800 - period : 800 - period + 960]
        np.testing.assert_array_equal(got, want)


def test_delayed_frame_on_ramp():
    # after enough hops the history is a pure ramp; delay shifts it back
    n = HISTORY_LEN + 480 * 4
    ramp = np.arange(n, dtype=np.float64) / n
    state = PitchState()
    hops = n // 480 - 1
    for k in range(hops):
        estimate_pitch(state, ramp[k * 480 : k * 480 + 960])
    current = ramp[(hops - 1) * 480 : (hops - 1) * 480 + 960]
    delayed = pitch_delayed_frame(state.history, 100)
    np.testing.assert_allclose(delayed, current - 100.0 / n, atol=1e-12)


def test_delayed_frame_periodic_identity():
    cycle = np.sin(2 * np.pi * np.arange(240) / 240)
    x = np.tile(cycle, 40)
    state, results = feed_signal(x)
    period = results[-1][0]
    current = state.history[800:]
    delayed = pitch_delayed_frame(state.history, period)
    np.testing.assert_allclose(delayed, current, atol=1e-9)


def test_delayed_frame_range_check():
    state = PitchState()
    with pytest.raises(ValueError):
        pitch_delayed_frame(state.history, 59)
    with pytest.raises(ValueError):
        pitch_delayed_frame(state.history, 801)


def test_comb_zero_correlation_is_identity():
    rng = np.random.default_rng(61)
    x = rng.normal(size=481) + 1j * rng.normal(size=481)
    p = rng.normal(size=481) + 1j * rng.normal(size=481)
    np.testing.assert_array_equal(comb_filter(x, p, np.zeros(22)), x)


def test_comb_full_correlation_renormalizes():
    rng = np.random.default_rng(67)
    x = rng.normal(size=481) + 1j * rng.normal(size=481)
    y = comb_filter(x, x, np.ones(22))
    np.testing.assert_allclose(y, x, rtol=1e-12)


def test_comb_convex_bound():
    rng = np.random.default_rng(71)
    x = rng.normal(size=481) + 1j * rng.normal(size=481)
    p = rng.normal(size=481) + 1j * rng.normal(size=481)
    corr = rng.uniform(-1, 1, 22)
    y = comb_filter(x, p, corr)
    bound = np.maximum(np.abs(x), np.abs(p))
    assert np.all(np.abs(y) <= bound + 1e-12)


def test_comb_suppresses_between_harmonics():
    rng = np.random.default_rng(73)
    n = 480 * 30
    voiced = syn.pulse_train(240, n, amplitude=0.7)
    noise = rng.normal(size=n)
    noise *= np.sqrt(np.mean(voiced**2) / np.mean(noise**2))
    x = voiced + noise

    state = PitchState()
    frame = None
    for k in range(n // 480 - 1):
        frame = x[k * 480 : k * 480 + 960]
        period, _ = estimate_pitch(state, frame)
    x_spec = dsp.analyze_frame(frame)
    p_spec = dsp.analyze_frame(pitch_delayed_frame(state.history, period))
    corr, _ = bands.band_correlation(x_spec, p_spec)
    y_spec = comb_filter(x_spec, p_spec, corr)

    # harmonics of a 240-sample period sit every 4th bin; probe midpoints
    inter = np.arange(2, 481, 4)
    before = np.sum(np.abs(x_spec[inter]) ** 2)
    after = np.sum(np.abs(y_spec[inter]) ** 2)
    assert after < before


def _oracle_histories():
    rng = np.random.default_rng(79)
    n = HISTORY_LEN
    silent_start = np.concatenate((np.zeros(PITCH_MAX_PERIOD), syn.speech_like(rng, 0.1, pauses=False)[: n - 800]))
    return {
        "tone": syn.tone(180.0, 0.05)[:n],
        "pulse_train": syn.pulse_train(170, n),
        "white_noise": rng.normal(size=n) * 0.3,
        "babble": syn.babble_noise(rng, 0.05)[:n],
        "silent_start": silent_start,
    }


def _brute_force_r(history):
    """r(T) for lags 60..800 by one dot product per lag over the 960-sample frame."""
    frame = history[PITCH_MAX_PERIOD:]
    want = []
    for lag in range(PITCH_MIN_PERIOD, PITCH_MAX_PERIOD + 1):
        delayed = history[PITCH_MAX_PERIOD - lag : PITCH_MAX_PERIOD - lag + 960]
        want.append(np.dot(frame, delayed) / np.sqrt(np.dot(frame, frame) * np.dot(delayed, delayed) + 1e-15))
    return np.array(want)


def _assert_matches_brute_force(r, history):
    want = _brute_force_r(history)
    np.testing.assert_allclose(r, want, rtol=1e-9, atol=1e-9 * np.max(np.abs(want)))


@pytest.mark.parametrize("name", ["tone", "pulse_train", "white_noise", "babble", "silent_start"])
def test_lag_correlations_match_brute_force(name):
    history = _oracle_histories()[name]
    assert history.shape == (HISTORY_LEN,)
    first, second = _hop_partials(history[:SEGMENT_LEN]), _hop_partials(history[480:])
    frame = history[PITCH_MAX_PERIOD:]
    r = _frame_correlations(first, second, frame @ frame)
    assert r.shape == (PITCH_MAX_PERIOD - PITCH_MIN_PERIOD + 1,)
    _assert_matches_brute_force(r, history)


def _record_correlations(monkeypatch):
    """Route pitch's frame correlations through a recorder; returns the list of results."""
    seen = []

    def recording(first, second, energy):
        seen.append(_frame_correlations(first, second, energy))
        return seen[-1]

    monkeypatch.setattr(pitch, "_frame_correlations", recording)
    return seen


def test_carried_partials_across_silent_gaps_match_oracle_and_blocks(monkeypatch):
    """Zero runs of 1, 2 and 3 hops (0, 1 and 2 silent frames), and silent frames at both block edges."""
    rng = np.random.default_rng(89)
    frames = 3 * ANALYSIS_CHUNK
    x = syn.speech_like(rng, 0.05 * (frames + 1), pauses=False)[: 480 * (frames + 1)]
    x += rng.normal(size=x.size) * 0.01
    gaps = [(10,), (20, 21), (40, 41, 42), (ANALYSIS_CHUNK - 1, ANALYSIS_CHUNK), (63, 64, 65)]
    for gap in gaps:
        for hop in gap:
            x[480 * hop : 480 * hop + 480] = 0.0
    silent = {hop for gap in gaps for hop in gap[:-1]}  # frame t holds hops t and t + 1
    assert ANALYSIS_CHUNK - 1 in silent and 2 * ANALYSIS_CHUNK - 1 in silent and 2 * ANALYSIS_CHUNK in silent

    seen = _record_correlations(monkeypatch)
    state = PitchState()
    stream = []
    for t in range(frames):
        calls = len(seen)
        stream.append(estimate_pitch(state, x[480 * t : 480 * t + 960]))
        assert (len(seen) == calls) == (t in silent), t
        if t not in silent:
            _assert_matches_brute_force(seen[-1], state.history)
            assert state.partial is not None
        else:
            assert stream[-1][1] == 0.0 and state.partial is None
    stream_r = np.array(seen)

    seen.clear()
    got = analyze_signal(x)
    np.testing.assert_array_equal(got.period, [p for p, _ in stream])
    np.testing.assert_array_equal(got.pitch_strength, [s for _, s in stream])
    voiced = [t not in silent for t in range(frames)]  # the block path scores silent rows too
    np.testing.assert_array_equal(np.concatenate(seen)[voiced], stream_r)


def _prefer_subharmonics_loop(r, best_lag):
    """The per-divisor loop the vectorised scan replaced, kept as its oracle."""
    peak = r[best_lag - PITCH_MIN_PERIOD]
    chosen = best_lag
    for k in range(2, best_lag // PITCH_MIN_PERIOD + 1):
        center = int(round(best_lag / k))
        lo = max(center - 2, PITCH_MIN_PERIOD)
        hi = min(center + 2, PITCH_MAX_PERIOD)
        if lo > hi:
            continue
        window = r[lo - PITCH_MIN_PERIOD : hi - PITCH_MIN_PERIOD + 1]
        cand = lo + int(np.argmax(window))
        if r[cand - PITCH_MIN_PERIOD] >= SUBHARMONIC_RATIO * peak:
            chosen = cand
    return chosen


def _peaky_r(rng, period):
    """Correlation-like curve: peaks at multiples of `period`, coarsely
    quantized so windows hold ties and several divisors pass at once."""
    lags = np.arange(PITCH_MIN_PERIOD, PITCH_MAX_PERIOD + 1)
    phase = (lags % period) / period
    r = np.maximum(np.cos(2 * np.pi * phase), 0.0) ** 8 - 0.2 * lags / PITCH_MAX_PERIOD
    r += rng.normal(size=lags.size) * 0.02
    return np.round(r, 1)


def test_subharmonic_scan_matches_loop_on_every_peak():
    rng = np.random.default_rng(83)
    lags = np.arange(PITCH_MIN_PERIOD, PITCH_MAX_PERIOD + 1)
    curves = [rng.uniform(-1.0, 1.0, lags.size) for _ in range(3)]
    curves += [_peaky_r(rng, period) for period in (61, 97, 120, 240, 333)]
    moved = 0
    for r in curves:
        for best in range(PITCH_MIN_PERIOD, PITCH_MAX_PERIOD + 1):
            want = _prefer_subharmonics_loop(r, best)
            assert _prefer_subharmonics(r, best) == want, (best, want)
            moved += want != best
    assert moved > 1000  # the scan swapped the peak often enough to mean something


def test_block_subharmonic_scan_matches_loop_on_every_row():
    rng = np.random.default_rng(83)
    lags = np.arange(PITCH_MIN_PERIOD, PITCH_MAX_PERIOD + 1)
    curves = [rng.uniform(-1.0, 1.0, lags.size) for _ in range(3)]
    curves += [_peaky_r(rng, period) for period in (61, 97, 120, 240, 333)]
    for r in curves:
        # one row per raw peak, all scanned in one call
        got = _prefer_subharmonics(np.tile(r, (lags.size, 1)), lags)
        np.testing.assert_array_equal(got, [_prefer_subharmonics_loop(r, best) for best in lags])
