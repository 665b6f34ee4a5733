import math
import warnings

import numpy as np
import pytest
from scipy.special import expit

from rnx import training
from rnx.dataset import FeatureDataset
from rnx.features import EXTENDED_DIM, REFERENCE_DIM
from rnx.neural import HiddenState, build_model, init_weights, network_block, network_forward
from rnx.training import (
    POWER_FLOOR,
    AdamState,
    TrainConfig,
    adam_update,
    backward_tbptt,
    binary_cross_entropy,
    clip_gradients,
    loss,
    sequence_loss,
    train,
)


def oracle_band_loss(m, m_hat, gamma):
    """Straight re-derivation of the band loss with scalar math."""
    n = len(m)
    acc = []
    for t, p in zip(m, m_hat):
        if t < 0:
            continue
        log_p = math.log(min(max(p, 1e-7), 1.0))
        gap = max(p, 1e-12) ** gamma - t**gamma
        first = 10.0 * (t - p) ** 4 + gap**2 - 0.01 * t * log_p
        acc.append((10.0 / n) * first - (1.0 / n) * abs(t - 0.5) * t * log_p)
    return math.fsum(acc)


def test_loss_perfect_ones_is_exactly_zero():
    ones = np.ones(22)
    assert loss(ones, ones, 0.5) == 0.0


def test_loss_single_band_anchor():
    got = loss(np.array([1.0]), np.array([0.25]), 0.5)
    want = oracle_band_loss([1.0], [0.25], 0.5)
    assert abs(got - want) < 1e-12
    # spelled out: 10*(10*0.75^4 + 0.25 + 0.01*ln4) + 0.5*ln4
    spelled = 10.0 * (10.0 * 0.75**4 + 0.25 + 0.01 * math.log(4.0)) + 0.5 * math.log(4.0)
    assert abs(got - spelled) < 1e-12


def test_loss_matches_oracle_on_random_vectors():
    rng = np.random.default_rng(307)
    for _ in range(20):
        m = rng.uniform(0.0, 1.0, 22)
        m_hat = rng.uniform(1e-9, 1.0, 22)
        m[rng.uniform(size=22) < 0.2] = -1.0
        got = loss(m, m_hat, 0.5)
        assert abs(got - oracle_band_loss(m, m_hat, 0.5)) < 1e-12


def test_loss_sentinels_are_inert():
    rng = np.random.default_rng(311)
    m = rng.uniform(0.0, 1.0, 22)
    m_hat = rng.uniform(0.0, 1.0, 22)
    sent = m.copy()
    sent[[3, 11, 19]] = -1.0
    # sentinel positions contribute nothing no matter what is predicted there
    a = m_hat.copy()
    b = m_hat.copy()
    b[[3, 11, 19]] = rng.uniform(0.0, 1.0, 3)
    assert loss(sent, a, 0.5) == loss(sent, b, 0.5)


def test_loss_all_sentinels_zero():
    assert loss(np.full(22, -1.0), np.random.default_rng(0).uniform(size=22), 0.5) == 0.0


def test_loss_log_floor_keeps_it_finite():
    val = loss(np.ones(4), np.zeros(4), 0.5)
    assert math.isfinite(val)
    assert abs(val - oracle_band_loss(np.ones(4), np.zeros(4), 0.5)) < 1e-12


def edge_case_frames():
    """(targets, predictions) frames that visit every branch of the band loss."""
    rng = np.random.default_rng(331)
    m = rng.uniform(0.0, 1.0, (12, 22))
    m_hat = rng.uniform(0.0, 1.0, (12, 22))
    m[:, :3] = -1.0  # sentinel bands
    m[:, 3] = 0.0
    m[:, 4] = 1.0
    m_hat[:, 5] = 0.0
    m_hat[:, 6] = 0.5 * POWER_FLOOR
    m_hat[:, 7] = -0.3  # at or below POWER_FLOOR, and below the log floor
    m_hat[:, 8] = 5e-8  # between POWER_FLOOR and the log floor
    m_hat[:, 9] = 1.0
    m_hat[:, 10] = 1.4
    m[-1] = -1.0  # one all-sentinel frame
    return m, m_hat


@pytest.mark.parametrize("gamma", [0.3, 0.5, 1.0])
def test_mask_loss_terms_match_oracle(gamma):
    m, m_hat = edge_case_frames()
    diff = m - m_hat
    assert np.any(diff[m >= 0] < 0) and np.any(diff[m >= 0] > 0)
    values, _ = training._mask_loss_terms(m, m_hat, gamma)
    assert values.dtype == np.float64
    for row, got in zip(zip(m, m_hat), values):
        assert abs(got - oracle_band_loss(*row, gamma)) < 1e-12


@pytest.mark.parametrize("gamma", [0.3, 0.5, 1.0])
def test_mask_loss_gradient_matches_central_differences(gamma):
    m, m_hat = edge_case_frames()
    # points at or under POWER_FLOOR are probed on the negative side, where a
    # step cannot cross the floors; 0, POWER_FLOOR/2 and the kink at 1.0 are
    # left to the value test
    m_hat[:, 5] = -0.05
    m_hat[:, 6] = -1e-3
    m_hat[:, 9] = 0.999
    _, grad = training._mask_loss_terms(m, m_hat, gamma)
    for frame in range(len(m)):
        for band in range(22):
            # every other band a sentinel: the loss is this band's term alone
            target = np.full(22, -1.0)
            target[band] = m[frame, band]
            step = 1e-4 * abs(m_hat[frame, band])
            up = m_hat[frame].copy()
            down = m_hat[frame].copy()
            up[band] += step
            down[band] -= step
            fd = (loss(target, up, gamma) - loss(target, down, gamma)) / (2.0 * step)
            g = grad[frame, band]
            if m[frame, band] < 0:
                assert g == 0.0 and fd == 0.0
                continue
            # truncation error, plus the rounding error of the difference quotient
            value = abs(loss(target, m_hat[frame], gamma))
            tol = 1e-6 * max(1.0, abs(fd)) + 4.0 * np.finfo(float).eps * max(1.0, value) / step
            assert abs(g - fd) <= tol, (frame, band, g, fd)


def test_bce_values():
    assert abs(binary_cross_entropy(1.0, 0.5) - math.log(2.0)) < 1e-15
    assert abs(binary_cross_entropy(0.0, 0.5) - math.log(2.0)) < 1e-15
    assert abs(binary_cross_entropy(1.0, 0.9) + math.log(0.9)) < 1e-15
    # clamping keeps saturated predictions finite
    assert abs(binary_cross_entropy(1.0, 0.0) + math.log(1e-7)) < 1e-12
    assert abs(binary_cross_entropy(0.0, 1.0) + math.log1p(-(1.0 - 1e-7))) < 1e-12
    # symmetry under label/prediction complement
    assert abs(binary_cross_entropy(1.0, 0.3) - binary_cross_entropy(0.0, 0.7)) < 1e-15


def test_adam_first_step_moves_by_lr():
    p = {"w": np.array([1.0, -2.0, 0.5])}
    g = {"w": np.array([0.3, -4.0, 1e-3])}
    st = AdamState.init_like(p)
    adam_update(p, g, st, lr=0.001)
    # with bias correction the first step is -lr * g/(|g| + eps), i.e. almost
    # exactly -lr in the gradient's direction
    want = np.array([1.0, -2.0, 0.5]) - 0.001 * np.sign([0.3, -4.0, 1e-3])
    np.testing.assert_allclose(p["w"], want, atol=1e-7)
    assert st.t == 1


def test_adam_zero_gradient_is_a_noop():
    p = {"w": np.array([1.0, 2.0])}
    st = AdamState.init_like(p)
    adam_update(p, {"w": np.zeros(2)}, st, lr=0.1)
    np.testing.assert_array_equal(p["w"], [1.0, 2.0])


def test_adam_minimizes_quadratic():
    p = {"w": np.array([10.0])}
    st = AdamState.init_like(p)
    for _ in range(400):
        adam_update(p, {"w": 2.0 * (p["w"] - 3.0)}, st, lr=0.1)
    assert abs(p["w"][0] - 3.0) < 1e-3


def test_clip_gradients_scales_to_cap():
    g = {"a": np.array([3.0, 0.0]), "b": np.array([0.0, 4.0])}
    raw = clip_gradients(g, 2.5)
    assert abs(raw - 5.0) < 1e-12
    total = math.sqrt(sum(float(np.sum(v**2)) for v in g.values()))
    assert abs(total - 2.5) < 1e-12
    g2 = {"a": np.array([0.3, 0.4])}
    raw2 = clip_gradients(g2, 2.5)
    assert abs(raw2 - 0.5) < 1e-12
    np.testing.assert_array_equal(g2["a"], [0.3, 0.4])


def tiny_batch(rng, b=2, t=7, dim=REFERENCE_DIM):
    feats = rng.normal(size=(b, t, dim))
    gains = rng.uniform(0.0, 1.0, size=(b, t, 22))
    vads = rng.integers(0, 2, size=(b, t)).astype(np.float64)
    return feats, gains, vads


def test_backward_loss_matches_sequence_loss():
    rng = np.random.default_rng(313)
    model = init_weights(2, REFERENCE_DIM)
    feats, gains, vads = tiny_batch(rng)
    _, l1 = backward_tbptt(model, feats, gains, vads)
    l2 = sequence_loss(model, feats, gains, vads)
    assert abs(l1 - l2) < 1e-12


def test_backward_batch_duplication_invariance():
    rng = np.random.default_rng(317)
    model = init_weights(4, REFERENCE_DIM)
    feats, gains, vads = tiny_batch(rng, b=2)
    g1, l1 = backward_tbptt(model, feats, gains, vads, clip_norm=None)
    dup = (np.tile(feats, (2, 1, 1)), np.tile(gains, (2, 1, 1)), np.tile(vads, (2, 1)))
    g2, l2 = backward_tbptt(model, *dup, clip_norm=None)
    # the loss is a mean over frames, so duplicating the batch changes nothing
    assert abs(l1 - l2) < 1e-12
    for k in g1:
        np.testing.assert_allclose(g2[k], g1[k], atol=1e-12)


def test_backward_all_sentinels_and_zero_vad_weight_gives_zero_grads():
    rng = np.random.default_rng(331)
    model = init_weights(5, REFERENCE_DIM)
    feats = rng.normal(size=(1, 6, REFERENCE_DIM))
    gains = np.full((1, 6, 22), -1.0)
    vads = np.zeros((1, 6))
    grads, value = backward_tbptt(model, feats, gains, vads, vad_weight=0.0, clip_norm=None)
    assert value == 0.0
    for k, g in grads.items():
        assert np.all(g == 0.0), k


def test_backward_rejects_nonfinite():
    rng = np.random.default_rng(337)
    model = init_weights(6, REFERENCE_DIM)
    feats, gains, vads = tiny_batch(rng, b=1, t=4)
    feats[0, 2, 10] = np.nan
    with pytest.raises(RuntimeError, match="non-finite"):
        backward_tbptt(model, feats, gains, vads)


def test_backward_rejects_width_mismatch():
    rng = np.random.default_rng(347)
    model = init_weights(6, REFERENCE_DIM)
    feats, gains, vads = tiny_batch(rng, b=1, t=4, dim=EXTENDED_DIM)
    with pytest.raises(ValueError):
        backward_tbptt(model, feats, gains, vads)


def test_backward_clipping_caps_global_norm():
    rng = np.random.default_rng(349)
    model = init_weights(8, REFERENCE_DIM)
    feats, gains, vads = tiny_batch(rng)
    cap = 1e-4
    grads, _ = backward_tbptt(model, feats, gains, vads, clip_norm=cap)
    norm = math.sqrt(sum(float(np.sum(g**2)) for g in grads.values()))
    assert norm <= cap * (1 + 1e-9)


def test_forward_cache_agrees_with_streaming_forward():
    # the training-time batched forward must produce the same masks as the
    # frame-by-frame inference path
    rng = np.random.default_rng(353)
    model = init_weights(9, REFERENCE_DIM)
    feats = rng.normal(size=(1, 5, REFERENCE_DIM))
    gains = np.ones((1, 5, 22))
    vads = np.ones((1, 5))
    val = sequence_loss(model, feats, gains, vads, vad_weight=0.0)

    state = HiddenState.zeros(model)
    acc = []
    for t in range(5):
        mask, _, state = network_forward(model, feats[0, t], state)
        acc.append(loss(np.ones(22), mask, 0.5))
    assert abs(val - np.mean(acc)) < 1e-10


@pytest.mark.parametrize("dim", [REFERENCE_DIM, EXTENDED_DIM])
def test_training_forward_equals_network_block(dim):
    # float64 training forward (GEMMs, folded logistic, h = c + z(h - c))
    # against the inference block path (per-row products, expit), sequence
    # by sequence
    rng = np.random.default_rng(401)
    model = init_weights(12, dim)
    feats = rng.normal(size=(3, 200, dim))
    fw = training._forward(model, feats)
    for i in range(3):
        masks, vads, _ = network_block(model, feats[i], HiddenState.zeros(model))
        np.testing.assert_allclose(fw.mask[:, i], masks, rtol=0, atol=1e-12)
        np.testing.assert_allclose(fw.vad[:, i], vads, rtol=0, atol=1e-12)


def saturating_model(dtype, seed):
    """Standard model whose z/r gates and heads see pre-activations beyond +-100."""
    rng = np.random.default_rng(seed)
    model = init_weights(seed, REFERENCE_DIM)

    def extreme(n):
        return rng.choice([-1.0, 1.0], size=n) * rng.uniform(100.0, 1000.0, size=n)

    for layer in (model.vad_gru, model.noise_gru, model.denoise_gru):
        layer.bias[: 2 * layer.out_dim] = extreme(2 * layer.out_dim)
    for layer in (model.gains_out, model.vad_out):
        layer.bias[:] = extreme(layer.out_dim)
    training._set_precision(model, dtype)
    return model


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_saturated_gates_raise_no_warning(dtype):
    rng = np.random.default_rng(409)
    model = saturating_model(dtype, 13)
    feats, gains, vads = (a.astype(dtype) for a in tiny_batch(rng, b=2, t=20))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        fw = training._forward(model, feats)
        grads, value = backward_tbptt(model, feats, gains, vads, clip_norm=None)
    assert np.isfinite(value)
    for key, g in grads.items():
        assert np.all(np.isfinite(g)), key
    for cache in (fw.vad_gru, fw.noise_gru, fw.denoise_gru):
        assert cache.zr.dtype == dtype
        assert np.all((cache.zr >= 0.0) & (cache.zr <= 1.0))
        # saturated both ways: some gates are exactly 0, others exactly 1
        assert np.any(cache.zr == 0.0) and np.any(cache.zr == 1.0)


def test_scan_gates_match_expit_within_4_ulp():
    rng = np.random.default_rng(419)
    model = init_weights(14, EXTENDED_DIM)
    for layer in model.layers():
        layer.weights *= 4.0
        if layer.recurrent is not None:
            layer.recurrent *= 4.0  # z/r pre-activations reach about +-20
    training._set_precision(model, np.float32)
    fw = training._forward(model, rng.normal(size=(4, 50, EXTENDED_DIM)).astype(np.float32))
    for layer, cache in ((model.vad_gru, fw.vad_gru), (model.noise_gru, fw.noise_gru),
                         (model.denoise_gru, fw.denoise_gru)):
        u = layer.out_dim
        # the scan's own products, un-negated: negation is exact in every step
        gx = training._rows_times(cache.x, layer.weights.T) + layer.bias
        u_zr = np.ascontiguousarray(layer.recurrent[: 2 * u].T)
        pre = np.stack([gx[i, :, : 2 * u] + cache.h[i] @ u_zr for i in range(len(gx))])
        assert np.abs(pre).max() > 10.0
        np.testing.assert_array_max_ulp(cache.zr, expit(pre), maxulp=4)


def decaying_model(dtype):
    """Small ReLU-GRU model whose states decay through the float32 subnormals.

    Each GRU's candidate is positive on a +1 frame and cut to 0 by the ReLU on
    -1 frames, and a large positive update-gate bias makes h decay by
    z = expit(2) ~ 0.88 per frame after that.
    """
    model = build_model(REFERENCE_DIM, widths=(4, 3, 5, 6), seed=0)
    model.dense_in.weights[:] = 0.5
    for layer in (model.vad_gru, model.noise_gru, model.denoise_gru):
        u = layer.out_dim
        layer.weights[: 2 * u] = 0.0
        layer.weights[2 * u :] = 0.5
        layer.recurrent[:] = 0.0
        layer.bias[:u] = 2.0
    training._set_precision(model, dtype)
    return model


def decaying_batch(dtype, t=900):
    feats = -np.ones((2, t, REFERENCE_DIM))
    feats[:, 0] = 1.0
    feats[1, :5] = 1.0
    gains = np.random.default_rng(397).uniform(0.0, 1.0, size=(2, t, 22))
    vads = np.ones((2, t))
    return feats.astype(dtype), gains.astype(dtype), vads.astype(dtype)


def run_recording_gates(dtype, monkeypatch):
    recorded = []
    original = training._gru_gate_deltas

    def record(layer, cache, delta_out):
        gates = original(layer, cache, delta_out)
        recorded.append((cache.h, gates[..., : 2 * layer.out_dim]))  # z and r deltas
        return gates

    monkeypatch.setattr(training, "_gru_gate_deltas", record)
    grads, value = backward_tbptt(decaying_model(dtype), *decaying_batch(dtype), clip_norm=None)
    monkeypatch.undo()
    return grads, value, recorded


def test_float32_subnormals_are_flushed(monkeypatch):
    tiny = np.finfo(np.float32).tiny

    def subnormal(a):
        return np.count_nonzero((a != 0) & (np.abs(a) < tiny))

    # the float64 run keeps every value: the batch really passes through
    # the float32 subnormal range in the states and in the z/r gate deltas
    grads64, loss64, ref = run_recording_gates(np.float64, monkeypatch)
    assert all(subnormal(h) > 0 for h, _ in ref)
    assert sum(subnormal(g) > 0 for _, g in ref) >= 2

    grads32, loss32, got = run_recording_gates(np.float32, monkeypatch)
    assert len(got) == 3
    for h, d_zr in got:
        assert h.dtype == d_zr.dtype == np.float32
        assert subnormal(h) == 0 and subnormal(d_zr) == 0

    # flushing changes nothing above float32 rounding
    assert abs(loss32 - loss64) <= 1e-6 * abs(loss64)
    for key, g64 in grads64.items():
        assert grads32[key].dtype == np.float32
        np.testing.assert_allclose(grads32[key], g64, rtol=1e-4, atol=1e-6 * np.abs(g64).max(), err_msg=key)


def synthetic_dataset(rng, n, dim):
    feats = rng.normal(size=(n, dim))
    gains = np.clip(rng.uniform(0.55, 0.95, size=(n, 22)), 0, 1)
    vads = (rng.uniform(size=n) < 0.7).astype(np.float64)
    return FeatureDataset(dim, feats, gains, vads)


def test_train_epochs_zero_returns_fresh_model_with_stats():
    rng = np.random.default_rng(359)
    data = synthetic_dataset(rng, 50, EXTENDED_DIM)
    cfg = TrainConfig(epochs=0, seed=11)
    model = train(data, cfg, mode="extended")
    fresh = init_weights(11, EXTENDED_DIM)
    for k, v in model.parameters().items():
        np.testing.assert_array_equal(v, fresh.parameters()[k])
    trio = data.features[:, REFERENCE_DIM:]
    want_mean = trio.mean(axis=0).astype(np.float32).astype(np.float64)
    want_std = trio.std(axis=0).astype(np.float32).astype(np.float64)
    np.testing.assert_array_equal(model.stats.mean, want_mean)
    np.testing.assert_array_equal(model.stats.std, want_std)


def test_train_mode_dimension_validation():
    rng = np.random.default_rng(367)
    data = synthetic_dataset(rng, 30, REFERENCE_DIM)
    with pytest.raises(ValueError, match="feature_dim"):
        train(data, TrainConfig(epochs=0), mode="extended")
    with pytest.raises(ValueError, match="mode"):
        train(data, TrainConfig(epochs=0), mode="fancy")


def test_train_rejects_short_dataset():
    rng = np.random.default_rng(373)
    data = synthetic_dataset(rng, 10, REFERENCE_DIM)
    cfg = TrainConfig(epochs=1, steps_per_epoch=1, sequence_len=20, batch_sequences=2)
    with pytest.raises(ValueError, match="frames"):
        train(data, cfg, mode="reference")


def test_train_is_bit_deterministic():
    rng = np.random.default_rng(379)
    data = synthetic_dataset(rng, 80, EXTENDED_DIM)
    cfg = TrainConfig(epochs=1, steps_per_epoch=3, sequence_len=12, batch_sequences=4, seed=5)
    runs = []
    for _ in range(2):
        model = train(data, cfg, mode="extended")
        runs.append({k: v.copy() for k, v in model.parameters().items()})
    for k in runs[0]:
        np.testing.assert_array_equal(runs[0][k], runs[1][k])


def test_train_reduces_loss_on_learnable_targets():
    rng = np.random.default_rng(383)
    data = synthetic_dataset(rng, 200, REFERENCE_DIM)
    # constant bright gains and active speech are easy to fit quickly
    data.gains[:] = 0.9
    data.vad[:] = 1.0
    losses = []
    cfg = TrainConfig(epochs=8, steps_per_epoch=4, sequence_len=16, batch_sequences=8, seed=2)
    train(data, cfg, mode="reference", on_step=lambda e, s, l: losses.append(l))
    assert len(losses) == 32
    assert np.mean(losses[-4:]) < 0.5 * np.mean(losses[:4])


def test_train_restores_float64_parameters():
    rng = np.random.default_rng(389)
    data = synthetic_dataset(rng, 60, REFERENCE_DIM)
    cfg = TrainConfig(epochs=1, steps_per_epoch=1, sequence_len=10, batch_sequences=2, seed=3)
    model = train(data, cfg, mode="reference")
    for v in model.parameters().values():
        assert v.dtype == np.float64
    assert model.stats is None
