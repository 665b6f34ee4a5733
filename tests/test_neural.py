import hashlib
import math

import numpy as np
import pytest

from rnx.features import EXTENDED_DIM, REFERENCE_DIM, FeatureStats
from rnx.neural import (
    HIDDEN_WIDTHS,
    TOTAL_UNITS,
    WIRING,
    HiddenState,
    LayerParams,
    ModelFormatError,
    NetworkModel,
    activate,
    build_model,
    gru_input,
    gru_scan,
    init_weights,
    load_model,
    network_forward,
    save_model,
)


def sigmoid(v):
    return 1.0 / (1.0 + math.exp(-v))


def make_dense(name, w, b):
    return LayerParams(name, np.asarray(w, dtype=np.float64), None, np.asarray(b, dtype=np.float64))


def make_gru(name, w, u, b):
    return LayerParams(
        name, np.asarray(w, dtype=np.float64), np.asarray(u, dtype=np.float64), np.asarray(b, dtype=np.float64)
    )


def dense_forward(activation, layer, x):
    """A dense layer as `forward` runs one: the named activation of W x + b."""
    return activate(activation, gru_input(layer, x))


def test_dense_zero_input_yields_activated_bias():
    b = np.array([0.3, -1.2])
    lay = make_dense("d", np.ones((2, 3)), b)
    got = dense_forward("sigmoid", lay, np.zeros(3))
    want = [sigmoid(0.3), sigmoid(-1.2)]
    np.testing.assert_allclose(got, want, atol=1e-15)
    np.testing.assert_allclose(dense_forward("tanh", lay, np.zeros(3)), np.tanh(b), atol=1e-15)
    np.testing.assert_allclose(dense_forward("relu", lay, np.zeros(3)), [0.3, 0.0], atol=0)


def test_dense_matvec_oracle():
    rng = np.random.default_rng(211)
    w = rng.normal(size=(4, 6))
    b = rng.normal(size=4)
    x = rng.normal(size=6)
    lay = make_dense("d", w, b)
    want = [math.tanh(math.fsum([w[i, j] * x[j] for j in range(6)] + [b[i]])) for i in range(4)]
    np.testing.assert_allclose(dense_forward("tanh", lay, x), want, atol=1e-12)


def test_dense_width_mismatch():
    lay = make_dense("d", np.ones((2, 3)), np.zeros(2))
    with pytest.raises(ValueError):
        dense_forward("tanh", lay, np.zeros(4))


def gru_step(layer, x, h):
    """One recurrence step: gru_scan at T = 1 over the input gates of x, from h."""
    return gru_scan(layer, gru_input(layer, x)[None], np.asarray(h, dtype=np.float64))[0][1]


def test_gru_zero_everything_stays_zero():
    lay = make_gru("g", np.zeros((9, 4)), np.zeros((9, 3)), np.zeros(9))
    h = gru_step(lay, np.zeros(4), np.zeros(3))
    np.testing.assert_array_equal(h, np.zeros(3))


def test_gru_update_gate_saturation():
    rng = np.random.default_rng(223)
    w = rng.normal(size=(6, 3)) * 0.1
    u = rng.normal(size=(6, 2)) * 0.1
    h0 = rng.normal(size=2)
    x = rng.normal(size=3)
    # z pinned to 1: the state passes through untouched
    b_hold = np.array([50.0, 50.0, 0.0, 0.0, 0.0, 0.0])
    hold = gru_step(make_gru("g", w, u, b_hold), x, h0)
    np.testing.assert_allclose(hold, h0, atol=1e-12)
    # z pinned to 0: the state is replaced by the candidate
    b_repl = np.array([-50.0, -50.0, 0.0, 0.0, 0.0, 0.0])
    repl = gru_step(make_gru("g", w, u, b_repl), x, h0)
    r = 1.0 / (1.0 + np.exp(-(w[2:4] @ x + u[2:4] @ h0)))
    c = np.maximum(w[4:6] @ x + u[4:6] @ (r * h0), 0.0)
    np.testing.assert_allclose(repl, c, atol=1e-12)


def test_gru_single_unit_hand_recurrence():
    wz, wr, wc = 0.7, -0.4, 1.1
    uz, ur, uc = 0.2, 0.5, -0.3
    bz, br, bc = 0.1, -0.2, 0.05
    lay = make_gru("g", [[wz], [wr], [wc]], [[uz], [ur], [uc]], [bz, br, bc])
    h = 0.3
    for x in (0.9, -1.4, 0.2):
        z = sigmoid(wz * x + uz * h + bz)
        r = sigmoid(wr * x + ur * h + br)
        c = max(wc * x + uc * r * h + bc, 0.0)
        want = z * h + (1.0 - z) * c
        got = gru_step(lay, np.array([x]), np.array([h]))
        assert abs(got[0] - want) < 1e-12
        h = want


def test_gru_batched_matches_single():
    rng = np.random.default_rng(227)
    lay = make_gru("g", rng.normal(size=(12, 5)), rng.normal(size=(12, 4)), rng.normal(size=12))
    xs = rng.normal(size=(3, 5))
    hs = rng.normal(size=(3, 4))
    batch = gru_step(lay, xs, hs)
    for i in range(3):
        np.testing.assert_allclose(batch[i], gru_step(lay, xs[i], hs[i]), atol=1e-14)


def oracle_forward(model, features, state):
    """Re-derive the wiring with raw numpy, no library forward helpers.

    The activations are the RNNoise ones, written out: a tanh input layer,
    GRUs with sigmoid gates and a ReLU candidate, and sigmoid heads.
    """

    def sigmoid(v):
        return 1.0 / (1.0 + np.exp(-v))

    def affine(l, x):
        return l.weights @ x + l.bias

    def gru(l, x, h):
        u = l.out_dim
        z = sigmoid(l.weights[:u] @ x + l.recurrent[:u] @ h + l.bias[:u])
        r = sigmoid(l.weights[u : 2 * u] @ x + l.recurrent[u : 2 * u] @ h + l.bias[u : 2 * u])
        c = np.maximum(l.weights[2 * u :] @ x + l.recurrent[2 * u :] @ (r * h) + l.bias[2 * u :], 0.0)
        return z * h + (1.0 - z) * c

    d = np.tanh(affine(model.dense_in, features))
    h1 = gru(model.vad_gru, d, state.h_vad)
    vad = sigmoid(affine(model.vad_out, h1))[0]
    h2 = gru(model.noise_gru, np.concatenate((d, h1, features)), state.h_noise)
    h3 = gru(model.denoise_gru, np.concatenate((h1, h2, features)), state.h_denoise)
    return sigmoid(affine(model.gains_out, h3)), vad, (h1, h2, h3)


def test_forward_zero_features_fresh_state():
    model = init_weights(0, REFERENCE_DIM)
    (mask,), (vad,), new_state = network_forward(model, np.zeros((1, REFERENCE_DIM)), HiddenState.zeros(model))
    # zero features through tanh and zero-bias GRUs leave every gate at its
    # midpoint, so both sigmoid heads sit exactly at one half
    np.testing.assert_array_equal(mask, np.full(22, 0.5))
    assert vad == 0.5
    np.testing.assert_array_equal(new_state.h_vad, np.zeros(24))
    np.testing.assert_array_equal(new_state.h_denoise, np.zeros(96))


def test_forward_matches_wiring_oracle():
    rng = np.random.default_rng(229)
    model = build_model(9, widths=(4, 3, 5, 6), seed=rng)
    state = HiddenState(rng.normal(size=3) * 0.3, rng.normal(size=5) * 0.3, rng.normal(size=6) * 0.3)
    features = rng.normal(size=9)
    (mask,), (vad,), new_state = network_forward(model, features[None], state)
    w_mask, w_vad, (h1, h2, h3) = oracle_forward(model, features, state)
    np.testing.assert_allclose(mask, w_mask, atol=1e-12)
    assert abs(vad - w_vad) < 1e-12
    np.testing.assert_allclose(new_state.h_vad, h1, atol=1e-12)
    np.testing.assert_allclose(new_state.h_noise, h2, atol=1e-12)
    np.testing.assert_allclose(new_state.h_denoise, h3, atol=1e-12)


def test_forward_is_pure_and_deterministic():
    rng = np.random.default_rng(233)
    model = init_weights(4, REFERENCE_DIM)
    state = HiddenState(rng.normal(size=24), rng.normal(size=48), rng.normal(size=96))
    before = {k: v.copy() for k, v in model.parameters().items()}
    h_vad0 = state.h_vad.copy()
    features = rng.normal(size=REFERENCE_DIM)
    m1, v1, _ = network_forward(model, features[None], state)
    m2, v2, _ = network_forward(model, features[None], state)
    np.testing.assert_array_equal(m1, m2)
    assert v1 == v2
    np.testing.assert_array_equal(state.h_vad, h_vad0)
    for k, v in model.parameters().items():
        np.testing.assert_array_equal(v, before[k])


def test_forward_rejects_width_mismatch():
    model = init_weights(0, REFERENCE_DIM)
    with pytest.raises(ValueError):
        network_forward(model, np.zeros((1, EXTENDED_DIM)), HiddenState.zeros(model))


def test_mask_and_vad_ranges():
    rng = np.random.default_rng(239)
    model = init_weights(5, EXTENDED_DIM)
    state = HiddenState.zeros(model)
    for _ in range(10):
        (mask,), (vad,), state = network_forward(model, rng.normal(size=(1, EXTENDED_DIM)), state)
        assert mask.shape == (22,)
        assert np.all((mask > 0) & (mask < 1))
        assert 0 < vad < 1


def test_standard_topology():
    for dim in (REFERENCE_DIM, EXTENDED_DIM):
        model = init_weights(1, dim)
        assert model.total_units == TOTAL_UNITS == 215
        # 1 dense and 3 GRU layers feed others; the 2 dense heads feed nothing
        consumed = {source for _, _, _, sources in WIRING for source in sources}
        assert sorted(kind for name, kind, _, _ in WIRING if name in consumed) == [0, 1, 1, 1]
        assert [kind for name, kind, _, _ in WIRING if name not in consumed] == [0, 0]
        assert model.dense_in.in_dim == dim and model.dense_in.out_dim == 24
        assert model.vad_gru.in_dim == 24 and model.vad_gru.out_dim == 24
        assert model.noise_gru.in_dim == 48 + dim and model.noise_gru.out_dim == 48
        assert model.denoise_gru.in_dim == 72 + dim and model.denoise_gru.out_dim == 96
        assert model.vad_out.out_dim == 1
        assert model.gains_out.out_dim == 22
        assert model.extended == (dim == EXTENDED_DIM)
    with pytest.raises(ValueError):
        init_weights(0, 43)


def test_init_determinism_and_bounds():
    a = init_weights(7, REFERENCE_DIM)
    b = init_weights(7, REFERENCE_DIM)
    c = init_weights(8, REFERENCE_DIM)
    same = True
    for k in a.parameters():
        np.testing.assert_array_equal(a.parameters()[k], b.parameters()[k])
        if not np.array_equal(a.parameters()[k], c.parameters()[k]):
            same = False
    assert not same

    for lay in a.layers():
        fan_out = lay.out_dim
        limit = math.sqrt(6.0 / (lay.in_dim + fan_out))
        # f32 rounding can nudge past the open bound by at most one ulp
        assert np.max(np.abs(lay.weights)) <= limit * (1 + 1e-6)
        if lay.recurrent is not None:
            lim_u = math.sqrt(6.0 / (2 * lay.out_dim))
            assert np.max(np.abs(lay.recurrent)) <= lim_u * (1 + 1e-6)
        assert np.all(lay.bias == 0.0)
        # weights are pre-rounded through f32 so saving is lossless
        np.testing.assert_array_equal(lay.weights, lay.weights.astype(np.float32).astype(np.float64))


# the first 16 hex digits of the sha256 of save_model(init_weights(3, dim))'s bytes
INIT_3_FILE_SHA256 = {REFERENCE_DIM: "614487e710f22cbf", EXTENDED_DIM: "74d8f64565bdc23d"}


def test_save_load_roundtrip_bitwise(tmp_path):
    for dim in (REFERENCE_DIM, EXTENDED_DIM):
        model = init_weights(3, dim)
        path = tmp_path / f"m{dim}.rnxm"
        save_model(model, path)
        assert hashlib.sha256(path.read_bytes()).hexdigest()[:16] == INIT_3_FILE_SHA256[dim]
        back = load_model(path)
        assert back.feature_dim == dim
        assert back.extended == model.extended
        for k, v in model.parameters().items():
            np.testing.assert_array_equal(back.parameters()[k], v)
        for la, lb in zip(model.layers(), back.layers()):
            assert (la.name, la.in_dim, la.out_dim) == (lb.name, lb.in_dim, lb.out_dim)
            assert (la.recurrent is None) == (lb.recurrent is None)
        if dim == EXTENDED_DIM:
            np.testing.assert_array_equal(back.stats.mean, model.stats.mean)
            np.testing.assert_array_equal(back.stats.std, model.stats.std)
        else:
            assert back.stats is None
        # a second save writes the identical file
        path2 = tmp_path / f"m{dim}b.rnxm"
        save_model(back, path2)
        assert path.read_bytes() == path2.read_bytes()


def test_save_load_preserves_trained_stats(tmp_path):
    model = init_weights(9, EXTENDED_DIM)
    model.stats = FeatureStats(np.array([1.5, -2.25, 100.0]), np.array([0.5, 3.0, 42.0]))
    path = tmp_path / "s.rnxm"
    save_model(model, path)
    back = load_model(path)
    # the chosen values are exactly representable in f32
    np.testing.assert_array_equal(back.stats.mean, model.stats.mean)
    np.testing.assert_array_equal(back.stats.std, model.stats.std)


def test_load_rejects_bad_magic(tmp_path):
    path = tmp_path / "bad.rnxm"
    model = init_weights(0, REFERENCE_DIM)
    save_model(model, path)
    data = bytearray(path.read_bytes())
    data[:4] = b"NOPE"
    path.write_bytes(bytes(data))
    with pytest.raises(ModelFormatError, match="magic"):
        load_model(path)


def test_load_rejects_truncation_and_trailing(tmp_path):
    path = tmp_path / "t.rnxm"
    save_model(init_weights(0, REFERENCE_DIM), path)
    data = path.read_bytes()
    for cut in (10, len(data) // 2, len(data) - 1):
        path.write_bytes(data[:cut])
        with pytest.raises(ModelFormatError):
            load_model(path)
    path.write_bytes(data + b"\x00")
    with pytest.raises(ModelFormatError, match="trailing"):
        load_model(path)


def test_load_rejects_version_and_flag_mismatch(tmp_path):
    path = tmp_path / "v.rnxm"
    save_model(init_weights(0, REFERENCE_DIM), path)
    data = bytearray(path.read_bytes())
    good = bytes(data)
    data[4] = 99  # version field
    path.write_bytes(bytes(data))
    with pytest.raises(ModelFormatError, match="version"):
        load_model(path)
    data = bytearray(good)
    data[12] ^= 1  # extended flag without the matching feature width
    path.write_bytes(bytes(data))
    with pytest.raises(ModelFormatError):
        load_model(path)


def test_load_rejects_nonfinite_parameters(tmp_path):
    path = tmp_path / "n.rnxm"
    save_model(init_weights(0, EXTENDED_DIM), path)
    good = path.read_bytes()
    # the file ends with the gains_out bias: make its last value a float32 NaN
    path.write_bytes(good[:-4] + bytes.fromhex("0000c07f"))
    with pytest.raises(ModelFormatError, match="non-finite"):
        load_model(path)
    # +inf in the first stored feature mean (right after the 16-byte header)
    path.write_bytes(good[:16] + bytes.fromhex("0000807f") + good[20:])
    with pytest.raises(ModelFormatError, match="non-finite"):
        load_model(path)


def test_layer_params_validation():
    dense = LayerParams("x", np.zeros((2, 3)), None, np.zeros(2))
    assert (dense.in_dim, dense.out_dim) == (3, 2)
    gru = LayerParams("x", np.zeros((6, 3)), np.zeros((6, 2)), np.zeros(6))
    assert (gru.in_dim, gru.out_dim) == (3, 2)
    with pytest.raises(ModelFormatError):
        LayerParams("x", np.zeros((2, 4)), None, np.zeros(3))
    with pytest.raises(ModelFormatError):
        LayerParams("x", np.zeros(6), None, np.zeros(6))
    with pytest.raises(ModelFormatError):
        LayerParams("x", np.zeros((6, 3)), np.zeros((6, 3)), np.zeros(6))
    with pytest.raises(ModelFormatError):
        LayerParams("x", np.zeros((5, 3)), np.zeros((5, 1)), np.zeros(5))


def test_wiring_validation_catches_bad_dims():
    model = init_weights(0, REFERENCE_DIM)
    broken = NetworkModel(
        feature_dim=model.feature_dim,
        dense_in=model.dense_in,
        vad_gru=model.vad_gru,
        noise_gru=model.denoise_gru,  # swapped on purpose
        denoise_gru=model.noise_gru,
        vad_out=model.vad_out,
        gains_out=model.gains_out,
    )
    with pytest.raises(ModelFormatError):
        broken.validate_wiring()


def test_wiring_validation_rejects_a_layer_of_the_wrong_kind():
    """A dense layer in a GRU slot, or a GRU in a dense slot, with the slot's dims, is rejected."""
    model = init_weights(0, REFERENCE_DIM)
    model.validate_wiring()
    swaps = {
        "vad_gru": LayerParams("vad_gru", np.zeros((24, 24)), None, np.zeros(24)),
        "vad_out": LayerParams("vad_out", np.zeros((3, 24)), np.zeros((3, 1)), np.zeros(3)),
    }
    for name, layer in swaps.items():
        broken = init_weights(0, REFERENCE_DIM)
        setattr(broken, name, layer)
        with pytest.raises(ModelFormatError, match=name):
            broken.validate_wiring()


@pytest.mark.parametrize(
    "slot, head_width",
    [
        ("dense_in", None),
        ("vad_gru", None),
        ("noise_gru", None),
        ("denoise_gru", None),
        ("vad_out", None),
        ("gains_out", None),
        ("vad_out", 2),
        ("gains_out", 21),
    ],
)
@pytest.mark.parametrize("dim", [REFERENCE_DIM, EXTENDED_DIM])
def test_wiring_validation_checks_every_slot_width(tmp_path, slot, head_width, dim):
    """A layer one input column too wide, or a head of the wrong width, is rejected by name, in memory and on load."""
    broken = init_weights(0, dim)
    layer = getattr(broken, slot)
    if head_width is None:  # one more input column; the bias and recurrent weights stay consistent
        weights = np.hstack((layer.weights, np.full((len(layer.weights), 1), 0.1)))
        layer = LayerParams(slot, weights, layer.recurrent, layer.bias)
    else:
        layer = LayerParams(slot, np.full((head_width, layer.in_dim), 0.1), None, np.zeros(head_width))
    setattr(broken, slot, layer)
    with pytest.raises(ModelFormatError, match=slot):
        broken.validate_wiring()
    path = tmp_path / "broken.rnxm"
    save_model(broken, path)
    with pytest.raises(ModelFormatError, match=slot):
        load_model(path)


def _code_offset(model, layer_name, field):
    """The byte offset, in save_model's file of `model`, of a layer's "kind" or "activation" code."""
    pos = 16 + 4 * 6 + 4  # header, feature stats, layer count
    for layer in model.layers():
        name = layer.name.encode()
        if layer.name == layer_name:
            return pos + 1 + len(name) + ("kind", "activation").index(field)
        params = layer.weights.size + layer.bias.size + (0 if layer.recurrent is None else layer.recurrent.size)
        pos += 1 + len(name) + 2 + 8 + 4 * params
    raise KeyError(layer_name)


# kind codes: 0 dense, 1 GRU; activation codes: 0 tanh, 1 relu, 2 sigmoid
@pytest.mark.parametrize(
    "layer_name, field, code",
    [
        ("gains_out", "activation", 0),
        ("vad_gru", "activation", 2),
        ("dense_in", "activation", 1),
        ("vad_out", "activation", 1),
        ("vad_gru", "kind", 0),
        ("gains_out", "kind", 1),
        ("noise_gru", "kind", 7),
    ],
)
def test_load_rejects_a_code_the_wiring_does_not_have(tmp_path, layer_name, field, code):
    model = init_weights(7, REFERENCE_DIM)
    path = tmp_path / "w.rnxm"
    save_model(model, path)
    data = bytearray(path.read_bytes())
    at = _code_offset(model, layer_name, field)
    assert data[at] != code
    data[at] = code
    path.write_bytes(bytes(data))
    with pytest.raises(ModelFormatError, match=layer_name):
        load_model(path)


def test_hidden_state_zeros_shapes():
    model = init_weights(0, REFERENCE_DIM)
    st = HiddenState.zeros(model)
    assert st.h_vad.shape == (24,)
    assert st.h_noise.shape == (48,)
    assert st.h_denoise.shape == (96,)
    assert HIDDEN_WIDTHS == (24, 24, 48, 96)


@pytest.mark.parametrize("dim", [REFERENCE_DIM, EXTENDED_DIM])
def test_network_block_rows_equal_network_forward(dim):
    """k one-row calls that carry the state equal one k-row call, bitwise."""
    model = init_weights(21, dim)
    feats = np.random.default_rng(22).normal(size=(7, dim))
    state = HiddenState.zeros(model)
    state.h_noise = np.full(model.noise_gru.out_dim, 0.3)
    masks, vads, end = network_forward(model, feats, state)
    for k in range(len(feats)):
        (mask,), (vad,), state = network_forward(model, feats[k : k + 1], state)
        np.testing.assert_array_equal(masks[k], mask)
        assert vads[k] == vad
    for name in ("h_vad", "h_noise", "h_denoise"):
        np.testing.assert_array_equal(getattr(end, name), getattr(state, name))
    for bad in (feats[0], feats[:0], feats[:, :-1]):
        with pytest.raises(ValueError):
            network_forward(model, bad, state)
