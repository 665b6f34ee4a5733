import re

import numpy as np
import pytest

import synthetic as syn
from rnx.audio_io import AudioBuffer, load_audio, store_audio
from rnx.features import EXTENDED_DIM, REFERENCE_DIM
from rnx.neural import init_weights
from rnx.pipeline import create_state, denoise_buffer, denoise_file, process_hop


def hops_of(x):
    return [x[i : i + 480] for i in range(0, len(x), 480)]


def test_bypass_everything_is_one_hop_delay():
    rng = np.random.default_rng(601)
    x = rng.uniform(-0.8, 0.8, 480 * 6)
    model = init_weights(0, REFERENCE_DIM)
    state = create_state(model)
    blocks = hops_of(x)
    # the warm-up block only sees the zero pending half; transform round-off
    # is all that leaks through
    out0 = process_hop(state, blocks[0], bypass_mask=True, bypass_pitch=True)
    np.testing.assert_allclose(out0.samples, np.zeros(480), atol=1e-12)
    for k in range(1, len(blocks)):
        res = process_hop(state, blocks[k], bypass_mask=True, bypass_pitch=True)
        np.testing.assert_allclose(res.samples, blocks[k - 1], atol=1e-9)


def test_denoise_buffer_bypass_identity_odd_length():
    rng = np.random.default_rng(607)
    x = rng.uniform(-0.8, 0.8, 10000)  # deliberately not a hop multiple
    model = init_weights(0, REFERENCE_DIM)
    out, stats = denoise_buffer(model, AudioBuffer(x), bypass_mask=True, bypass_pitch=True)
    assert len(out) == 10000
    np.testing.assert_allclose(out.samples, x, atol=1e-9)
    assert stats.frames == 21
    assert stats.mean_gain == 1.0


def test_silence_stays_exactly_silent():
    model = init_weights(1, REFERENCE_DIM)
    out, stats = denoise_buffer(model, AudioBuffer(np.zeros(4800)))
    np.testing.assert_array_equal(out.samples, np.zeros(4800))
    assert stats.frames == 10


def test_untrained_model_attenuates_not_amplifies():
    rng = np.random.default_rng(613)
    x = syn.speech_like(rng, 0.5, pauses=False)
    model = init_weights(2, REFERENCE_DIM)
    out, _ = denoise_buffer(model, AudioBuffer(x), bypass_pitch=True)
    assert np.sum(out.samples**2) <= np.sum(x**2)


def test_fresh_state_bitwise_determinism():
    rng = np.random.default_rng(617)
    x = syn.speech_like(rng, 0.3, pauses=False)
    model = init_weights(3, EXTENDED_DIM)
    a, _ = denoise_buffer(model, AudioBuffer(x))
    b, _ = denoise_buffer(model, AudioBuffer(x))
    np.testing.assert_array_equal(a.samples, b.samples)


def test_carried_state_changes_output():
    rng = np.random.default_rng(619)
    warm = rng.uniform(-0.5, 0.5, 480 * 4)
    probe = rng.uniform(-0.5, 0.5, 480)
    model = init_weights(4, REFERENCE_DIM)

    cold = create_state(model)
    out_cold = process_hop(cold, probe)

    warmed = create_state(model)
    for blk in hops_of(warm):
        process_hop(warmed, blk)
    out_warm = process_hop(warmed, probe)
    # the recurrent state and overlap history must matter
    assert np.max(np.abs(out_cold.samples - out_warm.samples)) > 1e-9


def test_buffer_path_equals_manual_hop_loop():
    rng = np.random.default_rng(631)
    x = syn.speech_like(rng, 0.4, pauses=False)[:17000]
    model = init_weights(5, REFERENCE_DIM)
    got, _ = denoise_buffer(model, AudioBuffer(x))

    hops = (len(x) + 479) // 480
    padded = np.zeros(hops * 480)
    padded[: len(x)] = x
    state = create_state(model)
    blocks = [process_hop(state, padded[k * 480 : (k + 1) * 480]).samples for k in range(hops)]
    blocks.append(process_hop(state, np.zeros(480)).samples)
    want = np.concatenate(blocks[1:])[: len(x)]
    np.testing.assert_array_equal(got.samples, want)


def test_mask_hook_injects_and_covers_flush():
    rng = np.random.default_rng(641)
    x = rng.uniform(-0.5, 0.5, 480 * 5)
    model = init_weights(6, REFERENCE_DIM)
    seen = []

    def hook(k):
        seen.append(k)
        return np.zeros(22)

    out, _ = denoise_buffer(model, AudioBuffer(x), mask_hook=hook)
    assert seen == list(range(6))  # 5 input hops plus the flush hop
    np.testing.assert_array_equal(out.samples, np.zeros(len(x)))


def test_mask_hook_none_falls_back():
    rng = np.random.default_rng(643)
    x = rng.uniform(-0.5, 0.5, 480 * 4)
    model = init_weights(7, REFERENCE_DIM)
    plain, _ = denoise_buffer(model, AudioBuffer(x))
    hooked, _ = denoise_buffer(model, AudioBuffer(x), mask_hook=lambda k: None)
    np.testing.assert_array_equal(hooked.samples, plain.samples)


def test_empty_input():
    model = init_weights(8, REFERENCE_DIM)
    out, stats = denoise_buffer(model, AudioBuffer(np.zeros(0)))
    assert len(out) == 0
    assert stats.frames == 0
    assert stats.mean_hop_ms == 0.0


def test_process_hop_rejects_bad_shape():
    model = init_weights(9, REFERENCE_DIM)
    state = create_state(model)
    with pytest.raises(ValueError):
        process_hop(state, np.zeros(960))


def _stream_snapshot(state):
    ex = state.extractor
    return {
        "carry": state.carry.copy(),
        "pitch_history": ex.pitch_state.history.copy(),
        "last_period": ex.pitch_state.last_period,
        "pitch_partial": np.array(ex.pitch_state.partial),  # None after a silent frame
        "bfcc_prev": ex.history.bfcc_prev.copy(),
        "bfcc_prev2": ex.history.bfcc_prev2.copy(),
        "log_energy_prev": ex.history.log_energy_prev.copy(),
        "h_vad": state.hidden.h_vad.copy(),
        "h_noise": state.hidden.h_noise.copy(),
        "h_denoise": state.hidden.h_denoise.copy(),
    }


BAD_MASKS = {
    "negative_mask": np.full(22, -0.5),
    "short_mask": np.full(21, 0.5),
    "nan_mask": np.where(np.arange(22) == 5, np.nan, 0.5),
}


@pytest.mark.parametrize("bad_value", [np.nan, np.inf, *BAD_MASKS])
def test_rejected_hop_leaves_no_trace(bad_value):
    """A hop with a non-finite sample (after six good hops), or a good hop
    with a mask_override that cannot be applied (after three), raises and
    leaves the stream state as it was."""
    rng = np.random.default_rng(643)
    x = syn.speech_like(rng, 0.2, pauses=False)
    blocks = hops_of(x)[:12]
    model = init_weights(10, EXTENDED_DIM)
    clean, probed = create_state(model), create_state(model)
    warm = 3 if bad_value in BAD_MASKS else 6
    for block in blocks[:warm]:
        process_hop(clean, block)
        process_hop(probed, block)

    before = _stream_snapshot(probed)
    if bad_value in BAD_MASKS:
        with pytest.raises(ValueError, match="mask_override"):
            process_hop(probed, blocks[warm], mask_override=BAD_MASKS[bad_value])
    else:
        bad = blocks[warm].copy()
        bad[100] = bad_value
        with pytest.raises(ValueError, match="non-finite"):
            process_hop(probed, bad)
    after = _stream_snapshot(probed)
    assert before.keys() == after.keys()
    for key in before:
        np.testing.assert_array_equal(after[key], before[key], err_msg=key)

    # the next good hops come out bitwise as if the bad hop never arrived
    for block in blocks[warm:]:
        want = process_hop(clean, block)
        got = process_hop(probed, block)
        np.testing.assert_array_equal(got.samples, want.samples)
        np.testing.assert_array_equal(got.mask, want.mask)
        assert (got.vad, got.period, got.pitch_strength) == (want.vad, want.period, want.pitch_strength)


def test_hop_result_fields():
    rng = np.random.default_rng(647)
    x = syn.speech_like(rng, 0.2, pauses=False)
    model = init_weights(10, EXTENDED_DIM)
    state = create_state(model)
    for blk in hops_of(x[: 480 * 8]):
        res = process_hop(state, blk)
        assert res.mask.shape == (22,)
        assert np.all((res.mask > 0) & (res.mask < 1))
        assert 0 < res.vad < 1
        assert 60 <= res.period <= 800
        assert 0.0 <= res.pitch_strength <= 1.0


def test_denoise_file_roundtrip(tmp_path):
    rng = np.random.default_rng(653)
    x = rng.uniform(-0.5, 0.5, 10000)
    src = tmp_path / "in.wav"
    dst = tmp_path / "out.wav"
    store_audio(AudioBuffer(x), src)
    model = init_weights(11, REFERENCE_DIM)
    stats = denoise_file(model, src, dst, bypass_mask=True, bypass_pitch=True)
    back = load_audio(dst)
    ref = load_audio(src)
    assert len(back) == 10000
    assert stats.frames == 21
    # two PCM quantizations plus reconstruction error
    np.testing.assert_allclose(back.samples, ref.samples, atol=1.5 / 32768)


def test_denoise_file_mask_dump(tmp_path):
    rng = np.random.default_rng(659)
    x = syn.speech_like(rng, 0.25, pauses=False)[:5000]
    src = tmp_path / "in.wav"
    dst = tmp_path / "out.wav"
    sidecar = tmp_path / "masks.txt"
    store_audio(AudioBuffer(x), src)
    model = init_weights(12, REFERENCE_DIM)
    denoise_file(model, src, dst, dump_masks_path=sidecar)

    lines = sidecar.read_text().splitlines()
    assert len(lines) == (5000 + 479) // 480
    pat = re.compile(r"^frame=(\d+) vad=(\d\.\d{6}) gains=((?:-?\d+\.\d{6},){21}-?\d+\.\d{6})$")
    for i, line in enumerate(lines):
        m = pat.match(line)
        assert m, line
        assert int(m.group(1)) == i
        assert 0.0 <= float(m.group(2)) <= 1.0
        vals = [float(v) for v in m.group(3).split(",")]
        assert len(vals) == 22
        assert all(0.0 <= v <= 1.0 for v in vals)


def manual_hop_loop(model, x, bypass_mask=False, bypass_pitch=False, mask_hook=None):
    """denoise_buffer's contract as a process_hop loop: (samples, stats fields, dump)."""
    hops = (len(x) + 479) // 480
    padded = np.zeros((hops + 1) * 480)  # the last hop is the zero flush hop
    padded[: len(x)] = x
    state = create_state(model)
    outs, dump = [], []
    for k in range(hops + 1):
        override = mask_hook(k) if mask_hook is not None else None
        res = process_hop(state, padded[k * 480 : (k + 1) * 480], bypass_mask=bypass_mask,
                          bypass_pitch=bypass_pitch, mask_override=override)
        outs.append(res.samples)
        if k < hops:
            dump.append((res.vad, res.mask))
    mean_vad = float(np.mean([v for v, _ in dump])) if hops else 0.0
    mean_gain = float(np.mean([float(np.mean(m)) for _, m in dump])) if hops else 0.0
    return np.concatenate(outs[1:])[: len(x)], (hops, mean_vad, mean_gain), dump


def assert_buffer_equals_hop_loop(model, x, **kwargs):
    dump = []
    got, stats = denoise_buffer(model, AudioBuffer(x), dump=dump, **kwargs)
    want, want_stats, want_dump = manual_hop_loop(model, x, **kwargs)
    np.testing.assert_array_equal(got.samples, want)
    assert (stats.frames, stats.mean_vad, stats.mean_gain) == want_stats
    assert len(dump) == len(want_dump)
    for (vad, mask), (want_vad, want_mask) in zip(dump, want_dump):
        assert vad == want_vad
        np.testing.assert_array_equal(mask, want_mask)


def _corpus():
    rng = np.random.default_rng(661)
    n = 480 * 40 + 211  # 41 hops: two analysis blocks, the second part full
    t = np.arange(n)
    return {
        "speech": syn.speech_like(rng, 0.5)[:n],
        "stationary_noise": syn.stationary_noise(rng, 0.5)[:n],
        "babble": syn.babble_noise(rng, 0.5, voices=3)[:n],
        "tone": syn.tone(220.0, 0.5)[:n],
        "pulse_train": syn.pulse_train(150, n),
        "digital_silence": np.zeros(n),
        "dc": np.full(n, 0.25),
        "square": np.where((t // 109) % 2 == 0, 1.0, -1.0),
    }


CORPUS = _corpus()
MODELS = {dim: init_weights(13, dim) for dim in (REFERENCE_DIM, EXTENDED_DIM)}
BYPASSES = [dict(bypass_mask=m, bypass_pitch=p) for m in (False, True) for p in (False, True)]


@pytest.mark.parametrize(
    "bypass", BYPASSES, ids=lambda b: f"mask{int(b['bypass_mask'])}-pitch{int(b['bypass_pitch'])}"
)
@pytest.mark.parametrize("dim", list(MODELS))
@pytest.mark.parametrize("name", list(CORPUS))
def test_buffer_equals_hop_loop_over_corpus(name, dim, bypass):
    """Samples, stats and dump, bitwise, for every corpus, model mode and bypass."""
    assert_buffer_equals_hop_loop(MODELS[dim], CORPUS[name], **bypass)


@pytest.mark.parametrize("dim", list(MODELS))
@pytest.mark.parametrize("n", [1, 479, 480, 481, 480 * 31, 480 * 32, 480 * 33])
def test_buffer_equals_hop_loop_at_block_edges(n, dim):
    """Lengths around one hop and around one 32-frame block (the flush hop adds a frame)."""
    assert_buffer_equals_hop_loop(MODELS[dim], CORPUS["speech"][:n])


@pytest.mark.parametrize("dim", list(MODELS))
def test_buffer_equals_hop_loop_with_partial_mask_hook(dim):
    """Injected masks on some hops, the network on the rest; its state holds across the injected hops."""
    masks = np.random.default_rng(673).uniform(0.0, 1.0, (41 + 1, 22))
    seen = []

    def hook(k):
        seen.append(k)
        return masks[k] if k % 5 in (1, 2) or k >= 30 else None

    assert_buffer_equals_hop_loop(MODELS[dim], CORPUS["speech"], mask_hook=hook)
    assert seen == list(range(42)) * 2  # per path: 41 input hops plus the flush hop, in order


@pytest.mark.parametrize("bad_value", [np.nan, np.inf, -np.inf])
def test_denoise_buffer_rejects_non_finite_samples(bad_value):
    x = CORPUS["speech"].copy()
    x[480 * 35 + 7] = bad_value  # in the second analysis block
    with pytest.raises(ValueError, match="non-finite"):
        denoise_buffer(MODELS[REFERENCE_DIM], AudioBuffer(x))


@pytest.mark.parametrize("bad_mask", list(BAD_MASKS))
def test_denoise_buffer_rejects_bad_hook_masks(bad_mask):
    x = CORPUS["speech"][: 480 * 8]
    with pytest.raises(ValueError, match="mask"):
        denoise_buffer(MODELS[REFERENCE_DIM], AudioBuffer(x),
                       mask_hook=lambda k: BAD_MASKS[bad_mask] if k == 3 else None)


def test_mask_hook_called_once_per_hop_in_order():
    for n in (0, 1, 480 * 31, 480 * 33 + 5):
        seen = []
        denoise_buffer(MODELS[EXTENDED_DIM], AudioBuffer(CORPUS["babble"][:n]),
                       mask_hook=lambda k: seen.append(k))
        assert seen == list(range((n + 479) // 480 + 1)), n


STREAM_LEN = 20 * 48000  # 20 s


def _impulses(n):
    x = np.zeros(n)
    x[::4800] = 1.0
    return x


LONG_STREAMS = {
    "silence": np.zeros,
    "square": lambda n: np.where((np.arange(n) // 109) % 2 == 0, 1.0, -1.0),  # full scale, 109-sample half period
    "dc": lambda n: np.full(n, 0.99),
    "impulses": _impulses,
}


def assert_long_stream_bounded(model, x):
    """Stream x through process_hop: finite output and states, no growth of the GRU states.

    Returns each GRU's max state norm over the first and the second half.
    """
    state = create_state(model)
    hops = len(x) // 480
    norms = np.empty((hops, 3))
    for k, hop in enumerate(hops_of(x)):
        res = process_hop(state, hop)
        assert np.isfinite(res.samples).all()
        h = state.hidden
        norms[k] = [np.linalg.norm(h.h_vad), np.linalg.norm(h.h_noise), np.linalg.norm(h.h_denoise)]
    assert np.isfinite(norms).all()
    first, second = norms[: hops // 2].max(axis=0), norms[hops // 2 :].max(axis=0)
    assert (second <= 1.1 * first).all(), (first, second)
    return first, second


@pytest.mark.parametrize("seed, dim", [(7, EXTENDED_DIM), (13, REFERENCE_DIM)])
@pytest.mark.parametrize("name", list(LONG_STREAMS))
def test_long_stream_stays_finite_and_bounded(name, seed, dim):
    """20 s of a pathological input: finite output and states, no growth of the GRU states."""
    assert_long_stream_bounded(init_weights(seed, dim), LONG_STREAMS[name](STREAM_LEN))
