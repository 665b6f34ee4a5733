import math
import multiprocessing
import statistics
import struct
import warnings

import numpy as np
import pytest

import synthetic as syn
from rnx import bands, dsp, worker
from rnx.audio_io import AudioBuffer, AudioFormatError, store_audio
from rnx.dataset import (
    FeatureFileError,
    MixConfig,
    build_dataset,
    load_feature_file,
    mix_and_label,
    vad_labels,
    vad_target,
    write_feature_file,
)
from rnx.features import EXTENDED_DIM, REFERENCE_DIM, FeatureExtractor


def test_vad_target_rule():
    assert vad_target(1.0, 1.0) == 1  # 1.0 > 0.1
    assert vad_target(0.09, 1.0) == 0  # below the relative floor
    assert vad_target(0.1, 1.0) == 0  # strict inequality
    assert vad_target(5e-8, 1e-9) == 0  # below the absolute floor
    assert vad_target(2e-7, 1e-9) == 1
    assert vad_target(0.0, 0.0) == 0


def test_labeler_matches_trailing_median_oracle():
    rng = np.random.default_rng(431)
    # bursts of loud frames inside long quiet stretches
    amps = np.where(rng.uniform(size=300) < 0.3, 0.5, 0.01)
    labels = vad_labels(np.repeat(amps[:, None], 960, axis=1))
    assert labels.shape == (300,)
    window = []
    for amp, got in zip(amps, labels):
        energy = amp * amp
        window.append(energy)
        window = window[-100:]
        med = statistics.median(window)
        want = int(energy > 0.1 * med and energy > 1e-7)
        assert got == want


def test_labeler_first_frame_loud_and_silent():
    assert vad_labels(np.full((1, 960), 0.3)).tolist() == [1]
    assert vad_labels(np.zeros((1, 960))).tolist() == [0]
    assert vad_labels(np.zeros((0, 960))).shape == (0,)


def test_mix_config_validation():
    with pytest.raises(ValueError):
        MixConfig(snr_range_db=(10.0, -10.0))
    with pytest.raises(ValueError):
        MixConfig(gain_range_db=(6.0, -6.0))
    # a negative cap used to slice frames off the tail: feats[:-5]
    with pytest.raises(ValueError, match="frame_target"):
        MixConfig(frame_target=-5)
    assert MixConfig(frame_target=0).frame_target == 0
    # rng.uniform used to die on these at mix time with a bare OverflowError
    for bounds in ((math.nan, 5.0), (0.0, math.nan), (0.0, math.inf), (-math.inf, 0.0), (-1e308, 1e308)):
        for field in ("snr_range_db", "gain_range_db"):
            with pytest.raises(ValueError, match="not finite"):
                MixConfig(**{field: bounds})


def speech_buffer(seed=443, seconds=1.0, scale=1.0):
    rng = np.random.default_rng(seed)
    return AudioBuffer(syn.speech_like(rng, seconds, pauses=False) * scale)


def test_mix_zero_noise_gives_unit_gains():
    clean = speech_buffer()
    noise = AudioBuffer(np.zeros(4800))
    noisy, feats, gains, vads = mix_and_label(clean, noise, MixConfig(seed=1), mode="reference")
    assert feats.shape == (99, REFERENCE_DIM)
    valid = gains >= 0
    assert valid.any()
    np.testing.assert_array_equal(gains[valid], 1.0)
    assert set(np.unique(vads)) <= {0.0, 1.0}


def test_mix_matches_per_frame_composition():
    """The batched mix against the per-frame composition it replaced: the
    extractor, the clean frame's analysis, the IRM of the band energies and
    a trailing-median VAD over a window of the last 100 frame energies."""
    rng = np.random.default_rng(457)
    c = np.concatenate((syn.speech_like(rng, 1.2), np.zeros(480 * 25), syn.speech_like(rng, 0.8, pauses=False)))
    noise = syn.babble_noise(rng, len(c) / 48000) * 0.3
    noise[480 * 120 : 480 * 150] = 0.0  # digital silence in both: dead bands
    cfg = MixConfig(snr_range_db=(5.0, 5.0), gain_range_db=(0.0, 0.0), seed=8)
    noisy, feats, gains, vads = mix_and_label(AudioBuffer(c), AudioBuffer(noise), cfg, mode="extended")
    x = noisy.samples
    assert np.max(np.abs(x)) <= 1.0  # no peak rescue, so the clean signal is c itself

    ex = FeatureExtractor()
    energies = []
    count = (len(x) - 960) // 480 + 1
    assert feats.shape == (count, EXTENDED_DIM) and count > 200
    for t in range(count):
        frame = slice(480 * t, 480 * t + 960)
        want = ex.process(x[frame])  # a one-row SignalAnalysis
        clean_energies = bands.band_energies(dsp.analyze_frame(c[frame]))
        np.testing.assert_array_equal(gains[t], bands.compute_irm(clean_energies, want.band_energies[0]))
        energies.append(float(np.mean(np.square(c[frame]))))
        assert vads[t] == vad_target(energies[-1], float(np.median(energies[-100:])))
        np.testing.assert_allclose(
            feats[t], np.concatenate((want.features[0], want.extended_raw[0])), rtol=0, atol=1e-12
        )
    assert np.any(gains == -1.0) and np.any(vads == 0.0) and np.any(vads == 1.0)


def test_mix_rejects_silent_clean():
    with pytest.raises(ValueError, match="silent"):
        mix_and_label(AudioBuffer(np.zeros(48000)), speech_buffer(), MixConfig())


def test_mix_rejects_empty():
    with pytest.raises(ValueError):
        mix_and_label(AudioBuffer(np.zeros(0)), speech_buffer(), MixConfig())


def test_mix_hits_exact_snr():
    clean = speech_buffer(scale=0.5)
    noise = AudioBuffer(syn.stationary_noise(np.random.default_rng(7), 0.5) * 0.5)
    for snr, level in ((10.0, 0.0), (-5.0, -6.0)):
        cfg = MixConfig(snr_range_db=(snr, snr), gain_range_db=(level, level), seed=3)
        noisy, _, _, _ = mix_and_label(clean, noise, cfg, mode="reference")
        g = 10.0 ** (level / 20.0)
        assert np.max(np.abs(noisy.samples)) <= 1.0  # peak rescue must not fire here
        n_part = noisy.samples - clean.samples * g
        realized = 10.0 * np.log10(
            np.mean((clean.samples * g) ** 2) / np.mean(n_part**2)
        )
        assert abs(realized - snr) < 1e-9


def test_mix_peak_normalization_keeps_ratio():
    clean = speech_buffer(seed=447, scale=3.0)
    assert np.max(np.abs(clean.samples)) > 1.0  # hot input forces the rescue path
    noise = AudioBuffer(syn.stationary_noise(np.random.default_rng(11), 0.5))
    cfg = MixConfig(snr_range_db=(0.0, 0.0), gain_range_db=(0.0, 0.0), seed=5)
    noisy, _, _, _ = mix_and_label(clean, noise, cfg, mode="reference")
    r = noisy.samples
    assert np.max(np.abs(r)) <= 1.0 + 1e-12
    # both parts were divided by the same peak, so the mix still sits at
    # 0 dB; recover the rescale by projecting onto the clean signal
    c = clean.samples
    p = float(c @ c) / float(r @ c)
    n_part = r - c / p
    realized = 10.0 * np.log10(np.mean((c / p) ** 2) / np.mean(n_part**2))
    assert abs(realized) < 0.2


def test_mix_frame_count_and_modes():
    clean = speech_buffer(seconds=1.0)
    noise = AudioBuffer(syn.stationary_noise(np.random.default_rng(13), 1.0))
    _, f_ref, g, v = mix_and_label(clean, noise, MixConfig(seed=2), mode="reference")
    _, f_ext, _, _ = mix_and_label(clean, noise, MixConfig(seed=2), mode="extended")
    assert f_ref.shape == (99, REFERENCE_DIM)
    assert f_ext.shape == (99, EXTENDED_DIM)
    assert g.shape == (99, 22) and v.shape == (99,)
    # identical seed means identical mixing, so the basic 42 agree
    np.testing.assert_array_equal(f_ext[:, :REFERENCE_DIM], f_ref)
    with pytest.raises(ValueError):
        mix_and_label(clean, noise, MixConfig(), mode="qux")


def test_feature_file_roundtrip(tmp_path):
    rng = np.random.default_rng(449)
    for dim in (REFERENCE_DIM, EXTENDED_DIM):
        n = 17
        feats = rng.normal(size=(n, dim))
        gains = rng.uniform(-1, 1, size=(n, 22))
        vads = rng.integers(0, 2, size=n).astype(np.float64)
        path = tmp_path / f"d{dim}.rnxf"
        write_feature_file(path, dim, feats, gains, vads)
        back = load_feature_file(path)
        assert back.feature_dim == dim
        assert len(back) == n
        np.testing.assert_array_equal(back.features, feats.astype(np.float32).astype(np.float64))
        np.testing.assert_array_equal(back.gains, gains.astype(np.float32).astype(np.float64))
        np.testing.assert_array_equal(back.vad, vads)


def test_feature_file_write_validation(tmp_path):
    with pytest.raises(ValueError):
        write_feature_file(tmp_path / "x.rnxf", 42, np.zeros((3, 42)), np.zeros((3, 21)), np.zeros(3))
    with pytest.raises(ValueError):
        write_feature_file(tmp_path / "x.rnxf", 42, np.zeros((3, 45)), np.zeros((3, 22)), np.zeros(3))


@pytest.mark.parametrize(
    "dim, column, value, match",
    [(REFERENCE_DIM, "features", np.nan, "non-finite"), (EXTENDED_DIM, "gains", -1e39, "non-finite"), (44, None, 0.0, "feature_dim")],
    ids=["nan", "beyond-float32", "dim-44"],
)
def test_feature_file_write_refuses_what_load_rejects(tmp_path, dim, column, value, match):
    """A row load_feature_file would reject raises before the path is opened, so a file there survives."""
    kept = tmp_path / "kept.rnxf"
    write_feature_file(kept, REFERENCE_DIM, np.ones((2, REFERENCE_DIM)), np.zeros((2, 22)), np.ones(2))
    before = kept.read_bytes()
    rows = {"features": np.zeros((3, dim)), "gains": np.zeros((3, 22)), "vad": np.ones(3)}
    if column is not None:
        rows[column][1, 4] = value  # -1e39 is finite in float64 and -inf in float32
    for path in (kept, tmp_path / "fresh.rnxf"):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # the float32 cast warns about nothing
            with pytest.raises(ValueError, match=match):
                write_feature_file(path, dim, rows["features"], rows["gains"], rows["vad"])
    assert kept.read_bytes() == before
    assert not (tmp_path / "fresh.rnxf").exists()


def test_feature_file_corruption_errors(tmp_path):
    path = tmp_path / "c.rnxf"
    write_feature_file(path, 42, np.zeros((4, 42)), np.zeros((4, 22)), np.zeros(4))
    good = path.read_bytes()

    path.write_bytes(b"XXXX" + good[4:])
    with pytest.raises(FeatureFileError, match="magic"):
        load_feature_file(path)

    bad_version = bytearray(good)
    bad_version[4] = 9
    path.write_bytes(bytes(bad_version))
    with pytest.raises(FeatureFileError, match="version"):
        load_feature_file(path)

    path.write_bytes(good[:10])
    with pytest.raises(FeatureFileError, match="truncated"):
        load_feature_file(path)

    path.write_bytes(good + b"\x00\x00")
    with pytest.raises(FeatureFileError, match="size"):
        load_feature_file(path)

    bad_dim = bytearray(good)
    struct.pack_into("<I", bad_dim, 8, 43)
    path.write_bytes(bytes(bad_dim))
    with pytest.raises(FeatureFileError, match="feature_dim"):
        load_feature_file(path)

    bad_tgt = bytearray(good)
    struct.pack_into("<I", bad_tgt, 12, 7)
    path.write_bytes(bytes(bad_tgt))
    with pytest.raises(FeatureFileError, match="target_dim"):
        load_feature_file(path)


def corpus(tmp_path, n_clean=2, seconds=0.5):
    clean_dir = tmp_path / "clean"
    noise_dir = tmp_path / "noise"
    clean_dir.mkdir()
    noise_dir.mkdir()
    paths = []
    for i in range(n_clean):
        p = clean_dir / f"c{i}.wav"
        store_audio(speech_buffer(seed=500 + i, seconds=seconds), p)
        paths.append(p)
    npath = noise_dir / "n0.wav"
    store_audio(AudioBuffer(syn.stationary_noise(np.random.default_rng(77), seconds) * 0.5), npath)
    return paths, [npath]


def test_build_dataset_deterministic_bytes(tmp_path):
    clean, noise = corpus(tmp_path)
    outs = []
    for name in ("a.rnxf", "b.rnxf"):
        out = tmp_path / name
        n = build_dataset(clean, noise, MixConfig(seed=9), "extended", out)
        assert n == 98
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


def workers():
    return [p for p in multiprocessing.active_children() if p.name == worker.NAME]


def mixed(monkeypatch, clean, noise, cfg, mode, out, usable=True):
    """(frame count, file bytes, worker.stream calls) of one build_dataset call.

    usable=False runs the worker's half in this process (the fallback).
    """
    calls = []
    stream = worker.stream

    def counted(*args):
        calls.append(args[0])
        return stream(*args)

    with monkeypatch.context() as patch:
        patch.setattr(worker, "stream", counted)
        if not usable:
            patch.setattr(worker, "_usable", lambda: False)
        n = build_dataset(clean, noise, cfg, mode, out)
    return n, out.read_bytes(), len(calls)


@pytest.mark.parametrize("mode", ["reference", "extended"])
@pytest.mark.parametrize("n_clean", [1, 3, 4])
@pytest.mark.parametrize("cut", [False, True], ids=["whole", "frame_target"])
def test_build_dataset_worker_equals_in_process(tmp_path, monkeypatch, mode, n_clean, cut):
    clean, noise = corpus(tmp_path, n_clean=n_clean)
    cfg = MixConfig(seed=21, frame_target=49 * n_clean - 20 if cut else None)  # 49 frames an utterance
    both = mixed(monkeypatch, clean, noise, cfg, mode, tmp_path / "both.rnxf")
    here = mixed(monkeypatch, clean, noise, cfg, mode, tmp_path / "here.rnxf", usable=False)
    assert both[0] == here[0] == (49 * n_clean - 20 if cut else 49 * n_clean)
    assert both[1] == here[1]
    assert both[2] == here[2] == (n_clean > 1)  # one utterance starts no worker
    assert len(workers()) <= 1
    if n_clean > 1:
        assert len(workers()) == 1  # kept for the next call


def write_bad(path, kind):
    if kind == "silent":
        store_audio(AudioBuffer(np.zeros(24000)), path)
    else:
        path.write_bytes(b"RIFF\x10\x00\x00\x00WAVEfmt ")


@pytest.mark.parametrize(
    "bad",
    [{2: "silent"}, {2: "malformed"}, {1: "silent"}, {1: "malformed"}, {2: "silent", 3: "malformed"}, {1: "malformed", 2: "silent"}],
    ids=["worker-silent", "worker-malformed", "caller-silent", "caller-malformed", "worker-first", "caller-first"],
)
def test_build_dataset_failure_raises_as_in_process(tmp_path, monkeypatch, bad):
    """The first bad utterance in corpus order raises as the fallback's does; the next call works.

    worker-first: of two bad utterances in the worker's half, the first raises.
    """
    clean, noise = corpus(tmp_path, n_clean=4)  # the caller mixes indices 0 and 1, the worker 2 and 3
    good = [p.read_bytes() for p in clean]
    for i, kind in bad.items():
        write_bad(clean[i], kind)
    errors = []
    for usable in (True, False):
        with pytest.raises(ValueError) as caught:
            mixed(monkeypatch, clean, noise, MixConfig(seed=21), "reference", tmp_path / "x.rnxf", usable)
        errors.append((type(caught.value), caught.value.args))
    assert errors[0] == errors[1]
    assert errors[0][0] is {"silent": ValueError, "malformed": AudioFormatError}[bad[min(bad)]]
    assert not (tmp_path / "x.rnxf").exists()
    assert len(workers()) <= 1
    for path, data in zip(clean, good):
        path.write_bytes(data)
    both = mixed(monkeypatch, clean, noise, MixConfig(seed=21), "reference", tmp_path / "both.rnxf")
    here = mixed(monkeypatch, clean, noise, MixConfig(seed=21), "reference", tmp_path / "here.rnxf", usable=False)
    assert both[:2] == here[:2] and both[0] == 4 * 49
    (kept,) = workers()
    assert mixed(monkeypatch, clean, noise, MixConfig(seed=21), "reference", tmp_path / "again.rnxf")[:2] == both[:2]
    assert workers() == [kept]  # a call that runs to the end keeps the worker for the next


def test_build_dataset_frame_target(tmp_path):
    clean, noise = corpus(tmp_path)
    out = tmp_path / "cut.rnxf"
    n = build_dataset(clean, noise, MixConfig(seed=9, frame_target=30), "reference", out)
    assert n == 30
    assert len(load_feature_file(out)) == 30


def test_build_dataset_empty_corpus(tmp_path):
    with pytest.raises(ValueError, match="corpus"):
        build_dataset([], [], MixConfig(), "reference", tmp_path / "x.rnxf")
