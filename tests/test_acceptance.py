"""End-to-end acceptance gates, one test per numbered criterion.

The desk-scale training gate builds a synthetic corpus, mixes it, and runs
the full training schedule once in a session fixture; the mask-oracle gate
reuses the same held-out mixture. Each test prints one summary line.
"""

import math
import time

import numpy as np
import pytest

import synthetic as syn
from rnx import bands, dsp
from rnx.audio_io import AudioBuffer, load_audio, store_audio
from rnx.cli import main
from rnx.dataset import MixConfig, build_dataset, load_feature_file
from rnx.evaluate import log_spectral_distance, parse_report, segmental_snr
from rnx.features import log_band_energies, pitch_dct_features, spectral_shape
from rnx.neural import WIRING, init_weights, load_model
from rnx.pipeline import denoise_buffer
from rnx.training import TrainConfig, _mask_loss_terms, gradient_check, train
from test_pipeline import LONG_STREAMS, STREAM_LEN, assert_long_stream_bounded

REPORT_LINE = (
    r"^system=(noisy|reference|extended) condition=\S+ "
    r"seg_snr_db=-?\d+\.\d{6} lsd_db=-?\d+\.\d{6} frames=\d+$"
)


# ---------------------------------------------------------------------------
# shared desk-scale training run (criteria 8 and 9)


@pytest.fixture(scope="session")
def training_run(tmp_path_factory):
    root = tmp_path_factory.mktemp("corpus")
    clean_dir = root / "clean"
    noise_dir = root / "noise"
    clean_dir.mkdir()
    noise_dir.mkdir()

    t0 = time.perf_counter()
    corpus_rng = np.random.default_rng(1234)
    for i in range(30):
        utt = syn.speech_like(corpus_rng, 10.0)
        store_audio(AudioBuffer(utt), clean_dir / f"utt{i:02d}.wav")
    for i in range(4):
        trk = syn.stationary_noise(corpus_rng, 10.0)
        store_audio(AudioBuffer(trk), noise_dir / f"stat{i}.wav")
    for i in range(2):
        trk = syn.babble_noise(corpus_rng, 10.0)
        store_audio(AudioBuffer(trk), noise_dir / f"babble{i}.wav")

    data_path = root / "train.rnxf"
    frames = build_dataset(
        sorted(clean_dir.glob("*.wav")), sorted(noise_dir.glob("*.wav")),
        MixConfig(seed=7), "extended", data_path,
    )
    data = load_feature_file(data_path)

    losses = []
    model = train(
        data, TrainConfig(seed=3), mode="extended",
        on_step=lambda e, s, l: losses.append(l),
    )
    minutes = (time.perf_counter() - t0) / 60.0

    eval_rng = np.random.default_rng(991)
    clean_eval = syn.speech_like(eval_rng, 10.0, pauses=False) * 0.4
    noise_eval = syn.stationary_noise(eval_rng, 10.0)
    clean_eval, noisy_eval = syn.mix_at_snr(clean_eval, noise_eval, 5.0)

    return {
        "model": model,
        "frames": frames,
        "losses": losses,
        "minutes": minutes,
        "clean": clean_eval,
        "noisy": noisy_eval,
    }


# ---------------------------------------------------------------------------


def test_c01_stft_perfect_reconstruction():
    rng = np.random.default_rng(11)
    x = rng.uniform(-0.9, 0.9, 48000)
    model = init_weights(0, 42)
    t0 = time.perf_counter()
    out, _ = denoise_buffer(model, AudioBuffer(x), bypass_mask=True, bypass_pitch=True)
    elapsed = time.perf_counter() - t0
    rel = np.linalg.norm(out.samples - x) / np.linalg.norm(x)
    assert rel < 1e-6
    assert elapsed < 1.0
    print(f"ACCEPTANCE 1: PASS - bypass reconstruction rel err {rel:.3e} in {elapsed:.3f}s")


def test_c02_window_overlap_identity():
    n = np.arange(480)
    w = dsp.vorbis_window(np.arange(960))
    np.testing.assert_array_equal(w, dsp.WINDOW)
    err = np.max(np.abs(w[n] ** 2 + w[n + 480] ** 2 - 1.0))
    assert err < 1e-12
    print(f"ACCEPTANCE 2: PASS - window overlap identity max err {err:.3e}")


def test_c03_band_partition_of_unity():
    rng = np.random.default_rng(33)
    worst = 0.0
    for _ in range(100):
        spec = rng.normal(size=481) + 1j * rng.normal(size=481)
        total = np.sum(np.abs(spec) ** 2)
        banded = np.sum(bands.band_energies(spec))
        worst = max(worst, abs(banded - total) / total)
    assert worst < 1e-9
    print(f"ACCEPTANCE 3: PASS - partition of unity worst rel err {worst:.3e} over 100 spectra")


def test_c04_feature_oracles_on_1000_frames():
    rng = np.random.default_rng(44)
    dct22 = np.array(
        [
            [
                (math.sqrt(1.0 / 22) if k == 0 else math.sqrt(2.0 / 22))
                * math.cos(math.pi * (2 * i + 1) * k / 44.0)
                for i in range(22)
            ]
            for k in range(22)
        ]
    )
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(1000):
        frame = rng.uniform(-0.5, 0.5, 960)
        spec = dsp.analyze_frame(frame)
        power = np.abs(spec) ** 2
        shape = spectral_shape(spec)

        total = math.fsum(power)
        cen = math.fsum(k * p for k, p in enumerate(power)) / (total + 1e-15)
        worst = max(worst, abs(shape[0] - cen))

        spread = math.fsum((k - cen) ** 2 * p for k, p in enumerate(power))
        bw = math.sqrt(spread / (total + 1e-15))
        worst = max(worst, abs(shape[1] - bw))

        run, below = 0.0, 0
        for p in power:
            run += p
            if run < 0.9 * total:
                below += 1
        assert shape[2] == max(below - 1, 0)

        energies = bands.band_energies(spec)
        want_bfcc = dct22 @ np.log(energies + 1e-10)
        worst = max(worst, float(np.max(np.abs(dsp.dct_ii(log_band_energies(energies)) - want_bfcc))))

        corr, _ = bands.band_correlation(spec, np.roll(spec, 7))
        want_pdct = (dct22 @ corr)[:6]
        worst = max(worst, float(np.max(np.abs(pitch_dct_features(corr) - want_pdct))))
    elapsed = time.perf_counter() - t0
    assert worst < 1e-9
    assert elapsed < 30.0
    print(f"ACCEPTANCE 4: PASS - feature oracles worst abs err {worst:.3e} in {elapsed:.1f}s")


def test_c05_gradient_gate():
    t0 = time.perf_counter()
    res = gradient_check(seed=0, instances=20, feature_dim=45, sequence_len=5)
    elapsed = time.perf_counter() - t0
    assert res.failures == 0 and res.passed
    assert res.checked == 20 * 2364
    assert elapsed < 120.0
    print(
        f"ACCEPTANCE 5: PASS - {res.checked} gradient coords, 0 failures, "
        f"max abs err {res.max_abs_err:.3e} in {elapsed:.1f}s"
    )


def test_c06_loss_anchors_and_sentinels():
    ones = np.ones(22)
    assert _mask_loss_terms(ones, ones, 0.5)[0] == 0.0

    got = _mask_loss_terms(np.array([1.0]), np.array([0.25]), 0.5)[0]
    want = 10.0 * (10.0 * 0.75**4 + 0.25 + 0.01 * math.log(4.0)) + 0.5 * math.log(4.0)
    assert abs(got - want) < 1e-9

    rng = np.random.default_rng(66)
    m = rng.uniform(0.0, 1.0, 22)
    m[[2, 9, 17]] = -1.0
    base_pred = rng.uniform(0.0, 1.0, 22)
    base = _mask_loss_terms(m, base_pred, 0.5)[0]
    for value in (0.0, 0.31, 0.99):
        poked = base_pred.copy()
        poked[[2, 9, 17]] = value
        assert _mask_loss_terms(m, poked, 0.5)[0] == base
    print(f"ACCEPTANCE 6: PASS - zero/scalar anchors hold, sentinel bands inert (anchor {got:.12f})")


def test_c07_topology_audit():
    for dim in (42, 45):
        model = init_weights(0, dim)
        assert model.total_units == 215
        consumed = {source for _, _, _, sources in WIRING for source in sources}
        assert sorted(kind for name, kind, _, _ in WIRING if name in consumed) == [0, 1, 1, 1]
        assert [kind for name, kind, _, _ in WIRING if name not in consumed] == [0, 0]
        assert len(model.layers()) == 6
        assert model.dense_in.in_dim == dim
    print("ACCEPTANCE 7: PASS - 215 units, 4 hidden + 2 output layers, input width 42/45")


def test_c08_desk_scale_training_gate(training_run):
    frames = training_run["frames"]
    losses = training_run["losses"]
    assert frames >= 20000
    assert len(losses) == 120 * 8

    first = float(np.mean(losses[:8]))
    last = float(np.mean(losses[-8:]))
    ratio = last / first
    assert ratio <= 0.5

    clean = training_run["clean"]
    noisy = training_run["noisy"]
    den, _ = denoise_buffer(training_run["model"], AudioBuffer(noisy))
    before = segmental_snr(clean, noisy)
    after = segmental_snr(clean, den.samples)
    gain = after - before
    assert gain >= 3.0
    assert training_run["minutes"] < 30.0
    print(
        f"ACCEPTANCE 8: PASS - {frames} frames, loss {first:.4f}->{last:.4f} "
        f"(ratio {ratio:.3f}), seg SNR {before:.2f}->{after:.2f} dB (+{gain:.2f}), "
        f"{training_run['minutes']:.1f} min"
    )


@pytest.mark.parametrize("name", list(LONG_STREAMS))
def test_trained_model_long_stream_stays_finite_and_bounded(training_run, name):
    """20 s of a pathological input through the trained model, with the random models' criterion."""
    first, second = assert_long_stream_bounded(training_run["model"], LONG_STREAMS[name](STREAM_LEN))
    ratios = " ".join(f"{r:.3f}" for r in second / first)
    print(f"LONG STREAM {name}: second/first half max state norm (vad noise denoise) {ratios}")


def test_c09_oracle_mask_gate(training_run):
    clean = training_run["clean"]
    noisy = training_run["noisy"]
    n = len(noisy)
    hops = (n + dsp.HOP - 1) // dsp.HOP
    pad_c = np.zeros(dsp.HOP + hops * dsp.HOP + dsp.HOP)
    pad_n = pad_c.copy()
    pad_c[dsp.HOP : dsp.HOP + n] = clean
    pad_n[dsp.HOP : dsp.HOP + n] = noisy
    masks = []
    for k in range(hops + 1):
        c_spec = dsp.analyze_frame(pad_c[k * dsp.HOP : k * dsp.HOP + dsp.FRAME_LEN])
        n_spec = dsp.analyze_frame(pad_n[k * dsp.HOP : k * dsp.HOP + dsp.FRAME_LEN])
        irm = bands.compute_irm(bands.band_energies(c_spec), bands.band_energies(n_spec))
        masks.append(np.where(irm < 0.0, 0.0, irm))

    model = init_weights(0, 42)  # bypassed; only the mask path runs
    den, _ = denoise_buffer(
        model, AudioBuffer(noisy), bypass_pitch=True, mask_hook=lambda k: masks[k]
    )
    before = segmental_snr(clean, noisy)
    after = segmental_snr(clean, den.samples)
    gain = after - before
    assert gain >= 5.0
    print(f"ACCEPTANCE 9: PASS - oracle mask seg SNR {before:.2f}->{after:.2f} dB (+{gain:.2f})")


def test_c10_bitwise_determinism(tmp_path, capsys):
    clean_dir = tmp_path / "clean"
    noise_dir = tmp_path / "noise"
    clean_dir.mkdir()
    noise_dir.mkdir()
    for i in range(2):
        rng = np.random.default_rng(1000 + i)
        store_audio(AudioBuffer(syn.speech_like(rng, 0.5, pauses=False)), clean_dir / f"c{i}.wav")
    store_audio(
        AudioBuffer(syn.stationary_noise(np.random.default_rng(50), 0.5) * 0.5),
        noise_dir / "n.wav",
    )

    mixes = []
    for name in ("m1.rnxf", "m2.rnxf"):
        out = tmp_path / name
        assert main([
            "mix", "--clean", str(clean_dir), "--noise", str(noise_dir),
            "--out", str(out), "--mode", "extended", "--seed", "7",
        ]) == 0
        mixes.append(out.read_bytes())
    assert mixes[0] == mixes[1]

    models = []
    for name in ("t1.rnxm", "t2.rnxm"):
        out = tmp_path / name
        assert main([
            "train", "--data", str(tmp_path / "m1.rnxf"), "--out", str(out),
            "--mode", "extended", "--epochs", "2", "--steps", "2",
            "--seq-len", "12", "--batch", "4", "--seed", "5",
        ]) == 0
        models.append(out.read_bytes())
    assert models[0] == models[1]

    noisy = tmp_path / "probe.wav"
    store_audio(
        AudioBuffer(syn.speech_like(np.random.default_rng(1010), 0.4, pauses=False)), noisy
    )
    outputs = []
    for name in ("d1", "d2"):
        wav = tmp_path / f"{name}.wav"
        masks = tmp_path / f"{name}.txt"
        assert main([
            "denoise", "--model", str(tmp_path / "t1.rnxm"),
            "--in", str(noisy), "--out", str(wav), "--dump-masks", str(masks),
        ]) == 0
        outputs.append(wav.read_bytes() + masks.read_bytes())
    assert outputs[0] == outputs[1]
    print("ACCEPTANCE 10: PASS - mix, train, and denoise artifacts bitwise identical across runs")


def test_c11_ab_methodology(tmp_path, capsys):
    import re

    ref_model = init_weights(100, 42)
    ext_model = init_weights(101, 45)
    worst = 0.0
    n_reports = 0
    for cond_i, make_noise in enumerate((syn.stationary_noise, syn.babble_noise)):
        for snr in (5.0, 0.0):
            rng = np.random.default_rng(7000 + cond_i)
            clean = syn.speech_like(rng, 2.0, pauses=False) * 0.4
            noise = make_noise(np.random.default_rng(8000 + cond_i), 2.0)
            clean, noisy = syn.mix_at_snr(clean, noise, snr)
            den_a, _ = denoise_buffer(ref_model, AudioBuffer(noisy))
            den_b, _ = denoise_buffer(ext_model, AudioBuffer(noisy))

            cond = f"cond{cond_i}_snr{int(snr)}"
            paths = {}
            for stem, sig in (
                ("clean", clean), ("noisy", noisy), ("a", den_a.samples), ("b", den_b.samples),
            ):
                paths[stem] = tmp_path / f"{cond}_{stem}.wav"
                store_audio(AudioBuffer(sig), paths[stem])
            report = tmp_path / f"{cond}.txt"
            assert main([
                "eval", "--clean", str(paths["clean"]), "--noisy", str(paths["noisy"]),
                "--denoised-a", str(paths["a"]), "--denoised-b", str(paths["b"]),
                "--report", str(report), "--condition", cond,
            ]) == 0

            lines = report.read_text().splitlines()
            assert len(lines) == 3  # numbers only, no winner declared
            for line in lines:
                assert re.match(REPORT_LINE, line), line

            loaded = {k: load_audio(p).samples for k, p in paths.items()}
            expect = {
                "noisy": loaded["noisy"],
                "reference": loaded["a"],
                "extended": loaded["b"],
            }
            for rep in parse_report(report):
                assert rep.condition == cond
                want_seg = segmental_snr(loaded["clean"], expect[rep.system])
                want_lsd = log_spectral_distance(loaded["clean"], expect[rep.system])
                worst = max(worst, abs(rep.seg_snr_db - want_seg), abs(rep.lsd_db - want_lsd))
                assert abs(rep.seg_snr_db - want_seg) < 1e-6
                assert abs(rep.lsd_db - want_lsd) < 1e-6
                n_reports += 1
    assert n_reports == 12
    print(
        f"ACCEPTANCE 11: PASS - {n_reports} report entries over 2 noise kinds x 2 SNRs, "
        f"recomputation gap {worst:.2e}"
    )
