import math
import re

import numpy as np
import pytest

import synthetic as syn
from rnx.evaluate import (
    MetricsReport,
    ab_compare,
    log_spectral_distance,
    parse_report,
    score_pair,
    segmental_snr,
    write_report,
)


def speech(seed=701, seconds=1.0):
    return syn.speech_like(np.random.default_rng(seed), seconds, pauses=False)


def test_segsnr_identical_hits_ceiling():
    x = speech()
    assert segmental_snr(x, x) == 35.0


def test_segsnr_exact_zero_db_per_frame():
    rng = np.random.default_rng(703)
    clean = rng.normal(size=960 * 5) * 0.2
    noise = rng.normal(size=960 * 5)
    # scale the noise frame by frame so every frame sits at exactly 0 dB
    for f in range(5):
        s = slice(f * 960, (f + 1) * 960)
        noise[s] *= math.sqrt(np.sum(clean[s] ** 2) / np.sum(noise[s] ** 2))
    got = segmental_snr(clean, clean + noise)
    assert abs(got) < 1e-6


def test_segsnr_mean_of_per_frame_values():
    rng = np.random.default_rng(709)
    clean = rng.normal(size=960 * 4) * 0.2
    noise = rng.normal(size=960 * 4)
    targets = [20.0, 10.0, 5.0, 0.0]
    for f, snr in enumerate(targets):
        s = slice(f * 960, (f + 1) * 960)
        want = np.sum(clean[s] ** 2) / 10.0 ** (snr / 10.0)
        noise[s] *= math.sqrt(want / np.sum(noise[s] ** 2))
    got = segmental_snr(clean, clean + noise)
    assert abs(got - np.mean(targets)) < 1e-6


def test_segsnr_clamps_at_floor():
    rng = np.random.default_rng(719)
    clean = rng.normal(size=960 * 3) * 0.1
    test = clean + rng.normal(size=960 * 3) * 100.0
    assert segmental_snr(clean, test) == -10.0


def test_segsnr_skips_silent_clean_frames():
    rng = np.random.default_rng(727)
    loud = rng.normal(size=960) * 0.3
    clean = np.concatenate((np.zeros(960), loud))
    noise = rng.normal(size=1920)
    noise[960:] *= math.sqrt(np.sum(loud**2) / 10.0 ** (1.5) / np.sum(noise[960:] ** 2))
    got = segmental_snr(clean, clean + noise)
    # the silent first frame is excluded, so only the 15 dB frame scores
    assert abs(got - 15.0) < 1e-6


def test_segsnr_error_cases():
    with pytest.raises(ValueError, match="scoreable"):
        segmental_snr(np.zeros(4800), np.ones(4800) * 0.1)
    with pytest.raises(ValueError, match="scoreable"):
        segmental_snr(np.zeros(100), np.zeros(100))
    with pytest.raises(ValueError, match="mismatch"):
        segmental_snr(np.zeros(960), np.zeros(961))


def test_lsd_identical_is_zero():
    x = speech(731)
    assert log_spectral_distance(x, x) == 0.0


def test_lsd_global_gain_is_flat_offset():
    rng = np.random.default_rng(733)
    x = rng.normal(size=48000) * 0.2
    got = log_spectral_distance(x, 2.0 * x)
    assert abs(got - 20.0 * math.log10(2.0)) < 1e-3


def test_lsd_symmetry():
    a = speech(739)
    b = speech(743)
    assert log_spectral_distance(a, b) == log_spectral_distance(b, a)


def test_lsd_matches_frame_loop_oracle():
    a = speech(751, 0.5)
    b = speech(757, 0.5)

    n = np.arange(960)
    window = np.sin(0.5 * math.pi * np.sin(math.pi * (n + 0.5) / 960) ** 2)

    def spectra(x):
        rows = []
        off = 0
        while off + 960 <= len(x):
            rows.append(20.0 * np.log10(np.abs(np.fft.rfft(x[off : off + 960] * window)) + 1e-12))
            off += 480
        return np.asarray(rows)

    gap = spectra(a) - spectra(b)
    want = float(np.mean(np.sqrt(np.mean(gap**2, axis=1))))
    got = log_spectral_distance(a, b)
    assert abs(got - want) < 1e-9


def test_lsd_too_short():
    with pytest.raises(ValueError, match="shorter"):
        log_spectral_distance(np.zeros(900), np.zeros(900))


def test_metrics_track_noise_ladder():
    clean_src = speech(761, 1.0) * 0.4
    noise = syn.stationary_noise(np.random.default_rng(769), 1.0)
    seg = []
    lsd = []
    for snr in (20.0, 10.0, 5.0, 0.0, -5.0):
        c, noisy = syn.mix_at_snr(clean_src, noise, snr)
        seg.append(segmental_snr(c, noisy))
        lsd.append(log_spectral_distance(c, noisy))
    assert all(a > b for a, b in zip(seg, seg[1:])), seg
    assert all(a < b for a, b in zip(lsd, lsd[1:])), lsd


def test_score_pair_fields():
    x = speech(773)
    rep = score_pair(x, x, system="noisy", condition="snr5")
    assert rep.system == "noisy"
    assert rep.condition == "snr5"
    assert rep.frames_scored == len(x) // 960
    assert rep.seg_snr_db == 35.0
    assert rep.lsd_db == 0.0


def test_ab_compare_structure_and_deltas(tmp_path):
    clean = speech(787) * 0.4
    noise = syn.stationary_noise(np.random.default_rng(797), 1.0)
    _, noisy = syn.mix_at_snr(clean, noise, 5.0)
    _, better = syn.mix_at_snr(clean, noise, 15.0)

    export = tmp_path / "ab"
    reports, deltas = ab_compare(clean, noisy, better, clean, condition="snr5", export_dir=export)
    assert set(reports) == {"noisy", "reference", "extended"}
    assert set(deltas) == {"reference", "extended"}
    for name in deltas:
        want_seg = reports[name].seg_snr_db - reports["noisy"].seg_snr_db
        want_lsd = reports[name].lsd_db - reports["noisy"].lsd_db
        assert deltas[name]["seg_snr_db"] == want_seg
        assert deltas[name]["lsd_db"] == want_lsd
    # a perfect "extended" output pins the ceiling and zero distance
    assert reports["extended"].seg_snr_db == 35.0
    assert reports["extended"].lsd_db == 0.0
    assert reports["reference"].seg_snr_db > reports["noisy"].seg_snr_db
    for stem in ("clean", "noisy", "denoised_reference", "denoised_extended"):
        assert (export / f"{stem}.wav").exists()


@pytest.mark.parametrize("condition", ["street snr5", "", " snr5", "snr5\n"])
def test_unparseable_condition_is_rejected_before_scoring(monkeypatch, condition):
    x = speech(823)
    scored = []
    monkeypatch.setattr("rnx.evaluate.segmental_snr", lambda *a: scored.append(a) or 0.0)
    with pytest.raises(ValueError, match="condition"):
        score_pair(x, x, condition=condition)
    with pytest.raises(ValueError, match="condition"):
        ab_compare(x, x, x, x, condition=condition)
    assert scored == []


def test_ab_compare_identical_systems_zero_deltas():
    clean = speech(809) * 0.4
    noise = syn.stationary_noise(np.random.default_rng(811), 1.0)
    _, noisy = syn.mix_at_snr(clean, noise, 8.0)
    _, deltas = ab_compare(clean, noisy, noisy, noisy)
    for name in deltas:
        assert deltas[name]["seg_snr_db"] == 0.0
        assert deltas[name]["lsd_db"] == 0.0


def test_report_write_parse_roundtrip(tmp_path):
    reports = [
        MetricsReport("noisy", "snr5", 3.141593, 8.5, 103),
        MetricsReport("extended", "snr-5", -7.25, 12.000001, 99),
    ]
    path = tmp_path / "report.txt"
    write_report(path, reports)

    pat = re.compile(
        r"^system=\S+ condition=\S+ seg_snr_db=-?\d+\.\d{6} lsd_db=-?\d+\.\d{6} frames=\d+$"
    )
    lines = path.read_text().splitlines()
    assert len(lines) == 2
    for line in lines:
        assert pat.match(line), line

    back = parse_report(path)
    for orig, rt in zip(reports, back):
        assert rt.system == orig.system
        assert rt.condition == orig.condition
        assert abs(rt.seg_snr_db - orig.seg_snr_db) < 1e-6
        assert abs(rt.lsd_db - orig.lsd_db) < 1e-6
        assert rt.frames_scored == orig.frames_scored


def test_parse_report_rejects_garbage(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("system=x condition=y seg_snr_db=1.0\n")
    with pytest.raises(ValueError, match="malformed"):
        parse_report(path)
