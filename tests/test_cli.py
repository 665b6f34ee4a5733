import re
import subprocess
import sys

import numpy as np
import pytest

import synthetic as syn
from rnx.audio_io import AudioBuffer, load_audio, store_audio
from rnx.cli import main
from rnx.dataset import load_feature_file
from rnx.neural import load_model


def make_corpus(tmp_path, seconds=0.5):
    clean_dir = tmp_path / "clean"
    noise_dir = tmp_path / "noise"
    clean_dir.mkdir()
    noise_dir.mkdir()
    for i in range(2):
        rng = np.random.default_rng(900 + i)
        store_audio(AudioBuffer(syn.speech_like(rng, seconds, pauses=False)), clean_dir / f"c{i}.wav")
    store_audio(
        AudioBuffer(syn.stationary_noise(np.random.default_rng(77), seconds) * 0.5),
        noise_dir / "n0.wav",
    )
    return clean_dir, noise_dir


def test_mix_deterministic_and_counted(tmp_path, capsys):
    clean_dir, noise_dir = make_corpus(tmp_path)
    outs = []
    for name in ("a.rnxf", "b.rnxf"):
        out = tmp_path / name
        code = main([
            "mix", "--clean", str(clean_dir), "--noise", str(noise_dir),
            "--out", str(out), "--mode", "reference", "--seed", "4",
        ])
        assert code == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]
    assert "wrote 98 frames" in capsys.readouterr().out
    assert load_feature_file(tmp_path / "a.rnxf").feature_dim == 42


def test_mix_frame_cap_and_threads(tmp_path, capsys):
    clean_dir, noise_dir = make_corpus(tmp_path)
    out = tmp_path / "cap.rnxf"
    code = main([
        "mix", "--clean", str(clean_dir), "--noise", str(noise_dir),
        "--out", str(out), "--frames", "25", "--seed", "4",
    ])
    assert code == 0
    assert len(load_feature_file(out)) == 25


def test_mix_lists_every_suffix_load_audio_reads_in_any_case(tmp_path, capsys):
    clean_dir, noise_dir = make_corpus(tmp_path)
    (clean_dir / "c0.wav").rename(clean_dir / "c0.WAV")
    noise = load_audio(noise_dir / "n0.wav")
    (noise_dir / "n0.wav").unlink()
    store_audio(noise, noise_dir / "n0.pcm", format="raw")
    (noise_dir / "notes.txt").write_text("not audio")
    out = tmp_path / "suffixes.rnxf"
    code = main([
        "mix", "--clean", str(clean_dir), "--noise", str(noise_dir),
        "--out", str(out), "--mode", "reference", "--seed", "4",
    ])
    assert code == 0, capsys.readouterr().err
    # both clean files and the noise track are mixed: the same frames as the all-WAV corpus
    assert "wrote 98 frames" in capsys.readouterr().out


def test_mix_bad_directory_fails_cleanly(tmp_path, capsys):
    code = main([
        "mix", "--clean", str(tmp_path / "nope"), "--noise", str(tmp_path / "nope"),
        "--out", str(tmp_path / "x.rnxf"),
    ])
    assert code == 1
    assert "error:" in capsys.readouterr().err


def trained_model_path(tmp_path, capsys, mode="reference"):
    clean_dir, noise_dir = make_corpus(tmp_path)
    data = tmp_path / "data.rnxf"
    assert main([
        "mix", "--clean", str(clean_dir), "--noise", str(noise_dir),
        "--out", str(data), "--mode", mode, "--seed", "4",
    ]) == 0
    model = tmp_path / "model.rnxm"
    code = main([
        "train", "--data", str(data), "--out", str(model), "--mode", mode,
        "--epochs", "1", "--steps", "2", "--seq-len", "12", "--batch", "4", "--seed", "1",
    ])
    assert code == 0
    return model


def test_train_writes_model_and_logs(tmp_path, capsys):
    model_path = trained_model_path(tmp_path, capsys)
    out = capsys.readouterr().out
    steps = [l for l in out.splitlines() if l.startswith("epoch=")]
    assert len(steps) == 2
    for line in steps:
        assert re.match(r"^epoch=1 step=\d+ loss=\d+\.\d{6}$", line)
    assert f"saved model to {model_path}" in out
    model = load_model(model_path)
    assert model.feature_dim == 42


@pytest.mark.parametrize("flag, value", [("--batch", "0"), ("--seq-len", "0"), ("--seq-len", "-3"), ("--lr", "nan")])
def test_train_invalid_config_fails_cleanly(tmp_path, capsys, flag, value):
    clean_dir, noise_dir = make_corpus(tmp_path)
    data = tmp_path / "data.rnxf"
    assert main([
        "mix", "--clean", str(clean_dir), "--noise", str(noise_dir),
        "--out", str(data), "--mode", "reference", "--seed", "4",
    ]) == 0
    model = tmp_path / "m.rnxm"
    code = main(["train", "--data", str(data), "--out", str(model), "--mode", "reference", flag, value])
    assert code == 1
    assert "error:" in capsys.readouterr().err
    assert not model.exists()


def test_mix_negative_frame_cap_fails_cleanly(tmp_path, capsys):
    clean_dir, noise_dir = make_corpus(tmp_path)
    out = tmp_path / "neg.rnxf"
    code = main([
        "mix", "--clean", str(clean_dir), "--noise", str(noise_dir), "--out", str(out), "--frames", "-5",
    ])
    assert code == 1
    assert "error:" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("flags", [["--snr-min", "nan"], ["--snr-min=-1e308", "--snr-max=1e308"]])
def test_mix_non_finite_snr_range_fails_cleanly(tmp_path, capsys, flags):
    clean_dir, noise_dir = make_corpus(tmp_path)
    out = tmp_path / "nan.rnxf"
    code = main(["mix", "--clean", str(clean_dir), "--noise", str(noise_dir), "--out", str(out), *flags])
    assert code == 1
    assert "error:" in capsys.readouterr().err
    assert not out.exists()


def test_train_mode_mismatch_fails(tmp_path, capsys):
    clean_dir, noise_dir = make_corpus(tmp_path)
    data = tmp_path / "data.rnxf"
    main([
        "mix", "--clean", str(clean_dir), "--noise", str(noise_dir),
        "--out", str(data), "--mode", "reference", "--seed", "4",
    ])
    code = main(["train", "--data", str(data), "--out", str(tmp_path / "m.rnxm"),
                 "--mode", "extended", "--epochs", "1"])
    assert code == 1
    assert "feature_dim" in capsys.readouterr().err


def test_denoise_end_to_end(tmp_path, capsys):
    model_path = trained_model_path(tmp_path, capsys)
    rng = np.random.default_rng(907)
    x = syn.speech_like(rng, 0.3, pauses=False)[:14400]
    src = tmp_path / "noisy.wav"
    dst = tmp_path / "den.wav"
    masks = tmp_path / "masks.txt"
    store_audio(AudioBuffer(x), src)
    code = main([
        "denoise", "--model", str(model_path), "--in", str(src), "--out", str(dst),
        "--dump-masks", str(masks),
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert re.search(r"frames=30 mean_vad=\d\.\d{6} mean_gain=\d\.\d{6} mean_hop_ms=\d+\.\d{3}", out)
    assert len(load_audio(dst)) == 14400
    assert len(masks.read_text().splitlines()) == 30


def test_denoise_bypass_flags_identity(tmp_path, capsys):
    model_path = trained_model_path(tmp_path, capsys)
    rng = np.random.default_rng(911)
    x = rng.uniform(-0.5, 0.5, 9600)
    src = tmp_path / "in.wav"
    dst = tmp_path / "out.wav"
    store_audio(AudioBuffer(x), src)
    code = main([
        "denoise", "--model", str(model_path), "--in", str(src), "--out", str(dst),
        "--no-mask", "--no-pitch-filter",
    ])
    assert code == 0
    np.testing.assert_allclose(
        load_audio(dst).samples, load_audio(src).samples, atol=1.5 / 32768
    )


def test_denoise_missing_model(tmp_path, capsys):
    code = main([
        "denoise", "--model", str(tmp_path / "no.rnxm"),
        "--in", str(tmp_path / "no.wav"), "--out", str(tmp_path / "o.wav"),
    ])
    assert code == 1
    assert "error:" in capsys.readouterr().err


def test_eval_writes_report(tmp_path, capsys):
    clean = syn.speech_like(np.random.default_rng(919), 1.0, pauses=False) * 0.4
    noise = syn.stationary_noise(np.random.default_rng(929), 1.0)
    c, noisy = syn.mix_at_snr(clean, noise, 5.0)
    _, better = syn.mix_at_snr(clean, noise, 12.0)
    paths = {}
    for name, sig in (("clean", c), ("noisy", noisy), ("a", better), ("b", c)):
        paths[name] = tmp_path / f"{name}.wav"
        store_audio(AudioBuffer(sig), paths[name])
    report = tmp_path / "report.txt"
    code = main([
        "eval", "--clean", str(paths["clean"]), "--noisy", str(paths["noisy"]),
        "--denoised-a", str(paths["a"]), "--denoised-b", str(paths["b"]),
        "--report", str(report), "--condition", "snr5",
    ])
    assert code == 0
    out_lines = [l for l in capsys.readouterr().out.splitlines() if l.startswith("system=")]
    assert len(out_lines) == 3
    pat = re.compile(
        r"^system=(noisy|reference|extended) condition=snr5 "
        r"seg_snr_db=-?\d+\.\d{6} lsd_db=-?\d+\.\d{6} frames=\d+$"
    )
    for line in out_lines:
        assert pat.match(line), line
    assert report.read_text().splitlines() == out_lines


@pytest.mark.parametrize("condition", ["street snr5", "", "snr5\t"])
def test_eval_rejects_unparseable_condition(tmp_path, capsys, condition):
    # a report with such a condition could not be read back by parse_report
    sig = syn.speech_like(np.random.default_rng(919), 1.0, pauses=False) * 0.4
    path = tmp_path / "x.wav"
    store_audio(AudioBuffer(sig), path)
    report = tmp_path / "report.txt"
    code = main([
        "eval", "--clean", str(path), "--noisy", str(path), "--denoised-a", str(path),
        "--denoised-b", str(path), "--report", str(report), "--condition", condition,
    ])
    assert code == 1
    assert "error:" in capsys.readouterr().err
    assert not report.exists()


def test_features_dump(tmp_path, capsys):
    x = syn.speech_like(np.random.default_rng(937), 0.5, pauses=False)
    src = tmp_path / "x.wav"
    store_audio(AudioBuffer(x), src)
    for mode, dim in (("reference", 42), ("extended", 45)):
        out = tmp_path / f"{mode}.rnxf"
        code = main(["features", "--in", str(src), "--out", str(out), "--mode", mode])
        assert code == 0
        data = load_feature_file(out)
        assert data.feature_dim == dim
        assert len(data) == 49
        np.testing.assert_array_equal(data.gains, -1.0)
        np.testing.assert_array_equal(data.vad, 0.0)
    assert "wrote 49 frames" in capsys.readouterr().out


def test_gradcheck_command(capsys):
    code = main(["gradcheck", "--instances", "1", "--seed", "0"])
    assert code == 0
    out = capsys.readouterr().out
    assert re.match(
        r"^gradcheck instances=1 checked=2364 failures=0 "
        r"max_rel_err=\d\.\d{3}e[+-]\d+ max_abs_err=\d\.\d{3}e[+-]\d+$",
        out.strip(),
    )


@pytest.mark.parametrize("instances", ["0", "-3"])
def test_gradcheck_of_no_instances_fails(capsys, instances):
    code = main(["gradcheck", "--instances", instances])
    assert code == 1
    captured = capsys.readouterr()
    assert "error:" in captured.err
    assert "checked=" not in captured.out


def test_unknown_arguments_exit_two():
    with pytest.raises(SystemExit) as exc:
        main(["denoise", "--bogus"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


def test_module_entrypoint_help():
    proc = subprocess.run(
        [sys.executable, "-m", "rnx.cli", "--help"],
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0
    for word in ("mix", "train", "denoise", "eval", "features", "gradcheck"):
        assert word in proc.stdout
