import struct

import numpy as np
import pytest
from scipy.io import wavfile

from rnx.audio_io import (
    AudioBuffer,
    AudioFormatError,
    load_audio,
    quantize_pcm16,
    store_audio,
)


def test_raw_int16_decoding(tmp_path):
    path = tmp_path / "x.raw"
    np.array([0, 16384, -16384, 32767, -32768], dtype="<i2").tofile(path)
    buf = load_audio(path)
    np.testing.assert_allclose(
        buf.samples, [0.0, 0.5, -0.5, 32767 / 32768, -1.0], atol=0
    )


def test_raw_odd_byte_count_rejected(tmp_path):
    # RAW holds whole PCM-16 samples: a trailing odd byte is malformed input,
    # not a sample to drop; empty and 2-byte files are the controls
    (tmp_path / "empty.raw").write_bytes(b"")
    (tmp_path / "one.raw").write_bytes(b"\x01\x80")
    assert len(load_audio(tmp_path / "empty.raw")) == 0
    np.testing.assert_array_equal(load_audio(tmp_path / "one.raw").samples, [-32767 / 32768])
    (tmp_path / "odd.raw").write_bytes(b"\x01\x80\x02")
    with pytest.raises(AudioFormatError, match="3 bytes"):
        load_audio(tmp_path / "odd.raw")


def test_wav_pcm16_roundtrip_error_bound(tmp_path):
    rng = np.random.default_rng(0)
    x = rng.uniform(-1.0, 1.0, 4800)
    store_audio(AudioBuffer(x), tmp_path / "x.wav")
    back = load_audio(tmp_path / "x.wav")
    assert len(back) == len(x)
    assert np.max(np.abs(back.samples - np.clip(x, -1, 32767 / 32768))) <= 1 / 32768


def test_raw_roundtrip(tmp_path):
    rng = np.random.default_rng(1)
    x = rng.uniform(-0.9, 0.9, 1000)
    store_audio(AudioBuffer(x), tmp_path / "x.raw")
    back = load_audio(tmp_path / "x.raw")
    assert np.max(np.abs(back.samples - x)) <= 1 / 32768


def test_store_clips_out_of_range():
    q = quantize_pcm16(np.array([2.0, -2.0, 1.0]))
    assert q.tolist() == [32767, -32768, 32767]


@pytest.mark.parametrize("suffix", [".wav", ".raw"])
@pytest.mark.parametrize("bad_value", [np.nan, np.inf, -np.inf])
def test_store_rejects_non_finite_samples_before_opening(tmp_path, suffix, bad_value):
    path = tmp_path / f"x{suffix}"
    store_audio(AudioBuffer(np.full(100, 0.25)), path)
    before = path.read_bytes()
    with pytest.raises(AudioFormatError, match="non-finite"):
        store_audio(AudioBuffer(np.array([0.1, bad_value, 0.2])), path)
    assert path.read_bytes() == before
    with pytest.raises(AudioFormatError, match="non-finite"):
        store_audio(AudioBuffer(np.array([bad_value])), tmp_path / f"new{suffix}")
    assert not (tmp_path / f"new{suffix}").exists()


def test_quantization_rounds_to_nearest():
    q = quantize_pcm16(np.array([1.4 / 32768, -1.4 / 32768, 0.6 / 32768]))
    assert q.tolist() == [1, -1, 1]


def test_wrong_sample_rate_rejected(tmp_path):
    path = tmp_path / "bad.wav"
    wavfile.write(path, 44100, np.zeros(100, dtype=np.int16))
    with pytest.raises(AudioFormatError, match="44100"):
        load_audio(path)


def test_stereo_rejected(tmp_path):
    path = tmp_path / "stereo.wav"
    wavfile.write(path, 48000, np.zeros((100, 2), dtype=np.int16))
    with pytest.raises(AudioFormatError, match="channel"):
        load_audio(path)


def test_unsupported_dtype_rejected(tmp_path):
    path = tmp_path / "f64.wav"
    wavfile.write(path, 48000, np.zeros(100, dtype=np.float64))
    with pytest.raises(AudioFormatError, match="float64"):
        load_audio(path)


def test_float32_wav_loads(tmp_path):
    path = tmp_path / "f32.wav"
    x = np.linspace(-0.5, 0.5, 200, dtype=np.float32)
    wavfile.write(path, 48000, x)
    buf = load_audio(path)
    np.testing.assert_allclose(buf.samples, x.astype(np.float64), rtol=0, atol=0)


def test_truncated_data_chunk_rejected_unknown_chunk_skipped(tmp_path):
    path = tmp_path / "t.wav"
    x = np.linspace(-0.5, 0.5, 2000)
    store_audio(AudioBuffer(x), path)
    good = path.read_bytes()
    # an even and an odd cut inside the 4000-byte data chunk
    for cut in (1000, 999):
        path.write_bytes(good[:-cut])
        with pytest.raises(AudioFormatError):
            load_audio(path)
    # an unknown 3-byte chunk and its pad byte between the fmt and data chunks
    extra = b"xtra" + struct.pack("<I", 3) + b"abc\x00"
    body = good[12:36] + extra + good[36:]
    path.write_bytes(b"RIFF" + struct.pack("<I", 4 + len(body)) + b"WAVE" + body)
    with pytest.warns(wavfile.WavFileWarning, match="not understood"):
        back = load_audio(path)
    np.testing.assert_array_equal(back.samples, quantize_pcm16(x) / 32768.0)


def test_empty_file_roundtrip(tmp_path):
    store_audio(AudioBuffer(np.zeros(0)), tmp_path / "empty.raw")
    assert len(load_audio(tmp_path / "empty.raw")) == 0


def test_format_inferred_from_extension(tmp_path):
    x = np.zeros(100)
    store_audio(AudioBuffer(x), tmp_path / "a.wav")
    store_audio(AudioBuffer(x), tmp_path / "a.raw")
    assert len(load_audio(tmp_path / "a.wav")) == 100
    assert len(load_audio(tmp_path / "a.raw")) == 100
    with pytest.raises(AudioFormatError, match="infer"):
        load_audio(tmp_path / "a.mp3")


def test_buffer_validation():
    with pytest.raises(AudioFormatError):
        AudioBuffer(np.zeros((10, 2)))
    with pytest.raises(AudioFormatError):
        AudioBuffer(np.zeros(10), sample_rate=16000)
