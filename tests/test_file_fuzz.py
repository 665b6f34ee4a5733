"""Corrupt model, feature and WAV files raise only their own typed errors.

Each example takes a valid file and truncates it, flips one bit, or
overwrites four bytes with a little-endian u32 (an oversized count, width,
name length or chunk size when it lands on a header field). Loading must
either succeed or raise ModelFormatError / FeatureFileError /
AudioFormatError; a stray struct.error, UnicodeDecodeError, IndexError,
ZeroDivisionError or MemoryError fails.
"""

import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rnx.audio_io import AudioBuffer, AudioFormatError, load_audio, store_audio
from rnx.dataset import FeatureFileError, load_feature_file, write_feature_file
from rnx.features import EXTENDED_DIM, REFERENCE_DIM
from rnx.neural import ModelFormatError, build_model, load_model, save_model

FUZZ = settings(max_examples=300, deadline=None, derandomize=True, database=None)

truncation = st.tuples(st.just("truncate"), st.floats(0.0, 1.0), st.just(0))
bit_flip = st.tuples(st.just("flip"), st.floats(0.0, 1.0), st.integers(0, 7))
corruptions = st.one_of(
    truncation,
    bit_flip,
    st.tuples(st.just("u32"), st.floats(0.0, 1.0), st.integers(2**16, 2**32 - 1)),
)

WAV_SAMPLES = 64
WAV_BYTES = 44 + 2 * WAV_SAMPLES  # RIFF, fmt and data chunk headers, then PCM-16
# in a WAV file the u32 lands in the first 60 bytes, on the RIFF, fmt or
# data headers, with any value: a zero channel count or block size too
wav_corruptions = st.one_of(
    truncation,
    bit_flip,
    st.tuples(st.just("u32"), st.floats(0.0, 56 / WAV_BYTES), st.integers(0, 2**32 - 1)),
)


def corrupt(data: bytes, corruption) -> bytes:
    kind, where, value = corruption
    pos = min(int(where * len(data)), len(data) - 1)
    if kind == "truncate":
        return data[:pos]
    out = bytearray(data)
    if kind == "flip":
        out[pos] ^= 1 << value
    else:
        pos = min(pos, len(data) - 4)
        struct.pack_into("<I", out, pos, value)
    return bytes(out)


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@pytest.fixture(scope="module")
def model_bytes(fuzz_dir):
    path = fuzz_dir / "good.rnxm"
    save_model(build_model(REFERENCE_DIM, widths=(3, 2, 2, 3), seed=1), path)
    return path.read_bytes()


@pytest.fixture(scope="module")
def feature_bytes(fuzz_dir):
    rng = np.random.default_rng(5)
    path = fuzz_dir / "good.rnxf"
    write_feature_file(path, REFERENCE_DIM, rng.normal(size=(3, REFERENCE_DIM)),
                       rng.uniform(size=(3, 22)), np.array([0.0, 1.0, 1.0]))
    return path.read_bytes()


def test_layer_name_byte_flip_raises_model_format_error(fuzz_dir, model_bytes):
    # byte 45 is inside the first layer's name; 0xFF is never valid UTF-8
    path = fuzz_dir / "name.rnxm"
    data = bytearray(model_bytes)
    data[45] = 0xFF
    path.write_bytes(bytes(data))
    with pytest.raises(ModelFormatError, match="UTF-8"):
        load_model(path)


@FUZZ
@given(corruption=corruptions)
def test_corrupt_model_file_raises_only_model_format_error(fuzz_dir, model_bytes, corruption):
    path = fuzz_dir / "fuzz.rnxm"
    path.write_bytes(corrupt(model_bytes, corruption))
    try:
        load_model(path)
    except ModelFormatError:
        pass


@pytest.fixture(scope="module")
def wav_bytes(fuzz_dir):
    path = fuzz_dir / "good.wav"
    store_audio(AudioBuffer(np.random.default_rng(6).uniform(-0.5, 0.5, WAV_SAMPLES)), path)
    data = path.read_bytes()
    assert len(data) == WAV_BYTES
    return data


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_nonfinite_feature_row_raises_feature_file_error(fuzz_dir):
    rng = np.random.default_rng(7)
    path = fuzz_dir / "nan.rnxf"
    write_feature_file(path, EXTENDED_DIM, rng.normal(size=(2, EXTENDED_DIM)),
                       rng.uniform(size=(2, 22)), np.array([0.0, 1.0]))
    data = bytearray(path.read_bytes())
    # quiet NaN, signalling NaN (its cast warns) and +inf in frame 0's first extended feature
    for value in ("0000c07f", "0100807f", "0000807f"):
        data[24 + 4 * 42 : 24 + 4 * 43] = bytes.fromhex(value)
        path.write_bytes(bytes(data))
        with pytest.raises(FeatureFileError, match="non-finite"):
            load_feature_file(path)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@FUZZ
@given(corruption=corruptions)
def test_corrupt_feature_file_raises_only_feature_file_error(fuzz_dir, feature_bytes, corruption):
    path = fuzz_dir / "fuzz.rnxf"
    path.write_bytes(corrupt(feature_bytes, corruption))
    try:
        load_feature_file(path)
    except FeatureFileError:
        pass


@FUZZ
@given(corruption=wav_corruptions)
def test_corrupt_wav_file_raises_only_audio_format_error(fuzz_dir, wav_bytes, corruption):
    path = fuzz_dir / "fuzz.wav"
    path.write_bytes(corrupt(wav_bytes, corruption))
    try:
        load_audio(path)
    except AudioFormatError:
        pass
