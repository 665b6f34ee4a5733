"""Audio ingestion and emission at the fixed 48 kHz pipeline rate.

Everything downstream works on mono float64 samples in [-1, 1]. This module
is the only place container formats and integer sample encodings appear.
WAV plumbing is delegated to scipy; headerless RAW is 16-bit little-endian
PCM by definition here.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np
from scipy.io import wavfile

SAMPLE_RATE = 48000
PCM_SCALE = 32768.0
# Largest storable value: int16 tops out at 32767, so +1.0 cannot survive a
# round trip and is clipped to 32767/32768.
PCM_MAX = 32767.0 / 32768.0
# file suffix (matched in any case) -> the format load_audio and store_audio infer from it
AUDIO_SUFFIXES = {".wav": "wav", ".raw": "raw", ".pcm": "raw", ".sw": "raw"}


class AudioFormatError(ValueError):
    """Raised for malformed or unsupported audio input."""


@dataclass
class AudioBuffer:
    """Mono 48 kHz signal with samples normalized to [-1, 1]."""

    samples: np.ndarray
    sample_rate: int = SAMPLE_RATE

    def __post_init__(self):
        self.samples = np.asarray(self.samples, dtype=np.float64)
        if self.samples.ndim != 1:
            raise AudioFormatError(
                f"expected a mono sample vector, got shape {self.samples.shape}"
            )
        if self.sample_rate != SAMPLE_RATE:
            raise AudioFormatError(
                f"unsupported sample rate {self.sample_rate} Hz (pipeline runs at {SAMPLE_RATE} Hz)"
            )

    def __len__(self):
        return len(self.samples)


def _format_from_path(path) -> str:
    fmt = AUDIO_SUFFIXES.get(os.path.splitext(str(path))[1].lower())
    if fmt is None:
        raise AudioFormatError(
            f"cannot infer audio format from {path!r}; pass format='wav' or format='raw'"
        )
    return fmt


def _decode_pcm16(data: np.ndarray) -> np.ndarray:
    return data.astype(np.float64) / PCM_SCALE


def load_audio(path, format: str | None = None) -> AudioBuffer:
    """Load a mono 48 kHz file as normalized float64 samples.

    WAV input must be mono, 48 kHz, and either PCM-16 or float-32; anything
    else raises AudioFormatError with a diagnostic naming the offending
    property, and so does a data chunk shorter than its header declares;
    unknown chunks are skipped. RAW input is headerless PCM-16
    little-endian and is trusted to be 48 kHz mono.
    """
    fmt = format if format is not None else _format_from_path(path)
    if fmt == "raw":
        data = np.fromfile(path, dtype=np.uint8)
        if data.size % 2:
            raise AudioFormatError(f"RAW file {path!r} has {data.size} bytes, not whole PCM-16 samples")
        return AudioBuffer(_decode_pcm16(data.view("<i2")))
    if fmt != "wav":
        raise AudioFormatError(f"unknown audio format {fmt!r}")

    try:
        # memory-mapped, a truncated data chunk raises; read into memory,
        # scipy would return the samples it found
        rate, data = wavfile.read(path, mmap=True)
    except OSError:
        raise  # a missing or unreadable file, not a malformed one
    except Exception as exc:
        # scipy's parser lets struct.error, ZeroDivisionError and
        # UnboundLocalError escape on corrupt headers, besides ValueError
        raise AudioFormatError(f"unreadable WAV file {path!r}: {exc!r}") from exc
    if rate != SAMPLE_RATE:
        raise AudioFormatError(
            f"unsupported sample rate {rate} Hz in {path!r} (need {SAMPLE_RATE} Hz)"
        )
    if data.ndim != 1:
        raise AudioFormatError(
            f"unsupported channel count {data.shape[1]} in {path!r} (need mono)"
        )
    if data.dtype == np.int16:
        samples = _decode_pcm16(data)
    elif data.dtype == np.float32:
        samples = data.astype(np.float64)
        if not np.all(np.isfinite(samples)):
            raise AudioFormatError(f"non-finite float samples in {path!r}")
        samples = np.clip(samples, -1.0, 1.0)
    else:
        raise AudioFormatError(
            f"unsupported sample format {data.dtype} in {path!r} (need PCM-16 or float-32)"
        )
    return AudioBuffer(samples)


def quantize_pcm16(samples: np.ndarray) -> np.ndarray:
    """Clip to the storable range and round to nearest int16 code; AudioFormatError for a non-finite sample."""
    samples = np.asarray(samples, dtype=np.float64)
    if not np.isfinite(samples).all():
        raise AudioFormatError("non-finite samples cannot be stored as PCM-16")
    clipped = np.clip(samples, -1.0, PCM_MAX)
    return np.rint(clipped * PCM_SCALE).astype("<i2")


def store_audio(buffer: AudioBuffer, path, format: str | None = None) -> None:
    """Write an AudioBuffer as PCM-16, in a WAV container or headerless RAW.

    Samples outside [-1, PCM_MAX] are clipped; quantization rounds to the
    nearest code, so a store/load round trip moves no sample by more than
    one code step (1/32768). A NaN or infinite sample raises
    AudioFormatError before the path is opened.
    """
    fmt = format if format is not None else _format_from_path(path)
    pcm = quantize_pcm16(buffer.samples)
    if fmt == "raw":
        pcm.tofile(path)
    elif fmt == "wav":
        wavfile.write(path, buffer.sample_rate, pcm)
    else:
        raise AudioFormatError(f"unknown audio format {fmt!r}")
