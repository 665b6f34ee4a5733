"""Frame-level transforms: windowed analysis, synthesis, and the DCT.

The stream is cut into 960-sample (20 ms) frames hopped by 480 samples, so
consecutive frames overlap by half. Both analysis and synthesis apply the
same sine-of-sine window; its squared values at offsets n and n+480 sum to
one, which is what makes plain overlap-add reconstruction exact.

The DCT runs on short band vectors (22 values), so it is a product with
an orthonormal N x N DCT-II matrix, built once per length N and cached.
For vectors this short one small product costs far less than a general
transform call, and the two agree up to rounding. A stack of vectors
takes one matrix-vector product per row, so each row is bitwise equal to
its own call.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

FRAME_LEN = 960
HOP = 480
NUM_BINS = FRAME_LEN // 2 + 1  # rfft bins, 50 Hz apart


def vorbis_window(n):
    """Window weight sin(pi/2 * sin^2(pi (n + 0.5) / N)) at sample index n.

    Accepts a scalar index or an index array.
    """
    n = np.asarray(n, dtype=np.float64)
    inner = np.sin(np.pi * (n + 0.5) / FRAME_LEN)
    return np.sin(0.5 * np.pi * inner * inner)


WINDOW = vorbis_window(np.arange(FRAME_LEN))
WINDOW.setflags(write=False)


@lru_cache(maxsize=8)
def _dct_matrix(n: int) -> np.ndarray:
    """Orthonormal n x n DCT-II matrix, read-only: row k holds basis vector k."""
    k = np.arange(n)[:, None]
    m = np.sqrt(2.0 / n) * np.cos(np.pi * k * (2 * np.arange(n) + 1) / (2 * n))
    m[0] /= np.sqrt(2.0)
    m.setflags(write=False)
    return m


def analyze_frame(frame: np.ndarray) -> np.ndarray:
    """Window a 960-sample frame and return its 481-bin half spectrum.

    A (k, 960) stack of frames gives a (k, 481) stack of spectra from one
    transform call and one finiteness check.
    """
    frame = np.asarray(frame, dtype=np.float64)
    if frame.ndim not in (1, 2) or frame.shape[-1] != FRAME_LEN:
        raise ValueError(f"expected a frame of {FRAME_LEN} samples, got shape {frame.shape}")
    if not np.isfinite(frame).all():
        raise ValueError("non-finite samples in analysis frame")
    return np.fft.rfft(frame * WINDOW)


def framed(signal: np.ndarray, length: int = FRAME_LEN) -> np.ndarray:
    """Read-only (T, length) view of the windows signal[480 t : 480 t + length], as many as fit."""
    if len(signal) < length:
        return np.zeros((0, length))
    return sliding_window_view(signal, length)[::HOP]


def synthesize_frame(spectrum: np.ndarray, overlap: np.ndarray):
    """Invert one spectrum and fold it into the overlap-add stream.

    Returns (out, carry): `out` is the 480 finished output samples (the
    frame's first half plus the carry from the previous frame), `carry` is
    the windowed second half to be added to the next frame's output. A
    (k, 481) stack of consecutive frames gives (k, 480) output hops, the
    overlap-add done inside the stack, and the last frame's carry.
    """
    spectrum = np.asarray(spectrum)
    if spectrum.ndim not in (1, 2) or spectrum.shape[-1] != NUM_BINS:
        raise ValueError(f"expected {NUM_BINS} spectrum bins, got shape {spectrum.shape}")
    overlap = np.asarray(overlap, dtype=np.float64)
    if overlap.shape != (HOP,):
        raise ValueError(f"expected {HOP} overlap samples, got shape {overlap.shape}")
    frame = np.fft.irfft(spectrum, FRAME_LEN) * WINDOW
    # each frame's first half adds the second half of the frame before it
    tails = np.concatenate((overlap, frame[..., HOP:].ravel()))
    out = frame[..., :HOP] + tails[:-HOP].reshape(frame.shape[:-1] + (HOP,))
    return out, tails[-HOP:]


def dct_ii(values: np.ndarray) -> np.ndarray:
    """Orthonormal DCT-II along the last axis."""
    values = np.asarray(values, dtype=np.float64)
    return np.matvec(_dct_matrix(values.shape[-1]), values)
