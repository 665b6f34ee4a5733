"""Write one seed's benchmark inputs into a directory.

Run as its own process (`python3 perfbench/gen.py --seed N --out DIR`) so
that synthesis time and memory never reach the measured process, which
only loads the files written here. The signals follow the style of the
test-suite generators: voiced harmonic bursts with true digital silence
between them, fricative-like noise bursts, tilted stationary noise and a
babble of continuous voiced streams. The same seed gives the same files.

Layout of DIR:
    stream.npy            float64 samples, speech + babble at 5 dB
    clean/*.wav           clean speech with pauses (the mix corpus)
    noise/*.wav           one stationary and one babble track
    heldout/*.wav         noisy mixes plus one clean file with silence
    heldout_clean/*.wav   the clean reference of each held-out file
"""

from __future__ import annotations

import argparse
import os
from pathlib import Path

import numpy as np
import scipy.signal
from scipy.io import wavfile

SR = 48000
STREAM_S = 10.0
STREAM_SNR_DB = 5.0
CLEAN_FILES = 4
CLEAN_S = 3.0
NOISE_S = 3.0
HELDOUT_S = 3.0
BABBLE_VOICES = 6


def _resonator(x, rng):
    fc = rng.uniform(300.0, 3000.0)
    bw = rng.uniform(80.0, 300.0)
    r = np.exp(-np.pi * bw / SR)
    theta = 2.0 * np.pi * fc / SR
    return scipy.signal.lfilter([1.0 - r], [1.0, -2.0 * r * np.cos(theta), r * r], x)


def _voiced(rng, n):
    base = rng.uniform(90.0, 240.0)
    f0 = np.clip(base + np.linspace(0.0, rng.uniform(-30.0, 30.0), n), 65.0, None)
    saw = np.mod(np.cumsum(2.0 * np.pi * f0 / SR), 2.0 * np.pi) / np.pi - 1.0
    x = _resonator(_resonator(saw, rng), rng)
    attack = max(min(int(0.03 * SR), n // 4), 1)
    decay = max(min(int(0.08 * SR), n // 4), 1)
    env = np.ones(n)
    env[:attack] *= np.linspace(0.0, 1.0, attack)
    env[n - decay :] *= np.linspace(1.0, 0.0, decay)
    x = x * env
    return x / (np.max(np.abs(x)) + 1e-12) * rng.uniform(0.25, 0.5)


def _fricative(rng, n):
    sos = scipy.signal.butter(4, [2000.0, 6000.0], btype="bandpass", fs=SR, output="sos")
    x = scipy.signal.sosfilt(sos, rng.normal(size=n)) * np.hanning(n)
    return x / (np.max(np.abs(x)) + 1e-12) * rng.uniform(0.05, 0.15)


def speech(rng, seconds, pauses=True):
    """Voiced (and, with pauses, fricative) bursts; gaps are exact zeros."""
    n = int(seconds * SR)
    out = np.zeros(n)
    pos = 0
    while pos < n:
        if pauses:
            pos += int(rng.uniform(0.08, 0.35) * SR)
            if pos >= n:
                break
        seg = min(int(rng.uniform(0.35, 1.1) * SR), n - pos)
        if seg < 960:
            break
        if pauses and rng.random() < 0.2:
            out[pos : pos + seg] = _fricative(rng, seg)
        else:
            out[pos : pos + seg] = _voiced(rng, seg)
        pos += seg
    return out


def stationary(rng, seconds):
    white = rng.normal(size=int(seconds * SR))
    colored = scipy.signal.lfilter([0.25], [1.0, -0.75], white) + 0.4 * white
    return colored / (np.max(np.abs(colored)) + 1e-12) * 0.3


def babble(rng, seconds):
    acc = sum(speech(rng, seconds, pauses=False) for _ in range(BABBLE_VOICES))
    return acc / (np.max(np.abs(acc)) + 1e-12) * 0.3


def mix(clean, noise, snr_db):
    """Noise scaled to snr_db against the clean power; peak kept below 1."""
    noise = np.resize(noise, len(clean))
    scale = np.sqrt(np.mean(clean**2) / (np.mean(noise**2) * 10.0 ** (snr_db / 10.0)))
    noisy = clean + noise * scale
    peak = max(np.max(np.abs(noisy)), 1.0) / 0.99
    return clean / peak, noisy / peak


def write_wav(path, x):
    pcm = np.rint(np.clip(x, -1.0, 32767.0 / 32768.0) * 32768.0).astype("<i2")
    wavfile.write(path, SR, pcm)


def generate(seed: int, out: Path) -> None:
    rng = np.random.default_rng(seed)
    for sub in ("clean", "noise", "heldout", "heldout_clean"):
        (out / sub).mkdir(parents=True)

    _, noisy = mix(speech(rng, STREAM_S), babble(rng, STREAM_S), STREAM_SNR_DB)
    np.save(out / "stream.npy", noisy)

    for i in range(CLEAN_FILES):
        write_wav(out / "clean" / f"utt{i}.wav", speech(rng, CLEAN_S))
    write_wav(out / "noise" / "stationary.wav", stationary(rng, NOISE_S))
    write_wav(out / "noise" / "babble.wav", babble(rng, NOISE_S))

    held = {
        "babble_snr5": mix(speech(rng, HELDOUT_S), babble(rng, HELDOUT_S), 5.0),
        "stationary_snr5": mix(speech(rng, HELDOUT_S), stationary(rng, HELDOUT_S), 5.0),
    }
    silent = speech(rng, HELDOUT_S) * 0.9
    held["clean_with_silence"] = (silent, silent)
    for name, (clean, noisy) in held.items():
        write_wav(out / "heldout" / f"{name}.wav", noisy)
        write_wav(out / "heldout_clean" / f"{name}.wav", clean)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()
    tmp = args.out.with_name(args.out.name + ".partial")
    generate(args.seed, tmp)
    os.replace(tmp, args.out)


if __name__ == "__main__":
    main()
