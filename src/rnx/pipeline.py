"""The streaming denoiser: hop in, hop out.

Every 480-sample hop is combined with the previous one into a 960-sample
analysis frame. The frame is analyzed, pitch is tracked, features are
extracted from the unfiltered spectrum, the pitch comb filter is applied,
the network predicts the band mask, and the gains are interpolated and
applied before overlap-add synthesis. Algorithmic latency is exactly one
hop: the samples returned for hop k reconstruct hop k-1.

File mode pads to whole hops, runs one zero-fed flush hop, and drops the
first (silent warm-up) output block, so output length equals input length
with the delay compensated.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from rnx import bands, dsp
from rnx.audio_io import AudioBuffer, load_audio, store_audio
from rnx.features import FeatureExtractor, standardize_extended
from rnx.neural import HiddenState, NetworkModel, network_forward
from rnx.pitch import comb_filter


@dataclass
class DenoiserState:
    model: NetworkModel
    hidden: HiddenState
    extractor: FeatureExtractor
    carry: np.ndarray  # synthesis overlap tail
    pending: np.ndarray  # previous input hop


@dataclass
class HopResult:
    samples: np.ndarray
    vad: float
    mask: np.ndarray
    period: int
    pitch_strength: float


@dataclass
class DenoiseStats:
    frames: int
    mean_vad: float
    mean_gain: float
    mean_hop_ms: float


def create_state(model: NetworkModel) -> DenoiserState:
    return DenoiserState(
        model=model,
        hidden=HiddenState.zeros(model),
        extractor=FeatureExtractor(),
        carry=np.zeros(dsp.HOP),
        pending=np.zeros(dsp.HOP),
    )


def process_hop(
    state: DenoiserState,
    samples: np.ndarray,
    bypass_mask: bool = False,
    bypass_pitch: bool = False,
    mask_override: np.ndarray | None = None,
) -> HopResult:
    """Process one 480-sample hop and return the next 480 output samples.

    bypass_pitch skips the comb filter, bypass_mask skips the network and
    applies unit gains. mask_override substitutes an externally computed
    band mask (values in [0, 1]) for the network output; it takes
    precedence over bypass_mask.
    """
    samples = np.asarray(samples, dtype=np.float64)
    if samples.shape != (dsp.HOP,):
        raise ValueError(f"expected a hop of {dsp.HOP} samples, got shape {samples.shape}")
    if mask_override is not None:
        mask_override = np.asarray(mask_override, dtype=np.float64)
        usable = np.isfinite(mask_override) & (mask_override >= 0.0)
        if mask_override.shape != (bands.NUM_BANDS,) or not usable.all():
            raise ValueError(f"mask_override must hold {bands.NUM_BANDS} finite values >= 0")
    # the extractor rejects a non-finite frame before it changes any state,
    # so a rejected hop leaves no trace
    analysis = state.extractor.process(np.concatenate((state.pending, samples)))
    state.pending = samples.copy()
    spectrum = analysis.spectrum
    if not bypass_pitch:
        spectrum = comb_filter(spectrum, analysis.pitch_spectrum, analysis.band_corr)

    if mask_override is not None:
        mask = mask_override
        vad = 0.0
    elif bypass_mask:
        mask = np.ones(bands.NUM_BANDS)
        vad = 0.0
    else:
        model = state.model
        feats = analysis.features
        if model.extended:
            trio = analysis.extended_raw
            if model.stats is not None:
                trio = standardize_extended(trio, model.stats)
            feats = np.concatenate((feats, trio))
        mask, vad, state.hidden = network_forward(model, feats, state.hidden)

    out_spec = bands.apply_gains(spectrum, bands.interpolate_gains(mask))
    out, state.carry = dsp.synthesize_frame(out_spec, state.carry)
    return HopResult(out, vad, mask, analysis.period, analysis.pitch_strength)


def denoise_buffer(
    model: NetworkModel,
    audio: AudioBuffer,
    bypass_mask: bool = False,
    bypass_pitch: bool = False,
    mask_hook=None,
    dump=None,
):
    """Denoise a whole buffer with latency compensation.

    mask_hook, if given, is called with the hop index (including the final
    flush hop) and must return a 22-value mask to inject, or None to fall
    back to the normal path for that hop. `dump`, if a list, collects one
    (vad, mask) pair per input hop. Returns (AudioBuffer, DenoiseStats).
    """
    x = audio.samples
    n = len(x)
    hops = (n + dsp.HOP - 1) // dsp.HOP if n else 0
    padded = np.zeros(hops * dsp.HOP)
    padded[:n] = x
    state = create_state(model)
    out_blocks = []
    vads = []
    gains = []
    t0 = time.perf_counter()
    for k in range(hops):
        override = mask_hook(k) if mask_hook is not None else None
        res = process_hop(
            state,
            padded[k * dsp.HOP : (k + 1) * dsp.HOP],
            bypass_mask=bypass_mask,
            bypass_pitch=bypass_pitch,
            mask_override=override,
        )
        out_blocks.append(res.samples)
        vads.append(res.vad)
        gains.append(float(np.mean(res.mask)))
        if dump is not None:
            dump.append((res.vad, res.mask))
    # flush: one zero hop pushes out the final real block
    res = process_hop(state, np.zeros(dsp.HOP), bypass_mask=bypass_mask, bypass_pitch=bypass_pitch,
                      mask_override=mask_hook(hops) if mask_hook is not None else None)
    out_blocks.append(res.samples)
    elapsed_ms = (time.perf_counter() - t0) * 1000.0

    if hops:
        out = np.concatenate(out_blocks[1:])[:n]  # drop warm-up block, trim pad
    else:
        out = np.zeros(0)
    stats = DenoiseStats(
        frames=hops,
        mean_vad=float(np.mean(vads)) if vads else 0.0,
        mean_gain=float(np.mean(gains)) if gains else 0.0,
        mean_hop_ms=elapsed_ms / (hops + 1) if hops else 0.0,
    )
    return AudioBuffer(out), stats


def denoise_file(
    model: NetworkModel,
    in_path,
    out_path,
    bypass_mask: bool = False,
    bypass_pitch: bool = False,
    dump_masks_path=None,
) -> DenoiseStats:
    """Stream a file through the denoiser; returns run statistics."""
    audio = load_audio(in_path)
    dump = [] if dump_masks_path is not None else None
    out, stats = denoise_buffer(
        model, audio, bypass_mask=bypass_mask, bypass_pitch=bypass_pitch, dump=dump
    )
    store_audio(out, out_path)
    if dump_masks_path is not None:
        with open(dump_masks_path, "w") as fh:
            for i, (vad, mask) in enumerate(dump):
                gains = ",".join(f"{g:.6f}" for g in mask)
                fh.write(f"frame={i} vad={vad:.6f} gains={gains}\n")
    return stats
