"""The denoiser: hop in, hop out, or a whole buffer in frame blocks.

Every 480-sample hop is combined with the previous one, the tail of the
stream's pitch history, into a 960-sample analysis frame. The frame is
analyzed, pitch is tracked, features are extracted from the unfiltered
spectrum, the pitch comb filter is applied, the network predicts the band
mask, and the gains are interpolated and applied before overlap-add
synthesis. Algorithmic latency is exactly one hop: the samples returned
for hop k reconstruct hop k-1.

Both paths render a block of analysed frames in two halves, each once
per block along a leading frame axis, with only the GRU recurrence frame
by frame. _prepare builds the network rows and applies the comb filter;
_finish runs the network, the gains and the synthesis. process_hop runs
both halves in its own process on a block of one frame, the extractor's
row for one hop of a live stream; it never uses the worker below.
denoise_buffer pads a stored buffer to whole hops, adds one zero-fed
flush hop and drops the first (silent warm-up) output block, so output
length equals input length with the delay compensated; it renders each
analysis_blocks block of up to features.ANALYSIS_CHUNK frames. Its
output is bitwise equal to a process_hop loop.

denoise_buffer runs on two cores. The analysis side (analysis_blocks,
then _prepare) runs in this process's worker (rnx.worker): one child
process, forked at the first denoise_buffer call and reused by later
calls until this process exits. It sends each block's network rows and
filtered spectrum through a pipe, and the calling process keeps the
mask hook, the network, the gains and the synthesis, working on one
block while the worker analyses the next. The worker runs the code as
it was when forked, so a monkeypatch made after the first call does not
reach it. Where no worker can be started (no "fork" start method, or a
daemonic caller such as a multiprocessing.Pool worker), the same block
generator runs in the calling process. DenoiseStats.mean_hop_ms is the
calling process's wall time per hop.

Neither path limits the output to full scale. The Gibbs overshoot of the
band-limited output can exceed the input's peak: one second of a +/-1
square wave with a 218-sample period through init_weights(7, 45) peaks
at 1.19 in a process_hop loop, and at 1.25 in denoise_buffer's last hop,
where the buffer ends mid-wave. store_audio clips such samples when it
writes PCM-16; a stream caller gets them unclipped.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from rnx import bands, dsp, worker
from rnx.audio_io import AudioBuffer, load_audio, store_audio
from rnx.features import FeatureExtractor, analysis_blocks, feature_rows
from rnx.neural import HiddenState, NetworkModel, network_forward
from rnx.pitch import comb_filter


@dataclass
class DenoiserState:
    model: NetworkModel
    hidden: HiddenState
    extractor: FeatureExtractor
    carry: np.ndarray  # synthesis overlap tail


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
    # the caller's wall time for all blocks, flush hop included, divided by
    # frames + 1: a throughput figure, not the latency of one streamed hop
    mean_hop_ms: float


def create_state(model: NetworkModel) -> DenoiserState:
    return DenoiserState(
        model=model,
        hidden=HiddenState.zeros(model),
        extractor=FeatureExtractor(),
        carry=np.zeros(dsp.HOP),
    )


def _checked_mask(mask: np.ndarray, name: str) -> np.ndarray:
    """An injected band mask as float64, or ValueError unless it holds 22 finite values >= 0."""
    mask = np.asarray(mask, dtype=np.float64)
    usable = np.isfinite(mask) & (mask >= 0.0)
    if mask.shape != (bands.NUM_BANDS,) or not usable.all():
        raise ValueError(f"{name} must hold {bands.NUM_BANDS} finite values >= 0")
    return mask


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
        mask_override = _checked_mask(mask_override, "mask_override")
    # the previous hop is the tail of the pitch history; the extractor rejects
    # a non-finite frame before it changes any state, so a rejected hop leaves no trace
    previous = state.extractor.pitch_state.history[-dsp.HOP :]
    analysis = state.extractor.process(np.concatenate((previous, samples)))
    mask = np.ones((1, bands.NUM_BANDS)) if mask_override is None else mask_override[None]
    vad = np.zeros(1)
    net = [0] if mask_override is None and not bypass_mask else []
    rows, spectrum = _prepare(analysis, state.model.feature_dim if net else None, state.model.stats, bypass_pitch)
    out, state.hidden, state.carry = _finish(state.model, rows, spectrum, mask, vad, net, state.hidden, state.carry)
    period, strength = int(analysis.period[0]), float(analysis.pitch_strength[0])
    return HopResult(out[0], float(vad[0]), mask[0], period, strength)


def _prepare(block, feature_dim, stats, bypass_pitch):
    """The analysis half of rendering a block of analysed frames: its network rows and filtered spectrum.

    The rows are feature_rows at width feature_dim (None when no row runs
    the network); the spectrum is the block's after the comb filter,
    unless bypass_pitch.
    """
    rows = None if feature_dim is None else feature_rows(block.features, block.extended_raw, feature_dim, stats)
    spectrum = block.spectrum
    if not bypass_pitch:
        spectrum = comb_filter(spectrum, block.pitch_spectrum, block.band_corr)
    return rows, spectrum


def _prepared_blocks(signal, feature_dim, stats, bypass_pitch):
    """_prepare's (rows, spectrum) for each analysis_blocks block of a framed signal."""
    for block in analysis_blocks(signal):
        yield _prepare(block, feature_dim, stats, bypass_pitch)


def _finish(model, rows, spectrum, mask, vad, net, hidden, carry):
    """The rest of rendering a block: network, gains and synthesis.

    The network runs on the rows `net` of the block, writes their masks and
    VAD values into `mask` (k, 22) and `vad` (k,) and carries `hidden`
    across them; the other rows keep the masks they hold. Returns the
    block's (k, 480) output hops, the hidden state and the synthesis carry.
    """
    if net:
        mask[net], vad[net], hidden = network_forward(model, rows[net], hidden)
    out, carry = dsp.synthesize_frame(bands.apply_gains(spectrum, bands.interpolate_gains(mask)), carry)
    return out, hidden, carry


def denoise_buffer(
    model: NetworkModel,
    audio: AudioBuffer,
    bypass_mask: bool = False,
    bypass_pitch: bool = False,
    mask_hook=None,
    dump=None,
):
    """Denoise a whole buffer with latency compensation, bitwise as a process_hop loop would.

    mask_hook, if given, is called with the hop index (including the final
    flush hop), once per hop and in order, and must return a 22-value mask
    to inject, or None to fall back to the normal path for that hop.
    `dump`, if a list, collects one (vad, mask) pair per input hop. The
    analysis half runs in this process's worker where there is one (see
    the module docstring); mask_hook and the network run in the caller.
    Returns (AudioBuffer, DenoiseStats).
    """
    x = audio.samples
    n = len(x)
    hops = (n + dsp.HOP - 1) // dsp.HOP if n else 0
    # the streaming framing: frame k is [hop k-1 | hop k], hop -1 and the flush hop are zeros
    signal = np.zeros((hops + 2) * dsp.HOP)
    signal[dsp.HOP : dsp.HOP + n] = x
    hidden = HiddenState.zeros(model)
    carry = np.zeros(dsp.HOP)
    # one row per frame; output hop k reconstructs input hop k - 1
    out = np.empty((hops + 1, dsp.HOP))
    masks, vads = np.ones((hops + 1, bands.NUM_BANDS)), np.zeros(hops + 1)
    start = 0
    t0 = time.perf_counter()
    feature_dim = None if bypass_mask else model.feature_dim
    with worker.stream(_prepared_blocks, signal, feature_dim, model.stats, bypass_pitch) as prepared:
        for feats, spectrum in prepared:
            rows = slice(start, start + len(spectrum))
            start = rows.stop
            mask, vad = masks[rows], vads[rows]  # views: the block's writes land in masks and vads
            net = []  # the rows the network runs on; its state holds across the others
            for i, k in enumerate(range(rows.start, rows.stop)):
                override = mask_hook(k) if mask_hook is not None else None
                if override is not None:
                    mask[i] = _checked_mask(override, "mask_hook's mask")
                elif not bypass_mask:
                    net.append(i)
            out[rows], hidden, carry = _finish(model, feats, spectrum, mask, vad, net, hidden, carry)
    elapsed_ms = (time.perf_counter() - t0) * 1000.0

    vads, masks = vads[:hops], masks[:hops]  # the flush hop's values are not reported
    if dump is not None:
        dump.extend(zip(vads.tolist(), masks))
    stats = DenoiseStats(
        frames=hops,
        mean_vad=float(np.mean(vads)) if hops else 0.0,
        mean_gain=float(np.mean(np.mean(masks, axis=-1))) if hops else 0.0,
        mean_hop_ms=elapsed_ms / (hops + 1) if hops else 0.0,
    )
    return AudioBuffer(out.ravel()[dsp.HOP : dsp.HOP + n]), stats  # drop warm-up block, trim pad


def denoise_file(
    model: NetworkModel,
    in_path,
    out_path,
    bypass_mask: bool = False,
    bypass_pitch: bool = False,
    dump_masks_path=None,
) -> DenoiseStats:
    """Denoise a file through denoise_buffer; returns run statistics."""
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
