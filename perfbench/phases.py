"""The three measured paths of rnx: streaming, offline mix/denoise, training.

Each path has a set-up, which the caller repeats to report its median, and
a measurement that repeats one identical unit of work until its time
budget is spent: a pass of the stream signal through `pipeline.process_hop`,
a pass of `dataset.build_dataset` plus `pipeline.denoise_file` over the
corpus, or a short `training.train` session. Every unit's outputs are
checked; a failed check condemns the operations (hops, files, steps) it
covers.

How the timings stay steady on a shared host, where the same code runs up
to 1.5x slower in stretches from a fraction of a second to minutes,
whatever it executes: HostClock times a fixed kernel of benchmark-owned
numpy and Python work right before and after each timed piece (25 hops,
the mix call, a held-out file, a training step). The piece's wall time is
scaled by REF_KERNEL_NS over the mean of those two kernel times, so work
done in a slow stretch reads like work done in a fast one. A slower rnx
does not slow the kernel, so it shows in full. Every repeat does
bit-identical work from a fresh state (same samples, model and batches),
so each timed position (a hop of the signal, the mix call, a held-out
file, a step index) takes the median of its scaled repeats, and the
percentiles run over positions.

The report lines also give the raw wall-clock figures of every repeat.
"""

from __future__ import annotations

import contextlib
import hashlib
import math
import statistics
import time
import traceback
from pathlib import Path

import numpy as np
import scipy.fft
from scipy.io import wavfile

from rnx import dataset, dsp, evaluate, features, neural, pipeline, training
from rnx.audio_io import SAMPLE_RATE, AudioBuffer

from spans import nearest_rank, tail_percentile

MODEL_SEED = 7
MIX_SEED = 11
TRAIN_SEED = 5
WARM_HOPS = 50
CHECK_HOPS = 500
STREAM_TOL = 1e-12
BUDGET_MS = 10.0
MIN_REPEATS = 3
TRAIN_STEPS = 2
# how long a workload measures each path it does not own (see run.py); the
# paths with long units of work get more time to collect repeats
PROBE_SECONDS = {"stream": 5.0, "offline": 10.0, "train": 10.0}
SETUP_MIN_REPEATS = 3
SETUP_MIN_S = 1.0
SETUP_MAX_REPEATS = 25
CLOCK_EVERY_HOPS = 25
# the fastest of several kernel runs between training steps: the first
# runs after a multi-threaded BLAS step come out slower than the host is
TRAIN_CLOCK_SAMPLES = 8
# HostClock's kernel time on the development host (2-vCPU Xeon at 2.1 GHz)
# in its fast stretches, so that scaled times read as milliseconds there.
REF_KERNEL_NS = 125_000


class HostClock:
    """Host speed from a fixed kernel's time; see the module docstring."""

    def __init__(self):
        rng = np.random.default_rng(0)
        self._frame = rng.normal(size=dsp.FRAME_LEN) * np.hanning(dsp.FRAME_LEN)
        self._weights = np.abs(rng.normal(size=(22, dsp.NUM_BINS)))

    def _kernel(self):
        acc = 0.0
        for _ in range(4):
            spec = np.fft.rfft(self._frame)
            energy = self._weights @ (spec.real**2 + spec.imag**2)
            acc += float(scipy.fft.dct(np.log(energy + 1e-10), norm="ortho")[0])
            for j in range(100):
                acc += j * 0.5
        return acc

    def sample(self, times: int = 1) -> int:
        """The fastest of `times` kernel runs, in ns."""
        best = None
        for _ in range(times):
            # the untimed first call refills the caches the measured work used
            self._kernel()
            t0 = time.perf_counter_ns()
            self._kernel()
            ns = time.perf_counter_ns() - t0
            best = ns if best is None else min(best, ns)
        return best


def scale_factors(kernel_ns):
    """Per piece between consecutive kernel samples: REF_KERNEL_NS over their mean."""
    k = np.asarray(kernel_ns, dtype=np.float64)
    return 2.0 * REF_KERNEL_NS / (k[:-1] + k[1:])


class Run:
    """Operation counts, failed checks and report lines of one benchmark run."""

    def __init__(self, inputs: Path, work: Path, tracer=None):
        self.inputs = inputs
        self.work = work
        self.tracer = tracer
        self.clock = HostClock()
        self.attempted = 0
        self.failed = 0
        self.failures = {}
        self.lines = []

    def fail(self, ops: int, reason: str):
        self.failed += ops
        self.failures[reason] = self.failures.get(reason, 0) + ops

    def note(self, line: str):
        self.lines.append(line)

    def traced(self, on: bool):
        if self.tracer is not None:
            self.tracer.active = on

    def untraced(self):
        return contextlib.nullcontext() if self.tracer is None else self.tracer.untraced()


def typical(units, key):
    """Per position, the median over repeats of unit[key]."""
    return np.median(np.stack([np.asarray(u[key], dtype=np.float64) for u in units]), axis=0)


def timing_summary(name, samples, unit):
    """Median, the highest tail percentile with ten samples beyond it, and n."""
    tail = tail_percentile(samples)
    text = f"{name}: p50={statistics.median(samples):.4f} {unit}"
    if tail is not None:
        text += f" p{tail[0]:g}={tail[1]:.4f} {unit}"
    return text + f" n={len(samples)}"


def timed_setups(run, setup):
    """Set up SETUP_MIN_REPEATS times, then until SETUP_MIN_S have passed.

    Returns the last set-up's state and every set-up's scaled seconds.
    """
    times = []
    start = time.perf_counter()
    while len(times) < SETUP_MIN_REPEATS or (
        time.perf_counter() - start < SETUP_MIN_S and len(times) < SETUP_MAX_REPEATS
    ):
        before = run.clock.sample()
        t0 = time.perf_counter()
        state = setup(run)
        elapsed = time.perf_counter() - t0
        times.append(elapsed * float(scale_factors([before, run.clock.sample()])[0]))
    return state, times


def repeat(run, seconds, unit_fn, trace_split):
    """Run unit_fn until `seconds` pass and at least MIN_REPEATS ran untraced.

    With trace_split every second unit runs traced, so traced and untraced
    units see the same host conditions. Returns {"untraced": [...],
    "traced": [...]} of unit results; a unit that raised is left out.
    """
    out = {"untraced": [], "traced": []}
    start = time.perf_counter()
    index = 0
    while len(out["untraced"]) < MIN_REPEATS or time.perf_counter() - start < seconds:
        traced = trace_split and index % 2 == 1
        run.traced(traced)
        try:
            out["traced" if traced else "untraced"].append(unit_fn(index))
        except Exception:
            traceback.print_exc()
            run.attempted += 1
            run.fail(1, f"{unit_fn.__name__} raised")
            if index >= 10 * MIN_REPEATS:
                break
        finally:
            run.traced(False)
        index += 1
    return out


# ---------------------------------------------------------------------------
# stream: one closed-loop caller, 480 samples per call


def setup_stream(run):
    return {
        "x": np.load(run.inputs / "stream.npy"),
        "model": neural.init_weights(MODEL_SEED, features.EXTENDED_DIM),
    }


def measure_stream(run, st, seconds, trace_split=False):
    model, x = st["model"], st["x"]
    n = len(x) // dsp.HOP
    blocks = [x[k * dsp.HOP : (k + 1) * dsp.HOP] for k in range(n)]
    digests = []
    state = pipeline.create_state(model)
    for block in blocks[:WARM_HOPS]:
        pipeline.process_hop(state, block)

    def stream_pass(index):
        lat = np.empty(n, dtype=np.int64)
        out = np.empty(n * dsp.HOP)
        state = pipeline.create_state(model)
        kern = []
        for k, block in enumerate(blocks):
            if k % CLOCK_EVERY_HOPS == 0:
                kern.append(run.clock.sample())
            t0 = time.perf_counter_ns()
            res = pipeline.process_hop(state, block)
            lat[k] = time.perf_counter_ns() - t0
            out[k * dsp.HOP : (k + 1) * dsp.HOP] = res.samples
        kern.append(run.clock.sample())
        scaled = lat * np.repeat(scale_factors(kern), CLOCK_EVERY_HOPS)[:n]
        run.attempted += n
        with run.untraced():
            bad = ~np.all(np.isfinite(out.reshape(n, dsp.HOP)), axis=1)
            if bad.any():
                run.fail(int(bad.sum()), "stream: non-finite output hop")
            digests.append(hashlib.sha256(out.tobytes()).hexdigest())
            if digests[-1] != digests[0]:
                run.fail(n, "stream: output differs between passes of one seed")
            if index == 0:
                _check_stream_vs_buffer(run, model, x, out, min(n, CHECK_HOPS))
        return {"work_ns": int(lat.sum()), "lat": lat, "scaled": scaled}

    res = repeat(run, seconds, stream_pass, trace_split)
    run.note(f"stream: {len(res['untraced'])} untraced passes of {n} hops, output sha256 {digests[0][:16]}")
    return res


def _check_stream_vs_buffer(run, model, x, streamed, hops):
    """The streamed output equals denoise_buffer's output one hop later."""
    buffered, _ = pipeline.denoise_buffer(model, AudioBuffer(x[: hops * dsp.HOP]))
    a = streamed[dsp.HOP : hops * dsp.HOP].reshape(hops - 1, dsp.HOP)
    b = buffered.samples[: (hops - 1) * dsp.HOP].reshape(hops - 1, dsp.HOP)
    off = np.max(np.abs(a - b), axis=1) > STREAM_TOL
    if off.any():
        run.fail(int(off.sum()), "stream: differs from denoise_buffer shifted by one hop")


def stream_metrics(run, res):
    units = res["untraced"]
    ms = typical(units, "scaled") / 1e6
    every = np.concatenate([u["lat"] for u in units]) / 1e6
    run.note(timing_summary("hop_ms (scaled, median repeat per hop)", ms, "ms"))
    run.note(timing_summary("hop_ms (raw wall clock, every hop of every pass)", every, "ms"))
    over = float(np.mean(every > BUDGET_MS))
    run.note(f"hop_over_budget_frac: {over!r} (raw hops over {BUDGET_MS:g} ms) n={len(every)}")
    return {
        "hop_ms_p50": (float(np.median(ms)), "ms", len(ms)),
        "hop_ms_p99": (float(nearest_rank(ms, 99.0)), "ms", len(ms)),
        "stream_rtf": (float(ms.sum() / 1000.0 / (len(ms) * dsp.HOP / SAMPLE_RATE)), "s/s", len(ms)),
    }


# ---------------------------------------------------------------------------
# offline: the calls `rnx mix` and `rnx denoise` make


def _wav_len(path):
    return len(wavfile.read(path, mmap=True)[1])


def setup_offline(run):
    model_path = run.work / "reference.rnxm"
    neural.save_model(neural.init_weights(MODEL_SEED, features.REFERENCE_DIM), model_path)
    return {
        "clean": sorted((run.inputs / "clean").glob("*.wav")),
        "noise": sorted((run.inputs / "noise").glob("*.wav")),
        "held": sorted((run.inputs / "heldout").glob("*.wav")),
        "model": neural.load_model(model_path),
    }


def measure_offline(run, st, seconds, trace_split=False):
    clean, noise, held, model = st["clean"], st["noise"], st["held"], st["model"]
    clean_lens = [_wav_len(p) for p in clean]
    held_lens = [_wav_len(p) for p in held]
    expect_rows = [max((n - dsp.FRAME_LEN) // dsp.HOP + 1, 0) for n in clean_lens]
    rnxf = run.work / "mix.rnxf"
    out_dir = run.work / "denoised"
    out_dir.mkdir(exist_ok=True)
    digests = []

    def offline_pass(index):
        kern = [run.clock.sample()]
        t0 = time.perf_counter_ns()
        count = dataset.build_dataset(clean, noise, dataset.MixConfig(seed=MIX_SEED), "extended", rnxf, threads=1)
        mix_ns = time.perf_counter_ns() - t0
        den_ns = []
        outs = []
        for path in held:
            kern.append(run.clock.sample())
            out = out_dir / path.name
            t0 = time.perf_counter_ns()
            pipeline.denoise_file(model, path, out)
            den_ns.append(time.perf_counter_ns() - t0)
            outs.append(out)
        kern.append(run.clock.sample())
        scaled = np.asarray([mix_ns] + den_ns) * scale_factors(kern)
        run.attempted += len(clean) + len(held)
        _score(run, held, outs)
        with run.untraced():
            _check_offline(run, count, expect_rows, rnxf, held_lens, outs, digests)
        return {"work_ns": mix_ns + sum(den_ns), "mix_ns": mix_ns, "den_ns": sum(den_ns), "scaled": scaled}

    res = repeat(run, seconds, offline_pass, trace_split)
    run.note(
        f"offline: {len(res['untraced'])} untraced passes; mix {len(clean)} files "
        f"({sum(clean_lens) / SAMPLE_RATE:.1f} s), denoise {len(held)} files ({sum(held_lens) / SAMPLE_RATE:.1f} s)"
    )
    res["mix_s"] = sum(clean_lens) / SAMPLE_RATE
    res["denoise_s"] = sum(held_lens) / SAMPLE_RATE
    return res


def _score(run, held, outs):
    """Score each denoised file against its clean reference, untimed."""
    for path, out in zip(held, outs):
        clean = wavfile.read(run.inputs / "heldout_clean" / path.name)[1] / 32768.0
        test = wavfile.read(out)[1] / 32768.0
        report = evaluate.score_pair(clean, test, system="reference", condition=path.stem)
        if not (math.isfinite(report.seg_snr_db) and math.isfinite(report.lsd_db)):
            run.fail(1, "offline: non-finite score")


def _check_offline(run, count, expect_rows, rnxf, held_lens, outs, digests):
    data = dataset.load_feature_file(rnxf)
    if count != sum(expect_rows) or len(data) != sum(expect_rows):
        run.fail(len(expect_rows), "offline: frame count does not match corpus lengths")
    else:
        ends = np.cumsum(expect_rows)
        for lo, hi in zip(ends - expect_rows, ends):
            g = data.gains[lo:hi]
            v = data.vad[lo:hi]
            gains_ok = np.all(((g >= 0.0) & (g <= 1.0)) | (g == -1.0))
            vad_ok = np.all((v == 0.0) | (v == 1.0))
            if not (gains_ok and vad_ok and np.all(np.isfinite(data.features[lo:hi]))):
                run.fail(1, "offline: gain, VAD or feature row out of range")
    for out, want in zip(outs, held_lens):
        if _wav_len(out) != want:
            run.fail(1, "offline: denoised length differs from input")
    digest = hashlib.sha256(rnxf.read_bytes() + b"".join(o.read_bytes() for o in outs)).hexdigest()
    digests.append(digest)
    if digest != digests[0]:
        run.fail(len(expect_rows) + len(outs), "offline: outputs differ between passes of one seed")


def offline_metrics(run, res):
    units = res["untraced"]
    per_piece = typical(units, "scaled") / 1e9  # the mix call, then each held-out file
    run.note(
        "offline raw wall-clock seconds per pass: mix "
        + " ".join(f"{u['mix_ns'] / 1e9:.3f}" for u in units)
        + "; denoise " + " ".join(f"{u['den_ns'] / 1e9:.3f}" for u in units)
    )
    n = len(units)
    return {
        "mix_audio_s_per_s": (float(res["mix_s"] / per_piece[0]), "audio-s/s", n),
        "denoise_audio_s_per_s": (float(res["denoise_s"] / per_piece[1:].sum()), "audio-s/s", n),
    }


# ---------------------------------------------------------------------------
# train: the product schedule shape on a feature file built during set-up


def setup_train(run):
    clean = sorted((run.inputs / "clean").glob("*.wav"))
    noise = sorted((run.inputs / "noise").glob("*.wav"))
    path = run.work / "train.rnxf"
    dataset.build_dataset(clean, noise, dataset.MixConfig(seed=MIX_SEED), "extended", path, threads=1)
    return {"data": dataset.load_feature_file(path)}


def measure_train(run, st, seconds, trace_split=False):
    data = st["data"]
    cfg = training.TrainConfig(epochs=1, steps_per_epoch=TRAIN_STEPS, seed=TRAIN_SEED)
    sessions = []
    with run.untraced():
        # the process's first step pays one-off page faults and thread start-up
        training.train(data, training.TrainConfig(epochs=1, steps_per_epoch=1, seed=TRAIN_SEED), "extended")

    def train_session(index):
        steps = []
        losses = []
        kern = []
        # a traced session keeps the kernel out of training.train's span
        clocked = run.tracer is None or not run.tracer.active

        def on_step(epoch, step, loss):
            steps.append(time.perf_counter_ns() - started[0])
            losses.append(loss)
            if clocked:
                kern.append(run.clock.sample(TRAIN_CLOCK_SAMPLES))
            started[0] = time.perf_counter_ns()

        if clocked:
            kern.append(run.clock.sample(TRAIN_CLOCK_SAMPLES))
        started = [time.perf_counter_ns()]
        training.train(data, cfg, "extended", on_step=on_step)
        run.attempted += TRAIN_STEPS
        if len(losses) != TRAIN_STEPS:
            run.fail(TRAIN_STEPS - len(losses), "train: steps missing")
        bad = sum(not math.isfinite(v) for v in losses)
        if bad:
            run.fail(bad, "train: non-finite loss")
        if sessions:
            differ = sum(a != b for a, b in zip(losses, sessions[0]))
            if differ:
                run.fail(differ, "train: loss sequence differs between sessions of one seed")
        if losses and not losses[-1] < losses[0]:
            run.fail(1, "train: last loss not below the first")
        sessions.append(losses)
        # the first step also holds train()'s own preamble (stats, casts)
        scaled = np.asarray(steps) * scale_factors(kern) if clocked else None
        return {"work_ns": sum(steps), "steps": steps, "scaled": scaled}

    res = repeat(run, seconds, train_session, trace_split)
    if sessions:
        run.note(
            f"train: {len(res['untraced'])} untraced sessions of {TRAIN_STEPS} steps "
            f"(B={cfg.batch_sequences}, T={cfg.sequence_len}, float32) on {len(data)} frames, "
            f"loss {sessions[0][0]!r} -> {sessions[0][-1]!r}"
        )
    return res


def train_metrics(run, res):
    units = res["untraced"]
    ms = typical(units, "scaled") / 1e6
    every = [v / 1e6 for u in units for v in u["steps"]]
    run.note(timing_summary("train_step_ms (scaled, median repeat per step)", ms, "ms"))
    run.note(timing_summary("train_step_ms (raw wall clock, every step)", every, "ms"))
    return {"train_step_ms_p50": (float(np.median(ms)), "ms", len(ms))}


PHASES = {
    "stream": (setup_stream, measure_stream, stream_metrics),
    "offline": (setup_offline, measure_offline, offline_metrics),
    "train": (setup_train, measure_train, train_metrics),
}
