"""Benchmark of rnx: streaming hop latency, offline mix/denoise throughput
and training step time.

    python3 perfbench/run.py --workload stream|offline|train --seed N \
        --seconds S --trace 0|1

Run from the root of a checkout: the program is imported from `src/` next
to this directory and from nowhere else, so without it the command exits
with code 2 and prints no result.

Workloads (each measures its own path for --seconds and checks its output):
  stream   one closed-loop caller feeds `pipeline.process_hop` 480 samples
           at a time: 10 s of speech mixed with babble at 5 dB, through a
           fixed-seed extended-mode model, repeated pass after pass. The
           real-time path.
  offline  `dataset.build_dataset` (threads=1, extended mode) over a WAV
           corpus, then `pipeline.denoise_file` with a reference-mode model
           over held-out WAVs, one of them clean speech with digital silence.
  train    `training.train` at the product shape (B=32, T=500, Adam at 1e-3,
           float32, extended mode) on a feature file built during set-up.

With --trace 0 the last line of standard output holds every end-to-end
metric. So that each workload reports all of them, it measures its own
path and then each other path for a fixed probe time (phases.PROBE_SECONDS);
`setup_s` and `peak_rss_mb` cover the workload's own path only. Timings are
scaled to a reference host speed and take the median over identical
repeats (see phases.py); the raw wall-clock figures, sample counts,
`hop_over_budget_frac` and `error_frac` are printed in the lines before.
With --trace 1 the run measures its own path alone, wraps rnx functions in
spans on every second unit of work, and the last line holds the per-layer
metrics (None for a wrapped name rnx no longer has).

Inputs come from `gen.py` in a child process, so their synthesis counts in
neither the timings nor `peak_rss_mb`. Seed 9001 is held out: no tuning of
this benchmark used it, so later claims can be checked on it.

Exit codes: 0 when every output check passed, 1 when one failed (the
result line still prints), 2 when the program cannot be imported.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_work"
WORKLOADS = ("stream", "offline", "train")
GEN_TIMEOUT_S = 150


def blas_threads() -> int:
    """BLAS threads, fixed so runs compare: at most 2, at most the CPUs we have."""
    return max(1, min(2, len(os.sched_getaffinity(0))))


def import_program():
    """Import rnx from this checkout's src/, or exit 2 without a result."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import rnx
        from rnx import dataset, pipeline, training  # noqa: F401
    except ImportError as exc:
        print(f"perfbench: cannot import rnx from {src}: {exc}", file=sys.stderr)
        sys.exit(2)
    if src.resolve() not in Path(rnx.__file__).resolve().parents:
        print(f"perfbench: rnx resolved to {rnx.__file__}, outside {src}", file=sys.stderr)
        sys.exit(2)


def blas_info():
    """Version string and live thread count of each loaded OpenBLAS."""
    try:
        with open("/proc/self/maps") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line and ".so" in line})
    except OSError:
        return []
    out = []
    for path in libs:
        lib = ctypes.CDLL(path)
        info = {"lib": Path(path).name}
        for key, stem, restype in (("config", "get_config", ctypes.c_char_p), ("threads", "get_num_threads", ctypes.c_int)):
            for name in (f"scipy_openblas_{stem}64_", f"scipy_openblas_{stem}", f"openblas_{stem}64_", f"openblas_{stem}"):
                fn = getattr(lib, name, None)
                if fn is not None:
                    fn.restype = restype
                    fn.argtypes = []
                    value = fn()
                    info[key] = value.decode() if isinstance(value, bytes) else value
                    break
        out.append(info)
    return out


def environment(threads):
    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "openblas": blas_info(),
        "cpu_count": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas_threads_requested": threads,
    }


def overhead_frac(tracer, res):
    """Mean traced unit time over mean untraced unit time, minus 1.

    The forward replay that splits training steps is excluded: it runs
    only in the traced run and is reported as its own span.
    """
    untraced = [u["work_ns"] for u in res["untraced"]]
    traced = [u["work_ns"] for u in res["traced"]]
    replay = tracer.total_ns("training.sequence_loss")
    return ((sum(traced) - replay) / len(traced)) / (sum(untraced) / len(untraced)) - 1.0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="rnx benchmark")
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    # a terminated run still removes its files and its input generator
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    threads = blas_threads()
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(threads)
    import_program()
    sys.path.insert(0, str(HERE))
    import layers
    import phases
    from spans import Tracer

    run_dir = WORK / f"run-{os.getpid()}-{time.time_ns()}"
    inputs = run_dir / "inputs"
    work = run_dir / "work"
    try:
        work.mkdir(parents=True)
        subprocess.run(
            [sys.executable, str(HERE / "gen.py"), "--seed", str(args.seed), "--out", str(inputs)],
            check=True, timeout=GEN_TIMEOUT_S,
        )
        tracer = None
        if args.trace:
            tracer = Tracer()
            layers.install(tracer)
            tracer.active = False
        run = phases.Run(inputs, work, tracer)
        print("env: " + json.dumps(environment(threads), sort_keys=True))

        setup, measure, summarise = phases.PHASES[args.workload]
        run.traced(True)
        state, setup_times = phases.timed_setups(run, setup)
        run.traced(False)
        res = measure(run, state, args.seconds, trace_split=bool(args.trace))

        metrics = {}
        if not res["untraced"] or (args.trace and not res["traced"]):
            run.fail(1, f"{args.workload}: no unit of work finished")
        elif args.trace:
            for name, (value, unit) in layers.per_layer_metrics(tracer, overhead_frac(tracer, res)).items():
                metrics[name] = {"value": value, "unit": unit}
            if tracer.absent:
                run.note("absent (no longer in rnx): " + ", ".join(tracer.absent))
            tracer.restore()
        else:
            peak_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            measured = [(summarise, res)]
            for other in WORKLOADS:
                if other == args.workload:
                    continue
                o_setup, o_measure, o_summarise = phases.PHASES[other]
                o_res = o_measure(run, o_setup(run), phases.PROBE_SECONDS[other])
                if o_res["untraced"]:
                    measured.append((o_summarise, o_res))
                else:
                    run.fail(1, f"{other} probe: no unit of work finished")
            found = {"setup_s": (statistics.median(setup_times), "s", len(setup_times))}
            for fn, r in measured:
                found.update(fn(run, r))
            found["peak_rss_mb"] = (peak_rss, "MiB", 1)
            for name, (value, unit, n) in found.items():
                run.note(f"{name} = {value!r} {unit} (n={n})")
                metrics[name] = {"value": value, "unit": unit}

        error_frac = run.failed / run.attempted if run.attempted else 1.0
        run.note(f"error_frac = {error_frac!r} (failed {run.failed} of {run.attempted} ops)")
        for reason, ops in run.failures.items():
            run.note(f"FAILED: {reason} ({ops} ops)")
        for line in run.lines:
            print(line)
        ok = run.failed == 0 and run.attempted > 0
        print(json.dumps({
            "correct": ok,
            "attempted": max(run.attempted, 1),
            "failed": run.failed,
            "metrics": metrics,
        }))
        return 0 if ok else 1
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
