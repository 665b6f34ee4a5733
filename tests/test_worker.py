"""The worker behind denoise_buffer, training and mixing: its error paths, its callers and its lifetime.

Each denoise case compares denoise_buffer bitwise with a fresh
process_hop loop, and each training case compares train or
gradient_check through the worker with the same `worker.halves` run in
the caller. Every case checks that at most one worker of the calling
process is alive after it.
"""

import multiprocessing
import os
import select
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

from rnx import training, worker
from rnx.audio_io import AudioBuffer, store_audio
from rnx.dataset import MixConfig, build_dataset
from rnx.features import EXTENDED_DIM, REFERENCE_DIM
from rnx.neural import init_weights
from rnx.pipeline import denoise_buffer
from rnx.training import TrainConfig, batch_gradients, gradient_check, train
from test_dataset import corpus
from test_pipeline import CORPUS, MODELS, assert_buffer_equals_hop_loop, manual_hop_loop
from test_training import synthetic_dataset

SRC = Path(__file__).resolve().parents[1] / "src"
FORK = multiprocessing.get_context("fork")


def workers():
    return [p for p in multiprocessing.active_children() if p.name == worker.NAME]


def equals_hop_loop(model, x, **kwargs):
    """Whether denoise_buffer's samples equal a process_hop loop's, bitwise."""
    got, _ = denoise_buffer(model, AudioBuffer(x), **kwargs)
    return np.array_equal(got.samples, manual_hop_loop(model, x, **kwargs)[0])


def _raises_at_hop_3(k):
    if k == 3:
        raise KeyError("hook failed")


@pytest.mark.parametrize(
    "hook, error",
    [(lambda k: np.full(22, -0.5) if k == 3 else None, ValueError), (_raises_at_hop_3, KeyError)],
    ids=["bad-mask", "raises"],
)
def test_hook_failure_partway_leaves_no_stale_block_or_held_lock(hook, error):
    model, x = MODELS[EXTENDED_DIM], CORPUS["speech"]  # 41 hops: the worker has a second block to send
    denoise_buffer(model, AudioBuffer(x[:4800]))
    assert len(workers()) == 1
    with pytest.raises(error):
        denoise_buffer(model, AudioBuffer(x), mask_hook=hook)
    assert workers() == []  # stopped with the call, so no block of it is left in the pipe
    assert_buffer_equals_hop_loop(model, x)
    assert len(workers()) == 1


@pytest.mark.parametrize("bad_value", [np.nan, np.inf])
def test_non_finite_second_block_raises_from_the_worker_and_keeps_it(bad_value):
    model, x = MODELS[REFERENCE_DIM], CORPUS["babble"]
    denoise_buffer(model, AudioBuffer(x[:4800]))
    (before,) = workers()
    bad = x.copy()
    bad[480 * 35 + 7] = bad_value
    with pytest.raises(ValueError, match="non-finite"):
        denoise_buffer(model, AudioBuffer(bad))
    assert workers() == [before]  # the worker finished the call: nothing to reset
    assert_buffer_equals_hop_loop(model, x)
    assert workers() == [before]


def _failing_items(n):
    yield n
    raise LookupError(f"failed after {n}")


def test_worker_exception_keeps_its_type_and_message():
    with worker.stream(_failing_items, 7) as items:
        assert next(items) == 7
        with pytest.raises(LookupError, match="^failed after 7$"):
            next(items)
    assert len(workers()) == 1


def test_worker_is_reused_and_ignores_sigint():
    model, x = MODELS[REFERENCE_DIM], CORPUS["tone"]
    denoise_buffer(model, AudioBuffer(x[:4800]))
    (first,) = workers()
    os.kill(first.pid, signal.SIGINT)
    assert equals_hop_loop(model, x)
    assert workers() == [first]


def test_mask_hook_may_call_denoise_buffer():
    """A nested call from the thread that holds the worker runs in-process instead of waiting for itself."""
    model, x = MODELS[REFERENCE_DIM], CORPUS["speech"]
    inner = []

    def hook(k):
        if k == 3:
            inner.append(equals_hop_loop(model, x[:4800]))

    assert equals_hop_loop(model, x, mask_hook=hook)
    assert inner == [True, True]  # once from denoise_buffer's hook, once from the hop loop's
    assert len(workers()) == 1


def test_two_threads_at_once():
    cases = [(MODELS[EXTENDED_DIM], CORPUS["speech"]), (MODELS[REFERENCE_DIM], CORPUS["square"])]
    start = threading.Barrier(len(cases))
    results = [None] * len(cases)

    def run(i):
        model, x = cases[i]
        start.wait()
        results[i] = denoise_buffer(model, AudioBuffer(x))[0].samples

    threads = [threading.Thread(target=run, args=(i,)) for i in range(len(cases))]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=60)
    assert not any(t.is_alive() for t in threads)
    for (model, x), got in zip(cases, results):
        np.testing.assert_array_equal(got, manual_hop_loop(model, x)[0])
    assert len(workers()) <= 1


def _child_case(name, dim):
    """Run in a forked child: (samples equal a hop loop, pids of the child's own workers)."""
    ok = equals_hop_loop(MODELS[dim], CORPUS[name])
    return ok, [p.pid for p in workers()]


def _report(conn, name, dim):
    conn.send(_child_case(name, dim))
    conn.close()


def _running(pid):
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except FileNotFoundError:
        return False
    return stat.rsplit(")", 1)[1].split()[0] not in ("Z", "X")


def _await_exit(pids, seconds=5.0):
    """Poll until no pid runs; kill and return those still running after `seconds`."""
    deadline = time.monotonic() + seconds
    while any(map(_running, pids)) and time.monotonic() < deadline:
        time.sleep(0.05)
    left = [pid for pid in pids if _running(pid)]
    for pid in left:
        os.kill(pid, signal.SIGKILL)
    return left


def test_fork_child_starts_its_own_worker():
    denoise_buffer(MODELS[REFERENCE_DIM], AudioBuffer(CORPUS["dc"][:4800]))
    (ours,) = workers()
    receive, send = FORK.Pipe(duplex=False)
    child = FORK.Process(target=_report, args=(send, "pulse_train", EXTENDED_DIM))
    child.start()
    send.close()
    assert receive.poll(60)
    ok, child_workers = receive.recv()
    child.join(timeout=60)
    assert ok and child.exitcode == 0
    assert len(child_workers) == 1 and child_workers[0] != ours.pid
    assert _await_exit(child_workers) == []  # the child's exit took its worker along
    assert workers() == [ours]
    assert equals_hop_loop(MODELS[REFERENCE_DIM], CORPUS["dc"])


def test_daemonic_pool_worker_runs_in_process():
    denoise_buffer(MODELS[REFERENCE_DIM], AudioBuffer(CORPUS["dc"][:4800]))
    with FORK.Pool(1) as pool:
        ok, child_workers = pool.apply_async(_child_case, ("stationary_noise", REFERENCE_DIM)).get(timeout=60)
    assert ok and child_workers == []
    assert len(workers()) == 1


# ---------------------------------------------------------------------------
# training: each step's second half, and gradient_check's second half of
# instances, run in the worker


def train_run(monkeypatch, data, cfg, mode, usable=True):
    """(parameters, per-step losses, worker.stream calls) of one train call."""
    calls = []
    stream = worker.stream

    def counted(*args):
        calls.append(args[0])
        return stream(*args)

    with monkeypatch.context() as patch:
        patch.setattr(worker, "stream", counted)
        if not usable:
            patch.setattr(worker, "_usable", lambda: False)
        losses = []
        model = train(data, cfg, mode, on_step=lambda e, s, loss: losses.append(loss))
    return model.parameters(), losses, len(calls)


def assert_same_training(a, b):
    assert a[1] == b[1]
    assert a[0].keys() == b[0].keys()
    for key in a[0]:
        np.testing.assert_array_equal(a[0][key], b[0][key], err_msg=key)


@pytest.mark.parametrize("batch", [32, 3, 1])
def test_train_through_the_worker_equals_the_halves_in_process(monkeypatch, batch):
    data = synthetic_dataset(np.random.default_rng(401), 120, EXTENDED_DIM)
    cfg = TrainConfig(epochs=1, steps_per_epoch=3, sequence_len=16, batch_sequences=batch, seed=9)
    both = train_run(monkeypatch, data, cfg, "extended")
    here = train_run(monkeypatch, data, cfg, "extended", usable=False)
    assert both[2] == here[2] == (3 if batch > 1 else 0)  # B = 1 is one half, with no call
    assert_same_training(both, here)
    assert all(np.isfinite(loss) for loss in both[1])
    assert len(workers()) <= 1


def test_halves_weight_by_rows_and_match_the_whole_batch(monkeypatch):
    rng = np.random.default_rng(409)
    model = init_weights(3, REFERENCE_DIM)
    feats = rng.normal(size=(3, 10, REFERENCE_DIM))
    gains = rng.uniform(0.0, 1.0, size=(3, 10, 22))
    vads = rng.integers(0, 2, size=(3, 10)).astype(np.float64)
    whole, whole_loss = training.backward_tbptt(model, feats, gains, vads)
    halves, loss = batch_gradients(model, feats, gains, vads)
    with monkeypatch.context() as patch:
        patch.setattr(worker, "_usable", lambda: False)
        here, here_loss = batch_gradients(model, feats, gains, vads)
    assert loss == here_loss and abs(loss - whole_loss) < 1e-12
    for key in whole:
        np.testing.assert_array_equal(halves[key], here[key], err_msg=key)
        np.testing.assert_allclose(halves[key], whole[key], rtol=1e-10, atol=1e-15, err_msg=key)
    assert len(workers()) == 1


def test_non_finite_half_in_the_worker_raises_in_the_caller_and_keeps_it(monkeypatch):
    rng = np.random.default_rng(419)
    model = init_weights(4, REFERENCE_DIM)
    feats = rng.normal(size=(4, 8, REFERENCE_DIM))
    gains = rng.uniform(0.0, 1.0, size=(4, 8, 22))
    vads = np.ones((4, 8))
    feats[3, 5, 7] = np.nan  # in the second half: computed in the worker
    errors = []
    for usable in (True, False):
        with monkeypatch.context() as patch, pytest.raises(RuntimeError) as caught:
            if not usable:
                patch.setattr(worker, "_usable", lambda: False)
            batch_gradients(model, feats, gains, vads)
        errors.append((type(caught.value), caught.value.args))
    assert errors[0] == errors[1] == (RuntimeError, ("non-finite training loss; aborting step",))
    (before,) = workers()  # the worker finished the call: nothing to reset
    data = synthetic_dataset(rng, 60, REFERENCE_DIM)
    cfg = TrainConfig(epochs=1, steps_per_epoch=2, sequence_len=10, batch_sequences=4, seed=3)
    assert_same_training(
        train_run(monkeypatch, data, cfg, "reference"),
        train_run(monkeypatch, data, cfg, "reference", usable=False),
    )
    assert workers() == [before]


def test_gradient_check_through_the_worker_equals_it_in_process(monkeypatch):
    both = gradient_check(seed=2, instances=2, feature_dim=REFERENCE_DIM, sequence_len=3)
    monkeypatch.setattr(worker, "_usable", lambda: False)
    here = gradient_check(seed=2, instances=2, feature_dim=REFERENCE_DIM, sequence_len=3)
    assert both == here and both.passed and both.instances == 2
    assert len(workers()) == 1


def blas_threads():
    calls = worker._openblas()
    if calls is None:
        pytest.skip("OpenBLAS's thread count is out of reach in this numpy build")
    return calls


def test_train_restores_the_callers_blas_threads(monkeypatch):
    get, put = blas_threads()
    before = get()
    data = synthetic_dataset(np.random.default_rng(421), 60, REFERENCE_DIM)
    cfg = TrainConfig(epochs=1, steps_per_epoch=2, sequence_len=10, batch_sequences=4, seed=3)
    seen = []
    try:
        put(2)
        train(data, cfg, "reference", on_step=lambda *step: seen.append(get()))
        assert seen == [1, 1] and get() == 2

        def failing_adam(*args):
            seen.append(get())
            raise ArithmeticError("step failed")

        monkeypatch.setattr(training, "adam_update", failing_adam)
        with pytest.raises(ArithmeticError):
            train(data, cfg, "reference")
        assert seen[-1] == 1 and get() == 2  # the step ran on one thread
    finally:
        put(before)
    assert len(workers()) <= 1


def test_without_blas_control_both_halves_run_in_the_caller(monkeypatch, tmp_path):
    """Where OpenBLAS's thread count is out of reach, no worker starts, and the outputs keep their bits."""
    data = synthetic_dataset(np.random.default_rng(431), 60, REFERENCE_DIM)
    cfg = TrainConfig(epochs=1, steps_per_epoch=2, sequence_len=10, batch_sequences=4, seed=3)
    model, x = MODELS[EXTENDED_DIM], CORPUS["speech"]
    clean, noise = corpus(tmp_path, n_clean=3)
    denoised = denoise_buffer(model, AudioBuffer(x))[0].samples
    build_dataset(clean, noise, MixConfig(seed=21), "extended", tmp_path / "both.rnxf")
    assert len(workers()) == 1
    worker._stop()  # so that a worker started below would show
    monkeypatch.setattr(worker, "_openblas", lambda: None)
    here = train_run(monkeypatch, data, cfg, "reference")
    assert all(np.isfinite(loss) for loss in here[1])
    np.testing.assert_array_equal(denoise_buffer(model, AudioBuffer(x))[0].samples, denoised)
    build_dataset(clean, noise, MixConfig(seed=21), "extended", tmp_path / "here.rnxf")
    assert (tmp_path / "here.rnxf").read_bytes() == (tmp_path / "both.rnxf").read_bytes()
    assert workers() == []


WORKER_SCRIPT = """
import multiprocessing, sys, time
import numpy as np
from rnx import worker
from rnx.audio_io import AudioBuffer
from rnx.neural import init_weights
from rnx.pipeline import denoise_buffer
denoise_buffer(init_weights(1, 42), AudioBuffer(np.zeros(4800)))
print(*[p.pid for p in multiprocessing.active_children() if p.name == worker.NAME], flush=True)
if sys.argv[1] == "wait":
    time.sleep(60)
"""


MIX_SCRIPT = """
import multiprocessing, sys
from rnx import worker
from rnx.cli import main
code = main(["mix", "--clean", sys.argv[1], "--noise", sys.argv[2], "--out", sys.argv[3], "--mode", "reference"])
print(*[p.pid for p in multiprocessing.active_children() if p.name == worker.NAME], flush=True)
sys.exit(code)
"""


@pytest.mark.skipif(not Path("/proc/self/stat").exists(), reason="reads process states from /proc")
def test_no_worker_outlives_its_process(tmp_path):
    """A worker exits with its process: after denoise_buffer or rnx mix at a normal exit, and at SIGKILL."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (str(SRC), os.environ.get("PYTHONPATH"))))}
    normal = subprocess.run(
        [sys.executable, "-c", WORKER_SCRIPT, "exit"], env=env, capture_output=True, text=True, timeout=60
    )
    assert normal.returncode == 0, normal.stderr
    for part in ("clean", "noise"):
        (tmp_path / part).mkdir()
    for i in range(2):  # two utterances: the second is mixed in the worker
        store_audio(AudioBuffer(CORPUS["speech"][:14400]), tmp_path / "clean" / f"c{i}.wav")
    store_audio(AudioBuffer(CORPUS["stationary_noise"][:14400]), tmp_path / "noise" / "n0.wav")
    mix = subprocess.run(
        [sys.executable, "-c", MIX_SCRIPT, *(str(tmp_path / p) for p in ("clean", "noise", "out.rnxf"))],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert mix.returncode == 0, mix.stderr
    assert mix.stdout.startswith("wrote ") and mix.stdout.count("\n") == 2
    (mix_worker,) = mix.stdout.splitlines()[-1].split()
    assert _await_exit([int(mix_worker)]) == []
    killed = subprocess.Popen([sys.executable, "-c", WORKER_SCRIPT, "wait"], env=env, stdout=subprocess.PIPE, text=True)
    try:
        # the script prints its worker's pid, then sleeps
        line = killed.stdout.readline() if select.select([killed.stdout], [], [], 60)[0] else ""
    finally:
        killed.kill()
        killed.wait()
        killed.stdout.close()
    pids = [int(pid) for pid in normal.stdout.split() + line.split()]
    assert len(pids) == 2 and normal.stdout.count("\n") == 1  # the worker wrote nothing to stdout
    assert _await_exit(pids) == []
