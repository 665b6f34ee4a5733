"""One long-lived helper process per rnx process, so that a generator runs beside its caller.

`stream(fn, *args)` is a context manager that yields the items of the
generator `fn(*args)`. The generator runs in this process's worker, a
child forked on the first call and reused by every later call, and its
items arrive through a pipe while the caller works on the ones before:
the two run on two cores. `fn` must be a module-level function; the
worker resolves it by name in its own copy of the program, so it runs
the code as it was when the worker was forked, and a monkeypatch made
after that does not reach it. The items and the arguments cross the
pipe as pickles.

The worker's rules:
- It exits when its pipe closes: at a normal exit of its process (which
  also sends it SIGTERM), when that process is killed, even by SIGKILL,
  and when a call stops partway.
- It ignores SIGINT, which belongs to the caller, and writes nothing to
  standard output.
- It belongs to one process. A forked child closes its inherited copy of
  the pipe and starts its own worker when it needs one.
- Callers take it one at a time, under a lock. A call made while the
  same thread holds it (a denoise_buffer inside another's mask hook)
  runs its generator in the caller instead of waiting for itself.
- A call that stops before the generator's end, for any reason, stops
  the worker too, so no stale item reaches the next call; the next call
  forks a new one.
- An exception raised by the generator ends the call and is raised again
  in the caller, with the same type and arguments.
- It runs numpy's OpenBLAS on one thread. The worker and its caller
  share the cores, and two processes with two BLAS threads each
  oversubscribe them: on a 2-vCPU host, two half-batch training steps at
  once took 406-1,060 ms that way against 167-231 ms with one thread
  each. `one_blas_thread()` does the same for a caller's stretch of
  work; it reaches OpenBLAS's thread count through ctypes, since numpy
  has no API for it.

Where the "fork" start method is missing, or in a daemonic process (a
multiprocessing.Pool worker), which may not start children, `stream`
yields `fn(*args)` itself and the generator runs in the caller.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import multiprocessing
import os
import pickle
import signal
import threading

NAME = "rnx-worker"  # the worker's multiprocessing.Process name

_lock = threading.Lock()
_holder = None  # the ident of the thread that holds _lock
_worker = None  # this process's (Process, Connection), once started


def _forget_inherited():
    """In a forked child: drop the parent's worker and lock; the child starts its own."""
    global _lock, _holder, _worker
    if _worker is not None:
        _worker[1].close()
    _lock, _holder, _worker = threading.Lock(), None, None


os.register_at_fork(after_in_child=_forget_inherited)


def _portable(exc: Exception) -> Exception:
    """exc, or a RuntimeError that names it where exc does not survive a pickle round trip."""
    try:
        pickle.loads(pickle.dumps(exc))
        return exc
    except Exception:
        return RuntimeError(f"{type(exc).__name__}: {exc}")


def _outcome(fn, args):
    """fn(*args)'s items, then None; or the exception it raised as its last item."""
    try:
        yield from fn(*args)
    except Exception as exc:
        yield _portable(exc)
    else:
        yield None


@functools.cache
def _openblas():
    """numpy's OpenBLAS thread-count (get, set) functions, or None where they cannot be found.

    numpy 2.x's wheels bundle OpenBLAS as libscipy_openblas64_, whose
    exported names carry the scipy_openblas prefix and the 64_ suffix. The
    library is found among this process's mapped files (Linux only).
    """
    try:
        with open("/proc/self/maps") as fh:
            paths = sorted({line.split()[-1] for line in fh if "libscipy_openblas64_" in line})
    except OSError:
        return None
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        get = getattr(lib, "scipy_openblas_get_num_threads64_", None)
        put = getattr(lib, "scipy_openblas_set_num_threads64_", None)
        if get is not None and put is not None:
            get.restype, get.argtypes = ctypes.c_int, []
            put.restype, put.argtypes = None, [ctypes.c_int]
            return get, put
    return None


@contextlib.contextmanager
def one_blas_thread():
    """Run the block with numpy's OpenBLAS on one thread and restore the count after it.

    Yields whether the count could be set. Where it cannot, nothing
    changes and the block runs with the count it had.
    """
    calls = _openblas()
    if calls is None:
        yield False
        return
    get, put = calls
    before = get()
    put(1)
    try:
        yield True
    finally:
        put(before)


def _serve(conn, callers_end):
    """The worker's loop: run each (fn, args) that arrives and send back its outcome."""
    callers_end.close()  # else the worker would hold its own pipe open
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    signal.signal(signal.SIGTERM, signal.SIG_DFL)  # not the caller's handler, which the fork copied
    null = os.open(os.devnull, os.O_WRONLY)
    os.dup2(null, 1)
    os.close(null)
    with one_blas_thread(), contextlib.suppress(EOFError, OSError):  # the caller's end closed
        while True:
            fn, args = conn.recv()
            for item in _outcome(fn, args):
                conn.send(item)


def _usable() -> bool:
    return "fork" in multiprocessing.get_all_start_methods() and not multiprocessing.current_process().daemon


def _start():
    context = multiprocessing.get_context("fork")
    ours, theirs = context.Pipe()
    process = context.Process(target=_serve, args=(theirs, ours), name=NAME, daemon=True)
    process.start()
    theirs.close()
    return process, ours


def _stop():
    global _worker
    process, conn = _worker
    _worker = None
    conn.close()
    process.kill()
    process.join()


@contextlib.contextmanager
def stream(fn, *args):
    """Yield an iterator over fn(*args)'s items, computed in this process's worker where there is one."""
    global _holder, _worker
    if not _usable() or _holder == threading.get_ident():
        yield fn(*args)
        return
    with _lock:
        _holder = threading.get_ident()
        try:
            if _worker is not None and not _worker[0].is_alive():
                _stop()
            if _worker is None:
                _worker = _start()
            conn = _worker[1]
            finished = False

            def received():
                nonlocal finished
                while True:
                    try:
                        item = conn.recv()
                    except EOFError:
                        raise RuntimeError("the worker process exited") from None
                    if item is None or isinstance(item, BaseException):
                        finished = True
                        if item is None:
                            return
                        raise item
                    yield item

            try:
                conn.send((fn, args))
                yield received()
            finally:
                if not finished:
                    _stop()
        finally:
            _holder = None
