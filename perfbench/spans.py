"""Span recording from outside the program, and the benchmark's arithmetic.

A Tracer replaces a function at the attribute its callers resolve (a module
global such as `rnx.pipeline.network_forward`, or a class attribute such as
`rnx.features.FeatureExtractor.process`) with a wrapper that records a span
around each call. Spans stay in memory; self times are computed once the
run ends. A name that no longer exists is recorded as absent, so a later
refactor that removes a function loses that one per-layer number and
nothing else.
"""

from __future__ import annotations

import contextlib
import importlib
import math
import time
from collections import Counter, defaultdict


class Tracer:
    def __init__(self):
        self.active = True
        self.spans = []  # (span id, parent id or -1, name, start ns, end ns)
        self.counts = Counter()
        self.absent = []
        self._stack = []
        self._patched = []

    @contextlib.contextmanager
    def span(self, name):
        token = self._open(name)
        try:
            yield
        finally:
            self._close(token)

    def _open(self, name):
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(None)
        self._stack.append(sid)
        return sid, parent, name, time.perf_counter_ns()

    def _close(self, token):
        end = time.perf_counter_ns()
        sid, parent, name, start = token
        self._stack.pop()
        self.spans[sid] = (sid, parent, name, start, end)

    def patch(self, target: str, name: str, on_result=None):
        """Wrap `target` ("module:attr" or "module:Class.attr") in a span.

        `on_result(tracer, result, args, kwargs)` runs after the call, outside
        its span. Returns False and records `name` as absent when the target
        cannot be resolved.
        """
        module_name, _, path = target.partition(":")
        try:
            owner = importlib.import_module(module_name)
            *owners, attr = path.split(".")
            for part in owners:
                owner = getattr(owner, part)
            original = getattr(owner, attr)
        except (ImportError, AttributeError):
            if name not in self.absent:
                self.absent.append(name)
            return False

        tracer = self

        def wrapper(*args, **kwargs):
            if not tracer.active:
                return original(*args, **kwargs)
            token = tracer._open(name)
            try:
                result = original(*args, **kwargs)
            finally:
                tracer._close(token)
            tracer.counts[name + ".calls"] += 1
            if on_result is not None:
                on_result(tracer, result, args, kwargs)
            return result

        wrapper.__wrapped__ = original
        setattr(owner, attr, wrapper)
        self._patched.append((owner, attr, original))
        return True

    def restore(self):
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    @contextlib.contextmanager
    def untraced(self):
        was, self.active = self.active, False
        try:
            yield
        finally:
            self.active = was

    def self_ns(self):
        return self_times(s for s in self.spans if s is not None)

    def total_ns(self, name):
        return sum(s[4] - s[3] for s in self.spans if s is not None and s[2] == name)


def _covered(intervals):
    """Total length of the union of (start, end) intervals."""
    total = 0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans) -> dict:
    """Self time per span name: each span's duration minus the part of its
    interval that its child spans cover, summed over spans of that name.

    `spans` yields (span id, parent id or -1, name, start, end).
    """
    spans = list(spans)
    children = defaultdict(list)
    for sid, parent, _, start, end in spans:
        if parent >= 0:
            children[parent].append((start, end))
    out = defaultdict(int)
    for sid, _, name, start, end in spans:
        inside = [(max(s, start), min(e, end)) for s, e in children.get(sid, ()) if s < end and e > start]
        out[name] += (end - start) - _covered(inside)
    return dict(out)


def nearest_rank(values, p: float) -> float:
    """The p-th percentile by the nearest-rank rule: the smallest value with
    at least p percent of the samples at or below it."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("no samples")
    return ordered[_rank(len(ordered), p) - 1]


def _rank(n: int, p: float) -> int:
    return max(math.ceil(n * p / 100.0), 1)


def beyond(n: int, p: float) -> int:
    """How many of n samples rank above the nearest-rank p-th percentile."""
    return n - _rank(n, p)


TAIL_LADDER = (99.9, 99.0, 95.0, 90.0)


def tail_percentile(values, ladder=TAIL_LADDER):
    """(p, value) for the highest p in `ladder` that leaves at least ten
    samples beyond it, or None when even the lowest leaves fewer."""
    n = len(values)
    for p in sorted(ladder, reverse=True):
        if beyond(n, p) >= 10:
            return p, nearest_rank(values, p)
    return None
