"""Tests of the benchmark's own arithmetic: self time and tail percentiles.

Run with `python -m pytest perfbench`.
"""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

from spans import Tracer, beyond, nearest_rank, self_times, tail_percentile  # noqa: E402


def test_self_time_of_hand_built_tree():
    # root [0, 100) has children a [10, 40) and b [50, 90);
    # a has a grandchild [20, 30); b has two overlapping children
    # [55, 70) and [60, 80), whose union covers 25.
    spans = [
        (0, -1, "root", 0, 100),
        (1, 0, "a", 10, 40),
        (2, 1, "leaf", 20, 30),
        (3, 0, "b", 50, 90),
        (4, 3, "leaf", 55, 70),
        (5, 3, "leaf", 60, 80),
    ]
    got = self_times(spans)
    assert got == {"root": 100 - 30 - 40, "a": 30 - 10, "b": 40 - 25, "leaf": 10 + 15 + 20}


def test_self_time_clips_children_to_their_parent():
    spans = [(0, -1, "p", 0, 10), (1, 0, "c", 5, 15)]
    assert self_times(spans) == {"p": 5, "c": 10}


def test_tracer_records_nested_spans():
    tracer = Tracer()
    with tracer.span("outer"):
        with tracer.span("inner"):
            pass
    (outer, inner) = tracer.spans
    assert inner[1] == outer[0] and outer[1] == -1
    own = tracer.self_ns()
    assert own["outer"] + own["inner"] == outer[4] - outer[3]


def test_patch_reports_absent_name_and_keeps_running():
    tracer = Tracer()
    assert not tracer.patch("json:no_such_function", "json.missing")
    assert not tracer.patch("no_such_module_xyz:f", "gone.f")
    assert tracer.absent == ["json.missing", "gone.f"]


def test_patch_wraps_and_restores():
    import json

    original = json.dumps
    tracer = Tracer()
    assert tracer.patch("json:dumps", "json.dumps")
    assert json.dumps([1]) == "[1]"
    assert tracer.counts["json.dumps.calls"] == 1
    tracer.restore()
    assert json.dumps is original


@pytest.mark.parametrize(
    "n, expected",
    [(5, None), (19, None), (20, 50.0), (100, 90.0), (199, 90.0), (200, 95.0),
     (999, 95.0), (1000, 99.0), (9999, 99.0), (10000, 99.9)],
)
def test_tail_percentile_is_highest_with_ten_beyond(n, expected):
    values = list(range(n))
    ladder = (99.9, 99.0, 95.0, 90.0, 50.0)
    got = tail_percentile(values, ladder)
    if expected is None:
        assert got is None
        return
    p, value = got
    assert p == expected
    assert beyond(n, p) >= 10
    higher = [q for q in ladder if q > p]
    assert all(beyond(n, q) < 10 for q in higher)
    # exactly `beyond` samples rank above the reported value
    assert sum(v > value for v in values) == beyond(n, p)


def test_nearest_rank():
    assert nearest_rank([3, 1, 2], 50) == 2
    assert nearest_rank(range(1, 101), 99) == 99
    assert nearest_rank([7], 99.9) == 7
