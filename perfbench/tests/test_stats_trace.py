"""Unit tests of the benchmark's statistics and span analysis."""

from __future__ import annotations

import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__)))))

from perfbench import layers, stats, trace  # noqa: E402


def test_tail_percentile_keeps_ten_samples_beyond():
    values = [float(v) for v in range(1, 101)]  # 1..100
    pct, value, n = stats.tail_percentile(values)
    assert n == 100
    assert value == 90.0  # 91..100 lie beyond it: exactly ten
    assert sum(v > value for v in values) == 10
    assert pct == pytest.approx(89.9)


def test_tail_percentile_is_the_highest_such_rank():
    values = [float(v) for v in range(1, 1001)]
    pct, value, n = stats.tail_percentile(values)
    assert (pct, value, n) == (99.0, 990.0, 1000)
    # one sample more moves the tail up by one rank
    pct2, value2, _ = stats.tail_percentile(values + [1001.0])
    assert value2 == 991.0 and pct2 >= pct


def test_tail_percentile_ignores_input_order():
    a = [5.0, 1.0, 9.0, 3.0] * 10
    assert stats.tail_percentile(a) == stats.tail_percentile(sorted(a))


def test_tail_percentile_too_few_samples_reports_max():
    assert stats.tail_percentile([3.0, 1.0, 2.0]) == (100.0, 3.0, 3)
    with pytest.raises(ValueError):
        stats.tail_percentile([])


def test_iqr_share():
    assert stats.iqr_share([10.0] * 10) == 0.0
    assert stats.iqr_share([1.0, 2.0, 3.0, 4.0, 5.0]) == pytest.approx(3.0 / 3.0)


def _span(pid, sid, parent, t0, t1, name="x", op=None):
    return {"n": name, "id": sid, "p": parent, "pid": pid, "op": op,
            "t0": t0, "t1": t1, "bi": 0, "bo": 0, "note": None}


def test_union_counts_overlap_once():
    assert trace.union_ns([]) == 0
    assert trace.union_ns([(0, 10), (5, 15), (20, 25)]) == 20
    assert trace.union_ns([(0, 10), (2, 3), (4, 5)]) == 10


def test_self_time_subtracts_overlapping_children_once():
    spans = [
        _span(1, 1, None, 0, 100),
        _span(1, 2, 1, 10, 40),
        _span(1, 3, 1, 30, 60),    # overlaps child 2 over [30, 40]
        _span(1, 4, 3, 35, 50),    # grandchild: only its parent subtracts it
        _span(1, 5, 1, 90, 120),   # runs past the parent's end: clipped
    ]
    trace.build_tree(spans, driver_pid=1)
    trace.self_times(spans)
    got = {s["id"]: s["self_ns"] for s in spans}
    assert got[1] == 100 - (50 + 10)   # children cover [10, 60] and [90, 100]
    assert got[2] == 30
    assert got[3] == 30 - 15
    assert got[4] == 15
    assert got[5] == 30


def test_worker_roots_attach_to_innermost_open_driver_span():
    spans = [
        _span(1, 1, None, 0, 100, "op", op=7),
        _span(1, 2, 1, 10, 90, "driver.call", op=7),
        _span(2, 1, None, 20, 50, "worker.root"),
        _span(2, 2, 1, 25, 30, "worker.child"),
        _span(3, 1, None, 95, 99, "worker.late"),
    ]
    trace.build_tree(spans, driver_pid=1)
    trace.self_times(spans)
    by = {(s["pid"], s["id"]): s for s in spans}
    assert by[(2, 1)]["pk"] == (1, 2)
    assert by[(3, 1)]["pk"] == (1, 1)
    assert by[(2, 2)]["op"] == 7 and by[(3, 1)]["op"] == 7
    # the driver call's self time is what no worker span covers
    assert by[(1, 2)]["self_ns"] == 80 - 30
    keyed = {s["k"]: s for s in spans}
    assert trace.has_ancestor(by[(2, 2)], keyed, {"driver.call"})
    assert not trace.has_ancestor(by[(3, 1)], keyed, {"driver.call"})


def test_wrap_records_bytes_note_and_exceptions():
    rec = trace.Recorder()
    ok = trace.wrap(rec, "f", lambda b: b * 2, bytes_in=lambda a, k: len(a[0]),
                    bytes_out=len, note=lambda a, k, r: "done")
    assert ok(b"abc") == b"abcabc"

    def boom():
        raise KeyError("x")

    bad = trace.wrap(rec, "g", boom)
    with pytest.raises(KeyError):
        bad()
    f, g = rec.spans
    assert (f["n"], f["bi"], f["bo"], f["note"]) == ("f", 3, 6, "done")
    assert g["note"] == "raised KeyError" and g["t1"] >= g["t0"]


def test_coverage_counts_overlapping_spans_once_and_skips_entry_points():
    ops = [{"id": 1, "kind": "encode", "t0": 0, "t1": 100}]
    spans = [dict(_span(1, 1, None, 0, 100, "op", op=1), k=(1, 1)),
             dict(_span(1, 2, 1, 0, 100, "encode_job.run_encode_job", op=1), k=(1, 2)),
             dict(_span(1, 3, 2, 5, 95, "hash_exchange.run_hashed_encode", op=1), k=(1, 3)),
             dict(_span(1, 4, 3, 0, 60, "a", op=1), k=(1, 4)),
             dict(_span(2, 1, None, 50, 80, "b", op=1), k=(2, 1))]
    assert layers.coverage(spans, ops) == pytest.approx(0.8)
