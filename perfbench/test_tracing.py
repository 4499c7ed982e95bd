"""Tests of the benchmark's tracing: it must not change what the program
computes, and it must leave every qcsched binding as it found it.

    PYTHONPATH=src python3 -m pytest perfbench/test_tracing.py
"""

import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import tracing     # noqa: E402
import workloads   # noqa: E402


def bindings():
    owners = tracing._package_modules() + list(tracing.FAMILIES)
    return {(getattr(o, "__name__", str(o)), k): id(v)
            for o in owners for k, v in vars(o).items() if callable(v)}


@pytest.mark.parametrize("name", ["tc1_offline", "ra1_online"])
def test_traced_pass_is_bitwise_identical_and_restored(name):
    w = workloads.WORKLOADS[name](seed=3)
    tally = workloads.Tally()
    before = bindings()
    plain = workloads.run_pass(w, 0, tally)
    rec = tracing.Recorder()
    undo = tracing.install(rec)
    try:
        assert tracing.wrapped_bindings()
        traced = workloads.run_pass(w, 0, tally, rec)
    finally:
        tracing.restore(undo)
    assert tally.failed == 0, tally.problems
    assert [lb for lb, _, _ in plain] == [lb for lb, _, _ in traced]
    for (label, _, a), (_, _, b) in zip(plain, traced):
        assert w.fingerprint(label, a) == w.fingerprint(label, b), label
    assert bindings() == before
    assert tracing.wrapped_bindings() == []
    assert "solver" in rec.names and "allocator.build_tables" in rec.names


def test_self_time_subtracts_children():
    rec = tracing.Recorder()
    # parent [0, 10] with children [1, 3] and [4, 8]; grandchild [5, 6]
    rec.names = ["solver", "dual.exact_smooth", "dual.exact_smooth",
                 "allocator.build_tables"]
    rec.starts = [0.0, 1.0, 4.0, 5.0]
    rec.ends = [10.0, 3.0, 8.0, 6.0]
    rec.parents = [-1, 0, 0, 2]
    rec.runs = [0, 0, 0, 0]
    assert list(rec.self_times()) == [4.0, 2.0, 3.0, 1.0]
    metrics, _ = tracing.metrics(rec, 0.5)
    assert metrics["dual.exact_smooth.calls"] == (2, "count")
    assert metrics["dual.exact_smooth.self_s"] == (5.0, "s")
    assert metrics["solver.self_s"] == (4.0, "s")
    assert metrics["trace.overhead_s"] == (0.5, "s")


def test_same_name_call_records_one_span():
    rec = tracing.Recorder()

    def inner():
        return 1

    def outer():
        return rec.call("channel", inner, (), {}, None) + 1

    assert rec.call("channel", outer, (), {}, None) == 2
    assert rec.names == ["channel"]
