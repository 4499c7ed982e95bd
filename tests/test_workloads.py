"""One checked pass of each benchmark workload: the calls perfbench makes into
qcsched, by name and call form, and the checks it applies to their outputs
must keep working.

    PYTHONPATH=src python3 -m pytest tests/test_workloads.py
"""

import sys
from functools import cached_property
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "perfbench"
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import workloads   # noqa: E402
from qcsched import dual, quantizer, solver   # noqa: E402


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_one_checked_pass_of_each_workload(name):
    w = workloads.WORKLOADS[name](seed=1)
    tally = workloads.Tally()
    done = workloads.run_pass(w, 0, tally)
    if hasattr(w, "global_checks"):
        for what, problems in w.global_checks():
            tally.record(what, problems)
    workloads.check_all(w, done, tally)
    assert done and tally.failed == 0, tally.problems


def test_traced_schemes_sweep_counts_each_tie_once():
    # perfbench counts allocator.tie_instances as len(find_tie_instances(
    # ...)[0]); every tie has two to M tied users, one LP variable each
    w = workloads.WORKLOADS["schemes_sweep"](seed=1)
    tally = workloads.Tally()
    _, metrics, _ = workloads.traced(w, tally, None)
    ties = metrics["allocator.tie_instances"][0]
    lp_vars = metrics["simplex.lp_vars"][0]
    assert 0 < 2 * ties <= lp_vars <= w.M * ties
    assert tally.failed == 0, tally.problems


def test_traced_tc1_offline_counts_the_columns_of_each_problem(monkeypatch):
    # perfbench counts quantizer.column_space's calls and, as its
    # result[1].size, quantizer.columns: one call per Problem that
    # enumerates, n_classes·L^M columns each, in the traced pass alone
    built, columns = [], dual.Problem.columns.func

    def spy(problem):
        if getattr(quantizer.column_space, "bench_wrapper", False):
            built.append(len(problem.classes[0])
                         * problem.grid.regions_per_channel
                         ** problem.num_users)
        return columns(problem)

    prop = cached_property(spy)
    prop.__set_name__(dual.Problem, "columns")
    monkeypatch.setattr(dual.Problem, "columns", prop)
    w = workloads.WORKLOADS["tc1_offline"](seed=1)
    tally = workloads.Tally()
    _, metrics, _ = workloads.traced(w, tally, None)
    assert metrics["quantizer.column_space.calls"][0] == len(built) == 8
    assert metrics["quantizer.columns"][0] == sum(built) == 2048
    assert tally.failed == 0, tally.problems


def test_traced_ra1_online_shows_every_chunk():
    # perfbench wraps quantizer.quantize and channel.sample_gain_blocks by
    # name: the online run and mc_primal sample and quantize once per chunk
    # of solver._chunk_blocks blocks, so a traced pass counts every chunk
    w = workloads.WORKLOADS["ra1_online"](seed=1)
    tally = workloads.Tally()
    _, metrics, _ = workloads.traced(w, tally, None)
    chunk = solver._chunk_blocks(w.M, w.K)
    chunks = -(-w.ONLINE_BLOCKS // chunk) + -(-w.MC_BLOCKS // chunk)
    assert chunk < w.ONLINE_BLOCKS and chunks > 2
    assert metrics["quantizer.quantize.calls"][0] == chunks
    assert metrics["channel.calls"][0] == chunks
    assert metrics["channel.blocks"][0] == w.ONLINE_BLOCKS + w.MC_BLOCKS
    assert tally.failed == 0, tally.problems
