"""Overhead accounting, access realization, audits, and the scheme harness."""

import math
import warnings
from dataclasses import replace

import numpy as np
import pytest

from qcsched import allocator, analysis, dual, solver
from qcsched.allocator import (DEFAULT_RATE_CAP, Multipliers, RateCostTables,
                               build_tables)
from qcsched.analysis import (CompareSetup, OverheadReport, compare_schemes,
                              feedback_bits, mc_primal, power_db, ra1_point,
                              ra2_point, ra3_point, ra4_point, ra5_point,
                              sweep_regions)
from qcsched.channel import FadingModel, sample_gains, snr_db_to_mean_gain
from qcsched.dual import block_allocation, exact_dual
from qcsched.powerrate import (ErgodicCapacity, MaxAvgBer, MaxInstBer,
                               OutageCapacity)
from qcsched.quantizer import EnumerationBudgetError, build_equiprobable
from qcsched.solver import (Problem, SolverConfig, run_offline_nonsmooth,
                            run_offline_smooth, run_online)

from oracles import cluster_audit, realize_probabilistic_access

MODEL = OutageCapacity(outage_delta=0.0)


def micro_setup(**over):
    """M=2, K=4 instance small enough for every scheme path."""
    mg = np.full((2, 4), snr_db_to_mean_gain(6.0))
    kw = dict(fading=FadingModel(mg, seed=2), regions=4, model=MODEL,
              mu=np.ones(2), targets=np.array([1.0, 1.5]))
    kw.update(over)
    return CompareSetup(**kw)


# --- feedback overhead --------------------------------------------------------------

def test_feedback_bits_reference_shape():
    rep = feedback_bits(3, 64, 4)
    assert rep == OverheadReport(full_qcsi_bits=384, allocation_bits=237,
                                 per_channel_bits=4)


def test_feedback_bits_small_system_can_invert():
    rep = feedback_bits(1, 1, 2)
    assert rep.full_qcsi_bits == 1
    assert rep.allocation_bits == 2        # idle symbol costs the extra bit


def test_feedback_bits_allocation_wins_at_scale():
    rep = feedback_bits(4, 10, 8)
    assert rep.full_qcsi_bits == 120
    assert rep.allocation_bits == 51
    assert rep.allocation_bits < rep.full_qcsi_bits


def test_feedback_bits_single_region_is_free():
    assert feedback_bits(3, 5, 1).full_qcsi_bits == 0


def test_feedback_bits_validation():
    for bad in ((0, 1, 2), (1, 0, 2), (1, 1, 0)):
        with pytest.raises(ValueError):
            feedback_bits(*bad)


# --- probabilistic access realization -------------------------------------------------

def test_access_idle_and_singleton():
    assert realize_probabilistic_access([0.0, 0.0], 0.3) is None
    assert realize_probabilistic_access([0.0, 1.0, 0.0], 0.99) == 1
    assert realize_probabilistic_access([0.0, 1.0, 0.0], 0.0) == 1


def test_access_frequencies_match_weights():
    w = [0.8, 0.2]
    rng = np.random.default_rng(17)
    draws = rng.random(100_000)
    picks = np.array([realize_probabilistic_access(w, d) for d in draws])
    freq = np.bincount(picks, minlength=2) / len(picks)
    np.testing.assert_allclose(freq, w, atol=0.01)


def test_access_unnormalized_weights():
    assert realize_probabilistic_access([2.0, 2.0], 0.25) == 0
    assert realize_probabilistic_access([2.0, 2.0], 0.75) == 1


# --- cluster audit --------------------------------------------------------------------

def test_cluster_audit_clean_for_implemented_families():
    fading = FadingModel(np.array([[1.0, 2.0], [0.5, 1.5]]), seed=3)
    grid = build_equiprobable(fading, 4)
    for model in (MODEL, ErgodicCapacity()):
        t = build_tables(model, grid,
                         Multipliers(np.array([0.9, 1.3]), np.ones(2),
                                     np.ones(2)))
        for k in range(2):
            assert cluster_audit(t, k) == []


def test_cluster_audit_flags_nonmonotone_costs():
    # a cost that worsens with a better region breaks rule (i)
    cost = np.array([[[-1.0, 0.1, 0.2, 0.3]], [[0.0, 0.0, 0.0, 0.0]]])
    t = RateCostTables(rate=np.ones_like(cost), power=np.zeros_like(cost),
                       cost=cost)
    violations = cluster_audit(t, 0)
    assert violations
    assert any(v["rule"] == "own_region_up" and v["user"] == 0
               for v in violations)


def test_cluster_audit_budget():
    cost = np.zeros((4, 1, 10))
    t = RateCostTables(rate=cost, power=cost, cost=cost)
    with pytest.raises(EnumerationBudgetError):
        cluster_audit(t, 0, budget=100)


# --- Monte-Carlo primal ----------------------------------------------------------------

def test_mc_primal_matches_blockwise_loop(monkeypatch):
    monkeypatch.setattr(solver, "ONLINE_CHUNK", 7)
    fading = FadingModel(np.array([[1.0, 2.0], [0.5, 1.5]]), seed=3)
    grid = build_equiprobable(fading, 4)
    mult = Multipliers(np.array([0.8, 1.1]), np.ones(2), np.array([0.5, 0.7]))
    n = 64
    rate_mc, power_mc = mc_primal(MODEL, grid, mult, 0.05, fading, n,
                                  first_block=5)
    tables = build_tables(MODEL, grid, mult)
    acc_r = np.zeros(2)
    acc_p = 0.0
    for b in range(n):
        gains = sample_gains(fading, 5 + b)
        from qcsched.quantizer import quantize
        served, wp, _ = block_allocation(tables, mult.lambda_r,
                                         quantize(grid, gains), 0.05)
        acc_r += served
        acc_p += wp
    np.testing.assert_allclose(rate_mc, acc_r / n, atol=1e-12)
    assert power_mc == pytest.approx(acc_p / n, abs=1e-12)


def test_mc_primal_converges_to_exact_dual():
    fading = FadingModel(np.array([[1.0, 2.0], [0.5, 1.5]]), seed=3)
    grid = build_equiprobable(fading, 4)
    mult = Multipliers(np.array([0.8, 1.1]), np.ones(2), np.array([0.5, 0.7]))
    ev = exact_dual(MODEL, grid, mult, "smooth")
    rate_mc, power_mc = mc_primal(MODEL, grid, mult, 0.05, fading, 60_000)
    np.testing.assert_allclose(rate_mc, ev.per_user_avg_rate, rtol=0.02)
    assert power_mc == pytest.approx(ev.avg_power, rel=0.02)


@pytest.mark.parametrize("batch", [1, 7])
def test_mc_primal_batch_size_only_regroups_sums(batch, monkeypatch):
    fading = FadingModel(np.array([[1.0, 2.0, 0.8], [0.5, 1.5, 2.5]]), seed=9)
    grid = build_equiprobable(fading, 16)
    mult = Multipliers(np.array([0.8, 1.1]), np.ones(2), np.array([0.5, 0.7]))
    ref_rate, ref_power = mc_primal(MODEL, grid, mult, 0.05, fading, 300,
                                    first_block=11)
    monkeypatch.setattr(solver, "ONLINE_CHUNK", batch)
    rate, power = mc_primal(MODEL, grid, mult, 0.05, fading, 300,
                            first_block=11)
    np.testing.assert_allclose(rate, ref_rate, rtol=1e-12, atol=0.0)
    assert power == pytest.approx(ref_power, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("eps", [0.0, -1.0, np.nan, np.inf])
def test_mc_primal_rejects_a_bad_eps(eps):
    fading = FadingModel(np.array([[1.0, 2.0], [0.5, 1.5]]), seed=3)
    grid = build_equiprobable(fading, 4)
    mult = Multipliers(np.array([0.8, 1.1]), np.ones(2), np.array([0.5, 0.7]))
    with pytest.raises(ValueError, match="eps"):
        mc_primal(MODEL, grid, mult, eps, fading, 10)


@pytest.mark.parametrize("n", [0, -3])
def test_mc_primal_rejects_an_empty_run(n):
    fading = FadingModel(np.array([[1.0, 2.0], [0.5, 1.5]]), seed=3)
    grid = build_equiprobable(fading, 4)
    mult = Multipliers(np.array([0.8, 1.1]), np.ones(2), np.array([0.5, 0.7]))
    with pytest.raises(ValueError, match="num_blocks"):
        mc_primal(MODEL, grid, mult, 0.05, fading, n)


def test_online_and_mc_on_outage_grid_raise_no_runtime_warning():
    # region 1 of every ladder is an outage region (c = +inf), where the
    # closed form multiplies inf by a zero rate; that must stay silent
    fading = FadingModel(np.full((3, 8), snr_db_to_mean_gain(6.0)), seed=4)
    grid = build_equiprobable(fading, 4)
    problem = Problem(grid=grid, model=MODEL, mu=np.ones(3),
                      targets=np.array([1.0, 2.0, 3.0]), fading=fading)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        res = run_online(problem, SolverConfig(beta=5e-3, init=0.0), 50)
        mult = Multipliers(res.final_lambda, problem.mu, problem.targets)
        rate, power = mc_primal(MODEL, grid, mult, 0.05, fading, 200,
                                first_block=50)
    assert np.all(np.isfinite(res.lam_trace)) and np.isfinite(power)
    assert np.all(np.isfinite(rate))


# --- scheme points ----------------------------------------------------------------------

def test_ra3_point_converges_and_meets_targets():
    setup = micro_setup()
    row = ra3_point(setup)
    assert row["scheme"] == "RA3"
    assert row["converged"]
    assert row["method"] == "offline_exact"
    np.testing.assert_allclose(row["avg_rates"], setup.targets, atol=2e-3)


def test_ra3_newton_converges_from_small_initial_damping():
    # beta far above the constant-step stability bound makes the first
    # Newton damping 1/beta small: the step is nearly undamped, and the
    # ‖subgradient‖ test must raise the damping until the solve converges
    setup = micro_setup(beta=2.0, max_iters=3_000)
    row = ra3_point(setup)
    assert row["converged"]
    np.testing.assert_allclose(row["avg_rates"], setup.targets, atol=2e-3)


def test_smooth_rows_say_how_they_were_solved():
    setup = micro_setup()
    for row in (ra3_point(setup), ra4_point(setup), ra1_point(setup)):
        assert 0 < row["iterations"] <= 30
        assert row["max_abs_subgradient"] < setup.tol
        assert row["max_abs_subgradient"] == pytest.approx(
            np.max(np.abs(row["avg_rates"] - setup.targets)), abs=1e-12)


def test_ra5_deterministic_meets_targets_and_costs_more():
    setup = micro_setup()
    a = ra5_point(setup)
    b = ra5_point(setup)
    assert a["method"] == "heuristic"
    np.testing.assert_array_equal(a["power_levels"], b["power_levels"])
    assert a["avg_power"] == b["avg_power"]
    assert np.all(np.asarray(a["avg_rates"]) >= setup.targets - 1e-9)
    ra3 = ra3_point(setup)
    assert ra3["avg_power"] <= a["avg_power"] + 1e-9


def test_ra5_zero_target_user_stays_silent():
    setup = micro_setup(targets=np.array([0.0, 1.5]))
    row = ra5_point(setup)
    assert row["power_levels"][0] == 0.0
    assert row["avg_rates"][0] == 0.0


def test_ra5_reports_what_a_saturated_user_is_served():
    # with K = M = 2 user 1 owns channel 1 alone and can carry at most
    # rate_cap·Pr{not outage} = 12·3/4 = 9: it transmits at the saturation
    # power, the largest Υ(rate_cap) over its live regions, and the row is
    # unconverged instead of raising; user 2 keeps its bisection
    fading = FadingModel(np.full((2, 2), snr_db_to_mean_gain(6.0)), seed=0)
    setup = micro_setup(fading=fading, targets=np.array([12.0, 0.5]))
    row = ra5_point(setup)
    assert row["converged"] is False
    floor = build_equiprobable(fading, 4).thresholds[0, 0, 1]
    assert row["power_levels"][0] == pytest.approx((2.0 ** 12 - 1) / floor,
                                                   rel=1e-12)
    assert row["avg_rates"][0] == pytest.approx(9.0, rel=1e-12)
    assert abs(row["avg_rates"][1] - 0.5) < setup.tol


def test_ra2_within_smoothing_bound_of_ra3():
    setup = micro_setup()
    ra3 = ra3_point(setup)
    ra2 = ra2_point(setup)
    K = setup.fading.mean_gain.shape[1]
    gap = ra3["avg_power"] - ra2["avg_power"]
    assert -1e-6 <= gap <= K * setup.eps + 0.02
    assert ra2["method"] == "eps_continuation_tie_lp"


RA2_CASES = {
    "outage": (MODEL, [[4.0] * 4] * 2),
    "inst_ber": (MaxInstBer(kappa1=0.2, kappa2=1.5, eps_max=1e-3),
                 [[4.0] * 4] * 2),
    "avg_ber": (MaxAvgBer(kappa1=0.2, kappa2=1.5, eps_avg=1e-3),
                [[4.0] * 4] * 2),
    "ergodic": (ErgodicCapacity(), [[4.0] * 4] * 2),
    "outage_nonflat": (MODEL, [[1.0, 2.0, 3.0, 1.0], [2.5, 1.5, 0.8, 2.5]]),
}


@pytest.mark.parametrize("case", sorted(RA2_CASES))
def test_ra2_continuation_meets_the_targets_inside_its_bracket(case):
    # the tie LP is feasible at every stage, so the row serves the targets;
    # D ≤ P ≤ Pˢ(λ_ε) holds up to the λ·feas_tol by which the smooth weights
    # may miss the LP's constraints, and the stop rule closes P - D
    model, gains = RA2_CASES[case]
    setup = micro_setup(fading=FadingModel(np.array(gains), seed=1),
                        model=model, mu=np.array([1.0, 2.0]),
                        tol=np.array([1e-3, 1e-4]))
    row = ra2_point(setup)
    assert row["converged"]
    np.testing.assert_allclose(row["avg_rates"], setup.targets, rtol=0,
                               atol=allocator.DEFAULT_FEAS_TOL)
    lam = row["lambda"]
    grid = build_equiprobable(setup.fading, setup.regions)
    smooth = Problem(grid, model, setup.mu, setup.targets,
                     rate_cap=setup.rate_cap).evaluate(lam, "smooth",
                                                       row["eps"])
    slack = lam.sum() * allocator.DEFAULT_FEAS_TOL
    assert row["dual_bound"] <= row["avg_power"] <= smooth.avg_power + slack
    assert row["avg_power"] - row["dual_bound"] <= lam @ setup.tol


def test_ra2_unconverged_stage_reports_its_smooth_point():
    # a stage whose Newton stops at max_iters ends the continuation: the row
    # carries the smooth point there and says so, with no tie LP run
    setup = micro_setup(max_iters=3)
    row = ra2_point(setup)
    assert row["converged"] is False and row["eps"] == setup.eps
    grid = build_equiprobable(setup.fading, setup.regions)
    problem = Problem(grid, MODEL, setup.mu, setup.targets,
                      rate_cap=setup.rate_cap)
    smooth = problem.evaluate(row["lambda"], "smooth", setup.eps)
    hard = problem.evaluate(row["lambda"], "hard", setup.eps)
    np.testing.assert_array_equal(row["avg_rates"], smooth.per_user_avg_rate)
    assert row["avg_power"] == smooth.avg_power
    assert row["dual_bound"] == hard.value


def test_ra4_random_quantizer_converges_at_matched_rates():
    # no ordering claim vs RA3 here: a lucky random ladder can beat the
    # equiprobable heuristic on small instances (it does on this one)
    setup = micro_setup()
    ra4 = ra4_point(setup)
    assert ra4["scheme"] == "RA4"
    assert ra4["converged"]
    np.testing.assert_allclose(ra4["avg_rates"], setup.targets, atol=2e-3)
    ra4_again = ra4_point(setup)
    assert ra4_again["avg_power"] == ra4["avg_power"]   # seeded thresholds


def test_ra1_perfect_csi_row_is_below_ra3():
    setup = micro_setup()
    row = ra1_point(setup)
    assert row["scheme"] == "RA1"
    assert row["method"] == "perfect_csi"
    ra3 = ra3_point(setup)
    assert row["avg_power"] <= ra3["avg_power"] + 1e-9


def test_ra1_is_the_bound_the_certified_quantized_optimum_falls_to():
    # RA2's certified power P* on L regions strictly decreases in L and stays
    # above the perfect-CSI hard dual, which bounds every policy's power
    setup = micro_setup()
    ra1 = ra1_point(setup)
    powers = [ra2_point(replace(setup, regions=L)) for L in (2, 4, 8, 16, 32)]
    assert all(r["converged"] for r in [ra1, *powers])
    powers = [r["avg_power"] for r in powers]
    assert all(np.diff(powers) < 0), powers
    assert powers[-1] >= ra1["dual_bound"]
    assert ra1["dual_bound"] == pytest.approx(ra1["avg_power"], rel=1e-9)


def test_converged_rows_meet_their_targets():
    # no row or solver result hard-codes its flag: every one that says
    # converged serves its targets
    setup = micro_setup()
    rows = compare_schemes(setup) + sweep_regions(setup, [2, 4])
    assert [r["scheme"] for r in rows] == ["RA1", "RA2", "RA3", "RA4", "RA5",
                                           "RA3", "RA3", "RA1"]
    for r in rows:
        miss = np.max(np.abs(np.asarray(r["avg_rates"]) - setup.targets))
        assert r["converged"] and miss < setup.tol, (r["scheme"], miss)
    # RA5 computes its flag: a tol below its bisection's rate error fails it
    strict = micro_setup(tol=1e-15)
    assert not ra5_point(strict)["converged"]
    # the three solvers on the tc1 shape: the constant step serves its last
    # iterate, the non-smooth baseline the average of its second half (its
    # last iterate hovers), the online run its final sample average
    fading = FadingModel(np.full((4, 16), snr_db_to_mean_gain(6.0)), seed=0)
    problem = Problem(grid=build_equiprobable(fading, 4), model=MODEL,
                      mu=np.ones(4), targets=np.array([4.0, 8.0, 12.0, 16.0]),
                      fading=fading)
    cfg = SolverConfig(beta=8e-3, kappa=0.1, tol=1e-3, max_iters=1000)
    results = [run_offline_smooth(problem, cfg)[1],
               run_offline_nonsmooth(problem, cfg),
               run_online(problem, cfg, 1000).trajectory]
    for traj in results:
        miss = np.max(np.abs(traj.served_rates - problem.targets))
        assert traj.converged == (miss < cfg.tol), (traj.reason, miss)
    assert [traj.converged for traj in results] == [True, True, False]


# --- harness drivers --------------------------------------------------------------------

def test_compare_schemes_rows_and_ordering():
    setup = micro_setup()
    rows = compare_schemes(setup, schemes=("RA3", "RA5"))
    assert [r["scheme"] for r in rows] == ["RA3", "RA5"]
    for r in rows:
        assert r["power_db"] == pytest.approx(
            10 * np.log10(r["avg_power"]))
    assert rows[0]["avg_power"] <= rows[1]["avg_power"]


def test_compare_schemes_unknown_scheme():
    with pytest.raises(ValueError, match="unknown scheme"):
        compare_schemes(micro_setup(), schemes=("RA9",))


def test_compare_schemes_lets_a_schemes_key_error_through(monkeypatch):
    def broken(setup):
        raise KeyError("inside the scheme")

    monkeypatch.setitem(analysis._SCHEME_FUNCS, "RA3", broken)
    with pytest.raises(KeyError, match="inside the scheme"):
        compare_schemes(micro_setup(), schemes=("RA3",))


def test_zero_power_rows_are_minus_inf_db():
    # zero targets leave every user silent: rows and summaries share one
    # power_db, which maps 0 to -inf and keeps positive powers' bits
    setup = micro_setup(targets=np.array([0.0, 0.0]))
    row, = sweep_regions(setup, [2], reference_regions=None)
    assert row["avg_power"] == 0.0 and row["power_db"] == -math.inf
    ra3, = compare_schemes(setup, schemes=("RA3",))
    assert ra3["power_db"] == -math.inf
    assert power_db(96.72) == 10.0 * math.log10(96.72)


def test_sweep_regions_monotone_micro():
    setup = micro_setup()
    rows = sweep_regions(setup, [2, 4, 8])
    assert [r["regions"] for r in rows] == [2, 4, 8, math.inf]
    powers = [r["avg_power"] for r in rows]
    assert all(np.diff(powers) < 0)        # strictly better with finer CSI
    assert all(r["converged"] for r in rows)


def test_sweep_reference_is_perfect_csi_or_none():
    # a finite L would silently be served as L = inf
    with pytest.raises(ValueError, match="reference_regions"):
        sweep_regions(micro_setup(), [2], reference_regions=256)


def test_offline_builds_read_the_class_representatives_only(monkeypatch):
    # a flat K=16 grid is one channel class: a smooth solve and RA2 (its
    # Newton stages, hard evaluations and tie search) build (M, 1, L)
    # tables; the online path still builds each block's (M, K) cells
    shapes = []

    def spy(model, grid, mult, rate_cap=DEFAULT_RATE_CAP, static=None):
        shapes.append(None if static is None else static[0].shape)
        return build_tables(model, grid, mult, rate_cap, static)

    for mod in (allocator, dual, solver):
        monkeypatch.setattr(mod, "build_tables", spy)
    fading = FadingModel(np.full((2, 16), snr_db_to_mean_gain(6.0)), seed=2)
    setup = micro_setup(fading=fading)
    problem = Problem(grid=build_equiprobable(fading, 4), model=MODEL,
                      mu=setup.mu, targets=setup.targets, fading=fading)
    run_offline_smooth(problem, SolverConfig(beta=0.05, max_iters=50))
    smooth_builds = len(shapes)
    ra2_point(setup)
    assert len(shapes) > smooth_builds and set(shapes) == {(2, 1, 4)}
    shapes.clear()
    run_online(problem, SolverConfig(beta=1e-3), 20)
    assert shapes == [(2, 16)] * 20
