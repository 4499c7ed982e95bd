"""Overhead accounting, access realization, audits, and the scheme harness."""

import math
import warnings
from dataclasses import replace

import numpy as np
import pytest

from qcsched import allocator, analysis, dual, solver
from qcsched.allocator import (DEFAULT_RATE_CAP, Multipliers, RateCostTables,
                               build_tables, find_tie_instances)
from qcsched.analysis import (CompareSetup, OverheadReport, compare_rows,
                              compare_schemes, feedback_bits, mc_primal,
                              power_db, sweep_regions)
from qcsched.channel import (FadingModel, sample_gain_blocks, sample_gains,
                             snr_db_to_mean_gain)
from qcsched.dual import block_allocation, exact_dual, serve_block
from qcsched.powerrate import (ErgodicCapacity, MaxAvgBer, MaxInstBer,
                               OutageCapacity)
from qcsched.quantizer import (EnumerationBudgetError, QuantizerGrid,
                               build_equiprobable, build_random, quantize)
from qcsched.solver import (Problem, SolverConfig, run_offline_nonsmooth,
                            run_offline_smooth, run_online)

from oracles import (cluster_audit, primal_lp, ra5_bisection,
                     realize_probabilistic_access)

MODEL = OutageCapacity(outage_delta=0.0)


def micro_setup(**over):
    """M=2, K=4 instance small enough for every scheme path."""
    mg = np.full((2, 4), snr_db_to_mean_gain(6.0))
    kw = dict(fading=FadingModel(mg, seed=2), regions=4, model=MODEL,
              mu=np.ones(2), targets=np.array([1.0, 1.5]))
    kw.update(over)
    return CompareSetup(**kw)


def point(setup, scheme):
    """The one solved row of ``scheme`` at ``setup``."""
    row, = compare_schemes(setup, (scheme,))
    return row


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
    monkeypatch.setattr(solver, "ONLINE_CHUNK", 7 * 2 * 2)    # M=2, K=2
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
                                         quantize(grid, gains), 0.05,
                                         np.arange(grid.num_channels))
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
    monkeypatch.setattr(solver, "ONLINE_CHUNK", batch * 2 * 3)  # M=2, K=3
    rate, power = mc_primal(MODEL, grid, mult, 0.05, fading, 300,
                            first_block=11)
    np.testing.assert_allclose(rate, ref_rate, rtol=1e-12, atol=0.0)
    assert power == pytest.approx(ref_power, rel=1e-12, abs=0.0)


def test_mc_primal_and_online_build_class_cells_only(monkeypatch):
    # K = 5 channels in 3 classes: mc_primal builds its frozen-λ tables
    # once, on the M·n_classes·L class cells, and reads them through the
    # class map, bitwise as (M, K, L) tables would be read in the same
    # chunk; run_online serves each block's (M, K) cells alone
    shapes = []

    def spy(model, grid, mult, rate_cap=DEFAULT_RATE_CAP, static=None):
        tables = build_tables(model, grid, mult, rate_cap, static)
        shapes.append(tables.rate.shape)
        return tables

    def block_spy(model, block, *args):
        served = serve_block(model, block, *args)
        shapes.append(block[0].shape)
        return served

    for mod in (allocator, dual):
        monkeypatch.setattr(mod, "build_tables", spy)
    monkeypatch.setattr(solver, "serve_block", block_spy)
    fading = FadingModel(np.array([[1.0, 2.0, 1.0, 0.7, 2.0],
                                   [0.5, 1.5, 0.5, 3.0, 1.5]]), seed=4)
    grid = build_equiprobable(fading, 16)
    mult = Multipliers(np.array([0.8, 1.1]), np.ones(2), np.array([0.5, 0.7]))
    rate, power = mc_primal(MODEL, grid, mult, 0.05, fading, 50, first_block=3)
    assert shapes == [(2, 3, 16)]
    qcsi = quantize(grid, sample_gain_blocks(fading, 3, 50))
    served, wpower, _ = block_allocation(build_tables(MODEL, grid, mult),
                                         mult.lambda_r, qcsi, 0.05,
                                         np.arange(grid.num_channels))
    assert rate.tobytes() == (served / 50).tobytes() and power == wpower / 50
    shapes.clear()
    problem = Problem(grid, MODEL, mult.mu, mult.targets, fading=fading)
    run_online(problem, SolverConfig(beta=0.05), 30)
    assert shapes == [(2, 5)] * 30


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
    row = point(setup, "RA3")
    assert row["scheme"] == "RA3"
    assert row["converged"]
    assert row["method"] == "offline_exact"
    np.testing.assert_allclose(row["avg_rates"], setup.targets, atol=2e-3)


def test_ra3_newton_converges_from_small_initial_damping():
    # beta far above the constant-step stability bound makes the first
    # Newton damping 1/beta small: the step is nearly undamped, and the
    # ‖subgradient‖ test must raise the damping until the solve converges
    setup = micro_setup(beta=2.0, max_iters=3_000)
    row = point(setup, "RA3")
    assert row["converged"]
    np.testing.assert_allclose(row["avg_rates"], setup.targets, atol=2e-3)


def test_smooth_rows_say_how_they_were_solved():
    setup = micro_setup()
    for row in (point(setup, name) for name in ("RA3", "RA4", "RA1")):
        assert 0 < row["iterations"] <= 30
        assert row["max_abs_subgradient"] < setup.tol
        assert row["max_abs_subgradient"] == pytest.approx(
            np.max(np.abs(row["avg_rates"] - setup.targets)), abs=1e-12)


def test_ra5_deterministic_meets_targets_and_costs_more():
    setup = micro_setup()
    a = point(setup, "RA5")
    b = point(setup, "RA5")
    assert a["method"] == "heuristic"
    np.testing.assert_array_equal(a["power_levels"], b["power_levels"])
    assert a["avg_power"] == b["avg_power"]
    assert np.all(np.asarray(a["avg_rates"]) >= setup.targets - 1e-9)
    ra3 = point(setup, "RA3")
    assert ra3["avg_power"] <= a["avg_power"] + 1e-9


@pytest.mark.parametrize("model", [
    MODEL, ErgodicCapacity(),
    MaxInstBer(kappa1=0.2, kappa2=1.5, eps_max=0.01),
    MaxAvgBer(kappa1=0.2, kappa2=1.5, eps_avg=0.01)],
    ids=lambda m: type(m).__name__)
def test_ra5_builds_the_family_data_once(model, monkeypatch):
    # on the Problem's (M, n_classes, L) class grid, K = 4 channels in two
    # classes; RA5 gathers each user's cells from it through the class map
    fading = FadingModel(np.array([[4.0, 4.0, 2.0, 2.0]] * 2), seed=2)
    setup = micro_setup(model=model, fading=fading)
    (_, _, problem), = compare_rows(setup, ("RA5",))
    shapes, cell_data = [], type(model).cell_data

    def spy(self, ctx):
        shapes.append(np.broadcast(ctx.q_lo, ctx.q_hi, ctx.mean_gain).shape)
        return cell_data(self, ctx)

    monkeypatch.setattr(type(model), "cell_data", spy)
    analysis.ra5_point(setup, problem)
    assert shapes == [(2, 2, 4)]
    assert "static" in vars(problem)


def test_ra5_zero_target_user_stays_silent():
    setup = micro_setup(targets=np.array([0.0, 1.5]))
    row = point(setup, "RA5")
    assert row["power_levels"][0] == 0.0
    assert row["avg_rates"][0] == 0.0


def test_ra5_reports_what_a_saturated_user_is_served():
    # with K = M = 2 user 1 owns channel 1 alone and can carry at most
    # rate_cap·Pr{not outage} = 12·3/4 = 9: it transmits at the saturation
    # power, the largest Υ(rate_cap) over its live regions, and the row is
    # unconverged instead of raising; user 2 still meets its target
    fading = FadingModel(np.full((2, 2), snr_db_to_mean_gain(6.0)), seed=0)
    setup = micro_setup(fading=fading, targets=np.array([12.0, 0.5]))
    row = point(setup, "RA5")
    assert row["converged"] is False
    floor = build_equiprobable(fading, 4).thresholds[0, 0, 1]
    assert row["power_levels"][0] == pytest.approx((2.0 ** 12 - 1) / floor,
                                                   rel=1e-12)
    assert row["avg_rates"][0] == pytest.approx(9.0, rel=1e-12)
    assert abs(row["avg_rates"][1] - 0.5) < setup.tol


FAMILIES = [MODEL, ErgodicCapacity(),
            MaxInstBer(kappa1=0.2, kappa2=1.5, eps_max=0.01),
            MaxAvgBer(kappa1=0.2, kappa2=1.5, eps_avg=0.01)]
# M=3 users on K=6 channels, two each: user 1's target is beyond what any
# family's two channels carry at rate_cap (at most 12·2 = 24), user 2's is 0
RA5_TARGETS = np.array([30.0, 0.0, 1.5])


def ra5_row(model, targets=RA5_TARGETS, gain_scale=1.0):
    """The RA5 row and its setup and Problem on the M=3, K=6 instance at
    6 dB, every mean gain times ``gain_scale``."""
    mg = np.full((3, 6), snr_db_to_mean_gain(6.0) * gain_scale)
    setup = micro_setup(fading=FadingModel(mg, seed=2), model=model,
                        mu=np.array([1.0, 2.0, 0.5]), targets=targets)
    (_, _, problem), = compare_rows(setup, ("RA5",))
    return analysis.ra5_point(setup, problem), setup, problem


@pytest.mark.parametrize("target", [1490.0, 1900.0])
def test_ra5_level_past_the_float_range_is_inf(target):
    # at -100 dB and rate_cap 1000 user 1's two channels carry at most
    # 1000·2·3/4 = 1500: 1490 needs about 2^993/g on its best live region and
    # 1900 saturates, both past the float range; the level is +inf, every
    # live cell is served at the cap, and user 2 keeps its finite level
    fading = FadingModel(np.full((2, 4), snr_db_to_mean_gain(-100.0)), seed=2)
    setup = micro_setup(fading=fading, rate_cap=1000.0,
                        targets=np.array([target, 1.0]))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        row = point(setup, "RA5")
    assert row["power_levels"][0] == row["avg_power"] == np.inf
    assert row["avg_rates"][0] == 1500.0 and not row["converged"]
    assert np.isfinite(row["power_levels"][1])
    assert abs(row["avg_rates"][1] - 1.0) < setup.tol


@pytest.mark.parametrize("model", FAMILIES, ids=lambda m: type(m).__name__)
def test_ra5_levels_match_the_bisection_oracle(model):
    # the oracle stops at a bracket 1e-12·(1 + hi) wide, on levels near 1;
    # the saturated user's level is the same Υ(rate_cap) on both paths
    row, setup, problem = ra5_row(model)
    levels, rates = ra5_bisection(setup, problem)
    assert levels[1] == row["power_levels"][1] == 0.0
    np.testing.assert_allclose(row["power_levels"], levels, rtol=1e-11)
    np.testing.assert_allclose(row["avg_rates"], rates, rtol=1e-11)
    assert not row["converged"] and rates[0] < 30.0


@pytest.mark.parametrize("model", FAMILIES, ids=lambda m: type(m).__name__)
def test_ra5_user_level_ignores_the_other_users_targets(model):
    # every element of the one root-find evaluates its own cells only, so
    # no other user's target, zero, saturating or neither, moves a bit of it
    base = ra5_row(model)[0]
    for m in range(3):
        for other in (0.0, 30.0, 0.9):
            targets = np.full(3, other)
            targets[m] = RA5_TARGETS[m]
            row = ra5_row(model, targets)[0]
            assert row["power_levels"][m] == base["power_levels"][m]
            assert row["avg_rates"][m] == base["avg_rates"][m]


def test_ra2_at_a_tiny_mu_converges_without_a_warning(monkeypatch):
    # at μ = 1e-12 on compare's shape RA2's last ε-stage solves a Newton
    # system whose pivots pass 2⁵³; solver._solve keeps its step there, so
    # every stage converges and the row serves the targets, with no
    # division by a zero step
    reasons, solve = [], analysis.run_offline_newton

    def spy(problem, cfg):
        lam, traj = solve(problem, cfg)
        reasons.append(traj.reason)
        return lam, traj

    monkeypatch.setattr(analysis, "run_offline_newton", spy)
    fading = FadingModel(np.full((3, 64), snr_db_to_mean_gain(6.0)), seed=0)
    setup = micro_setup(fading=fading, mu=np.full(3, 1e-12),
                        targets=np.array([40.0, 70.0, 100.0]))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        row = point(setup, "RA2")
    assert set(reasons) == {"converged"} and row["converged"]
    np.testing.assert_allclose(row["avg_rates"], setup.targets, rtol=1e-12)
    # P - D measured 1.4e-15 on P = 1.5e-10; the flag allows λ·tol ≈ 5.5e-15
    assert 0.0 <= row["avg_power"] - row["dual_bound"] <= 1e-14


def test_ra2_within_smoothing_bound_of_ra3():
    setup = micro_setup()
    ra3 = point(setup, "RA3")
    ra2 = point(setup, "RA2")
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
    row = point(setup, "RA2")
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
    row = point(setup, "RA2")
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
    ra4 = point(setup, "RA4")
    assert ra4["scheme"] == "RA4"
    assert ra4["converged"]
    np.testing.assert_allclose(ra4["avg_rates"], setup.targets, atol=2e-3)
    ra4_again = point(setup, "RA4")
    assert ra4_again["avg_power"] == ra4["avg_power"]   # seeded thresholds


def test_ra1_perfect_csi_row_is_below_ra3():
    setup = micro_setup()
    row = point(setup, "RA1")
    assert row["scheme"] == "RA1"
    assert row["method"] == "perfect_csi"
    ra3 = point(setup, "RA3")
    assert row["avg_power"] <= ra3["avg_power"] + 1e-9


def test_ra1_is_the_bound_the_certified_quantized_optimum_falls_to():
    # RA2's certified power P* on L regions strictly decreases in L and stays
    # above the perfect-CSI hard dual, which bounds every policy's power
    setup = micro_setup()
    ra1 = point(setup, "RA1")
    powers = [point(replace(setup, regions=L), "RA2")
              for L in (2, 4, 8, 16, 32)]
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
    # RA5 computes its flag: serves_targets on its own rates, even at 1e-15
    strict = micro_setup(tol=1e-15)
    row = point(strict, "RA5")
    assert row["converged"] == solver.serves_targets(row["avg_rates"],
                                                     strict.targets, 1e-15)
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


# --- the paper's primal as an LP ---------------------------------------------------------
# one micro instance per family (M=2, K=2 with distinct mean gains, L=3),
# plus outage at δ = 0.3, whose first region is not an outage region

LP_FAMILIES = {
    "outage": OutageCapacity(outage_delta=0.0),
    "outage_delta_0.3": OutageCapacity(outage_delta=0.3),
    "inst_ber": MaxInstBer(kappa1=0.2, kappa2=1.5, eps_max=0.01),
    "avg_ber": MaxAvgBer(kappa1=0.2, kappa2=1.5, eps_avg=0.01),
    "ergodic": ErgodicCapacity(),
}


@pytest.mark.parametrize("family", sorted(LP_FAMILIES))
def test_the_primal_lp_bounds_every_dual_value_and_ra2(family):
    # P_LP(J) ≥ P* (oracles.primal_lp) and weak duality gives D(λ) ≤ P* at
    # every λ ≥ 0: RA2's λ̂ and each iterate of a certified non-smooth run.
    # RA2 serves its targets with P ≤ D(λ̂) + λ̂·tol, so P ≤ P_LP + λ̂·tol
    fading = FadingModel(np.array([[1.5, 3.0], [2.5, 1.0]]), seed=0)
    setup = CompareSetup(fading=fading, regions=3, model=LP_FAMILIES[family],
                         mu=np.array([1.0, 1.5]), targets=np.array([0.8, 1.0]))
    problem = Problem(build_equiprobable(fading, 3), setup.model, setup.mu,
                      setup.targets)
    p_lp = primal_lp(problem, 200)
    row = analysis.ra2_point(setup, problem)
    lam = row["lambda"]
    assert row["converged"]
    assert problem.evaluate(lam, "hard").value <= p_lp
    assert row["avg_power"] <= p_lp + float(lam @ np.full(2, setup.tol))
    traj = run_offline_nonsmooth(problem, SolverConfig(
        kappa=1.0, tol=setup.tol, max_iters=400, record_every=400))
    assert traj.converged
    assert traj.dual_bound <= p_lp


# --- relations between runs --------------------------------------------------------
# each states its tolerance and why; RA4's ladders are drawn in (m, k) order
# and RA5 gives channel k to user k mod M, so neither is permutation-free

@pytest.mark.parametrize("model", FAMILIES, ids=lambda m: type(m).__name__)
def test_ra5_gain_scale_divides_levels_and_power(model):
    # every family's power is ∝ 1/g and the ladders scale with ḡ, so RA5's
    # levels and power scale by 1/a and its rates stay, up to the root-find's
    # relative tolerance (measured at rounding, ≤ 1.6e-15); at +100 dB its
    # stop rule, ROOT_TOL·(1 + |x|), is absolute on levels near 1e-10
    base, *_ = ra5_row(model)
    for snr_shift in (-100.0, -50.0, 50.0):
        a = 10.0 ** (snr_shift / 10.0)
        row, *_ = ra5_row(model, gain_scale=a)
        np.testing.assert_allclose(row["power_levels"] * a,
                                   base["power_levels"], rtol=1e-12, atol=0)
        assert row["avg_power"] * a == pytest.approx(base["avg_power"],
                                                     rel=1e-12)
        np.testing.assert_allclose(row["avg_rates"], base["avg_rates"],
                                   rtol=1e-12, atol=0)


def test_ra1_gain_scale_shifts_power_and_lambda():
    # scaling every mean gain by a scales RA1's power and λ by 1/a and keeps
    # its rates; with the forward step relative to λ the solve takes the same
    # path up to rounding (measured ≤ 3.6e-12 in rates, 5.5e-12 in λ·a and
    # 2.4e-11 dB), and above 6 dB no more Newton steps. Below, the absolute
    # λ⁽⁰⁾ = 0.1 and damping 1/β still add steps
    def ra1(snr_db):
        mg = np.full((3, 64), snr_db_to_mean_gain(snr_db))
        setup = micro_setup(fading=FadingModel(mg, seed=0), mu=np.ones(3),
                            targets=np.array([40.0, 70.0, 100.0]))
        return point(setup, "RA1")

    base = ra1(6.0)
    for snr_db in (-100.0, -50.0, 50.0, 100.0):
        row, shift = ra1(snr_db), snr_db - 6.0
        assert row["converged"], snr_db
        np.testing.assert_allclose(row["avg_rates"], base["avg_rates"],
                                   rtol=1e-9, atol=0)
        np.testing.assert_allclose(row["lambda"] * 10.0 ** (shift / 10.0),
                                   base["lambda"], rtol=1e-9, atol=0)
        assert row["power_db"] == pytest.approx(base["power_db"] - shift,
                                                abs=1e-9)
        if shift > 0.0:
            assert row["iterations"] <= base["iterations"], snr_db


def test_user_permutation_permutes_ra1_to_ra3():
    # permuting ḡ, μ and ř permutes RA1-RA3's rates and λ and keeps their
    # power, up to rounding: the sums over users run in another order
    # through the same Newton steps (measured ≤ 9e-16), so iteration counts
    # and RA2's last ε are equal
    mg = np.outer([snr_db_to_mean_gain(db) for db in (4.0, 6.0, 8.0)],
                  np.ones(4))
    mu, targets = np.array([1.0, 2.0, 0.5]), np.array([1.0, 1.5, 0.8])
    perm = np.array([2, 0, 1])
    rows = [compare_schemes(micro_setup(
        fading=FadingModel(mg[p], seed=2), mu=mu[p], targets=targets[p]),
        ("RA1", "RA2", "RA3")) for p in (np.arange(3), perm)]
    for base, row in zip(*rows):
        assert base["converged"] and row["converged"], base["scheme"]
        assert row["avg_power"] == pytest.approx(base["avg_power"], rel=1e-12)
        np.testing.assert_allclose(row["avg_rates"], base["avg_rates"][perm],
                                   rtol=0, atol=1e-12)
        np.testing.assert_allclose(row["lambda"], base["lambda"][perm],
                                   rtol=1e-12)
        for key in ("iterations", "eps"):
            assert row.get(key) == base.get(key), (base["scheme"], key)


def channel_problems(model, *orders):
    """One Problem per channel order on an M=3, K=5, L=3 instance with
    random ladders and mean gains, channel 3 a copy of channel 0, so that
    channel_classes finds classes of 2, 1, 1 and 1 channels."""
    rng = np.random.default_rng(5)
    mg = snr_db_to_mean_gain(rng.uniform(2.0, 10.0, size=(3, 5)))
    grid = build_random(FadingModel(mg), 3, (0.0, 3.0 * mg.max()), seed=11)
    thr, mg = grid.thresholds[:, [0, 1, 2, 0, 4]], mg[:, [0, 1, 2, 0, 4]]
    return [Problem(QuantizerGrid(thr[:, order], mg[:, order]), model,
                    np.array([1.0, 2.0, 0.5]), np.array([0.6, 0.9, 0.3]))
            for order in orders]


def assert_rel(got, want, rtol=1e-12):
    """|got - want| ≤ rtol·max|want|, over an array or a scalar."""
    got, want = np.asarray(got), np.asarray(want)
    assert np.max(np.abs(got - want)) <= rtol * np.max(np.abs(want))


CHANNEL_FAMILIES = [MODEL, FAMILIES[1], FAMILIES[3]]
CHANNEL_LAMBDAS = [np.array([0.8, 1.2, 0.5]), np.array([0.3, 0.7, 0.2])]

# The channel relations go through quantizer.channel_classes: a class is
# evaluated once at its first channel and weighted by its size, and the
# class order follows first occurrence, so a permuted or extended grid sums
# the same terms in another order. Hence 1e-12 relative (measured: at most
# 4.6e-16 in values, rates, powers and r̄₁, and 2.0e-13 in the smooth
# Jacobian, relative to its largest entry, whose terms cancel). Relations
# that do not hold, by design: RA4's ladders are drawn in (m, k) order from
# one seed, and RA5 gives channel k to user k mod M.

@pytest.mark.parametrize("model", CHANNEL_FAMILIES,
                         ids=lambda m: type(m).__name__)
def test_channel_permutation_keeps_the_dual_and_its_ties(model):
    # permuting the K channels, ladders and mean gains together, moves no
    # evaluation at a fixed λ, in either mode, and no tie of the tie search
    base, moved = channel_problems(model, range(5), [3, 1, 4, 0, 2])
    for lam in CHANNEL_LAMBDAS:
        for mode in ("hard", "smooth"):
            want, got = base.evaluate(lam, mode), moved.evaluate(lam, mode)
            assert_rel(got.value, want.value)
            assert_rel(got.per_user_avg_rate, want.per_user_avg_rate)
            assert_rel(got.avg_power, want.avg_power)
            if mode == "smooth":
                assert_rel(got.jacobian(), want.jacobian())
        want, got = (find_tie_instances(p, lam, 0.05) for p in (base, moved))
        assert len(got[0]) == len(want[0]) > 0
        assert_rel(got[4], want[4])


@pytest.mark.parametrize("model", CHANNEL_FAMILIES,
                         ids=lambda m: type(m).__name__)
def test_a_duplicated_channel_adds_its_one_channel_problem(model):
    # the dual decomposes per channel: appending a copy of channel j adds
    # the one-channel Problem on j to the served rates and to the served
    # cost, the λ-free part value - λ·ř, in either mode
    for j in (0, 2):
        base, more, one = channel_problems(model, range(5), [*range(5), j],
                                           [j])
        for lam in CHANNEL_LAMBDAS:
            for mode in ("hard", "smooth"):
                want, got, add = (p.evaluate(lam, mode)
                                  for p in (base, more, one))
                assert_rel(got.per_user_avg_rate,
                           want.per_user_avg_rate + add.per_user_avg_rate)
                cost = [e.value - lam @ base.targets for e in (want, got, add)]
                assert_rel(cost[1], cost[0] + cost[2])


# --- harness drivers --------------------------------------------------------------------

def test_compare_schemes_rows_and_ordering():
    setup = micro_setup()
    rows = compare_schemes(setup, schemes=("RA3", "RA5"))
    assert [r["scheme"] for r in rows] == ["RA3", "RA5"]
    for r in rows:
        assert r["power_db"] == pytest.approx(
            10 * np.log10(r["avg_power"]))
    assert rows[0]["avg_power"] <= rows[1]["avg_power"]


def test_compare_rows_build_each_problem_once():
    # RA2, RA3 and RA5 share the equiprobable Problem, RA4 its random ladder
    # and RA1 PerfectCSI, whatever the scheme order
    setup = micro_setup()
    schemes = ("RA5", "RA4", "RA3", "RA2", "RA1", "RA3")
    labels, setups, problems = zip(*compare_rows(setup, schemes))
    assert labels == tuple({"scheme": name} for name in schemes)
    assert all(s is setup for s in setups)
    ra5, ra4, ra3, ra2, ra1, again = problems
    assert ra5 is ra3 is ra2 is again and ra4 is not ra3
    assert isinstance(ra1, dual.PerfectCSI)


def test_compare_schemes_unknown_scheme():
    with pytest.raises(ValueError, match="unknown scheme"):
        compare_schemes(micro_setup(), schemes=("RA9",))


def test_compare_schemes_lets_a_schemes_key_error_through(monkeypatch):
    def broken(setup, problem):
        raise KeyError("inside the scheme")

    monkeypatch.setitem(analysis._SCHEME_FUNCS, "RA3", broken)
    with pytest.raises(KeyError, match="inside the scheme"):
        compare_schemes(micro_setup(), schemes=("RA3",))


def test_zero_power_rows_are_minus_inf_db():
    # zero targets leave every user silent: rows and summaries share one
    # power_db, which maps 0 to -inf, NaN to NaN and keeps positive powers'
    # bits
    setup = micro_setup(targets=np.array([0.0, 0.0]))
    row, = sweep_regions(setup, [2], reference_regions=None)
    assert row["avg_power"] == 0.0 and row["power_db"] == -math.inf
    ra3, = compare_schemes(setup, schemes=("RA3",))
    assert ra3["power_db"] == -math.inf
    assert power_db(96.72) == 10.0 * math.log10(96.72)
    assert math.isnan(power_db(math.nan))


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


def same_row(got, want):
    """Every key of two harness rows, arrays and floats to the bit."""
    assert got.keys() == want.keys()
    for key, value in want.items():
        if isinstance(value, np.ndarray):
            assert got[key].tobytes() == value.tobytes(), key
        else:
            assert repr(got[key]) == repr(value), key


SHARED_MODELS = [OutageCapacity(outage_delta=0.0),
                 OutageCapacity(outage_delta=0.3),
                 MaxInstBer(kappa1=0.2, kappa2=1.5, eps_max=1e-3),
                 MaxAvgBer(kappa1=0.2, kappa2=1.5, eps_avg=1e-3),
                 ErgodicCapacity()]


@pytest.mark.parametrize("model", SHARED_MODELS, ids=[
    "outage", "outage_0.3", "inst_ber", "avg_ber", "ergodic"])
def test_ra2_and_ra3_listed_together_are_their_solo_rows(model):
    # RA3 is RA2's first ε-stage read at tol, so one walk serves both rows:
    # in either order, and with RA3 listed twice, each row is bitwise the
    # row its scheme gives alone
    setup = micro_setup(model=model)
    solo = {name: point(setup, name) for name in ("RA2", "RA3")}
    assert solo["RA2"]["converged"] and solo["RA3"]["converged"]
    for schemes in (("RA2", "RA3"), ("RA3", "RA2"), ("RA3", "RA2", "RA3")):
        rows = compare_schemes(setup, schemes)
        assert [row["scheme"] for row in rows] == list(schemes)
        for row in rows:
            same_row(row, solo[row["scheme"]])


def test_ra3_reads_an_unconverged_first_stage_as_it_solves_alone():
    # at max_iters = 4 RA2's first ε-stage stops "max_iters" short of RA3's
    # tol as well: the shared walk ends there, RA3 reports that unconverged
    # row and RA2 the same smooth point, each as alone
    setup = micro_setup(max_iters=4)
    (_, _, problem), = compare_rows(setup, ("RA3",))
    _, traj = solver.run_offline_newton(problem, analysis._solver_cfg(setup))
    assert traj.reason == "max_iters" and not traj.converged
    solo = {name: point(setup, name) for name in ("RA2", "RA3")}
    ra2, ra3 = solo["RA2"], solo["RA3"]
    assert not ra2["converged"] and ra2["avg_power"] == ra3["avg_power"]
    for key in ("avg_rates", "lambda"):
        assert ra2[key].tobytes() == ra3[key].tobytes()
    for schemes in (("RA2", "RA3"), ("RA3", "RA2")):
        for row in compare_schemes(setup, schemes):
            same_row(row, solo[row["scheme"]])


@pytest.mark.parametrize("tol, reason", [
    (1e-2, "converged"), (1e-9, "converged"), (1e-30, "stalled")])
def test_ra3_reads_the_first_stage_at_its_tol_as_it_solves_alone(
        tol, reason, monkeypatch):
    # RA2's first ε-stage solves to min(tol, 2.5e-10): RA3 stops rows before
    # its end at tol = 1e-2 and at its last row at 1e-9, and at 1e-30, which
    # no iterate serves, both end where the step rounds away, "stalled".
    # Listed together, in either order, each row is bitwise its solo row and
    # the pair evaluates as often as RA2 alone
    calls = []

    def evaluate(self, *args, checked=Problem.evaluate, **kwargs):
        calls.append(1)
        return checked(self, *args, **kwargs)

    monkeypatch.setattr(Problem, "evaluate", evaluate)
    setup = micro_setup(tol=tol)
    (_, _, problem), = compare_rows(setup, ("RA3",))
    _, stage = analysis._eps_stage(setup, problem)
    assert stage.reason == reason
    solo, counts = {}, {}
    for name in ("RA2", "RA3"):
        calls.clear()
        solo[name] = point(setup, name)
        counts[name] = len(calls)
    assert solo["RA3"]["converged"] == (reason == "converged")
    assert (solo["RA3"]["iterations"] < stage.iters[-1]) == (tol == 1e-2)
    for schemes in (("RA2", "RA3"), ("RA3", "RA2")):
        calls.clear()
        for row in compare_schemes(setup, schemes):
            same_row(row, solo[row["scheme"]])
        assert len(calls) == counts["RA2"]


def test_newton_rows_own_their_arrays():
    # a row read from a trajectory copies its λ and rates: a view would keep
    # the whole stacked trajectory alive as long as the row
    setup = micro_setup()
    rows = (compare_schemes(setup, ("RA1", "RA2", "RA3", "RA4"))
            + compare_schemes(setup, ("RA3", "RA4", "RA1"))
            + sweep_regions(setup, [2, 4]))
    for row in (row for row in rows if row["scheme"] != "RA2"):
        assert row["lambda"].base is None, row["scheme"]
        assert row["avg_rates"].base is None, row["scheme"]


def test_ra2_and_ra3_together_evaluate_as_often_as_ra2_alone(monkeypatch):
    # RA3's walk is a prefix of RA2's first ε-stage: listing RA3 beside RA2
    # adds no dual evaluation, whichever row comes first
    calls = []

    def evaluate(self, *args, checked=Problem.evaluate, **kwargs):
        calls.append(1)
        return checked(self, *args, **kwargs)

    monkeypatch.setattr(Problem, "evaluate", evaluate)
    setup = micro_setup()
    counts = {}
    for schemes in (("RA2",), ("RA3",), ("RA2", "RA3"), ("RA3", "RA2")):
        calls.clear()
        compare_schemes(setup, schemes)
        counts[schemes] = len(calls)
    assert 0 < counts[("RA3",)] < counts[("RA2",)]
    assert counts[("RA2", "RA3")] == counts[("RA3", "RA2")] == counts[("RA2",)]


def test_table_builds_per_solve(monkeypatch):
    # one build per online block, across a chunk boundary, in solver's
    # serve_block; and, as perfbench's allocator.build_tables counter sees
    # them, in RA2 one per smooth evaluation and one per ε-stage for its
    # hard dual D, which a converged stage's tie search reads too, all
    # through the Problem's one table build and so through dual's binding
    builds, counts = [], {"smooth": 0, "stages": 0}

    def spy(fn):
        return lambda *args, **kwargs: builds.append(1) or fn(*args, **kwargs)

    def newton(problem, cfg):
        counts["stages"] += 1
        return solver.run_offline_newton(problem, cfg)

    def evaluate(self, lam, mode="smooth", eps=0.05, checked=Problem.evaluate):
        counts["smooth"] += mode == "smooth"
        return checked(self, lam, mode, eps)

    monkeypatch.setattr(dual, "build_tables", spy(build_tables))
    monkeypatch.setattr(solver, "serve_block", spy(serve_block))
    setup = micro_setup()
    (_, _, problem), = compare_rows(setup, ("RA2",))
    blocks = solver._chunk_blocks(problem.num_users,
                                  problem.grid.num_channels) + 3
    run_online(problem, SolverConfig(beta=1e-3), blocks)
    assert len(builds) == blocks
    builds.clear()
    monkeypatch.setattr(analysis, "run_offline_newton", newton)
    monkeypatch.setattr(Problem, "evaluate", evaluate)
    row = analysis.ra2_point(setup, problem)
    assert row["converged"] and counts["stages"] > 1
    assert len(builds) == counts["smooth"] + counts["stages"]


def test_offline_builds_read_the_class_representatives_only(monkeypatch):
    # a flat K=16 grid is one channel class: a smooth solve and RA2 (its
    # Newton stages, hard evaluations and tie search) build (M, 1, L)
    # tables; the online path still serves each block's (M, K) cells
    shapes = []

    def spy(model, grid, mult, rate_cap=DEFAULT_RATE_CAP, static=None):
        shapes.append(None if static is None else static[0].shape)
        return build_tables(model, grid, mult, rate_cap, static)

    def block_spy(model, block, *args):
        shapes.append(block[0].shape)
        return serve_block(model, block, *args)

    for mod in (allocator, dual):
        monkeypatch.setattr(mod, "build_tables", spy)
    monkeypatch.setattr(solver, "serve_block", block_spy)
    fading = FadingModel(np.full((2, 16), snr_db_to_mean_gain(6.0)), seed=2)
    setup = micro_setup(fading=fading)
    problem = Problem(grid=build_equiprobable(fading, 4), model=MODEL,
                      mu=setup.mu, targets=setup.targets, fading=fading)
    run_offline_smooth(problem, SolverConfig(beta=0.05, max_iters=50))
    smooth_builds = len(shapes)
    point(setup, "RA2")
    assert len(shapes) > smooth_builds and set(shapes) == {(2, 1, 4)}
    shapes.clear()
    run_online(problem, SolverConfig(beta=1e-3), 20)
    assert shapes == [(2, 16)] * 20
