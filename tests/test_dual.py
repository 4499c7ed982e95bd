"""Exact/stochastic dual evaluations: hand values, bounds, identities."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

import qcsched
from qcsched import dual, quantizer
from qcsched.allocator import (DEFAULT_RATE_CAP, InfeasibleTargetsError,
                               Multipliers,
                               block_statics, build_tables,
                               find_tie_instances, make_static,
                               smooth_weights, solve_tie_lp)
from qcsched.channel import FadingModel, sample_gain_blocks
from qcsched.dual import (PerfectCSI, Problem, block_allocation, exact_dual,
                         serve_block)
from qcsched.powerrate import (ErgodicCapacity, MaxAvgBer, MaxInstBer,
                               OutageCapacity, linear_allocation, linear_cells)
from qcsched.quantizer import (EnumerationBudgetError, QuantizerGrid,
                               build_equiprobable, build_random,
                               channel_classes, quantize, region_prob_table)
from qcsched.solver import SolverConfig, run_offline_nonsmooth

from oracles import (column_major_block, column_major_dual,
                     enumerate_columns, hard_schedule, jacobian_check,
                     per_channel_dual, per_channel_columns, perfect_csi_quad,
                     stochastic_subgradient, tie_objective,
                     unit_gain_bisection)

LN2 = np.log(2.0)
MODEL = OutageCapacity(outage_delta=0.0)


def small_instance(L=4):
    fading = FadingModel(np.array([[1.0, 2.0], [0.5, 1.5]]), seed=3)
    grid = build_equiprobable(fading, L)
    mult = Multipliers(np.array([0.8, 1.1]), np.ones(2), np.array([0.5, 0.7]))
    return fading, grid, mult


# the channel→class map that puts each of small_instance's two channels in
# its own class: (M, K, L) tables and cell data read as class tables
OWN_CLASS = np.arange(2)


def test_zero_lambda_both_modes():
    _, grid, mult = small_instance()
    m0 = Multipliers([0.0, 0.0], mult.mu, mult.targets)
    for mode in ("hard", "smooth"):
        ev = exact_dual(MODEL, grid, m0, mode)
        assert ev.value == 0.0
        np.testing.assert_array_equal(ev.subgradient, m0.targets)
        np.testing.assert_array_equal(ev.per_user_avg_rate, [0.0, 0.0])
        assert ev.avg_power == 0.0


def test_single_user_single_channel_hand_value():
    # ladder (0,1,inf), mean 1, lambda = 2 ln 2: region 2 has R* = 1,
    # cost 1 - 2 ln 2, probability e^{-1}; region 1 is outage
    grid = QuantizerGrid(np.array([[[0.0, 1.0, np.inf]]]), np.array([[1.0]]))
    mult = Multipliers(np.array([2 * LN2]), np.array([1.0]), np.array([1.0]))
    p2 = np.exp(-1.0)
    for mode in ("hard", "smooth"):            # single user: modes coincide
        ev = exact_dual(MODEL, grid, mult, mode)
        assert ev.value == pytest.approx(2 * LN2 + p2 * (1 - 2 * LN2),
                                         abs=1e-14)
        assert ev.per_user_avg_rate[0] == pytest.approx(p2, abs=1e-14)
        assert ev.avg_power == pytest.approx(p2, abs=1e-14)   # power = 2^1-1
        assert ev.subgradient[0] == pytest.approx(1 - p2, abs=1e-14)


@pytest.mark.parametrize("mode", ["hard", "smooth"])
def test_value_identity(mode):
    # value = avg_power + lambda@subgradient holds exactly by construction
    _, grid, mult = small_instance()
    rng = np.random.default_rng(0)
    for _ in range(20):
        m = Multipliers(rng.uniform(0.0, 3.0, size=2), mult.mu,
                        mult.targets)
        ev = exact_dual(MODEL, grid, m, mode)
        rhs = ev.avg_power + m.lambda_r @ ev.subgradient
        assert ev.value == pytest.approx(rhs, rel=1e-12, abs=1e-12)


def test_smoothing_bound_random_lambdas():
    # D <= D_s < D + K*eps, K = 2 channels
    _, grid, mult = small_instance()
    rng = np.random.default_rng(7)
    eps = 0.05
    for _ in range(25):
        m = Multipliers(rng.uniform(0.0, 3.0, size=2), mult.mu,
                        mult.targets)
        hard = exact_dual(MODEL, grid, m, "hard", eps)
        smooth = exact_dual(MODEL, grid, m, "smooth", eps)
        assert hard.value <= smooth.value + 1e-12
        assert smooth.value < hard.value + 2 * eps


def test_smooth_equals_hard_when_sets_singleton():
    # with eps below every cost gap the smooth scheduler degenerates
    _, grid, mult = small_instance()
    hard = exact_dual(MODEL, grid, mult, "hard")
    smooth = exact_dual(MODEL, grid, mult, "smooth", eps=1e-9)
    assert smooth.value == pytest.approx(hard.value, rel=1e-9)
    np.testing.assert_allclose(smooth.subgradient, hard.subgradient,
                               atol=1e-9)


def test_hard_dual_concavity_probe():
    _, grid, mult = small_instance()
    rng = np.random.default_rng(21)

    def hard(lam):
        return exact_dual(MODEL, grid, Multipliers(lam, mult.mu, mult.targets),
                          "hard").value

    for _ in range(20):
        l1 = rng.uniform(0.0, 3.0, size=2)
        l2 = rng.uniform(0.0, 3.0, size=2)
        t = float(rng.uniform())
        dmid = hard(t * l1 + (1 - t) * l2)
        d1, d2 = hard(l1), hard(l2)
        assert dmid >= t * d1 + (1 - t) * d2 - 1e-9


def test_smooth_subgradient_coordinate_monotone():
    # entry m is non-increasing along its own coordinate
    _, grid, mult = small_instance()
    for m in range(2):
        prev = np.inf
        for lam_m in np.linspace(0.0, 3.0, 31):
            lam = mult.lambda_r.copy()
            lam[m] = lam_m
            g = exact_dual(MODEL, grid,
                           Multipliers(lam, mult.mu, mult.targets), "smooth")
            assert g.subgradient[m] <= prev + 1e-12
            prev = g.subgradient[m]


def test_exact_dual_validation():
    _, grid, mult = small_instance()
    with pytest.raises(ValueError):
        exact_dual(MODEL, grid, mult, "soft")
    with pytest.raises(EnumerationBudgetError):
        Problem(grid, MODEL, mult.mu, mult.targets,
                enum_budget=3).evaluate(mult.lambda_r)


@pytest.mark.parametrize("mu, targets", [([1.0, 0.0], [0.5, 0.7]),
                                         ([1.0, -1.0], [0.5, 0.7]),
                                         ([1.0, 1.0], [0.5, -0.1]),
                                         ([1.0, np.nan], [0.5, 0.7]),
                                         ([1.0], [0.5, 0.7])])
def test_problem_checks_weights_at_construction(mu, targets):
    _, grid, _ = small_instance()
    with pytest.raises(ValueError):
        Problem(grid, MODEL, mu, targets)


@pytest.mark.parametrize("eps", [0.0, -1.0, np.nan, np.inf])
def test_smooth_evaluation_rejects_a_bad_eps(eps):
    # ε = 0 gave NaN with RuntimeWarnings, ε = -1 a meaningless number;
    # hard mode ignores ε
    _, grid, mult = small_instance()
    problem = Problem(grid, MODEL, mult.mu, mult.targets)
    with pytest.raises(ValueError, match="eps"):
        problem.evaluate(np.ones(2), "smooth", eps)
    with pytest.raises(ValueError, match="eps"):
        exact_dual(MODEL, grid, mult, "smooth", eps)
    assert (problem.evaluate(np.ones(2), "hard", eps).value
            == problem.evaluate(np.ones(2), "hard").value)


@pytest.mark.parametrize("lam", [[-0.1, 1.0], [np.nan, 1.0], [np.inf, 1.0],
                                 [1.0]])
def test_problem_evaluate_rejects_bad_multipliers(lam):
    _, grid, mult = small_instance()
    problem = Problem(grid, MODEL, mult.mu, mult.targets)
    for mode in ("smooth", "hard"):
        with pytest.raises(ValueError, match="lambda"):
            problem.evaluate(np.array(lam), mode)


def test_block_allocation_by_hand():
    _, grid, mult = small_instance()
    tables = build_tables(MODEL, grid, mult)
    qcsi = np.array([[4, 2], [3, 4]])
    served, wpower, scost = block_allocation(tables, mult.lambda_r, qcsi,
                                             eps=0.05, of=OWN_CLASS)
    # recompute from the tables directly
    exp_rate = np.zeros(2)
    exp_cost = 0.0
    exp_pow = 0.0
    for k in range(2):
        costs = tables.cost[[0, 1], k, qcsi[:, k] - 1]
        rates = tables.rate[[0, 1], k, qcsi[:, k] - 1]
        w = smooth_weights(costs, 0.05)
        exp_rate += rates * w
        exp_cost += float(costs @ w)
        exp_pow += float((costs + mult.lambda_r * rates) @ w)
    np.testing.assert_allclose(served, exp_rate, atol=1e-15)
    assert scost == pytest.approx(exp_cost, abs=1e-15)
    assert wpower == pytest.approx(exp_pow, abs=1e-12)


def serve_own_cells(model, block, mult, eps, rate_cap=DEFAULT_RATE_CAP):
    """dual.serve_block on one block's own (M, K) cells, μ shaped (M, 1)."""
    return serve_block(model, block, mult.lambda_r, mult.mu[:, None], eps,
                       rate_cap)


def test_block_allocation_one_block_matches_the_column_major_oracle():
    # one block, read from (M, K, L) tables or served on its own (M, K)
    # cells, gives the bits of the (K, M) layout with users on the last axis
    fading, grid, mult = small_instance()
    tables = build_tables(MODEL, grid, mult)
    qcsi = quantize(grid, sample_gain_blocks(fading, 0, 50))
    cells = block_statics(make_static(grid, MODEL), qcsi, OWN_CLASS)
    for n in range(50):
        own = build_tables(MODEL, grid, mult, static=cells[n])
        for got, block_tables in (
                (block_allocation(tables, mult.lambda_r, qcsi[n], eps=0.05,
                                  of=OWN_CLASS), tables),
                (serve_own_cells(MODEL, cells[n], mult, 0.05), own)):
            want = column_major_block(block_tables, mult.lambda_r, qcsi[n],
                                      0.05)
            assert got[0].tobytes() == want[0].tobytes()
            assert got[1:] == want[1:]


def test_block_allocation_stack_sums_its_blocks():
    # a 7-block stack read from (M, K, L) tables serves the sum of what the
    # blocks serve one at a time, read from those tables or served on each
    # block's own (M, K) cells
    fading, grid, mult = small_instance()
    tables = build_tables(MODEL, grid, mult)
    qcsi = quantize(grid, sample_gain_blocks(fading, 0, 7))      # (7, M, K)
    served, wpower, scost = block_allocation(tables, mult.lambda_r, qcsi,
                                             eps=0.05, of=OWN_CLASS)
    assert served.shape == (2,)
    assert np.all(served > 0.0)
    cells = block_statics(make_static(grid, MODEL), qcsi, OWN_CLASS)
    for per_block in (lambda n: block_allocation(tables, mult.lambda_r,
                                                 qcsi[n], eps=0.05,
                                                 of=OWN_CLASS),
                      lambda n: serve_own_cells(MODEL, cells[n], mult, 0.05)):
        calls = [per_block(n) for n in range(7)]
        np.testing.assert_allclose(served, sum(c[0] for c in calls),
                                   rtol=1e-13)
        assert wpower == pytest.approx(sum(c[1] for c in calls), rel=1e-13)
        assert scost == pytest.approx(sum(c[2] for c in calls), rel=1e-13)
    with pytest.raises(ValueError):         # one block's tables, 7 blocks
        block_allocation(build_tables(MODEL, grid, mult, static=cells[0]),
                         mult.lambda_r, qcsi, eps=0.05, of=OWN_CLASS)


KERNEL_FAMILIES = [OutageCapacity(outage_delta=0.0),
                   OutageCapacity(outage_delta=0.3),
                   MaxInstBer(kappa1=0.2, kappa2=1.5, eps_max=0.01),
                   MaxAvgBer(kappa1=0.2, kappa2=1.5, eps_avg=0.01),
                   ErgodicCapacity()]


@pytest.mark.parametrize("model", KERNEL_FAMILIES,
                         ids=["outage", "outage_0.3", "inst_ber", "avg_ber",
                              "ergodic"])
def test_serve_block_matches_the_column_major_oracle(model):
    # serve_block builds and serves a block's own (M, K) cells in one pass:
    # bitwise the (K, M) oracle on build_tables' tables from the same cells.
    # User 0 has λ = 0, users 1 and 2 share their fading and prices, so
    # equal regions tie exactly; rate_cap binds on the strong channels and
    # channel 3 is too weak for anyone to want (c* ≥ 0)
    mean = np.array([[5.0, 20.0, 50.0, 1e-4]] * 3)
    fading = FadingModel(mean, seed=5)
    grid = build_equiprobable(fading, 4)
    mult = Multipliers(np.array([0.0, 1.5, 1.5]), np.ones(3), np.ones(3))
    cap, eps = 3.0, 0.05
    qcsi = quantize(grid, sample_gain_blocks(fading, 0, 40))
    qcsi[::2, 2] = qcsi[::2, 1]                     # ties on every other block
    cells = block_statics(make_static(grid, model), qcsi, np.arange(4))
    seen = {"tie": False, "capped": False, "idle": False}
    for n in range(len(qcsi)):
        tables = build_tables(model, grid, mult, cap, cells[n])
        got = serve_own_cells(model, cells[n], mult, eps, cap)
        want = column_major_block(tables, mult.lambda_r, qcsi[n], eps)
        assert got[0].tobytes() == want[0].tobytes()
        assert got[1:] == want[1:]
        cost = tables.cost
        seen["tie"] |= bool(((cost[1] == cost[2]) & (cost[1] < 0.0)).any())
        seen["capped"] |= bool((tables.rate == cap).any())
        seen["idle"] |= bool((cost.min(axis=0) >= 0.0).any())
    assert all(seen.values()), seen


def test_stochastic_subgradient_unbiased():
    fading, grid, mult = small_instance()
    exact = exact_dual(MODEL, grid, mult, "smooth").subgradient
    tables = build_tables(MODEL, grid, mult)
    n = 20_000
    gains = sample_gain_blocks(fading, 0, n)
    qcsi = quantize(grid, gains)
    draws = np.empty((n, 2))
    for i in range(n):
        draws[i] = stochastic_subgradient(MODEL, grid, mult, qcsi[i],
                                          tables=tables)
    mean = draws.mean(axis=0)
    sigma = draws.std(axis=0, ddof=1) / np.sqrt(n)
    assert np.all(np.abs(mean - exact) < 3.0 * sigma + 1e-12)


def test_deterministic_channel_stochastic_equals_exact():
    # L=1: the quantizer output is constant, so one block is the ensemble
    fading = FadingModel(np.array([[1.0], [2.0]]), seed=5)
    grid = QuantizerGrid(np.tile(np.array([0.0, np.inf]), (2, 1, 1)),
                         fading.mean_gain)
    mult = Multipliers(np.array([1.5, 2.0]), np.ones(2), np.array([0.5, 0.5]))
    exact = exact_dual(MODEL, grid, mult, "smooth")
    g = stochastic_subgradient(MODEL, grid, mult, np.array([[1], [1]]))
    np.testing.assert_allclose(g, exact.subgradient, atol=1e-15)


def test_jacobian_negative_definite_interior():
    fading = FadingModel(np.array([[1.0, 2.0], [0.5, 1.5], [1.2, 0.8]]),
                         seed=9)
    grid = build_equiprobable(fading, 3)
    mult = Multipliers(np.array([1.0, 1.3, 0.9]), np.ones(3),
                       np.array([0.5, 0.5, 0.5]))
    J, rep = jacobian_check(MODEL, grid, mult)
    assert rep["negative_definite"]
    assert np.all(rep["symmetric_eigenvalues"] < 0.0)
    assert rep["max_abs_entry"] == pytest.approx(np.abs(J).max())


def test_jacobian_flat_at_zero_lambda():
    _, grid, mult = small_instance()
    J, rep = jacobian_check(MODEL, grid,
                            Multipliers([0.0, 0.0], mult.mu, mult.targets))
    assert np.abs(J).max() < 1e-9
    assert not rep["negative_definite"]


def test_jacobian_entries_bounded_on_grid():
    _, grid, mult = small_instance()
    caps = []
    for l0 in np.linspace(0.3, 3.0, 4):
        for l1 in np.linspace(0.3, 3.0, 4):
            _, rep = jacobian_check(
                MODEL, grid, Multipliers([l0, l1], mult.mu, mult.targets))
            caps.append(rep["max_abs_entry"])
    assert max(caps) < 1e3


@pytest.mark.parametrize("model", [
    MODEL, MaxInstBer(kappa1=0.2, kappa2=1.5, eps_max=1e-3),
    MaxAvgBer(kappa1=0.2, kappa2=1.5, eps_avg=1e-3), ErgodicCapacity()],
    ids=["outage", "inst_ber", "avg_ber", "ergodic"])
def test_analytic_jacobian_matches_finite_differences(model):
    # M=2, K=2, L=3 with mu = (1, 2), a rate cap of 3 and a wide window:
    # across the three lambdas the tables hold inactive, capped and
    # interior cells, and shared columns couple the two users
    fading = FadingModel(np.array([[1.0, 2.0], [0.5, 1.5]]), seed=3)
    grid = build_equiprobable(fading, 3)
    kinds, coupled = set(), False
    for lam in ([1.0, 2.6], [3.0, 9.0], [1.5, 40.0]):
        mult = Multipliers(np.array(lam), np.array([1.0, 2.0]),
                           np.array([0.5, 0.7]))
        rate = build_tables(model, grid, mult, 3.0).rate
        kinds |= {"inactive"} if np.any(rate == 0.0) else set()
        kinds |= {"capped"} if np.any(rate == 3.0) else set()
        kinds |= {"interior"} if np.any((rate > 0) & (rate < 3.0)) else set()
        fd, _ = jacobian_check(model, grid, mult, eps=0.5, rate_cap=3.0)
        jac = Problem(grid, model, mult.mu, mult.targets,
                      rate_cap=3.0).evaluate(mult.lambda_r, eps=0.5).jacobian()
        np.testing.assert_allclose(
            jac, fd, rtol=0.0, atol=1e-6 * np.max(np.abs(fd)) + 1e-12)
        coupled |= bool(fd[0, 1] != 0.0)
    assert kinds == {"inactive", "capped", "interior"} and coupled


def test_ergodic_family_identity_and_bound():
    # the dual machinery is family-agnostic; spot-check with ergodic costs
    fading = FadingModel(np.array([[1.0, 0.7]]), seed=1)
    grid = build_equiprobable(fading, 3)
    mult = Multipliers(np.array([1.2]), np.ones(1), np.array([0.8]))
    model = ErgodicCapacity()
    hard = exact_dual(model, grid, mult, "hard")
    smooth = exact_dual(model, grid, mult, "smooth")
    assert hard.value <= smooth.value + 1e-12
    assert smooth.value < hard.value + 2 * 0.05
    rhs = smooth.avg_power + mult.lambda_r @ smooth.subgradient
    assert smooth.value == pytest.approx(rhs, rel=1e-12)


# --- channel classes against the per-channel oracle ------------------------------

FAMILIES = {"outage": MODEL, "outage_delta": OutageCapacity(outage_delta=0.1),
            "inst_ber": MaxInstBer(kappa1=0.2, kappa2=1.5, eps_max=1e-3),
            "avg_ber": MaxAvgBer(kappa1=0.2, kappa2=1.5, eps_avg=1e-3),
            "ergodic": ErgodicCapacity()}


@st.composite
def class_instances(draw):
    """A grid whose K channels copy ``base`` distinct ones (so repeated and
    distinct channels mix), optionally with user 1 a twin of user 0 at the
    same λ, which makes cost ties; ergodic examples stay tiny."""
    family = draw(st.sampled_from(sorted(FAMILIES)))
    tiny = family == "ergodic"
    M = draw(st.integers(1, 2 if tiny else 3))
    K = draw(st.integers(1, 3 if tiny else 4))
    L = draw(st.integers(2, 3))
    base = draw(st.integers(1, K))
    owner = draw(st.lists(st.integers(0, base - 1), min_size=K, max_size=K))
    gains = draw(arrays(float, (M, base), elements=st.floats(0.5, 3.0)))
    fading = FadingModel(gains, seed=0)
    if tiny or draw(st.booleans()):
        grid = build_equiprobable(fading, L)
    else:
        grid = build_random(fading, L, (0.0, 3.0 * gains.max()),
                            draw(st.integers(0, 2 ** 31)))
    thr, mg = grid.thresholds[:, owner], grid.mean_gain[:, owner]
    lam = draw(arrays(float, (M,), elements=st.floats(0.0, 8.0)))
    if M > 1 and draw(st.booleans()):
        thr[1], mg[1], lam[1] = thr[0], mg[0], lam[0]
    targets = draw(arrays(float, (M,), elements=st.floats(0.0, 2.0)))
    return (FAMILIES[family], QuantizerGrid(thr, mg),
            Multipliers(lam, np.ones(M), targets),
            draw(st.sampled_from([0.05, 0.5])),
            draw(st.sampled_from([3.0, 12.0])))


def _agree(got, want, rtol, scale=0.0):
    """|got - want| <= rtol·max(|want|, scale) entrywise over the array."""
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    bound = rtol * max(float(np.max(np.abs(want))), scale)
    assert np.all(np.abs(got - want) <= bound), (got, want)


# λ·ř = 4.92 and the column costs nearly cancel it: the value is 1.137e-4,
# and summing per class or per channel moves it by 8.9e-16
CANCELLING = (
    MODEL,
    QuantizerGrid(
        np.array([[[0.0, 2.08674478, 5.61311313, np.inf],
                   [0.0, 2.83176532, 5.80906303, np.inf],
                   [0.0, 2.83176532, 5.80906303, np.inf]],
                  [[0.0, 1.72400485, 6.22458394, np.inf],
                   [0.0, 1.89719856, 6.0647065, np.inf],
                   [0.0, 1.89719856, 6.0647065, np.inf]]]),
        np.array([[1.89453125, 2.31445312, 2.31445312],
                  [1.0, 2.59765625, 2.59765625]])),
    Multipliers(np.array([2.59765625, 0.0]), np.ones(2),
                np.array([1.89453125, 1.89453125])),
    0.05, 3.0)


def _twin_tie(model):
    """Three identical channels, two twin users at λ = (1, 1), ř = 0: the
    tie LP's objective is 1.8e-7 against λ·r̄_one = 3.4e-3."""
    thr = np.array([[[0.0, 4.20426909, np.inf]] * 3] * 2)
    return (model, QuantizerGrid(thr, np.full((2, 3), 0.5)),
            Multipliers(np.ones(2), np.ones(2), np.zeros(2)), 0.05, 3.0)


@settings(max_examples=60, deadline=None)
@given(class_instances())
@example(CANCELLING)
@example(_twin_tie(FAMILIES["outage"]))
@example(_twin_tie(FAMILIES["inst_ber"]))
def test_channel_classes_match_the_per_channel_oracle(instance):
    model, grid, mult, eps, rate_cap = instance
    K, tscale = grid.num_channels, float(np.max(mult.targets))
    # the value is λ·ř plus the expected cost, so it is compared at the
    # scale of λ·ř, which it may cancel to far below
    vscale = float(mult.lambda_r @ mult.targets)
    classes, full = (Problem(grid, model, mult.mu, mult.targets,
                             rate_cap=rate_cap) for _ in range(2))
    ev = {}
    for mode in ("hard", "smooth"):
        ev[mode] = got = classes.evaluate(mult.lambda_r, mode, eps)
        want = per_channel_dual(model, grid, mult, mode, eps, rate_cap)
        _agree(got.value, want.value, 1e-12, vscale)
        _agree(got.per_user_avg_rate, want.per_user_avg_rate, 1e-12)
        _agree(got.subgradient, want.subgradient, 1e-12, tscale)
        _agree(got.avg_power, want.avg_power, 1e-12)
        _agree(got.value, got.avg_power + mult.lambda_r @ got.subgradient,
               1e-12, vscale)
    hard, smooth = ev["hard"].value, ev["smooth"].value
    assert hard <= smooth + 1e-12 * abs(smooth)
    assert smooth < hard + K * eps

    # J sums terms p·r²·b with |b| <= 2/eps that cancel where one user wins
    # a capped cell, so an entry near 0 is compared at the terms' scale;
    # seeding a Problem's classes and columns with every channel its own
    # class enumerates each of them
    full.classes = (np.arange(K), np.ones(K), np.arange(K))
    full.columns = per_channel_columns(grid)
    rmax = float(build_tables(model, grid, mult, rate_cap).rate.max())
    _agree(classes.evaluate(mult.lambda_r, "smooth", eps).jacobian(),
           full.evaluate(mult.lambda_r, "smooth", eps).jacobian(),
           1e-10, K * rmax ** 2 * 2.0 / eps)

    ties = find_tie_instances(classes, mult.lambda_r, 1e-9)
    ties_k = find_tie_instances(full, mult.lambda_r, 1e-9)
    one, one_k = ties[-1], ties_k[-1]
    _agree(one, one_k, 1e-12)
    # the tie cells, located by the per-channel oracle: ties_k's in (channel,
    # column) order, and ties' at the class representatives in (class,
    # column) order; each class tie's probability is the sum over its
    # channels' ties
    tables = build_tables(model, grid, mult, rate_cap)
    cols = list(enumerate_columns(grid.num_users, grid.regions_per_channel))
    cells = [(k, j) for k in range(K) for j, col in enumerate(cols)
             if hard_schedule(tables, col, k).tie_members is not None]
    size = dict(zip(*channel_classes(grid)[:2]))
    key = [grid.thresholds[:, k].tobytes() + grid.mean_gain[:, k].tobytes()
           for k in range(K)]
    rep = [next(r for r in size if key[r] == key[k]) for k in range(K)]
    class_cells = [(k, j) for k, j in cells if k in size]
    assert len(ties_k[0]) == len(cells)
    assert len(ties[0]) == len(class_cells)
    for (r, j), p in zip(class_cells, ties[0]):
        ps = [pk for (k, jk), pk in zip(cells, ties_k[0])
              if rep[k] == r and jk == j]
        assert len(ps) == size[r]
        _agree(p, sum(ps), 1e-12)
    # targets that sharing every tie evenly meets: both tie LPs are feasible
    prob_k, members_k, rates_k = ties_k[:3]
    reach = one_k + (prob_k[:, None] * rates_k * members_k
                     / members_k.sum(axis=1, keepdims=True)).sum(axis=0)
    # the LP's residual targets are reach - one, so an ulp of r̄_one moves
    # the objective by λ·ulp: it is compared at the scale of λ·r̄_one
    _agree(tie_objective(ties[0], ties[3], solve_tie_lp(reach, *ties)),
           tie_objective(prob_k, ties_k[3], solve_tie_lp(reach, *ties_k)),
           1e-12, float(mult.lambda_r @ one))


@pytest.mark.parametrize("model", FAMILIES.values(), ids=list(FAMILIES))
def test_static_builds_cell_data_on_the_class_representatives(model,
                                                              monkeypatch):
    # K = 4 channels in two classes: the data of channels 0 and 2 only,
    # bitwise those of the whole grid's data at those channels, built once
    # for the target check and the evaluations of both modes
    fading = FadingModel(np.array([[1.0, 1.0, 2.0, 2.0],
                                   [0.5, 0.5, 1.5, 1.5]]), seed=0)
    grid = build_equiprobable(fading, 3)
    problem = Problem(grid, model, np.ones(2), np.array([0.5, 0.7]))
    want = tuple(a[:, [0, 2]] for a in make_static(grid, model))
    shapes, cell_data = [], type(model).cell_data

    def spy(self, ctx):
        shapes.append(np.broadcast(ctx.q_lo, ctx.q_hi, ctx.mean_gain).shape)
        return cell_data(self, ctx)

    monkeypatch.setattr(type(model), "cell_data", spy)
    problem.check_targets()
    for mode in ("hard", "smooth"):
        problem.evaluate(np.array([1.0, 1.5]), mode)
    got = problem.static
    assert shapes == [(2, 2, 3)]
    for g, w in zip(got, want, strict=True):
        np.testing.assert_array_equal(g, w)


def test_region_probs_are_built_on_the_class_representatives():
    # elementwise, so the class representatives' sub-grid gives bitwise the
    # whole grid's table at those channels
    fading = FadingModel(np.array([[1.0, 2.0], [0.5, 1.5]]), seed=0)
    two = build_random(fading, 5, (0.0, 4.0), seed=1)
    grid = QuantizerGrid(two.thresholds[:, [0, 0, 1, 0]],
                         two.mean_gain[:, [0, 0, 1, 0]])
    problem = Problem(grid, MODEL, np.ones(2), np.array([0.5, 0.7]))
    got = problem.region_probs
    assert got.shape == (2, 2, 5)
    assert got.tobytes() == region_prob_table(grid)[:, [0, 2]].tobytes()


def test_one_class_computation_per_grid(monkeypatch):
    # the grid computes channel_classes once and keeps it: quantize searches
    # the classes' ladders, and every Problem on the grid reads the same
    # classes, as a tc1_offline pass does with one quantize and 8 Problems
    calls, real = [], quantizer.channel_classes
    monkeypatch.setattr(quantizer, "channel_classes",
                        lambda grid: calls.append(id(grid)) or real(grid))
    fading = FadingModel(np.full((4, 16), 2.0), seed=0)
    grids = [build_equiprobable(fading, 4), build_equiprobable(fading, 9)]
    for grid in grids:
        quantize(grid, sample_gain_blocks(fading, 0, 3))
        for _ in range(8):
            problem = Problem(grid, MODEL, np.ones(4),
                              np.array([1.0, 2.0, 3.0, 4.0]))
            problem.check_targets()
            for mode in ("hard", "smooth"):
                problem.evaluate(np.full(4, 0.5), mode)
        assert problem.classes is grid.classes
    assert calls == [id(grid) for grid in grids]


# --- the user-major layout against the column-major oracle -----------------------

def _same_bits(got, want):
    assert np.asarray(got).tobytes() == np.asarray(want).tobytes(), (got, want)


@settings(max_examples=60, deadline=None)
@given(class_instances())
@example(CANCELLING)
def test_evaluate_matches_the_column_major_oracle(instance):
    # the user-major sums run in another order than the oracle's (n, C, M)
    # layout, and the hard rule sums per cell and not per column: both
    # modes agree to rounding, at the scales of the per-channel test above.
    # The einsums may unroll their sums, so the Jacobian agrees to rounding
    # at the scale of its summed terms p·r²·b, |b| <= 2/eps
    model, grid, mult, eps, rate_cap = instance
    problem = Problem(grid, model, mult.mu, mult.targets, rate_cap=rate_cap)
    vscale = float(mult.lambda_r @ mult.targets)
    tscale = float(np.max(mult.targets))
    rmax = float(build_tables(model, grid, mult, rate_cap).rate.max())
    for mode in ("hard", "smooth"):
        got = problem.evaluate(mult.lambda_r, mode, eps)
        want, jac = column_major_dual(problem, mult.lambda_r, mode, eps)
        pairs = [(got.value, want.value, vscale),
                 (got.per_user_avg_rate, want.per_user_avg_rate, 0.0),
                 (got.subgradient, want.subgradient, tscale),
                 (got.avg_power, want.avg_power, 0.0)]
        for a, b, scale in pairs:
            _agree(a, b, 1e-13, scale)
        if mode == "smooth":
            _agree(got.jacobian(), jac, 1e-12,
                   grid.num_channels * rmax ** 2 * 2.0 / eps)


def test_jacobian_chunks_of_one_class_match_one_chunk(monkeypatch):
    # a random ladder gives every channel its own class; a _JAC_CHUNK of one
    # class's column entries runs the chunk loop, and its two einsum
    # contractions, once per class, which regroups the column sums but not
    # their terms
    M, K, L, eps = 3, 6, 3, 0.5
    fading = FadingModel(np.array([[1.0, 2.0, 0.8, 1.5, 2.5, 1.2],
                                   [0.6, 1.4, 2.2, 1.0, 0.9, 3.0],
                                   [2.0, 0.7, 1.1, 2.6, 1.3, 0.5]]), seed=0)
    grid = build_random(fading, L, (0.0, 9.0), 11)
    problem = Problem(grid, MODEL, np.ones(M), np.array([0.5, 0.7, 0.9]))
    assert problem.columns[1].size == K * L ** M
    lam = np.array([1.5, 2.0, 2.5])
    ev = problem.evaluate(lam, "smooth", eps)
    one = ev.jacobian()
    chunks, einsum = [], np.einsum
    monkeypatch.setattr(np, "einsum",
                        lambda spec, a, b: chunks.append(a.shape[1])
                        or einsum(spec, a, b))
    monkeypatch.setattr(dual, "_JAC_CHUNK", L ** M * M)
    split = ev.jacobian()
    assert chunks == [L ** M] * (2 * K)
    assert np.count_nonzero(one) == M * M
    _agree(split, one, 1e-13)
    _, jac = column_major_dual(problem, lam, "smooth", eps)
    mult = Multipliers(lam, problem.mu, problem.targets)
    rmax = float(build_tables(MODEL, grid, mult).rate.max())
    _agree(split, jac, 1e-12, K * rmax ** 2 * 2.0 / eps)


# --- both rules' corner cases against enumeration ---------------------------------

@st.composite
def hard_instances(draw):
    """Grids of two or three channel classes, one or two channels each, for
    the corner cases of both rules: users that copy user 0's ladders and λ
    (exact cost ties in every column), users at λ = 0 (cost 0 everywhere)
    and outage cells (the families' lowest regions at δ = 0 or δ > 0), so
    the column with every user in outage is idle (c* ≥ 0)."""
    model = FAMILIES[draw(st.sampled_from(["outage", "outage_delta",
                                           "inst_ber"]))]
    M, L, n = (draw(st.integers(2, 4)), draw(st.integers(2, 3)),
               draw(st.integers(2, 3)))
    owner = np.repeat(np.arange(n), draw(st.lists(st.integers(1, 2),
                                                  min_size=n, max_size=n)))
    gains = draw(arrays(float, (M, n), elements=st.floats(0.5, 3.0)))
    fading = FadingModel(gains, seed=0)
    grid = (build_equiprobable(fading, L) if draw(st.booleans()) else
            build_random(fading, L, (0.0, 3.0 * gains.max()),
                         draw(st.integers(0, 2 ** 31))))
    thr, mg = grid.thresholds[:, owner], grid.mean_gain[:, owner]
    lam = draw(arrays(float, (M,), elements=st.floats(0.0, 8.0)))
    for m in range(1, M):
        if draw(st.booleans()):                 # a twin of user 0
            thr[m], mg[m], lam[m] = thr[0], mg[0], lam[0]
    lam[draw(st.lists(st.integers(0, M - 1), max_size=M))] = 0.0
    targets = draw(arrays(float, (M,), elements=st.floats(0.0, 2.0)))
    return (model, QuantizerGrid(thr, mg),
            Multipliers(lam, np.ones(M), targets), 0.05, 3.0)


def _corners(model):
    """Two channels of one class; users 0 and 1 twins at λ = 1.5, user 2 at
    λ = 0: users 0 and 1 tie in every column where they share a region, and
    the columns with both in outage are idle, c* = 0."""
    thr = np.array([[[0.0, 1.0, 3.0, np.inf]] * 2] * 3)
    mean = np.array([[1.0, 1.0], [1.0, 1.0], [2.0, 2.0]])
    return (model, QuantizerGrid(thr, mean),
            Multipliers(np.array([1.5, 1.5, 0.0]), np.ones(3),
                        np.array([0.3, 0.3, 0.5])), 0.05, 3.0)


@settings(max_examples=80, deadline=None)
@given(hard_instances())
@example(_twin_tie(FAMILIES["outage"]))
@example(_corners(FAMILIES["outage"]))
def test_hard_product_form_matches_both_enumerations(instance):
    # the product form sums per cell, the oracles per column: they agree to
    # rounding, at the scales of the per-channel test, and pick the same
    # winner at every exact tie. At the same corners the smooth dual's
    # user-major sums agree with the column-major oracle's to rounding, and
    # so does its Jacobian, at the scale of its summed terms p·r²·b,
    # |b| <= 2/eps
    model, grid, mult, eps, rate_cap = instance
    problem = Problem(grid, model, mult.mu, mult.targets, rate_cap=rate_cap)
    vscale = float(mult.lambda_r @ mult.targets)
    tscale = float(np.max(mult.targets))
    smooth, jac = column_major_dual(problem, mult.lambda_r, "smooth", eps)
    for mode, want in (
            ("hard", column_major_dual(problem, mult.lambda_r, "hard",
                                       eps)[0]),
            ("hard", per_channel_dual(model, grid, mult, "hard", eps,
                                      rate_cap)),
            ("smooth", smooth)):
        got = problem.evaluate(mult.lambda_r, mode, eps)
        _agree(got.value, want.value, 1e-13, vscale)
        _agree(got.per_user_avg_rate, want.per_user_avg_rate, 1e-13)
        _agree(got.subgradient, want.subgradient, 1e-13, tscale)
        _agree(got.avg_power, want.avg_power, 1e-13)
        _agree(got.value, got.avg_power + mult.lambda_r @ got.subgradient,
               1e-13, vscale)
    rmax = float(build_tables(model, grid, mult, rate_cap).rate.max())
    _agree(problem.evaluate(mult.lambda_r, "smooth", eps).jacobian(), jac,
           1e-12, grid.num_channels * rmax ** 2 * 2.0 / eps)


def test_hard_chunks_of_one_class_keep_every_bit(monkeypatch):
    # a random ladder gives every channel its own class; a _HARD_CHUNK of
    # one class's comparisons runs the chunk loop once per class, and each
    # cell's product does not depend on the chunk it is in
    fading = FadingModel(np.array([[1.0, 2.0, 0.8, 1.5],
                                   [0.6, 1.4, 2.2, 1.0],
                                   [2.0, 0.7, 1.1, 2.6]]), seed=0)
    problem = Problem(build_random(fading, 3, (0.0, 9.0), 11), MODEL,
                      np.ones(3), np.array([0.5, 0.7, 0.9]))
    lam = np.array([1.5, 2.0, 2.5])
    one = problem.evaluate(lam, "hard")
    chunks, unbeaten = [], dual._unbeaten
    monkeypatch.setattr(dual, "_unbeaten",
                        lambda cost, probs: chunks.append(cost.shape[1])
                        or unbeaten(cost, probs))
    monkeypatch.setattr(dual, "_HARD_CHUNK", 3 * 3 * 3 * 3)
    split = problem.evaluate(lam, "hard")
    assert chunks == [1, 1, 1, 1]
    for a, b in ((split.value, one.value), (split.avg_power, one.avg_power),
                 (split.per_user_avg_rate, one.per_user_avg_rate)):
        _same_bits(a, b)


def test_a_hard_only_problem_never_builds_its_column_space():
    # 2 classes of 4^2 columns against a budget of 1: the hard dual and the
    # non-smooth baseline never enumerate, and the smooth dual still raises
    _, grid, mult = small_instance()
    problem = Problem(grid, MODEL, mult.mu, mult.targets, enum_budget=1)
    problem.evaluate(mult.lambda_r, "hard")
    traj = run_offline_nonsmooth(problem, SolverConfig(max_iters=50))
    assert len(traj.iters) == 50
    assert "columns" not in vars(problem)
    with pytest.raises(EnumerationBudgetError):
        problem.evaluate(mult.lambda_r, "smooth")


# --- perfect CSI ---------------------------------------------------------------------

# (mean gains, family, μ, targets, λ, rate_cap): the bundled compare shape at
# its optimum, a λ far above it, mean gains 100x apart at two rate caps, three
# users of a scaled family, and very large and very small mean gains
PERFECT_CSI_CASES = {
    "bundled_flat": (np.full((3, 64), 10 ** 0.6), MODEL, [1.0, 1.0, 1.0],
                     [40.0, 70.0, 100.0], [0.968, 1.153, 1.312], 12.0),
    "large_lambda": (np.full((2, 4), 3.98), MODEL, [1.0, 1.0], [1.0, 1.5],
                     [40.0, 30.0], 12.0),
    "spread_cap12": ([[100.0, 1.0], [0.3, 30.0]], MODEL, [1.0, 2.0],
                     [1.0, 1.5], [0.7, 1.3], 12.0),
    "spread_cap4": ([[100.0, 1.0], [0.3, 30.0]], MODEL, [1.0, 2.0],
                    [1.0, 1.5], [0.7, 1.3], 4.0),
    "three_users": ([[2.0, 5.0], [4.0, 1.0], [3.0, 3.0]],
                    MaxInstBer(kappa1=0.2, kappa2=1.5, eps_max=1e-3),
                    [1.0, 2.0, 0.5], [1.0, 1.0, 1.0], [2.0, 1.0, 3.0], 6.0),
    "gain_1000": (np.full((2, 2), 1000.0), MODEL, [1.0, 1.0], [1.0, 1.0],
                  [0.3, 0.5], 12.0),
    "gain_small": ([[0.02, 0.05], [0.03, 0.04]], MODEL, [1.0, 1.0],
                   [1.0, 1.0], [50.0, 80.0], 12.0),
}


def _perfect_csi(case):
    gains, model, mu, targets, lam, cap = PERFECT_CSI_CASES[case]
    problem = PerfectCSI(np.array(gains), model, np.array(mu),
                         np.array(targets), cap)
    return problem, np.array(lam)


@pytest.mark.parametrize("case", sorted(PERFECT_CSI_CASES))
def test_perfect_csi_matches_the_quad_oracle(case):
    pytest.importorskip("scipy")
    problem, lam = _perfect_csi(case)
    ev = problem.evaluate(lam)
    rates, power, value = perfect_csi_quad(
        problem.mean_gain, problem.model.perfect_csi_scale(), problem.mu,
        problem.targets, lam, problem.rate_cap)
    np.testing.assert_allclose(ev.per_user_avg_rate, rates, rtol=1e-10,
                               atol=0)
    assert ev.avg_power == pytest.approx(power, rel=1e-10, abs=0)
    assert ev.value == pytest.approx(value, rel=1e-10, abs=0)


@pytest.mark.parametrize("case", sorted(PERFECT_CSI_CASES))
def test_perfect_csi_value_identity(case):
    problem, lam = _perfect_csi(case)
    for scale in (np.ones(len(lam)), np.eye(len(lam))[0], np.zeros(len(lam))):
        ev = problem.evaluate(lam * scale)
        rhs = ev.avg_power + (lam * scale) @ ev.subgradient
        assert ev.value == pytest.approx(rhs, rel=1e-12, abs=1e-12)


def test_perfect_csi_matches_continuous_gain_monte_carlo():
    # sampled gains, the hard winner by brute-force argmin of the users'
    # costs: rates and power within 5 standard errors of the quadrature
    model = MaxAvgBer(kappa1=0.2, kappa2=1.5, eps_avg=1e-3)
    mu, lam, cap = np.array([1.0, 2.0, 0.5]), np.array([1.5, 2.0, 1.2]), 6.0
    fading = FadingModel(np.array([[2.0, 5.0, 1.0], [4.0, 1.0, 1.0],
                                   [3.0, 3.0, 8.0]]), seed=11)
    problem = PerfectCSI(fading.mean_gain, model, mu, np.ones(3), cap)
    ev = problem.evaluate(lam)
    gains = sample_gain_blocks(fading, 0, 40_000)                 # (N, M, K)
    rate, power = linear_allocation(
        linear_cells(model.perfect_csi_scale() / gains), (lam / mu)[:, None],
        cap)
    cost = mu[:, None] * power - lam[:, None] * rate
    win = ((np.arange(3)[:, None] == cost.argmin(axis=1)[:, None, :])
           & (cost.min(axis=1, keepdims=True) < 0.0))
    samples = np.concatenate([(rate * win).sum(axis=2),
                              (mu[:, None] * power * win).sum(axis=(1, 2),
                                                              keepdims=True)
                              [:, :, 0]], axis=1)                 # (N, M+1)
    mean = samples.mean(axis=0)
    se = samples.std(axis=0, ddof=1) / np.sqrt(len(samples))
    exact = np.append(ev.per_user_avg_rate, ev.avg_power)
    assert np.all(np.abs(exact - mean) <= 5.0 * se), (exact, mean, se)


@pytest.mark.parametrize("cap", [1.0, 12.0, 100.0, 1000.0])
def test_unit_gain_inverts_the_computed_unit_cost(cap):
    # the closed form against a last-bit bisection of _unit_allocation's
    # cost, over 20 000 log-spaced costs from -1e-12 to within 0.2% of -cap:
    # measured ≤ 4.8e-16·(1 + t); the root-find it replaced missed by up to
    # 2.7e-15·(1 + t)
    cost = -np.logspace(-12, np.log10(cap), 20_001)[:-1]
    t, ref = dual._unit_gain(cost, cap), unit_gain_bisection(cost, cap)
    assert np.all(np.abs(t - ref) <= 1e-15 * (1.0 + ref))


def test_unit_gain_edges():
    # 0 where the cost is not negative and +inf at or below the floor -cap,
    # with no RuntimeWarning anywhere (the suite makes qcsched's an error):
    # at cap 1000 a cost within 1e-13 of -cap has t = ln(2^cap - 1) -
    # ln((cost + cap)·ln2) ≈ 723, where 2^cap/(cost + cap) is past the
    # float range, and t falls as the cost rises
    for cap in (1.0, 12.0, 1000.0):
        cost = np.array([0.0, 5e-324, 3.0, np.inf, -cap, -2.0 * cap, -np.inf])
        np.testing.assert_array_equal(dual._unit_gain(cost, cap),
                                      [0.0] * 4 + [np.inf] * 3)
    near = -1000.0 + np.array([1e-13, 2e-13, 1e-12, 1e-9])
    t = dual._unit_gain(near, 1000.0)
    assert np.all(np.diff(t) < 0.0) and t[-1] > 1000.0 * LN2
    assert 723.0 < t[0] < 724.0


def test_perfect_csi_jacobian_is_the_rate_slope():
    # ∂g/∂λ = -∂r̄/∂λ: central differences of the rates agree with the
    # forward-difference Jacobian, which is symmetric (the dual's Hessian)
    # and negative definite where every user is served
    problem, lam = _perfect_csi("three_users")
    jac = problem.evaluate(lam).jacobian()
    h = 1e-5
    for n in range(3):
        step = h * np.eye(3)[n]
        up = problem.evaluate(lam + step).per_user_avg_rate
        down = problem.evaluate(lam - step).per_user_avg_rate
        np.testing.assert_allclose(jac[:, n], -(up - down) / (2 * h),
                                   rtol=1e-4, atol=1e-6)
    np.testing.assert_allclose(jac, jac.T, rtol=1e-4, atol=1e-6)
    assert np.all(np.linalg.eigvalsh((jac + jac.T) / 2) < 0)


def test_perfect_csi_names_the_smallest_infeasible_subset():
    # two channels at rate_cap 3 carry 6 in all: user 2 alone fits, users 2
    # and 3 together do not
    problem = PerfectCSI(np.ones((3, 2)), MODEL, np.ones(3),
                         np.array([0.5, 4.0, 2.5]), 3.0)
    with pytest.raises(InfeasibleTargetsError) as err:
        problem.check_targets()
    assert err.value.users == [2, 3]
    PerfectCSI(np.ones((3, 2)), MODEL, np.ones(3), np.array([0.5, 3.0, 2.5]),
               3.0).check_targets()


@pytest.mark.parametrize("lam", [[-0.1, 1.0], [np.nan, 1.0], [np.inf, 1.0],
                                 [1.0]])
def test_perfect_csi_rejects_bad_multipliers(lam):
    problem, _ = _perfect_csi("large_lambda")
    with pytest.raises(ValueError, match="lambda"):
        problem.evaluate(np.array(lam))


def test_import_does_not_build_the_legendre_rule():
    src = str(Path(qcsched.__file__).parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    code = ("import qcsched, qcsched.dual as d; "
            "print(d._legendre_rule.cache_info().currsize)")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "0"
