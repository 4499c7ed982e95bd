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
from qcsched.allocator import (InfeasibleTargetsError, Multipliers,
                               block_statics, build_tables,
                               find_tie_instances, make_static,
                               smooth_weights, solve_tie_lp)
from qcsched.channel import FadingModel, sample_gain_blocks
from qcsched.dual import PerfectCSI, Problem, block_allocation, exact_dual
from qcsched.powerrate import (ErgodicCapacity, MaxAvgBer, MaxInstBer,
                               OutageCapacity, linear_allocation)
from qcsched.quantizer import (EnumerationBudgetError, QuantizerGrid,
                               build_equiprobable, build_random,
                               channel_classes, quantize)

from oracles import (column_major_block, column_major_dual, jacobian_check,
                     per_channel_dual, per_channel_space, perfect_csi_quad,
                     stochastic_subgradient)

LN2 = np.log(2.0)
MODEL = OutageCapacity(outage_delta=0.0)


def small_instance(L=4):
    fading = FadingModel(np.array([[1.0, 2.0], [0.5, 1.5]]), seed=3)
    grid = build_equiprobable(fading, L)
    mult = Multipliers(np.array([0.8, 1.1]), np.ones(2), np.array([0.5, 0.7]))
    return fading, grid, mult


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
        exact_dual(MODEL, grid, mult, "smooth", budget=3)


@pytest.mark.parametrize("mu, targets", [([1.0, 0.0], [0.5, 0.7]),
                                         ([1.0, -1.0], [0.5, 0.7]),
                                         ([1.0, 1.0], [0.5, -0.1]),
                                         ([1.0, np.nan], [0.5, 0.7]),
                                         ([1.0], [0.5, 0.7])])
def test_problem_checks_weights_at_construction(mu, targets):
    _, grid, _ = small_instance()
    with pytest.raises(ValueError):
        Problem(grid, MODEL, mu, targets)


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
    served, wpower, scost = block_allocation(tables, mult, qcsi, eps=0.05)
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


def test_block_allocation_one_block_matches_the_column_major_oracle():
    # one block, read from (M, K, L) tables or from its own (M, K) tables,
    # gives the bits of the (K, M) layout with users on the last axis
    fading, grid, mult = small_instance()
    tables = build_tables(MODEL, grid, mult)
    qcsi = quantize(grid, sample_gain_blocks(fading, 0, 50))
    cells = block_statics(make_static(grid, MODEL), qcsi - 1)
    for n in range(50):
        for block_tables in (tables, build_tables(MODEL, grid, mult,
                                                  static=cells[n])):
            got = block_allocation(block_tables, mult, qcsi[n], eps=0.05)
            want = column_major_block(block_tables, mult, qcsi[n], 0.05)
            assert got[0].tobytes() == want[0].tobytes()
            assert got[1:] == want[1:]


def test_block_allocation_stack_sums_its_blocks():
    # a 7-block stack read from (M, K, L) tables serves the sum of what the
    # blocks serve one at a time, from those tables or from each block's
    # own (M, K) tables
    fading, grid, mult = small_instance()
    tables = build_tables(MODEL, grid, mult)
    qcsi = quantize(grid, sample_gain_blocks(fading, 0, 7))      # (7, M, K)
    served, wpower, scost = block_allocation(tables, mult, qcsi, eps=0.05)
    assert served.shape == (2,)
    assert np.all(served > 0.0)
    cells = block_statics(make_static(grid, MODEL), qcsi - 1)
    for per_block in (lambda n: tables,
                      lambda n: build_tables(MODEL, grid, mult,
                                             static=cells[n])):
        calls = [block_allocation(per_block(n), mult, qcsi[n], eps=0.05)
                 for n in range(7)]
        np.testing.assert_allclose(served, sum(c[0] for c in calls),
                                   rtol=1e-13)
        assert wpower == pytest.approx(sum(c[1] for c in calls), rel=1e-13)
        assert scost == pytest.approx(sum(c[2] for c in calls), rel=1e-13)
    with pytest.raises(ValueError):         # one block's tables, 7 blocks
        block_allocation(build_tables(MODEL, grid, mult, static=cells[0]),
                         mult, qcsi, eps=0.05)


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
        jac = exact_dual(model, grid, mult, "smooth", eps=0.5,
                         rate_cap=3.0).jacobian()
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
    ev = {}
    for mode in ("hard", "smooth"):
        ev[mode] = got = exact_dual(model, grid, mult, mode, eps, rate_cap)
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
    # seeding a Problem's space with every channel enumerates each of them
    classes, full = (Problem(grid, model, mult.mu, mult.targets,
                             rate_cap=rate_cap) for _ in range(2))
    full.space = per_channel_space(grid)
    rmax = float(build_tables(model, grid, mult, rate_cap).rate.max())
    _agree(classes.evaluate(mult.lambda_r, "smooth", eps).jacobian(),
           full.evaluate(mult.lambda_r, "smooth", eps).jacobian(),
           1e-10, K * rmax ** 2 * 2.0 / eps)

    ties, one = find_tie_instances(classes, mult.lambda_r)
    ties_k, one_k = find_tie_instances(full, mult.lambda_r)
    _agree(one, one_k, 1e-12)
    size = dict(zip(*channel_classes(grid)))
    assert len(ties_k) == sum(size[t.channel] for t in ties)
    # targets that sharing every tie evenly meets: both tie LPs are feasible
    reach = one_k + sum((np.bincount(t.members, t.prob * t.rates,
                                     minlength=grid.num_users)
                         / len(t.members) for t in ties_k),
                        np.zeros(grid.num_users))
    lp_mult = Multipliers(mult.lambda_r, mult.mu, reach)
    # the LP's residual targets are reach - one, so an ulp of r̄_one moves
    # the objective by λ·ulp: it is compared at the scale of λ·r̄_one
    _agree(solve_tie_lp(lp_mult, ties, one).objective,
           solve_tie_lp(lp_mult, ties_k, one_k).objective, 1e-12,
           float(mult.lambda_r @ one))


# --- the user-major layout against the column-major oracle -----------------------

def _same_bits(got, want):
    assert np.asarray(got).tobytes() == np.asarray(want).tobytes(), (got, want)


@settings(max_examples=60, deadline=None)
@given(class_instances())
@example(CANCELLING)
def test_evaluate_matches_the_column_major_oracle(instance):
    # a single-class grid keeps every bit of the (n, C, M) layout; with
    # several classes the column sums run in another order and agree to
    # rounding, at the scales of the per-channel test above. The oracle's
    # einsum may unroll its sums, so the Jacobian agrees to rounding at the
    # scale of its summed terms p·r²·b, |b| <= 2/eps
    model, grid, mult, eps, rate_cap = instance
    problem = Problem(grid, model, mult.mu, mult.targets, rate_cap=rate_cap)
    single = len(problem.space[1]) == 1
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
            if single:
                _same_bits(a, b)
            else:
                _agree(a, b, 1e-13, scale)
        if mode == "smooth":
            _agree(got.jacobian(), jac, 1e-12,
                   grid.num_channels * rmax ** 2 * 2.0 / eps)


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
    rate, power = linear_allocation(model.perfect_csi_scale() / gains,
                                    (lam / mu)[:, None], cap)
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
