"""Primal policies: rate/cost tables, winner sets, smooth sharing, tie LP."""

import numpy as np
import pytest

from qcsched.allocator import (DEFAULT_RATE_CAP, Multipliers, TieInstance,
                               TieInfeasibleError, build_tables,
                               find_tie_instances, hard_schedule,
                               smooth_schedule, smooth_weights, solve_tie_lp,
                               winner_sets)
from qcsched.channel import FadingModel
from qcsched.powerrate import (ErgodicCapacity, MaxAvgBer, MaxInstBer,
                               OutageCapacity, RegionContext, region_contexts)
from qcsched.quantizer import QuantizerGrid, build_equiprobable, build_random

LN2 = np.log(2.0)


def ladder(*interior):
    """(1, 1, L+1) threshold ladder from interior points."""
    return np.array([[[0.0, *interior, np.inf]]])


def mult(lam, mu=None, targets=None):
    lam = np.atleast_1d(np.asarray(lam, float))
    M = lam.shape[0]
    return Multipliers(lam,
                       np.ones(M) if mu is None else np.asarray(mu, float),
                       np.ones(M) if targets is None else np.asarray(targets, float))


@pytest.fixture()
def grid_2x3():
    fading = FadingModel(np.array([[1.0, 2.0, 0.5], [1.5, 1.0, 3.0]]), seed=0)
    return build_equiprobable(fading, 4)


# --- Multipliers -----------------------------------------------------------------

def test_multipliers_validation():
    with pytest.raises(ValueError):
        Multipliers(np.array([-0.1]), np.array([1.0]), np.array([1.0]))
    with pytest.raises(ValueError):
        Multipliers(np.array([0.1]), np.array([0.0]), np.array([1.0]))
    with pytest.raises(ValueError):
        Multipliers(np.array([0.1]), np.array([1.0]), np.array([-1.0]))
    with pytest.raises(ValueError):
        Multipliers(np.array([0.1, 0.2]), np.array([1.0]), np.array([1.0, 1.0]))
    with pytest.raises(ValueError):
        Multipliers(np.array([np.inf]), np.array([1.0]), np.array([1.0]))


def test_multipliers_with_lambda():
    m0 = mult([0.3, 0.4])
    m1 = m0.with_lambda([0.5, 0.6])
    np.testing.assert_array_equal(m1.lambda_r, [0.5, 0.6])
    assert m1.mu is m0.mu
    np.testing.assert_array_equal(m0.lambda_r, [0.3, 0.4])


# --- build_tables ----------------------------------------------------------------

def test_tables_zero_price_buys_zero_rate(grid_2x3):
    t = build_tables(OutageCapacity(outage_delta=0.0), grid_2x3,
                     mult([0.0, 0.7]))
    assert np.all(t.rate[0] == 0.0)
    assert np.all(t.cost[0] == 0.0)
    assert np.any(t.rate[1] > 0.0)


def test_tables_hand_value_one_minus_2ln2():
    # single region with unit effective gain, lambda = 2 ln 2:
    # R* = log2(lambda/ln2) = 1, cost = (2^1 - 1) - 2 ln 2
    grid = QuantizerGrid(ladder(1.0), np.array([[1.0]]))
    t = build_tables(OutageCapacity(outage_delta=0.0), grid, mult([2 * LN2]))
    assert t.rate[0, 0, 1] == pytest.approx(1.0, abs=1e-15)
    assert t.cost[0, 0, 1] == pytest.approx(1.0 - 2 * LN2, abs=1e-15)
    # region 1 is an outage region: nothing served, nothing charged
    assert t.rate[0, 0, 0] == 0.0
    assert t.cost[0, 0, 0] == 0.0


def test_tables_clip_boundary():
    grid = QuantizerGrid(ladder(1.0), np.array([[1.0]]))
    model = OutageCapacity(outage_delta=0.0)
    at = build_tables(model, grid, mult([LN2]))        # lambda/mu = ln2/g
    assert at.rate[0, 0, 1] == 0.0
    assert at.cost[0, 0, 1] == 0.0
    above = build_tables(model, grid, mult([LN2 * 1.01]))
    assert above.rate[0, 0, 1] > 0.0
    assert above.cost[0, 0, 1] < 0.0


def test_tables_rate_cap():
    grid = QuantizerGrid(ladder(1.0), np.array([[1.0]]))
    t = build_tables(OutageCapacity(outage_delta=0.0), grid, mult([1e9]),
                     rate_cap=6.0)
    assert t.rate[0, 0, 1] == 6.0
    assert t.power[0, 0, 1] == pytest.approx(2.0 ** 6 - 1.0)


def test_tables_cost_nonincreasing_in_region(grid_2x3):
    for model in (OutageCapacity(outage_delta=0.0), ErgodicCapacity()):
        t = build_tables(model, grid_2x3, mult([0.9, 1.4]))
        assert np.all(np.diff(t.cost, axis=2) <= 1e-12)


def test_tables_match_scalar_powerrate_calls(grid_2x3):
    lam = np.array([0.8, 1.3])
    muv = np.array([1.0, 2.0])
    for model in (OutageCapacity(outage_delta=0.2), ErgodicCapacity(),
                  OutageCapacity(outage_delta=0.0),      # c = +inf cells
                  MaxInstBer(kappa1=0.2, kappa2=1.5, eps_max=0.01),
                  MaxAvgBer(kappa1=0.2, kappa2=1.5, eps_avg=0.01)):
        t = build_tables(model, grid_2x3, mult(lam, mu=muv))
        thr = grid_2x3.thresholds
        for m in range(2):
            for k in range(3):
                for l in range(4):
                    ctx = RegionContext(thr[m, k, l], thr[m, k, l + 1],
                                        grid_2x3.mean_gain[m, k])
                    r = float(model.inv_marginal_power(ctx, lam[m] / muv[m],
                                                       DEFAULT_RATE_CAP))
                    assert t.rate[m, k, l] == pytest.approx(r, abs=1e-12)
                    p = float(model.power_of_rate(ctx, r))
                    assert t.cost[m, k, l] == pytest.approx(
                        muv[m] * p - lam[m] * r, abs=1e-12)


def test_root_finds_do_not_depend_on_the_batch():
    # every cell stops its own bisection (and its own E1 series or continued
    # fraction), so a one-cell call gives the bits of the grid-wide call
    fading = FadingModel(np.array([[1.0, 2.0, 0.5], [1.5, 1.0, 3.0]]), seed=0)
    grid = build_random(fading, 4, (0.0, 6.0), seed=4)
    ctx = region_contexts(grid)
    avg = MaxAvgBer(kappa1=0.2, kappa2=1.5, eps_avg=0.01)
    erg = ErgodicCapacity()
    lam, muv, cap = np.array([0.8, 4.0]), np.array([1.0, 2.0]), 1.5
    coeff = avg.linear_coeff(ctx)
    t = build_tables(erg, grid, mult(lam, mu=muv), rate_cap=cap)
    # the grid holds idle, interior and capped ergodic cells
    assert np.any(t.rate == 0) and np.any(t.rate == cap)
    assert np.any((t.rate > 0) & (t.rate < cap))
    for m, k, l in np.ndindex(coeff.shape):
        cell = RegionContext(ctx.q_lo[m, k, l], ctx.q_hi[m, k, l],
                             ctx.mean_gain[m, k, 0])
        assert avg.linear_coeff(cell) == coeff[m, k, l]
        rate, power = erg.allocation(erg.cell_data(cell), lam[m] / muv[m], cap)
        assert rate == t.rate[m, k, l] and power == t.power[m, k, l]


# --- winner sets ------------------------------------------------------------------

def two_user_tables(costs):
    """Wrap explicit per-user costs into a 1-channel, 1-region table."""
    from qcsched.allocator import RateCostTables
    c = np.asarray(costs, float)[:, None, None]
    return RateCostTables(rate=np.ones_like(c), power=np.zeros_like(c),
                          cost=c, rate_cap=DEFAULT_RATE_CAP)


def test_winner_sets_idle_when_no_negative_cost():
    t = two_user_tables([0.0, 0.2])
    hard, smooth, cstar = winner_sets(t, [1, 1], 0, eps=0.05)
    assert hard.size == 0 and smooth.size == 0
    assert cstar == 0.0


def test_winner_sets_unique_strict_minimum():
    t = two_user_tables([-1.0, -0.5])
    hard, smooth, cstar = winner_sets(t, [1, 1], 0, eps=0.01)
    np.testing.assert_array_equal(hard, [0])
    np.testing.assert_array_equal(smooth, [0])
    assert cstar == -1.0


def test_winner_sets_smooth_strictly_wider():
    eps = 0.05
    t = two_user_tables([-1.0, -1.0 + eps / 2])
    hard, smooth, _ = winner_sets(t, [1, 1], 0, eps=eps)
    np.testing.assert_array_equal(hard, [0])
    np.testing.assert_array_equal(smooth, [0, 1])


def test_winner_sets_eps_boundary_excluded():
    eps = 0.05
    t = two_user_tables([-1.0, -1.0 + eps])     # gap == eps: strict < fails
    _, smooth, _ = winner_sets(t, [1, 1], 0, eps=eps)
    np.testing.assert_array_equal(smooth, [0])


def test_winner_sets_hard_subset_smooth_randomized(grid_2x3):
    rng = np.random.default_rng(11)
    model = OutageCapacity(outage_delta=0.0)
    for _ in range(50):
        t = build_tables(model, grid_2x3, mult(rng.uniform(0, 2, size=2)))
        col = rng.integers(1, 5, size=2)
        k = int(rng.integers(3))
        hard, smooth, cstar = winner_sets(t, col, k, eps=0.05)
        assert set(hard) <= set(smooth)
        if cstar >= 0:
            assert hard.size == 0 and smooth.size == 0


def test_winner_sets_validation(grid_2x3):
    t = build_tables(OutageCapacity(outage_delta=0.0), grid_2x3, mult([1, 1]))
    with pytest.raises(ValueError):
        winner_sets(t, [1, 1], 0, eps=0.0)
    with pytest.raises(ValueError):
        winner_sets(t, [1, 5], 0, eps=0.05)     # region out of range
    with pytest.raises(ValueError):
        winner_sets(t, [1], 0, eps=0.05)        # wrong column length


# --- schedules --------------------------------------------------------------------

def test_hard_schedule_single_winner_and_idle():
    win = hard_schedule(two_user_tables([-1.0, -0.5]), [1, 1], 0)
    np.testing.assert_array_equal(win.weights, [1.0, 0.0])
    assert win.tie_members is None
    idle = hard_schedule(two_user_tables([0.3, 0.4]), [1, 1], 0)
    np.testing.assert_array_equal(idle.weights, [0.0, 0.0])
    assert idle.tie_members is None


def test_hard_schedule_tie_marker():
    col = hard_schedule(two_user_tables([-0.7, -0.7]), [1, 1], 0)
    np.testing.assert_array_equal(col.weights, [0.0, 0.0])
    np.testing.assert_array_equal(col.tie_members, [0, 1])


def test_smooth_weights_four_fifths():
    eps = 0.05
    w = smooth_weights(np.array([-1.0, -1.0 + eps / 2]), eps)
    np.testing.assert_allclose(w, [0.8, 0.2], atol=1e-15)


def test_smooth_weights_exact_tie_splits_evenly():
    w = smooth_weights(np.array([-0.4, -0.4]), 0.05)
    np.testing.assert_allclose(w, [0.5, 0.5])


def test_smooth_weights_singleton_and_idle():
    w = smooth_weights(np.array([-1.0, -0.2]), 0.05)
    np.testing.assert_array_equal(w, [1.0, 0.0])
    np.testing.assert_array_equal(smooth_weights(np.array([0.1, 0.2]), 0.05),
                                  [0.0, 0.0])


def test_smooth_weights_batched_shape():
    costs = np.array([[[-1.0, -0.99], [0.1, 0.2]],
                      [[-0.5, -0.5], [-2.0, -0.1]]])
    w = smooth_weights(costs, 0.05)
    assert w.shape == costs.shape
    sums = w.sum(axis=-1)
    assert set(np.round(sums.ravel(), 12)) <= {0.0, 1.0}


def test_smooth_schedule_matches_weights(grid_2x3):
    model = OutageCapacity(outage_delta=0.0)
    t = build_tables(model, grid_2x3, mult([0.9, 1.2]))
    col = smooth_schedule(t, [4, 4], 1, eps=0.05)
    expect = smooth_weights(t.cost[[0, 1], 1, [3, 3]], 0.05)
    np.testing.assert_allclose(col.weights, expect)
    s = col.weights.sum()
    assert s == pytest.approx(1.0) or s == 0.0


def _shared_cell(tables, eps):
    """Some (col, k) whose smooth set has >= 2 members and whose first user
    is actively served (so its cost responds to lambda_0 perturbations)."""
    M, K, L = tables.cost.shape
    for k in range(K):
        for l0 in range(L):
            for l1 in range(L):
                col = [l0 + 1, l1 + 1]
                _, smooth, _ = winner_sets(tables, col, k, eps=eps)
                if smooth.size >= 2 and tables.rate[0, k, l0] > 0:
                    return col, k
    raise AssertionError("no shared cell in probe instance")


def test_smooth_weights_lipschitz_in_lambda(grid_2x3):
    # empirical continuity: weight change scales linearly with the
    # multiplier perturbation, with a stable ratio across step sizes
    model = OutageCapacity(outage_delta=0.0)
    lam = np.array([0.9, 1.2])
    eps = 0.5                                     # wide set: sharing guaranteed
    col, k = _shared_cell(build_tables(model, grid_2x3, mult(lam)), eps)
    ratios = []
    for h in (1e-4, 1e-5, 1e-6):
        t0 = build_tables(model, grid_2x3, mult(lam))
        t1 = build_tables(model, grid_2x3, mult(lam + [h, 0.0]))
        w0 = smooth_schedule(t0, col, k, eps=eps).weights
        w1 = smooth_schedule(t1, col, k, eps=eps).weights
        ratios.append(np.abs(w1 - w0).max() / h)
    ratios = np.array(ratios)
    assert ratios.min() > 0.0                     # the cell really responds
    assert ratios.max() < 100.0
    assert ratios.max() / ratios.min() < 1.01


# --- tie instances and the tie LP ---------------------------------------------------

def test_find_tie_instances_symmetric_two_user():
    # identical users, L=2 with ladder (0,1,inf), outage first region:
    # only the (2,2) column ties. Effective gain 1 and lambda = 2 ln 2
    # give R* = 1 in region 2.
    grid = QuantizerGrid(np.tile(ladder(1.0), (2, 1, 1)), np.ones((2, 1)))
    model = OutageCapacity(outage_delta=0.0)
    m = mult([2 * LN2, 2 * LN2], targets=[0.4, 0.6])
    instances, r_one = find_tie_instances(grid, model, m)
    assert len(instances) == 1
    inst = instances[0]
    np.testing.assert_array_equal(inst.members, [0, 1])
    np.testing.assert_array_equal(inst.column, [2, 2])
    assert inst.channel == 0
    p2 = np.exp(-1.0)                           # P(g >= 1) per user
    assert inst.prob == pytest.approx(p2 ** 2)
    np.testing.assert_allclose(inst.rates, [1.0, 1.0], atol=1e-12)
    # single-winner mass: columns (2,1) and (1,2), prob p2(1-p2), rate 1
    np.testing.assert_allclose(r_one, p2 * (1 - p2) * np.ones(2), atol=1e-12)


def test_tie_lp_deterministic_channel_three_seven_split():
    # one certain tie instance, both members at rate r: sharing fractions
    # must reproduce the residual-target split exactly
    r = 2.0
    inst = TieInstance(prob=1.0, channel=0, column=np.array([1, 1]),
                       members=np.array([0, 1]), rates=np.array([r, r]),
                       weighted_powers=np.array([3.0, 3.0]))
    m = mult([1.0, 1.0], targets=[0.3 * r, 0.7 * r])
    sol = solve_tie_lp(m, [inst], np.zeros(2))
    np.testing.assert_allclose(sol.weights[0], [0.3, 0.7], atol=1e-12)
    assert sol.objective == pytest.approx(3.0)


def test_tie_lp_single_member_forced():
    inst = TieInstance(prob=0.5, channel=0, column=np.array([2]),
                       members=np.array([0]), rates=np.array([2.0]),
                       weighted_powers=np.array([1.0]))
    m = mult([1.0], targets=[1.0])              # 0.5 * 2.0 * w = 1 -> w = 1
    sol = solve_tie_lp(m, [inst], np.zeros(1))
    np.testing.assert_allclose(sol.weights[0], [1.0])


def test_tie_lp_no_instances_zero_residual():
    m = mult([1.0, 1.0], targets=[0.4, 0.6])
    sol = solve_tie_lp(m, [], np.array([0.4, 0.6]))
    assert sol.weights == []
    assert sol.objective == 0.0


def test_tie_lp_infeasibility_modes():
    m = mult([1.0, 1.0], targets=[0.4, 0.6])
    # residual demand but no tie instances at all
    with pytest.raises(TieInfeasibleError):
        solve_tie_lp(m, [], np.array([0.4, 0.0]))
    # user 1 has residual demand but appears in no instance
    inst = TieInstance(prob=0.5, channel=0, column=np.array([2, 1]),
                       members=np.array([0]), rates=np.array([1.0]),
                       weighted_powers=np.array([1.0]))
    with pytest.raises(TieInfeasibleError):
        solve_tie_lp(m, [inst], np.array([0.0, 0.0]))
    # single-winner service already past the target
    with pytest.raises(TieInfeasibleError):
        solve_tie_lp(m, [inst], np.array([0.9, 0.6]))
    # structurally present but unreachable target (w <= 1 caps the rate)
    with pytest.raises(TieInfeasibleError):
        solve_tie_lp(mult([1.0], targets=[10.0]), [TieInstance(
            prob=0.5, channel=0, column=np.array([2]),
            members=np.array([0]), rates=np.array([2.0]),
            weighted_powers=np.array([1.0]))], np.zeros(1))


def _vertex_opt_tie(instances, m, r_bar_one, tol=1e-9):
    """Brute-force optimum of the tie LP by vertex enumeration."""
    import itertools

    r_tie = m.targets - r_bar_one
    nvar = sum(len(t.members) for t in instances)
    offsets = np.cumsum([0] + [len(t.members) for t in instances])
    present = np.zeros(m.num_users, dtype=bool)
    for t in instances:
        present[t.members] = True
    rows_u = np.flatnonzero(present)
    A = np.zeros((len(rows_u) + len(instances), nvar))
    b = np.zeros(len(rows_u) + len(instances))
    c = np.zeros(nvar)
    row_of = {int(u): i for i, u in enumerate(rows_u)}
    for ti, t in enumerate(instances):
        sl = slice(offsets[ti], offsets[ti + 1])
        c[sl] = t.prob * t.weighted_powers
        A[len(rows_u) + ti, sl] = 1.0
        b[len(rows_u) + ti] = 1.0
        for j, u in enumerate(t.members):
            A[row_of[int(u)], offsets[ti] + j] = t.prob * t.rates[j]
    b[:len(rows_u)] = r_tie[rows_u]

    best = None
    mrows, n = A.shape
    for cols in itertools.combinations(range(n), mrows):
        B = A[:, list(cols)]
        if abs(np.linalg.det(B)) < 1e-12:
            continue
        xb = np.linalg.solve(B, b)
        if np.any(xb < -tol):
            continue
        x = np.zeros(n)
        x[list(cols)] = xb
        val = c @ x
        if best is None or val < best:
            best = val
    return best


def test_tie_lp_three_instance_vs_vertex_oracle():
    # four users, three tie realizations on one channel; randomized but
    # feasible by construction (targets assembled from a known weighting)
    rng = np.random.default_rng(5)
    members = [np.array([0, 1]), np.array([1, 2, 3]), np.array([0, 3])]
    instances = []
    planted = []
    for mem in members:
        w = rng.dirichlet(np.ones(len(mem)))
        planted.append(w)
        instances.append(TieInstance(
            prob=float(rng.uniform(0.05, 0.3)), channel=0,
            column=np.arange(1, len(mem) + 1), members=mem,
            rates=rng.uniform(0.5, 3.0, len(mem)),
            weighted_powers=rng.uniform(0.5, 4.0, len(mem))))
    targets = np.zeros(4)
    for inst, w in zip(instances, planted):
        targets[inst.members] += inst.prob * inst.rates * w
    m = mult([1.0] * 4, targets=targets)
    sol = solve_tie_lp(m, instances, np.zeros(4))
    # constraint families hold to 1e-9
    got = np.zeros(4)
    for inst, w in zip(instances, sol.weights):
        assert w.sum() == pytest.approx(1.0, abs=1e-9)
        assert np.all(w >= -1e-12)
        got[inst.members] += inst.prob * inst.rates * w
    np.testing.assert_allclose(got, targets, atol=1e-9)
    # and the simplex value matches exhaustive vertex enumeration
    oracle = _vertex_opt_tie(instances, m, np.zeros(4))
    assert sol.objective == pytest.approx(oracle, abs=1e-9)


def test_find_tie_instances_generic_lambda_has_no_ties(grid_2x3):
    # costs tie only on measure-zero multiplier sets; a generic lambda
    # over asymmetric users must classify every active cell single-winner
    model = OutageCapacity(outage_delta=0.0)
    m = mult([0.8317, 1.2743], targets=[1.0, 1.0])
    instances, r_one = find_tie_instances(grid_2x3, model, m)
    assert instances == []
    assert np.all(r_one >= 0.0)
