"""Per-column re-statements of the paper's definitions, used as test oracles.

Each function evaluates one channel column (or one probability) the slow,
literal way, or enumerates every channel where the library enumerates one
per class; the tests check the vectorized library paths against them. The
test-only surfaces (the finite-difference Jacobian, the cluster audit, the
access sampler, the multiplier-trace verdict) live here too.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from qcsched.allocator import (DEFAULT_RATE_CAP, Multipliers, RateCostTables,
                               build_tables, smooth_weights)
from qcsched.dual import Problem, block_allocation
from qcsched.quantizer import (DEFAULT_ENUM_BUDGET, EnumerationBudgetError,
                               QuantizerGrid, region_prob_table)

TIE_RTOL = 1e-9     # relative cost gap the oracles treat as an exact tie


# --- winner sets and per-column schedules -------------------------------------

def _col_costs(tables: RateCostTables, col, k: int) -> np.ndarray:
    col0 = np.asarray(col, dtype=int) - 1
    M = tables.cost.shape[0]
    if col0.shape != (M,) or np.any(col0 < 0) or np.any(col0 >= tables.cost.shape[2]):
        raise ValueError("column must hold one in-range region index per user")
    return tables.cost[np.arange(M), k, col0]


def winner_sets(tables: RateCostTables, col, k: int, eps: float,
                tie_rtol: float = TIE_RTOL):
    """Hard and smooth winner sets plus the minimum cost c* for channel k.

    Hard set: cost minimizers (within the relative tie tolerance) if c* < 0,
    else empty. Smooth set: users with C_W - c* < ε while c* < 0. The hard
    set is always contained in the smooth set.
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    costs = _col_costs(tables, col, k)
    cstar = float(costs.min())
    if cstar >= 0.0:
        empty = np.array([], dtype=int)
        return empty, empty, cstar
    tol = tie_rtol * max(1.0, abs(cstar))
    hard = np.flatnonzero(costs <= cstar + tol)
    smooth = np.flatnonzero(costs - cstar < eps)
    return hard, smooth, cstar


@dataclass(frozen=True)
class ScheduleColumn:
    """Channel-sharing weights for one channel; Σw is 0 (idle) or 1.

    ``tie_members`` is set when the hard rule hit an exact tie: the weights
    are then all-zero placeholders to be resolved by solve_tie_lp.
    """

    weights: np.ndarray
    tie_members: np.ndarray | None = None


def hard_schedule(tables: RateCostTables, col, k: int,
                  tie_rtol: float = TIE_RTOL) -> ScheduleColumn:
    """Winner-takes-all column: indicator of the unique minimizer, all-zero
    when idle, or a tie marker when several users attain the minimum."""
    hard, _, cstar = winner_sets(tables, col, k, eps=np.inf, tie_rtol=tie_rtol)
    M = tables.cost.shape[0]
    w = np.zeros(M)
    if len(hard) == 1:
        w[hard[0]] = 1.0
        return ScheduleColumn(weights=w)
    if len(hard) == 0:
        return ScheduleColumn(weights=w)
    return ScheduleColumn(weights=w, tie_members=hard)


def smooth_schedule(tables: RateCostTables, col, k: int,
                    eps: float) -> ScheduleColumn:
    """ε-smooth sharing: weights ∝ (1-(C_W-c*)/ε)² over the smooth set."""
    if eps <= 0:
        raise ValueError("eps must be positive")
    return ScheduleColumn(weights=smooth_weights(_col_costs(tables, col, k), eps))


# --- region and column probabilities ------------------------------------------

def region_prob(grid: QuantizerGrid, m: int, k: int, l: int) -> float:
    """Pr{[J]_{m,k} = l} = e^{-q_l/ḡ} - e^{-q_{l+1}/ḡ} (l is 1-based)."""
    if not (1 <= l <= grid.regions_per_channel):
        raise ValueError("region index out of range")
    q = grid.thresholds[m, k]
    g = grid.mean_gain[m, k]
    hi = 0.0 if np.isposinf(q[l]) else np.exp(-q[l] / g)
    return float(np.exp(-q[l - 1] / g) - hi)


def column_prob(grid: QuantizerGrid, k: int, col) -> float:
    """Pr{[J]_k = j}: product over users of their region probabilities."""
    col = np.asarray(col, dtype=int)
    if col.shape != (grid.num_users,):
        raise ValueError("column must hold one region index per user")
    p = 1.0
    for m in range(grid.num_users):
        p *= region_prob(grid, m, k, int(col[m]))
    return p


# --- one block's subgradient --------------------------------------------------

def stochastic_subgradient(model, grid: QuantizerGrid, mult, qcsi_block,
                           eps: float = 0.05,
                           rate_cap: float = DEFAULT_RATE_CAP,
                           tables: RateCostTables | None = None) -> np.ndarray:
    """Per-block subgradient estimate ř - Σ_k R*·w^s from one realization.

    Unbiased for the exact smooth subgradient: its expectation over the
    Q-CSI distribution equals exact_dual(..., mode="smooth").subgradient.
    """
    if tables is None:
        tables = build_tables(model, grid, mult, rate_cap)
    served_rate, _, _ = block_allocation(tables, mult.lambda_r, qcsi_block,
                                         eps)
    return mult.targets - served_rate


# --- the per-channel enumeration ----------------------------------------------

def enumerate_columns(num_users: int, regions: int,
                      budget: int = DEFAULT_ENUM_BUDGET):
    """Yield every Q-CSI column (1-based region per user) exactly once,
    in lexicographic order. Raises EnumerationBudgetError if L^M > budget."""
    count = regions ** num_users
    if count > budget:
        raise EnumerationBudgetError(count, budget)
    for combo in itertools.product(range(1, regions + 1), repeat=num_users):
        yield np.array(combo, dtype=int)


def per_channel_space(grid: QuantizerGrid):
    """The column space with every channel its own row, in the layout of
    quantizer.column_space: (columns0 (L^M, M), probs (K, L^M) whose rows
    each sum to 1, channels = 0..K-1). Seeded as a Problem's cached
    ``space``, it makes that Problem's evaluations and tie search enumerate
    every channel."""
    M, K = grid.num_users, grid.num_channels
    cols0 = np.stack(list(enumerate_columns(M, grid.regions_per_channel))) - 1
    rp = region_prob_table(grid)
    probs = np.array([[np.prod(rp[np.arange(M), k, c]) for c in cols0]
                      for k in range(K)])
    return cols0, probs, np.arange(K)


@dataclass(frozen=True)
class OracleDual:
    value: float
    subgradient: np.ndarray
    per_user_avg_rate: np.ndarray
    avg_power: float


def per_channel_dual(model, grid: QuantizerGrid, mult, mode: str,
                     eps: float = 0.05,
                     rate_cap: float = DEFAULT_RATE_CAP) -> OracleDual:
    """exact_dual summed literally over every channel and every column:
    the hard rule serves the lowest-index cost minimizer when c* < 0, the
    smooth rule smooth_schedule's weights."""
    tables = build_tables(model, grid, mult, rate_cap)
    M = grid.num_users
    rate, cost, power = np.zeros(M), 0.0, 0.0
    for k in range(grid.num_channels):
        for col in enumerate_columns(M, grid.regions_per_channel):
            if mode == "smooth":
                w = smooth_schedule(tables, col, k, eps).weights
            else:
                s = hard_schedule(tables, col, k, tie_rtol=0.0)
                w = (s.weights if s.tie_members is None
                     else np.eye(M)[s.tie_members[0]])
            p = column_prob(grid, k, col)
            c = _col_costs(tables, col, k)
            r = tables.rate[np.arange(M), k, col - 1]
            rate += p * r * w
            cost += p * float(c @ w)
            power += p * float((c + mult.lambda_r * r) @ w)
    return OracleDual(value=float(mult.lambda_r @ mult.targets) + cost,
                      subgradient=mult.targets - rate,
                      per_user_avg_rate=rate, avg_power=power)


# --- the column-major layout ----------------------------------------------------

def gather_columns(cols0, *tables) -> tuple:
    """Each (M, K, L) table read at every column of a channel's column space:
    the (K, C, M) arrays table[m, k, cols0[c, m]] for 0-based columns
    cols0 (C, M); K is whatever channels the tables hold."""
    midx = np.arange(cols0.shape[1])
    return tuple(t.transpose(1, 2, 0)[:, cols0, midx] for t in tables)


def last_axis_weights(costs: np.ndarray, eps: float) -> np.ndarray:
    """The ε-smooth weights over the last (user) axis of a cost array."""
    cstar = costs.min(axis=-1, keepdims=True)
    diff = costs - cstar
    raw = np.where((diff < eps) & (cstar < 0.0), (1.0 - diff / eps) ** 2, 0.0)
    z = raw.sum(axis=-1, keepdims=True)
    return np.divide(raw, z, out=np.zeros_like(raw), where=z > 0.0)


def column_major_dual(problem, lam, mode: str, eps: float) -> tuple:
    """Problem.evaluate on (n_classes, C, M) columns, users on the last
    axis, with numpy's reductions over that layout: (OracleDual, the smooth
    Jacobian or None). On a single-class grid its sums run in the order
    Problem.evaluate keeps."""
    mult = Multipliers(np.asarray(lam, dtype=float), problem.mu,
                       problem.targets)
    cols0, probs, _ = problem.space
    tables = build_tables(problem.model, problem.grid, mult,
                          problem.rate_cap, problem.static)
    cost, rate = gather_columns(cols0, tables.cost, tables.rate)
    wpow = cost + mult.lambda_r[None, None, :] * rate
    jac = None
    if mode == "smooth":
        w = last_axis_weights(cost, eps)
        jac = _column_major_jacobian(problem, mult, tables, cost, rate, eps)
    else:
        w = ((np.arange(len(mult.lambda_r)) == cost.argmin(axis=2)[:, :, None])
             & (cost.min(axis=2, keepdims=True) < 0.0))
    p = probs[:, :, None]
    rate_served = np.sum(rate * w * p, axis=(0, 1))
    return OracleDual(
        value=float(mult.lambda_r @ mult.targets) + float(np.sum(cost * w * p)),
        subgradient=mult.targets - rate_served,
        per_user_avg_rate=rate_served,
        avg_power=float(np.sum(wpow * w * p))), jac


def _column_major_jacobian(problem, mult, tables, cost, rate, eps):
    """∂g/∂λ on the (n, C, M) columns, by the formula of
    Problem._jacobian, each column sum by einsum over the whole space."""
    cols0, probs, _ = problem.space
    M, mu = len(mult.lambda_r), mult.mu[:, None, None]
    rprime = problem.model.rate_slope(problem.static,
                                      mult.lambda_r[:, None, None] / mu,
                                      tables.rate, tables.power,
                                      problem.rate_cap) / mu
    (rp,) = gather_columns(cols0, rprime)
    p = probs[:, :, None]
    cstar = cost.min(axis=2, keepdims=True)
    d = cost - cstar
    u = np.where((d < eps) & (cstar < 0.0), 1.0 - d / eps, 0.0)
    z = np.sum(u * u, axis=2, keepdims=True)
    z[z == 0.0] = np.inf
    w, b = u * u / z, -2.0 * u / (eps * z)
    pr = p * rate
    diag = np.sum(p * w * rp - pr * b * rate, axis=(0, 1))
    mixed = pr * (w * b.sum(axis=2, keepdims=True) - b)
    at_min = np.where(np.arange(M) == cost.argmin(axis=2)[:, :, None],
                      rate, 0.0)
    jac = (np.einsum("kcm,kcn->mn", pr * w, b * rate)
           - np.einsum("kcm,kcn->mn", mixed, at_min))
    return -(jac + np.diag(diag))


def column_major_block(tables: RateCostTables, lam, qcsi, eps: float):
    """block_allocation on one block's (K, M) columns, users on the last
    axis: (served_rate, weighted_power, served_cost)."""
    j0 = np.asarray(qcsi, dtype=int) - 1
    cost, rate = tables.cost, tables.rate
    if cost.shape != j0.shape:
        M, K = j0.shape
        cost = cost[np.arange(M)[:, None], np.arange(K), j0]
        rate = rate[np.arange(M)[:, None], np.arange(K), j0]
    cost, rate = cost.T, rate.T
    w = last_axis_weights(cost, eps)
    served_rate = (rate * w).sum(axis=0)
    served_cost = float((cost * w).sum())
    return (served_rate, served_cost + float(lam @ served_rate),
            served_cost)


# --- test-only surfaces ---------------------------------------------------------

def jacobian_check(model, grid: QuantizerGrid, mult, eps: float = 0.05,
                   h=None, rate_cap: float = DEFAULT_RATE_CAP):
    """Central-difference Jacobian of the smooth subgradient in λ.

    Returns (jacobian, report) with the symmetric-part eigenvalues and the
    largest |entry|; at interior multipliers (every user active) the
    symmetric part should be negative definite with bounded eigenvalues.
    """
    M = len(mult.lambda_r)
    problem = Problem(grid, model, mult.mu, mult.targets, rate_cap=rate_cap)
    lam0 = mult.lambda_r.astype(float)
    if h is None:
        h = 1e-5 * (1.0 + np.abs(lam0))
    h = np.broadcast_to(np.asarray(h, dtype=float), (M,))
    J = np.zeros((M, M))
    for j in range(M):
        for sgn in (1.0, -1.0):
            lam = lam0.copy()
            lam[j] += sgn * h[j]
            ev = problem.evaluate(np.maximum(lam, 0.0), "smooth", eps)
            J[:, j] += sgn * ev.subgradient / (2.0 * h[j])
    sym = 0.5 * (J + J.T)
    eig = np.linalg.eigvalsh(sym)
    report = {
        "symmetric_eigenvalues": eig,
        "max_abs_entry": float(np.max(np.abs(J))),
        "negative_definite": bool(np.all(eig < 0.0)),
    }
    return J, report


def cluster_audit(tables: RateCostTables, k: int,
                  budget: int = DEFAULT_ENUM_BUDGET,
                  tie_rtol: float = TIE_RTOL) -> list:
    """Verify the winner-cluster monotonicity on channel k by enumeration.

    For every column and every single-region perturbation, membership in the
    hard winner set must (i) survive improving the winner's own region,
    (ii) survive degrading any other user's region, and (iii) a non-winner
    must stay out when another user's region improves. Returns the list of
    violations (expected empty for any cost table that is non-increasing in
    the region index).
    """
    M, _, L = tables.cost.shape
    costs_k = tables.cost[:, k, :]                   # (M, L)
    count = L ** M
    if count > budget:
        raise EnumerationBudgetError(count, budget)

    def members(col0):
        c = costs_k[np.arange(M), col0]
        cstar = c.min()
        if cstar >= 0.0:
            return np.zeros(M, dtype=bool)
        return c <= cstar + tie_rtol * max(1.0, abs(cstar))

    violations = []
    for col in enumerate_columns(M, L, budget):
        col0 = col - 1
        mem = members(col0)
        for m in range(M):
            # (i) better own region keeps a winner in the set
            if mem[m] and col0[m] + 1 < L:
                up = col0.copy()
                up[m] += 1
                if not members(up)[m]:
                    violations.append({"rule": "own_region_up", "user": m,
                                       "column": col.tolist()})
            for other in range(M):
                if other == m:
                    continue
                if mem[m] and col0[other] - 1 >= 0:
                    down = col0.copy()
                    down[other] -= 1
                    if not members(down)[m]:
                        violations.append({"rule": "other_region_down",
                                           "user": m, "other": other,
                                           "column": col.tolist()})
                if not mem[m] and col0[other] + 1 < L:
                    up = col0.copy()
                    up[other] += 1
                    if members(up)[m]:
                        violations.append({"rule": "other_region_up",
                                           "user": m, "other": other,
                                           "column": col.tolist()})
    return violations


def realize_probabilistic_access(weights, draw: float):
    """Sample the transmitting user for one channel from fractional weights.

    ``draw`` is a uniform [0,1) variate supplied by the caller; returns the
    user index, or None when the column is idle (all-zero weights). Long-run
    frequencies match the weights.
    """
    w = np.asarray(weights, dtype=float)
    total = w.sum()
    if total <= 0.0:
        return None
    edges = np.cumsum(w) / total
    return int(np.searchsorted(edges, draw, side="right"))


# --- exponential integrals ------------------------------------------------------

def lentz_scaled(x, n: int = 1) -> np.ndarray:
    """e^x·E_n(x) for x ≥ 1 and n = 1, 2 by the modified Lentz evaluation of
    the continued fraction 1/(x + n - 1·n/(x + n + 2 - 2·(n+1)/(x + n + 4 -
    ...))), each element stepping until its own step ratio is within 1e-16
    of 1. The loop ``special`` ran before its Gauss–Laguerre rule, whose
    n-th convergent it is, but in longdouble: in double its rounding adds up
    to 2e-14 over the ~90 steps near x = 1, and a ratio that rounds to
    1 - 1.1e-16 never stops it. On x87 hardware it agrees with mpmath to
    6e-16."""
    tiny = 1e-300
    x = np.asarray(x, dtype=np.longdouble)
    b = x + float(n)
    c = np.full_like(x, 1.0 / tiny)
    d = 1.0 / b
    h = d.copy()
    live = np.ones(x.shape, dtype=bool)
    for i in range(1, 301):
        a = -float(i) * float(i + n - 1)
        b = b + 2.0
        d = a * d + b
        d = 1.0 / np.where(np.abs(d) < tiny, tiny, d)
        c = b + a / c
        c = np.where(np.abs(c) < tiny, tiny, c)
        delta = c * d
        h = np.where(live, h * delta, h)
        live &= ~(np.abs(delta - 1.0) < 1e-16)
        if not live.any():
            break
    return h.astype(float)


# --- perfect CSI ------------------------------------------------------------------

def perfect_csi_quad(mean_gain, scale: float, mu, targets, lam,
                     rate_cap: float = DEFAULT_RATE_CAP) -> tuple:
    """The perfect-CSI hard dual the literal way: (rates, avg_power, value).

    Υ(x) = (s/g)·(2^x - 1) at gain g, R* = log2(g·λ/(μ·s·ln2)) in
    [0, rate_cap] and the cost μ·Υ(R*) - λ·R*, in scalar floats. Per user n
    and distinct mean-gain column, scipy's ``quad`` integrates over n's gain
    the density times Pr{each rival's cost is above n's} times (R*, μ·Υ,
    cost), with ``points`` at the kinks: n's cap gain and the gains where its
    cost reaches a rival's cap cost or floor -λ_m·rate_cap. A rival's gain at
    equal cost is found by brentq; the range ends 40 mean gains past the last
    kink.
    """
    from scipy import integrate, optimize

    mean_gain = np.atleast_2d(np.asarray(mean_gain, dtype=float))
    lam, mu = np.asarray(lam, dtype=float), np.asarray(mu, dtype=float)
    M = len(lam)
    ln2 = math.log(2.0)
    g_on = [scale * ln2 * mu[m] / lam[m] if lam[m] > 0 else math.inf
            for m in range(M)]

    def alloc(m, g):
        rate = math.log2(g * lam[m] / (mu[m] * scale * ln2))
        rate = min(max(rate, 0.0), rate_cap)
        power = scale / g * math.expm1(ln2 * rate)
        return rate, power, mu[m] * power - lam[m] * rate

    def gain_at(m, cost):               # cost in (-λ_m·rate_cap, 0)
        hi = 2.0 * g_on[m]
        while alloc(m, hi)[2] > cost:
            hi *= 2.0
        return optimize.brentq(lambda g: alloc(m, g)[2] - cost, g_on[m], hi,
                               xtol=1e-300, rtol=1e-15, maxiter=500)

    rates, power, served = np.zeros(M), 0.0, 0.0
    columns, counts = np.unique(mean_gain.T, axis=0, return_counts=True)
    for col, count in zip(columns, counts):
        for n in np.flatnonzero(lam > 0):
            floor = -lam[n] * rate_cap
            kinks = [2.0 ** rate_cap * g_on[n]]
            for m in np.flatnonzero(lam > 0):
                if m != n:
                    for cost in (alloc(m, 2.0 ** rate_cap * g_on[m])[2],
                                 -lam[m] * rate_cap):
                        if floor < cost < 0.0:
                            kinks.append(gain_at(n, cost))

            def integrand(g, what):
                terms = alloc(n, g)
                prob = math.exp(-g / col[n]) / col[n]
                for m in range(M):
                    if m != n and terms[2] > -lam[m] * rate_cap:
                        prob *= -math.expm1(-gain_at(m, terms[2]) / col[m])
                return prob * (terms[0], mu[n] * terms[1], terms[2])[what]

            end = max(kinks) + 40.0 * col[n]
            part = [integrate.quad(integrand, g_on[n], end, args=(what,),
                                   points=kinks, epsabs=0.0, epsrel=1e-12,
                                   limit=400)[0] for what in range(3)]
            rates[n] += count * part[0]
            power += count * part[1]
            served += count * part[2]
    return rates, power, float(lam @ np.asarray(targets, float)) + served


# --- solver verdicts ------------------------------------------------------------

def multiplier_settled(traj) -> bool:
    """Whether the multiplier trace stopped moving.

    The hard-dual baseline hovers in the primal forever, so its subgradient
    stop rule never fires; dual convergence is instead judged on the trace:
    per user, the λ spread over the trailing 10% of the iteration range,
    relative to the mean |λ| there, must stay below 1%.
    """
    if len(traj.iters) == 0:
        return False
    span = traj.iters[-1] - traj.iters[0]
    sel = traj.iters >= traj.iters[-1] - 0.1 * span
    lam = traj.lam[sel]
    spread = lam.max(axis=0) - lam.min(axis=0)
    scale = np.maximum(np.abs(lam).mean(axis=0), 1e-12)
    return bool(np.all(spread / scale < 0.01))


def step_weighted_average(traj, kappa: float, max_iters: int) -> tuple:
    """(rates, power) the non-smooth baseline serves, from a record_every=1
    trajectory of all ``max_iters`` iterates: the iterates i ≥ max_iters // 2
    averaged with the weights κ·(i+1)^{-0.51}, their steps."""
    assert np.array_equal(traj.iters, np.arange(max_iters))
    sel = traj.iters >= max_iters // 2
    w = kappa * (traj.iters[sel] + 1.0) ** -0.51
    return (w @ traj.rates[sel] / w.sum(), float(w @ traj.power[sel] / w.sum()))
