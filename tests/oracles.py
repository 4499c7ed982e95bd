"""Per-column re-statements of the paper's definitions, used as test oracles.

Each function evaluates one channel column (or one probability) the slow,
literal way, or enumerates every channel where the library enumerates one
per class; the tests check the vectorized library paths against them. The
test-only surfaces (the finite-difference Jacobian, the cluster audit, the
access sampler, the multiplier-trace verdict, the pointwise marginal power)
live here too.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from qcsched import solver
from qcsched.allocator import (DEFAULT_RATE_CAP, Multipliers, Prices,
                               RateCostTables, build_tables, check_lambda,
                               make_static, smooth_weights)
from qcsched.channel import sample_gain_blocks
from qcsched.dual import Problem, _unit_allocation, block_allocation
from qcsched.powerrate import _LN2, ErgodicCapacity, region_contexts
from qcsched.quantizer import (DEFAULT_ENUM_BUDGET, EnumerationBudgetError,
                               QuantizerGrid, quantize, region_prob_table)
from qcsched.simplex import solve_lp

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
                                         eps, np.arange(grid.num_channels))
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


def per_channel_columns(grid: QuantizerGrid):
    """The columns with every channel its own class, in the layout of
    quantizer.column_space: (index (M, K·L^M) into (M, K, L) tables, probs
    (K·L^M,) whose channels each sum to 1), in (channel, column) order.
    Seeded as a Problem's cached ``columns``, with ``classes`` every
    channel on its own, it makes that Problem's evaluations and tie search
    enumerate every channel."""
    M, K, L = grid.num_users, grid.num_channels, grid.regions_per_channel
    cols0 = np.stack(list(enumerate_columns(M, L))) - 1
    rp = region_prob_table(grid)
    probs = np.array([[np.prod(rp[np.arange(M), k, c]) for c in cols0]
                      for k in range(K)])
    index = np.arange(0, M * K * L, L).reshape(M, K, 1) + cols0.T[:, None, :]
    return index.reshape(M, -1), probs.ravel()


def class_space(problem):
    """Each class's column space, by a product per column over the
    Problem's region probabilities: (columns0 (L^M, M), lexicographic,
    probs (n_classes, L^M) whose rows each sum to the class size)."""
    rp, sizes = problem.region_probs, problem.classes[1]
    M, _, L = rp.shape
    cols0 = np.stack(list(enumerate_columns(M, L))) - 1
    per_user = rp.transpose(1, 0, 2)[:, np.arange(M), cols0]   # (n, C, M)
    return cols0, per_user.prod(axis=2) * sizes[:, None]


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
    Jacobian or None). Its sums run in another order than Problem.evaluate's
    user-major ones, so the two agree to rounding."""
    mult = Multipliers(np.asarray(lam, dtype=float), problem.mu,
                       problem.targets)
    cols0, probs = class_space(problem)
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
    cols0, probs = class_space(problem)
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
    """block_allocation, or serve_block on one block's own (M, K) tables,
    on the block's (K, M) columns, users on the last axis: (served_rate,
    served_cost, weighted_power)."""
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
    return (served_rate, served_cost,
            served_cost + float(lam @ served_rate))


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


# --- the tie LP ------------------------------------------------------------------

def planted_ties(rng, tied, num_users: int) -> tuple:
    """Tie arrays (prob, members, rates, weighted_powers) with the users of
    ``tied`` (a list of user lists, one per tie) in each tie, and the targets
    that planted Dirichlet weights on them serve: a tie LP feasible by
    construction. Returns (targets, prob, members, rates, weighted_powers)."""
    T = len(tied)
    prob = np.zeros(T)
    members = np.zeros((T, num_users), dtype=bool)
    rates, wpow, planted = (np.zeros((T, num_users)) for _ in range(3))
    for t, mem in enumerate(tied):
        planted[t, mem] = rng.dirichlet(np.ones(len(mem)))
        prob[t] = rng.uniform(0.05, 0.3)
        members[t, mem] = True
        rates[t, mem] = rng.uniform(0.5, 3.0, len(mem))
        wpow[t, mem] = rng.uniform(0.5, 4.0, len(mem))
    targets = (prob[:, None] * rates * planted).sum(axis=0)
    return targets, prob, members, rates, wpow


def tie_lp_rows(targets, prob, members, rates, weighted_powers, r_bar_one):
    """The tie LP (c, A, b) assembled one tie instance at a time, the
    reference for solve_tie_lp's assembly: variables tie-major and members
    ascending, one rate row per user in some tie, then one row per tie."""
    r_tie = np.subtract(targets, r_bar_one, dtype=float)
    mem = [np.flatnonzero(row) for row in members]
    nvar = sum(len(m) for m in mem)
    offsets = np.cumsum([0] + [len(m) for m in mem])
    present = np.zeros(len(r_tie), dtype=bool)
    for m in mem:
        present[m] = True
    rows_u = np.flatnonzero(present)
    A = np.zeros((len(rows_u) + len(mem), nvar))
    b = np.zeros(len(rows_u) + len(mem))
    c = np.zeros(nvar)
    row_of = {int(u): i for i, u in enumerate(rows_u)}
    for ti, m in enumerate(mem):
        p = float(prob[ti])
        sl = slice(offsets[ti], offsets[ti + 1])
        c[sl] = p * weighted_powers[ti, m]
        A[len(rows_u) + ti, sl] = 1.0
        b[len(rows_u) + ti] = 1.0
        for j, u in enumerate(m):
            A[row_of[int(u)], offsets[ti] + j] = p * rates[ti, u]
    b[:len(rows_u)] = r_tie[rows_u]
    return c, A, b


def tie_lp_weights(targets, prob, members, rates, weighted_powers,
                   r_bar_one):
    """solve_lp on tie_lp_rows with residual targets clipped at 0, the
    weights scattered back to (T, M) one tie at a time."""
    c, A, b = tie_lp_rows(targets, prob, members, rates, weighted_powers,
                          r_bar_one)
    x, _ = solve_lp(c, A, np.maximum(b, 0.0))
    w = np.zeros(np.shape(members))
    at = 0
    for ti, row in enumerate(members):
        m = np.flatnonzero(row)
        w[ti, m] = x[at:at + len(m)]
        at += len(m)
    return w


def tie_objective(prob, weighted_powers, weights) -> float:
    """The tie LP's objective Σ prob·μΥ(R*)·w at ``weights`` (T, M)."""
    return float((prob[:, None] * weighted_powers * weights).sum())


def vertex_opt_tie(targets, prob, members, rates, weighted_powers, r_bar_one,
                   tol=1e-9):
    """Brute-force optimum of the tie LP by basic-solution enumeration: the
    smallest objective over every feasible basis."""
    c, A, b = tie_lp_rows(targets, prob, members, rates, weighted_powers,
                          r_bar_one)
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


def laguerre_rule(n: int = 128) -> tuple:
    """Nodes and weights of the n-point Gauss–Laguerre rule, without LAPACK:
    the builder of the 128-node table ``special`` reads. Node i is the i-th
    eigenvalue of the Jacobi matrix (diagonal 2k+1, off-diagonal k): 20
    bisection steps on its Sturm count isolate it in the Gershgorin interval
    [0, 4n], and six Newton steps on L_n polish it; the weights are the
    Christoffel numbers 1/Σ_{k<n} L_k(u)² of the last step. Newton runs in
    longdouble, which on x87 hardware makes the rule correctly rounded (in
    double the smallest nodes lose about 1e-13)."""
    index = np.arange(n)
    lo, hi = np.zeros(n), np.full(n, 4.0 * n)
    for _ in range(20):
        mid = 0.5 * (lo + hi)
        d = 1.0 - mid       # negative LDLᵀ pivots of T - mid·I: nodes < mid
        below = (d < 0.0).astype(int)
        with np.errstate(divide="ignore"):
            for k in range(1, n):
                d = (2 * k + 1 - mid) - k * k / d
                below += d < 0.0
        above = below > index
        lo, hi = np.where(above, lo, mid), np.where(above, mid, hi)
    u = (0.5 * (lo + hi)).astype(np.longdouble)
    for _ in range(6):
        # L_n, L_{n-1} and Σ_{k<n} L_k² by the three-term recurrence; then
        # a Newton step, with u·L_n' = n·(L_n - L_{n-1})
        prev, cur, ssq = 0.0 * u, 1.0 + 0.0 * u, 0.0 * u
        for k in range(n):
            ssq = ssq + cur * cur
            prev, cur = cur, ((2 * k + 1 - u) * cur - k * prev) / (k + 1)
        u = u - u * cur / (n * (cur - prev))
    return u.astype(float), (1.0 / ssq).astype(float)


def horner_series(x) -> np.ndarray:
    """E1(x) for 0 < x < 1 from the series -γ - ln(x) + Σ_{n=1}^{19}
    (-1)^{n+1} x^n/(n·n!) (Abramowitz & Stegun 5.1.11), summed by Horner's
    rule: 19 multiply-adds per element, highest coefficient first. The loop
    ``special`` ran before it evaluated the sum from a table of powers."""
    x = np.asarray(x, dtype=float)
    total = np.zeros_like(x)
    for n in range(19, 0, -1):
        total = (total + (-1.0) ** (n + 1) / (n * math.factorial(n))) * x
    return -0.5772156649015328606 - np.log(x) + total


# --- power-rate marginals -------------------------------------------------------

def marginal_power(model, ctx, rate) -> np.ndarray:
    """Υ̇ at ``rate``: c·ln2·2^x for the families with Υ(x) = c·(2^x - 1),
    and for ergodic capacity 1/(Υ⁻¹)′ at y = Υ(x), from its closed form."""
    data = model.cell_data(ctx)
    if isinstance(model, ErgodicCapacity):
        y = model.power_of_rate(data, rate)
        return 1.0 / model.rate_and_derivative(data, y)[1]
    x = np.asarray(rate, dtype=float)
    return data[0] * math.log(2.0) * np.exp2(x)


# --- RA5 power levels -------------------------------------------------------------

def ra5_bisection(setup, problem) -> tuple:
    """RA5's (levels, rates) user by user: doubling from 1 until the user's
    own cells serve its target, then bisection to a width of
    1e-12·(1 + hi); a user its cells cannot serve even at ``rate_cap``
    gets the largest Υ(rate_cap) over its live regions (or 0)."""
    grid, model = problem.grid, setup.model
    M, K = grid.num_users, grid.num_channels
    data = model.cell_data(region_contexts(grid))
    probs = region_prob_table(grid)
    levels, rates = np.zeros(M), np.zeros(M)
    for m in range(M):
        own = np.arange(K) % M == m
        pr = probs[m, own]
        cells = tuple(a[m, own] for a in data)
        live = ~model.is_outage(cells)

        def served(p):
            r = np.minimum(model.rate_and_derivative(cells, p)[0],
                           setup.rate_cap)
            return float((pr * r * live).sum())

        target = float(setup.targets[m])
        if target > float((pr * setup.rate_cap * live).sum()):
            cap_power = model.power_of_rate(cells, setup.rate_cap)
            levels[m] = np.max(cap_power[live], initial=0.0)
        elif target > 0:
            lo, hi = 0.0, 1.0
            while served(hi) < target:
                hi *= 2.0
            for _ in range(200):
                mid = 0.5 * (lo + hi)
                if served(mid) < target:
                    lo = mid
                else:
                    hi = mid
                if hi - lo <= 1e-12 * (1.0 + hi):
                    break
            levels[m] = hi
        rates[m] = served(levels[m])
    return levels, rates


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


def unit_gain_bisection(cost, rate_cap: float) -> np.ndarray:
    """dual._unit_gain the slow way: the t at which _unit_allocation's
    computed cost/λ crosses each ``cost`` in (-rate_cap, 0), by last-bit
    bisection on [0, rate_cap·ln2 + 40]. The computed cost holds each float
    over a run of t, widest near -rate_cap where one ulp of rate_cap spans
    a run of about ulp/(cost + rate_cap), so this is the run's midpoint: the
    mean of the ends of {h(t) > cost} and of {h(t) ≥ cost}."""
    y = np.asarray(cost, dtype=float)

    def end(above):
        lo = np.zeros_like(y)
        hi = np.full_like(y, rate_cap * math.log(2.0) + 40.0)
        while True:
            mid = 0.5 * (lo + hi)
            live = (lo < mid) & (mid < hi)
            if not live.any():
                return lo, hi
            # e^{-t} leaves the normal range past t ≈ 708: h overflows there
            with np.errstate(over="ignore", divide="ignore"):
                up = above(_unit_allocation(mid, rate_cap)[2])
            lo, hi = np.where(live & up, mid, lo), np.where(live & ~up, mid, hi)

    return 0.5 * (end(lambda h: h > y)[1] + end(lambda h: h >= y)[0])


# --- closed forms and loops as written before their fast paths -----------------

def linear_allocation_guarded(c, slope, rate_cap: float) -> tuple:
    """powerrate.linear_allocation with the division and its c·0 products
    guarded by errstate and masks: the rate is taken only where
    slope/(c·ln2) > 1, and the power zeroed where the rate is 0."""
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.asarray(slope, dtype=float) / (c * _LN2)
        rate = np.where(ratio > 1.0, np.log2(np.maximum(ratio, 1.0)), 0.0)
    rate = np.minimum(rate, rate_cap)
    return rate, linear_power_guarded(c, rate)


def linear_power_guarded(c, rate) -> np.ndarray:
    """Υ(rate) = c·(2^rate - 1), formed everywhere and then set to 0 where
    the rate is 0 (c·0 is NaN in outage regions)."""
    with np.errstate(invalid="ignore"):
        power = c * np.expm1(_LN2 * rate)
    return np.where(rate == 0.0, 0.0, power)


def gauss_jordan_numpy(a, b) -> np.ndarray:
    """solver._solve on numpy rows: the pivot row is divided first, then
    one outer product eliminates column c from every row."""
    ab = np.column_stack([a, b])
    for c in range(len(b)):
        p = c + int(np.argmax(np.abs(ab[c:, c])))
        ab[[c, p]] = ab[[p, c]]
        ab[c] /= ab[c, c]
        ab -= np.outer(ab[:, c] - (np.arange(len(b)) == c), ab[c])
    return ab[:, -1]


def gauss_jordan_lists(a, b) -> np.ndarray:
    """solver._solve as it was on numpy's column_stack and max's key: the
    augmented rows from one numpy array, the pivot by max over |entries|."""
    ab = np.column_stack([a, b]).tolist()
    rows = range(len(ab))
    for c in rows:
        p = max(rows[c:], key=lambda i: abs(ab[i][c]))
        ab[c], ab[p] = ab[p], ab[c]
        pivot = ab[c][c] or np.float64(ab[c][c])
        row = ab[c] = [v / pivot for v in ab[c]]
        for i in rows:
            f = ab[i][c] - (i == c)
            ab[i] = [v - f * w for v, w in zip(ab[i], row)]
    return np.array([r[-1] for r in ab])


def online_reference(problem, cfg, num_blocks: int, progress=None):
    """solver.run_online with its bookkeeping done after every block: the
    running sums, both averages and a trajectory recorder call per block.
    Chunks of solver._chunk_blocks blocks, as run_online samples them; each
    block reads (M, K, L) tables at its Q-CSI, through a class map that
    puts each channel in its own class, which gives the bits of serving its
    own cells."""
    problem.check_targets()
    M = problem.num_users
    lam = check_lambda(solver._per_user(cfg.init, M), M)
    static = make_static(problem.grid, problem.model)
    of = np.arange(problem.grid.num_channels)       # a class per channel
    rec = solver._Recorder(cfg.record_every)
    lam_trace = np.empty((num_blocks, M))
    avg_rate = np.empty((num_blocks, M))
    csum_rate = np.zeros(M)
    csum_power = 0.0
    chunk = solver._chunk_blocks(M, problem.grid.num_channels)
    for first in range(0, num_blocks, chunk):
        count = min(chunk, num_blocks - first)
        jmats = quantize(problem.grid,
                         sample_gain_blocks(problem.fading, first, count))
        for n, jmat in zip(range(first, first + count), jmats):
            lam_trace[n] = lam
            tables = build_tables(problem.model, problem.grid,
                                  Prices(lam, problem.mu), problem.rate_cap,
                                  static)
            served, _, wpower = block_allocation(tables, lam, jmat, cfg.eps,
                                                 of)
            g = problem.targets - served
            csum_rate += served
            csum_power += wpower
            avg_rate[n] = csum_rate / (n + 1)
            rec.add(n, lam, g, avg_rate[n], csum_power / (n + 1),
                    force=(n == num_blocks - 1))
            if progress is not None:
                progress(n, lam, g)
            lam = np.maximum(0.0, lam + cfg.beta * g)
    traj = rec.build("completed", problem.targets,
                     solver._per_user(cfg.tol, M))
    return solver.OnlineResult(lam_trace, avg_rate, lam, traj)


def offline_reference(problem, cfg, mode: str, progress=None):
    """solver.run_offline_smooth (mode "smooth") and the loop of
    run_offline_nonsmooth ("hard") as one loop on the checked
    Problem.evaluate: λ is checked, a DualEvaluation built and the mode
    branched on at every iterate. The hard loop keeps every iterate's step,
    rates and power and, at each multiple n of solver.CHECK below
    max_iters, sums the window [n/2, n) directly and stops once that
    average is certified against the largest evaluate(λ_i, "hard").value
    so far; at max_iters it serves [max_iters // 2, max_iters).
    Returns (λ, Trajectory)."""
    problem.check_targets()
    M = problem.num_users
    lam = solver._per_user(cfg.init, M)
    tol = solver._per_user(cfg.tol, M)
    rec = solver._Recorder(cfg.record_every)
    history, best, served = [], -np.inf, None
    for i in range(cfg.max_iters):
        ev = problem.evaluate(lam, mode, cfg.eps)
        last = i == cfg.max_iters - 1
        step = cfg.beta if mode == "smooth" else cfg.kappa * (i + 1) ** (-0.51)
        if mode == "smooth":
            done = solver.serves_targets(ev.per_user_avg_rate,
                                         problem.targets, tol)
        else:
            history.append((step, ev.per_user_avg_rate, ev.avg_power))
            best = max(best, ev.value)
            done = False
            if (i + 1) % solver.CHECK == 0 or last:
                lo = cfg.max_iters // 2 if last else (i + 1) // 2
                served = _window_average(history[lo:])
                done = not last and solver.serves_targets(
                    served[0], problem.targets, tol, served[1], best, lam)
        rec.add(i, lam, ev.subgradient, ev.per_user_avg_rate, ev.avg_power,
                force=done or last)
        if progress is not None:
            progress(i, lam, ev.subgradient)
        if done or last:
            break
        lam = np.maximum(0.0, lam + step * ev.subgradient)
    reason = "converged" if done else "max_iters"
    if mode == "smooth":
        return lam, rec.build(reason, problem.targets, tol)
    return lam, rec.build(reason, problem.targets, tol, served, best)


def _window_average(window) -> tuple:
    """(rates, power) of [(step, rates, power), ...] weighted by the steps,
    summed in order."""
    weight, rate_sum, power_sum = 0.0, 0.0, 0.0
    for step, rate, power in window:
        weight += step
        rate_sum += step * rate
        power_sum += step * power
    return rate_sum / weight, power_sum / weight


# --- the paper's primal, as an LP on a rate grid -------------------------------

def primal_lp(problem, J: int) -> float:
    """P_LP(J), the paper's primal written with no λ anywhere: the least
    weighted power Σ μ_m·π·Υ(r_j)·y over shares y[m, (k, col), j] ≥ 0 that
    user m gets of channel k's column col at rate r_j = rate_cap·j/J,
    subject to Σ_{m,j} y ≤ 1 per column and Σ π·r_j·y ≥ ř_m per user; an
    outage cell gets no variable. Columns are enumerate_columns' on each
    channel, π column_prob's and Υ the family's power_of_rate on each
    cell's region. Υ is convex, so the LP, which interpolates Υ linearly
    between grid rates, bounds P* from above: P* ≤ P_LP(J). Solved by
    scipy's HiGHS."""
    from scipy.optimize import linprog
    grid, model = problem.grid, problem.model
    M, K, L = grid.num_users, grid.num_channels, grid.regions_per_channel
    rates = problem.rate_cap * np.arange(1, J + 1) / J
    data = model.cell_data(region_contexts(grid))
    outage = model.is_outage(data)
    upsilon = model.power_of_rate(tuple(a[..., None] for a in data), rates)
    columns = [(k, col) for k in range(K) for col in enumerate_columns(M, L)]
    blocks = []                 # (column, user, π, cell) per live cell
    for c, (k, col) in enumerate(columns):
        prob = column_prob(grid, k, col)
        blocks += [(c, m, prob, (m, k, col[m] - 1)) for m in range(M)
                   if not outage[m, k, col[m] - 1]]
    # one block of J variables per live cell, one budget row per column,
    # then one rate row per user
    cost = np.empty(len(blocks) * J)
    a_ub = np.zeros((len(columns) + M, len(blocks) * J))
    for b, (c, m, prob, cell) in enumerate(blocks):
        span = slice(b * J, (b + 1) * J)
        cost[span] = problem.mu[m] * prob * upsilon[cell]
        a_ub[c, span] = 1.0
        a_ub[len(columns) + m, span] = -prob * rates
    b_ub = np.concatenate([np.ones(len(columns)), -problem.targets])
    res = linprog(cost, A_ub=a_ub, b_ub=b_ub, bounds=(0, None),
                  method="highs")
    assert res.status == 0, res.message
    return float(res.fun)


# --- solver verdicts ------------------------------------------------------------

def multiplier_settled(traj) -> bool:
    """Whether the multiplier trace stopped moving.

    The hard-dual baseline hovers in the primal forever, so no iterate
    serves the targets and the run is judged on a step-weighted average
    (solver.run_offline_nonsmooth); dual convergence is judged on the
    trace: per user, the λ spread over the trailing 10% of the iteration
    range, relative to the mean |λ| there, must stay below 1%.
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
