"""Per-realization primal policies: rate loading, winner sets, scheduling.

Given multipliers λ the optimal rate in region l of (m, k) is
R* = Υ̇⁻¹(λ_m/μ_m), clipped to [0, rate_cap], and the cost of granting the
channel is C_W = μ_m·Υ(R*) - λ_m·R*. The family's one hook, ``allocation`` on
its ``cell_data``, gives R* and Υ(R*) whatever the shape of Υ. On each
channel the hard (winner-takes-all) rule serves the cost minimizer when that
minimum is negative; the smooth rule shares the channel among every user
within ε of the minimum with weights proportional to (1 - (C_W - c*)/ε)².
Exact cost ties under the hard rule are resolved globally by a small linear
program over the tie instances.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import quantizer as qz
from .powerrate import PowerRate, region_contexts
from .quantizer import QuantizerGrid
from .simplex import LPInfeasibleError, solve_lp

DEFAULT_RATE_CAP = 12.0     # bits/symbol; hardware ceiling for Υ̇⁻¹
DEFAULT_TIE_RTOL = 1e-9     # relative cost gap treated as an exact tie


class TieInfeasibleError(Exception):
    """The tie LP has no solution: λ is not at the tie-consistent point."""


@dataclass(frozen=True)
class Multipliers:
    """Rate prices λ ≥ 0, priority weights μ > 0, rate targets ř ≥ 0."""

    lambda_r: np.ndarray
    mu: np.ndarray
    targets: np.ndarray

    def __post_init__(self):
        lam = np.asarray(self.lambda_r, dtype=float)
        mu = np.asarray(self.mu, dtype=float)
        tgt = np.asarray(self.targets, dtype=float)
        if not (lam.shape == mu.shape == tgt.shape) or lam.ndim != 1:
            raise ValueError("lambda_r, mu, targets must share shape (M,)")
        # array methods: this runs once per online block
        if (lam < 0).any() or not np.isfinite(lam).all():
            raise ValueError("lambda_r must be finite and nonnegative")
        if (mu <= 0).any():
            raise ValueError("mu must be strictly positive")
        if (tgt < 0).any():
            raise ValueError("targets must be nonnegative")
        object.__setattr__(self, "lambda_r", lam)
        object.__setattr__(self, "mu", mu)
        object.__setattr__(self, "targets", tgt)

    @property
    def num_users(self) -> int:
        return self.lambda_r.shape[0]

    def with_lambda(self, lam) -> "Multipliers":
        return Multipliers(np.asarray(lam, dtype=float), self.mu, self.targets)


def make_static(grid: QuantizerGrid, model: PowerRate) -> tuple:
    """The family's λ-independent data for every (M, K, L) region of the
    grid (PowerRate.cell_data), cached across multiplier updates."""
    return model.cell_data(region_contexts(grid))


def take_regions(table: np.ndarray, j0) -> np.ndarray:
    """table[m, k, j0[..., m, k]] for an (M, K, L) table and 0-based region
    indices j0 of shape (..., M, K); the result has j0's shape."""
    M, K, L = table.shape
    if np.shape(j0)[-2:] != (M, K) or np.min(j0) < 0 or np.max(j0) >= L:
        raise IndexError("region indices must be in range, shape (..., M, K)")
    cell = np.arange(0, M * K * L, L).reshape(M, K)
    return np.ravel(table).take(cell + j0)


def block_statics(static: tuple, j0) -> list:
    """The static data of each block's cells, one tuple of (M, K) arrays per
    block of the 0-based Q-CSI stack j0 (N, M, K). Gathers once for all N."""
    return list(zip(*(take_regions(a, j0) for a in static)))


@dataclass(frozen=True)
class RateCostTables:
    """Per-cell optimal rates/powers/costs for one λ; shapes follow the
    static data they were built from, (M, K, L) or (M, K)."""

    rate: np.ndarray
    power: np.ndarray               # Υ(R*), unweighted
    cost: np.ndarray                # μΥ(R*) - λR*
    rate_cap: float

    @property
    def num_users(self) -> int:
        return self.rate.shape[0]


def build_tables(model: PowerRate, grid: QuantizerGrid, mult: Multipliers,
                 rate_cap: float = DEFAULT_RATE_CAP,
                 static: tuple | None = None) -> RateCostTables:
    """Evaluate R*, Υ(R*) and C_W on every cell of ``static`` for the given λ.

    ``static`` defaults to every region of the grid (make_static), giving
    (M, K, L) tables; the (M, K) static data of one block's cells
    (block_statics) gives that block's tables alone.
    """
    if static is None:
        static = make_static(grid, model)
    user_axis = (-1,) + (1,) * (static[0].ndim - 1)
    lam = mult.lambda_r.reshape(user_axis)
    mu = mult.mu.reshape(user_axis)
    rate, power = model.allocation(static, lam / mu, rate_cap)
    cost = mu * power - lam * rate          # exactly 0 wherever rate == 0
    return RateCostTables(rate=rate, power=power, cost=cost, rate_cap=rate_cap)


def gather_columns(cols0, *tables) -> tuple:
    """Each (M, K, L) table read at every column of a channel's column space:
    the (K, C, M) arrays table[m, k, cols0[c, m]] for 0-based columns
    cols0 (C, M)."""
    midx = np.arange(cols0.shape[1])
    return tuple(t.transpose(1, 2, 0)[:, cols0, midx] for t in tables)


def _col_costs(tables: RateCostTables, col, k: int) -> np.ndarray:
    col0 = np.asarray(col, dtype=int) - 1
    M = tables.num_users
    if col0.shape != (M,) or np.any(col0 < 0) or np.any(col0 >= tables.cost.shape[2]):
        raise ValueError("column must hold one in-range region index per user")
    return tables.cost[np.arange(M), k, col0]


def winner_sets(tables: RateCostTables, col, k: int, eps: float,
                tie_rtol: float = DEFAULT_TIE_RTOL):
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
                  tie_rtol: float = DEFAULT_TIE_RTOL) -> ScheduleColumn:
    """Winner-takes-all column: indicator of the unique minimizer, all-zero
    when idle, or a tie marker when several users attain the minimum."""
    hard, _, cstar = winner_sets(tables, col, k, eps=np.inf, tie_rtol=tie_rtol)
    M = tables.num_users
    w = np.zeros(M)
    if len(hard) == 1:
        w[hard[0]] = 1.0
        return ScheduleColumn(weights=w)
    if len(hard) == 0:
        return ScheduleColumn(weights=w)
    return ScheduleColumn(weights=w, tie_members=hard)


def smooth_weights(costs: np.ndarray, eps: float) -> np.ndarray:
    """Vectorized ε-smooth sharing over the last axis of a cost array."""
    costs = np.asarray(costs, dtype=float)
    cstar = costs.min(axis=-1, keepdims=True)
    diff = costs - cstar
    raw = np.where((diff < eps) & (cstar < 0.0), (1.0 - diff / eps) ** 2, 0.0)
    z = raw.sum(axis=-1, keepdims=True)
    return np.divide(raw, z, out=np.zeros_like(raw), where=z > 0.0)


def smooth_schedule(tables: RateCostTables, col, k: int,
                    eps: float) -> ScheduleColumn:
    """ε-smooth sharing: weights ∝ (1-(C_W-c*)/ε)² over the smooth set."""
    if eps <= 0:
        raise ValueError("eps must be positive")
    return ScheduleColumn(weights=smooth_weights(_col_costs(tables, col, k), eps))


@dataclass(frozen=True)
class TieInstance:
    """One (column, channel) cell where the hard minimum is attained by
    several users; probability is the column's probability on that channel."""

    prob: float
    channel: int
    column: np.ndarray              # 1-based region indices, for reporting
    members: np.ndarray             # tied user indices
    rates: np.ndarray               # R* of each member
    weighted_powers: np.ndarray     # μ_m·Υ(R*) of each member


def find_tie_instances(grid: QuantizerGrid, model: PowerRate,
                       mult: Multipliers,
                       tables: RateCostTables | None = None,
                       rate_cap: float = DEFAULT_RATE_CAP,
                       budget: int = qz.DEFAULT_ENUM_BUDGET,
                       tie_rtol: float = DEFAULT_TIE_RTOL):
    """Enumerate the column space, splitting cells into single-winner mass
    (accumulated into r̄_one) and tie instances.

    Returns (instances, r_bar_one); ř_tie = ř - r̄_one feeds solve_tie_lp.
    """
    if tables is None:
        tables = build_tables(model, grid, mult, rate_cap)
    cols0, probs = qz.column_space(grid, budget)
    costs, rates, wpow = gather_columns(          # (K, C, M) each
        cols0, tables.cost, tables.rate,
        tables.power * mult.mu[:, None, None])
    cstar = costs.min(axis=2)                  # (K, C)
    tol = tie_rtol * np.maximum(1.0, np.abs(cstar))
    member_mask = costs <= (cstar + tol)[:, :, None]
    n_members = member_mask.sum(axis=2)
    active = cstar < 0.0
    single = active & (n_members == 1)
    tied = active & (n_members > 1)

    # single-winner average rates (tie cells excluded by construction)
    served = np.where(single[:, :, None] & member_mask, rates, 0.0)
    r_bar_one = (served * probs[:, :, None]).sum(axis=(0, 1))

    instances = []
    for k, c in zip(*np.nonzero(tied)):
        members = np.flatnonzero(member_mask[k, c])
        instances.append(TieInstance(
            prob=float(probs[k, c]), channel=int(k),
            column=cols0[c] + 1, members=members,
            rates=rates[k, c, members].copy(),
            weighted_powers=wpow[k, c, members].copy()))
    return instances, r_bar_one


@dataclass(frozen=True)
class TieSolution:
    weights: list                   # one array per instance, aligned
    r_tie: np.ndarray
    objective: float


def solve_tie_lp(mult: Multipliers, instances, r_bar_one,
                 feas_tol: float = 1e-9) -> TieSolution:
    """Share each tied channel so the residual rate targets are met exactly.

    min Σ prob·μΥ(R*)·w  s.t.  Σ_instances prob·R*·w = ř_tie per user,
    Σ_members w = 1 per instance, w ≥ 0. Users appearing in no instance must
    have ř_tie ≈ 0 (their row is dropped); otherwise the targets are
    unreachable and a TieInfeasibleError is raised, as it is when the LP
    itself has no feasible point (λ is not at the tie-consistent multiplier).
    """
    r_tie = mult.targets - np.asarray(r_bar_one, dtype=float)
    M = mult.num_users
    nvar = sum(len(t.members) for t in instances)
    if nvar == 0:
        bad = np.flatnonzero(np.abs(r_tie) > feas_tol)
        if len(bad):
            raise TieInfeasibleError(
                f"no tie instances but residual targets remain for users {bad.tolist()}")
        return TieSolution(weights=[], r_tie=r_tie, objective=0.0)

    offsets = np.cumsum([0] + [len(t.members) for t in instances])
    present = np.zeros(M, dtype=bool)
    for t in instances:
        present[t.members] = True
    bad = np.flatnonzero(~present & (np.abs(r_tie) > feas_tol))
    if len(bad):
        raise TieInfeasibleError(
            f"users {bad.tolist()} have nonzero residual targets but appear "
            f"in no tie instance")

    rows_u = np.flatnonzero(present)
    A = np.zeros((len(rows_u) + len(instances), nvar))
    b = np.zeros(len(rows_u) + len(instances))
    cvec = np.zeros(nvar)
    row_of_user = {int(m): i for i, m in enumerate(rows_u)}
    for ti, t in enumerate(instances):
        sl = slice(offsets[ti], offsets[ti + 1])
        cvec[sl] = t.prob * t.weighted_powers
        A[len(rows_u) + ti, sl] = 1.0
        b[len(rows_u) + ti] = 1.0
        for j, m in enumerate(t.members):
            A[row_of_user[int(m)], offsets[ti] + j] = t.prob * t.rates[j]
    b[:len(rows_u)] = r_tie[rows_u]
    if np.any(b[:len(rows_u)] < -feas_tol):
        raise TieInfeasibleError(
            "single-winner rates already exceed a target; λ is past the "
            "tie-consistent point")
    try:
        x, obj = solve_lp(cvec, A, np.maximum(b, 0.0))
    except LPInfeasibleError as e:
        raise TieInfeasibleError(str(e)) from e
    weights = [x[offsets[i]:offsets[i + 1]] for i in range(len(instances))]
    return TieSolution(weights=weights, r_tie=r_tie, objective=obj)
