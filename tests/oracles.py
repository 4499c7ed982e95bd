"""Per-column re-statements of the paper's definitions, used as test oracles.

Each function evaluates one channel column (or one probability) the slow,
literal way; the tests check the vectorized library paths against them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from qcsched.allocator import (DEFAULT_RATE_CAP, DEFAULT_TIE_RTOL,
                               RateCostTables, build_tables, smooth_weights)
from qcsched.dual import block_allocation
from qcsched.quantizer import QuantizerGrid


# --- winner sets and per-column schedules -------------------------------------

def _col_costs(tables: RateCostTables, col, k: int) -> np.ndarray:
    col0 = np.asarray(col, dtype=int) - 1
    M = tables.cost.shape[0]
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
    served_rate, _, _ = block_allocation(tables, mult, qcsi_block, eps)
    return mult.targets - served_rate
