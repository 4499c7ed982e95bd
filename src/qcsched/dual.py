"""Dual function, smooth dual, exact and stochastic subgradients.

The dual value at λ decomposes per channel over the (column, channel) space:
D(λ) = Σ_m λ_m·ř_m + Σ_k Σ_j Pr{[J]_k = j}·(served cost of column j on k),
where the served cost is min(0, c*) under the hard winner-takes-all rule and
Σ_{m∈M^s} C_W·w^s under the ε-smooth rule. The subgradient entry m is
ř_m - (average rate served to m). By construction every evaluation satisfies
value = avg_power + λ·subgradient, which the tests exploit as an internal
consistency check.

Only the per-channel column space (L^M, never L^{K·M}) is ever enumerated.
Summations use numpy's pairwise reduction in a fixed order, so results are
deterministic regardless of any outer parallelism.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import quantizer as qz
from .allocator import (DEFAULT_RATE_CAP, Multipliers, RateCostTables,
                        build_tables, gather_columns, smooth_weights,
                        take_regions)
from .powerrate import PowerRate
from .quantizer import QuantizerGrid


@dataclass(frozen=True)
class DualEvaluation:
    """value = Σλř + served cost; subgradient_m = ř_m - per_user_avg_rate_m;
    avg_power is the served weighted power Σ μ_m·E[Υ(R*)·w]."""

    value: float
    subgradient: np.ndarray
    per_user_avg_rate: np.ndarray
    avg_power: float


def exact_dual(model: PowerRate, grid: QuantizerGrid, mult: Multipliers,
               mode: str = "smooth", eps: float = 0.05,
               rate_cap: float = DEFAULT_RATE_CAP,
               budget: int = qz.DEFAULT_ENUM_BUDGET,
               space=None, static: tuple | None = None,
               tables: RateCostTables | None = None) -> DualEvaluation:
    """Ensemble dual evaluation via per-channel enumeration, O(K·L^M·M).

    mode "hard" serves the cost minimizer when c* < 0 (ties broken to the
    lowest user index — the hard subgradient is set-valued at exact ties and
    this picks one selection); mode "smooth" serves the ε-smooth weights.
    ``space`` (column_space), ``static`` (allocator.make_static: the
    family's per-region cell data) and ``tables`` are reused when given.
    """
    if mode not in ("hard", "smooth"):
        raise ValueError("mode must be 'hard' or 'smooth'")
    if space is None:
        space = qz.column_space(grid, budget)
    cols0, probs = space
    if tables is None:
        tables = build_tables(model, grid, mult, rate_cap, static)
    cost, rate = gather_columns(cols0, tables.cost, tables.rate)  # (K, C, M)
    wpow = cost + mult.lambda_r[None, None, :] * rate          # μΥ(R*)
    if mode == "smooth":
        w = smooth_weights(cost, eps)
    else:
        cstar = cost.min(axis=2, keepdims=True)
        w = np.zeros_like(cost)
        winner = cost.argmin(axis=2)
        kk, cc = np.meshgrid(np.arange(cost.shape[0]), np.arange(cost.shape[1]),
                             indexing="ij")
        w[kk, cc, winner] = 1.0
        w *= cstar < 0.0
    served_rate = np.sum(rate * w * probs[:, :, None], axis=(0, 1))
    served_cost = float(np.sum(cost * w * probs[:, :, None]))
    served_power = float(np.sum(wpow * w * probs[:, :, None]))
    value = float(mult.lambda_r @ mult.targets) + served_cost
    return DualEvaluation(value=value,
                          subgradient=mult.targets - served_rate,
                          per_user_avg_rate=served_rate,
                          avg_power=served_power)


def block_allocation(tables: RateCostTables, mult: Multipliers, qcsi,
                     eps: float):
    """Smooth allocation for one realized Q-CSI matrix (M, K), 1-based.

    ``tables`` either span every region, (M, K, L), and are read at
    ``qcsi``, or were built on this block's cells alone, (M, K).
    Returns (served_rate (M,), weighted_power, served_cost).
    """
    j0 = np.asarray(qcsi, dtype=int) - 1
    cost, rate = tables.cost, tables.rate
    if cost.shape != j0.shape:
        cost, rate = take_regions(cost, j0), take_regions(rate, j0)
    cost, rate = cost.T, rate.T                   # (K, M)
    w = smooth_weights(cost, eps)
    served_rate = (rate * w).sum(axis=0)
    served_cost = float((cost * w).sum())
    weighted_power = served_cost + float(mult.lambda_r @ served_rate)
    return served_rate, weighted_power, served_cost


def stochastic_subgradient(model: PowerRate, grid: QuantizerGrid,
                           mult: Multipliers, qcsi_block, eps: float = 0.05,
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


def jacobian_check(model: PowerRate, grid: QuantizerGrid, mult: Multipliers,
                   eps: float = 0.05, h=None,
                   rate_cap: float = DEFAULT_RATE_CAP,
                   budget: int = qz.DEFAULT_ENUM_BUDGET):
    """Central-difference Jacobian of the smooth subgradient in λ.

    Returns (jacobian, report) with the symmetric-part eigenvalues and the
    largest |entry|; at interior multipliers (every user active) the
    symmetric part should be negative definite with bounded eigenvalues.
    """
    M = mult.num_users
    lam0 = mult.lambda_r.astype(float)
    if h is None:
        h = 1e-5 * (1.0 + np.abs(lam0))
    h = np.broadcast_to(np.asarray(h, dtype=float), (M,))
    space = qz.column_space(grid, budget)
    static = None
    J = np.zeros((M, M))
    for j in range(M):
        for sgn, w in ((1.0, 1.0), (-1.0, -1.0)):
            lam = lam0.copy()
            lam[j] += sgn * h[j]
            ev = exact_dual(model, grid, mult.with_lambda(np.maximum(lam, 0.0)),
                            "smooth", eps, rate_cap, budget, space, static)
            J[:, j] += w * ev.subgradient / (2.0 * h[j])
    sym = 0.5 * (J + J.T)
    eig = np.linalg.eigvalsh(sym)
    report = {
        "symmetric_eigenvalues": eig,
        "max_abs_entry": float(np.max(np.abs(J))),
        "negative_definite": bool(np.all(eig < 0.0)),
    }
    return J, report
