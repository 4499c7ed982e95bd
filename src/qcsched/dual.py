"""Dual function, smooth dual, exact and stochastic subgradients.

The dual value at λ decomposes per channel over the (column, channel) space:
D(λ) = Σ_m λ_m·ř_m + Σ_k Σ_j Pr{[J]_k = j}·(served cost of column j on k),
where the served cost is min(0, c*) under the hard winner-takes-all rule and
Σ_{m∈M^s} C_W·w^s under the ε-smooth rule. The subgradient entry m is
ř_m - (average rate served to m). By construction every evaluation satisfies
value = avg_power + λ·subgradient, which the tests exploit as an internal
consistency check.

Only the per-channel column space (L^M, never L^{K·M}) is ever enumerated,
and only once per class of identical channels (quantizer.column_space):
channels with the same ladders and mean gains give the same term, so one
representative carries the class's summed probabilities. Summations use
numpy's pairwise reduction in a fixed order, so results are deterministic
regardless of any outer parallelism.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import quantizer as qz
from .allocator import (DEFAULT_RATE_CAP, Multipliers, RateCostTables,
                        build_tables, gather_columns, make_static,
                        smooth_weights, take_regions)
from .powerrate import PowerRate
from .quantizer import QuantizerGrid

_JAC_CHUNK = 2 ** 15    # column entries (channels × columns × users) per chunk


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
    """Ensemble dual evaluation by enumeration, O(n_classes·L^M·M).

    mode "hard" serves the cost minimizer when c* < 0 (ties broken to the
    lowest user index — the hard subgradient is set-valued at exact ties and
    this picks one selection); mode "smooth" serves the ε-smooth weights.
    ``space`` (column_space: columns, class probabilities and the
    representative channels whose tables are read), ``static``
    (allocator.make_static: the family's per-region cell data) and
    ``tables`` are reused when given.
    """
    if mode not in ("hard", "smooth"):
        raise ValueError("mode must be 'hard' or 'smooth'")
    if space is None:
        space = qz.column_space(grid, budget)
    cols0, probs, channels = space
    if tables is None:
        tables = build_tables(model, grid, mult, rate_cap, static)
    cost, rate = gather_columns(cols0, tables.cost[:, channels],
                                tables.rate[:, channels])           # (n, C, M)
    wpow = cost + mult.lambda_r[None, None, :] * rate          # μΥ(R*)
    if mode == "smooth":
        w = smooth_weights(cost, eps)
    else:                                   # one-hot on the argmin
        w = ((np.arange(mult.num_users) == cost.argmin(axis=2)[:, :, None])
             & (cost.min(axis=2, keepdims=True) < 0.0))
    served_rate = np.sum(rate * w * probs[:, :, None], axis=(0, 1))
    served_cost = float(np.sum(cost * w * probs[:, :, None]))
    served_power = float(np.sum(wpow * w * probs[:, :, None]))
    value = float(mult.lambda_r @ mult.targets) + served_cost
    return DualEvaluation(value=value,
                          subgradient=mult.targets - served_rate,
                          per_user_avg_rate=served_rate,
                          avg_power=served_power)


def smooth_jacobian(model: PowerRate, grid: QuantizerGrid, mult: Multipliers,
                    eps: float = 0.05, rate_cap: float = DEFAULT_RATE_CAP,
                    space=None, static: tuple | None = None,
                    tables: RateCostTables | None = None) -> np.ndarray:
    """Analytic Jacobian ∂g/∂λ (M, M) of the smooth subgradient g = ř - r̄.

    By the envelope theorem ∂C_n/∂λ_n = -R*_n. Per (channel, column) let
    d = C - c*, s = argmin C, and on the ε-window a = (1 - d/ε)², Z = Σa,
    w = a/Z, b = -2(1 - d/ε)/(εZ), A = Σb; then
    ∂r̄_m/∂λ_n = Σ p·[δ_mn(w_m·R'_m - b_m·r_m²) + w_m·r_m·b_n·r_n
                       - r_m·(w_m·A - b_m)·[s = n]·r_n],
    with R' = ∂R*/∂λ from the family's ``rate_slope``, summed by einsum (BLAS
    buffers would grow a small run's peak RSS) over chunks of at most
    _JAC_CHUNK column entries of the space's representative channels.
    Arguments are those of exact_dual."""
    cols0, probs, channels = qz.column_space(grid) if space is None else space
    static = make_static(grid, model) if static is None else static
    if tables is None:
        tables = build_tables(model, grid, mult, rate_cap, static)
    M, mu = mult.num_users, mult.mu[:, None, None]
    cost_k, rate_k, power_k = (t[:, channels] for t in
                               (tables.cost, tables.rate, tables.power))
    rprime = model.rate_slope(tuple(a[:, channels] for a in static),
                              mult.lambda_r[:, None, None] / mu,
                              rate_k, power_k, rate_cap) / mu
    diag, jac = np.zeros(M), np.zeros((M, M))
    step = max(1, _JAC_CHUNK // cols0.size)
    for k0 in range(0, len(channels), step):
        part = slice(k0, k0 + step)
        cost, rate, rp = gather_columns(cols0, cost_k[:, part],
                                        rate_k[:, part], rprime[:, part])
        p = probs[part, :, None]
        cstar = cost.min(axis=2, keepdims=True)
        d = cost - cstar
        win = (d < eps) & (cstar < 0.0)
        u = np.where(win, 1.0 - d / eps, 0.0)
        z = np.sum(u * u, axis=2, keepdims=True)
        z[z == 0.0] = np.inf                        # idle columns: w = b = 0
        w, b = u * u / z, -2.0 * u / (eps * z)
        pr = p * rate
        diag += np.sum(p * w * rp - pr * b * rate, axis=(0, 1))
        mixed = pr * (w * b.sum(axis=2, keepdims=True) - b)
        at_min = np.where(np.arange(M) == cost.argmin(axis=2)[:, :, None],
                          rate, 0.0)                # [s = n]·r_n
        jac += (np.einsum("kcm,kcn->mn", pr * w, b * rate)
                - np.einsum("kcm,kcn->mn", mixed, at_min))
    return -(jac + np.diag(diag))


def block_allocation(tables: RateCostTables, mult: Multipliers, qcsi,
                     eps: float):
    """Smooth allocation for realized Q-CSI, 1-based: one block's (M, K)
    matrix or an (N, M, K) stack of N blocks.

    ``tables`` either span every region, (M, K, L), and are read at
    ``qcsi``, or were built on one block's cells alone, (M, K).
    Returns (served_rate (M,), weighted_power, served_cost), summed over
    the blocks of a stack.
    """
    j0 = np.asarray(qcsi, dtype=int) - 1
    cost, rate = tables.cost, tables.rate
    if cost.shape != j0.shape:
        cost, rate = take_regions(cost, j0), take_regions(rate, j0)
    cost, rate = cost.swapaxes(-1, -2), rate.swapaxes(-1, -2)   # (..., K, M)
    w = smooth_weights(cost, eps)
    served_rate = (rate * w).sum(axis=-2)
    if served_rate.ndim == 2:                     # (N, M): sum the blocks
        served_rate = served_rate.sum(axis=0)
    served_cost = float((cost * w).sum())
    weighted_power = served_cost + float(mult.lambda_r @ served_rate)
    return served_rate, weighted_power, served_cost
