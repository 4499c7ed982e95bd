"""The allocation Problem and its dual: exact evaluations, the smooth
Jacobian, and the smooth allocation of realized blocks.

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
representative carries the class's summed probabilities. A Problem caches
that column space and the family's cell data at the representatives, and
Problem.evaluate is the one offline evaluation: it builds the tables on
those cells, gathers the (cost, rate) columns once, and derives the value,
the subgradient and, on request, the smooth Jacobian from them. Summations
use numpy's pairwise reduction in a fixed order, so results are
deterministic regardless of any outer parallelism.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, partial
from typing import Callable

import numpy as np

from . import quantizer as qz
from .allocator import (DEFAULT_RATE_CAP, Multipliers, RateCostTables,
                        build_tables, check_targets, gather_columns,
                        make_static, smooth_weights, take_regions)
from .channel import FadingModel
from .powerrate import PowerRate
from .quantizer import QuantizerGrid

_JAC_CHUNK = 2 ** 15    # column entries (channels × columns × users) per chunk


@dataclass(frozen=True)
class DualEvaluation:
    """value = Σλř + served cost; subgradient_m = ř_m - per_user_avg_rate_m;
    avg_power is the served weighted power Σ μ_m·E[Υ(R*)·w]. In smooth
    mode ``jacobian()`` returns ∂g/∂λ (M, M) from this evaluation's tables
    and gathered columns (Problem.evaluate); in hard mode it is None."""

    value: float
    subgradient: np.ndarray
    per_user_avg_rate: np.ndarray
    avg_power: float
    jacobian: Callable[[], np.ndarray] | None = field(
        default=None, repr=False, compare=False)


@dataclass
class Problem:
    """One allocation instance: quantized channels, Υ family, weights/targets,
    and the offline evaluator of its dual.

    ``fading`` is only needed by the online path (it is sampled); offline
    evaluations work entirely from the grid's region probabilities. ``space``
    and ``static`` are computed on first use and kept.
    """

    grid: QuantizerGrid
    model: PowerRate
    mu: np.ndarray
    targets: np.ndarray
    fading: FadingModel | None = None
    rate_cap: float = DEFAULT_RATE_CAP
    enum_budget: int = qz.DEFAULT_ENUM_BUDGET

    def __post_init__(self):
        self.mu = np.asarray(self.mu, dtype=float)
        self.targets = np.asarray(self.targets, dtype=float)
        M = self.grid.num_users
        if self.mu.shape != (M,) or self.targets.shape != (M,):
            raise ValueError("mu and targets must have shape (M,)")
        self._checked = False

    @property
    def num_users(self) -> int:
        return self.grid.num_users

    def multipliers(self, lam) -> Multipliers:
        return Multipliers(np.asarray(lam, dtype=float), self.mu, self.targets)

    @cached_property
    def space(self):
        """quantizer.column_space: the columns, each class's column
        probabilities and the classes' representative channels."""
        return qz.column_space(self.grid, self.enum_budget)

    @cached_property
    def static(self) -> tuple:
        """The family's cell data (allocator.make_static) at the space's
        representative channels, (M, n_classes, L) each: the only cells an
        offline evaluation reads."""
        channels = self.space[2]
        return tuple(a[:, channels]
                     for a in make_static(self.grid, self.model))

    def check_targets(self) -> None:
        """allocator.check_targets, once per Problem: raises
        InfeasibleTargetsError naming a user subset no allocation serves."""
        if not self._checked:
            check_targets(self.grid, self.model, self.targets, self.rate_cap)
            self._checked = True

    def evaluate(self, lam, mode: str = "smooth",
                 eps: float = 0.05) -> DualEvaluation:
        """Ensemble dual evaluation at λ by enumeration, O(n_classes·L^M·M).

        mode "hard" serves the cost minimizer when c* < 0 (ties broken to the
        lowest user index — the hard subgradient is set-valued at exact ties
        and this picks one selection); mode "smooth" serves the ε-smooth
        weights. The tables are built on the representative cells only and
        the (cost, rate) columns gathered once; the smooth Jacobian reuses
        both, and is computed only when ``jacobian()`` is called.
        """
        if mode not in ("hard", "smooth"):
            raise ValueError("mode must be 'hard' or 'smooth'")
        mult = self.multipliers(lam)
        cols0, probs, _ = self.space
        tables = build_tables(self.model, self.grid, mult, self.rate_cap,
                              self.static)
        cost, rate = gather_columns(                            # (n, C, M)
            cols0, tables.cost, tables.rate)
        wpow = cost + mult.lambda_r[None, None, :] * rate          # μΥ(R*)
        jacobian = None
        if mode == "smooth":
            w = smooth_weights(cost, eps)
            jacobian = partial(self._jacobian, mult, tables, cost, rate, eps)
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
                              avg_power=served_power, jacobian=jacobian)

    def _jacobian(self, mult: Multipliers, tables: RateCostTables,
                  cost_all: np.ndarray, rate_all: np.ndarray,
                  eps: float) -> np.ndarray:
        """Analytic Jacobian ∂g/∂λ (M, M) of the smooth subgradient
        g = ř - r̄, from one evaluation's tables and gathered columns.

        By the envelope theorem ∂C_n/∂λ_n = -R*_n. Per (class, column) let
        d = C - c*, s = argmin C, and on the ε-window a = (1 - d/ε)²,
        Z = Σa, w = a/Z, b = -2(1 - d/ε)/(εZ), A = Σb; then
        ∂r̄_m/∂λ_n = Σ p·[δ_mn(w_m·R'_m - b_m·r_m²) + w_m·r_m·b_n·r_n
                           - r_m·(w_m·A - b_m)·[s = n]·r_n],
        with R' = ∂R*/∂λ from the family's ``rate_slope``, summed by einsum
        (BLAS buffers would grow a small run's peak RSS) over chunks of at
        most _JAC_CHUNK column entries."""
        cols0, probs, _ = self.space
        M, mu = mult.num_users, mult.mu[:, None, None]
        rprime = self.model.rate_slope(self.static,
                                       mult.lambda_r[:, None, None] / mu,
                                       tables.rate, tables.power,
                                       self.rate_cap) / mu
        (rp_all,) = gather_columns(cols0, rprime)
        diag, jac = np.zeros(M), np.zeros((M, M))
        step = max(1, _JAC_CHUNK // cols0.size)
        for k0 in range(0, len(probs), step):
            part = slice(k0, k0 + step)
            cost, rate, rp = cost_all[part], rate_all[part], rp_all[part]
            p = probs[part, :, None]
            cstar = cost.min(axis=2, keepdims=True)
            d = cost - cstar
            win = (d < eps) & (cstar < 0.0)
            u = np.where(win, 1.0 - d / eps, 0.0)
            z = np.sum(u * u, axis=2, keepdims=True)
            z[z == 0.0] = np.inf                    # idle columns: w = b = 0
            w, b = u * u / z, -2.0 * u / (eps * z)
            pr = p * rate
            diag += np.sum(p * w * rp - pr * b * rate, axis=(0, 1))
            mixed = pr * (w * b.sum(axis=2, keepdims=True) - b)
            at_min = np.where(np.arange(M) == cost.argmin(axis=2)[:, :, None],
                              rate, 0.0)            # [s = n]·r_n
            jac += (np.einsum("kcm,kcn->mn", pr * w, b * rate)
                    - np.einsum("kcm,kcn->mn", mixed, at_min))
        return -(jac + np.diag(diag))


def exact_dual(model: PowerRate, grid: QuantizerGrid, mult: Multipliers,
               mode: str = "smooth", eps: float = 0.05,
               rate_cap: float = DEFAULT_RATE_CAP,
               budget: int = qz.DEFAULT_ENUM_BUDGET) -> DualEvaluation:
    """Problem.evaluate in one call, on a throwaway Problem for ``mult``'s
    weights and targets: the exact dual at ``mult.lambda_r``."""
    problem = Problem(grid, model, mult.mu, mult.targets, rate_cap=rate_cap,
                      enum_budget=budget)
    return problem.evaluate(mult.lambda_r, mode, eps)


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
