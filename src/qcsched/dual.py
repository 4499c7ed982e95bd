"""The allocation Problem and its dual: exact evaluations, the smooth
Jacobian, the perfect-CSI dual, and the smooth allocation of realized
blocks.

The dual value at λ decomposes per channel over the (column, channel) space:
D(λ) = Σ_m λ_m·ř_m + Σ_k Σ_j Pr{[J]_k = j}·(served cost of column j on k),
where the served cost is min(0, c*) under the hard winner-takes-all rule and
Σ_{m∈M^s} C_W·w^s under the ε-smooth rule. The subgradient entry m is
ř_m - (average rate served to m), a subgradient of the hard dual; under the
smooth rule it is the rate deficit, not a gradient. By construction every
evaluation satisfies value = avg_power + λ·subgradient, which the tests
exploit as an internal consistency check.

Every term is evaluated once per class of identical channels
(quantizer.channel_classes): channels with the same ladders and mean gains
give the same term, so one representative carries the class's weight. The
grid keeps the class data, which depends on neither λ, μ nor the targets,
built once for every Problem on it: the classes (QuantizerGrid.classes),
the sub-grid of their representatives (QuantizerGrid.class_grid), its
region probabilities and each family's cell data on it, (M, n_classes, L)
each and read-only. A Problem reads them: the column space, the online
blocks (serve_block: built on their own (M, K) cells and served in one
pass), mc_primal and RA5 read them, through the class map.
Problem.tables(λ), unchecked, is the one table build on those cells: the
cores and the tie search call it. Problem.evaluate is the one checked
offline evaluation: it checks the mode, ε and λ, then runs the mode's core,
serve_hard or serve_smooth, which builds the tables and serves them;
evaluate derives the value, the subgradient and, in smooth mode and on
request, the Jacobian. The solvers' loops call the cores directly. The
Problem keeps the λ-invariant data its own weights and budget decide: the
column space, μ in the class tables' shape and the hard rule's
size-weighted region probabilities.
Both cores and serve_block serve through one reduction, _served, which
overwrites the fresh weights it is given; block_allocation forms the same
(served rate, served cost, served power) in place on its stacks.

The hard rule needs no enumeration. Fading is independent across users, so
user m wins channel class c in region l with probability
p[m,c,l]·1{C[m,c,l] < 0}·Π_{n≠m} Pr{rival n does not beat C[m,c,l]}, each
factor a sum over the rival's L regions: O(n_classes·M²·L²) per evaluation.
The smooth weights couple every user of a column, so the smooth dual, its
Jacobian and the tie search enumerate the per-channel column space (L^M,
never L^{K·M}) once per class (quantizer.column_space), through one flat
index of the columns into the tables. The user axis leads: columns are
(M, J) rows, J = n_classes·L^M in (class, column) order, so c*, the
ε-window and Z are M - 1 operations on contiguous rows. Every sum over the
columns is a numpy reduction (ndarray.sum, or np.einsum without its BLAS
path), never a dot product or matmul, which a threaded BLAS may split over
J: results are deterministic whatever the thread count or any outer
parallelism, and agree with other summation orders to rounding.

PerfectCSI is the same evaluation when the scheduler knows the gains: no
quantizer, no enumeration, one Gauss–Legendre integral per user and
distinct mean-gain column.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cache, cached_property, partial
from typing import Callable

import numpy as np

from . import quantizer as qz
from .allocator import (DEFAULT_RATE_CAP, Multipliers, Prices,
                        RateCostTables, build_tables, check_lambda,
                        check_reach, check_weights, region_index,
                        smooth_weights, smooth_window)
from .channel import FadingModel
from .powerrate import _LN2, PowerRate, linear_allocation, linear_cells
from .quantizer import QuantizerGrid

_JAC_CHUNK = 2 ** 15    # column entries (classes × columns × users) per chunk
_HARD_CHUNK = 2 ** 15   # hard-rule comparisons (classes × M² × L²) per chunk
# PerfectCSI: Gauss–Legendre nodes per piece, the last piece's reach past the
# last split in mean gains, and the forward-difference step relative to λ_n
_GL_NODES, _TAIL_MEANS, _FD_STEP = 64, 40.0, 1e-7


@dataclass(frozen=True)
class DualEvaluation:
    """value = Σλř + served cost; subgradient_m = ř_m - per_user_avg_rate_m;
    avg_power is the served weighted power Σ μ_m·E[Υ(R*)·w]. In smooth
    mode ``jacobian()`` returns ∂g/∂λ (M, M) from this evaluation's tables,
    gathered columns and ε-window (Problem.evaluate); in hard mode it is
    None, except for PerfectCSI's differentiable hard dual."""

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
    evaluations work entirely from the grid's region probabilities. μ > 0,
    ř ≥ 0 and, with ``fading``, its mean gains equal to the grid's are
    checked at construction. ``classes``, ``static``, ``region_probs`` and
    ``columns``, and the λ-invariant data serve_hard and serve_smooth read,
    are computed on first use and kept; the first three are the grid's, built
    once for every Problem on it. Only the smooth dual and the tie search
    build ``columns``.
    """

    grid: QuantizerGrid
    model: PowerRate
    mu: np.ndarray
    targets: np.ndarray
    fading: FadingModel | None = None
    rate_cap: float = DEFAULT_RATE_CAP
    enum_budget: int = qz.DEFAULT_ENUM_BUDGET

    def __post_init__(self):
        self.mu, self.targets = check_weights(self.mu, self.targets,
                                              self.grid.num_users)
        if not (self.fading is None or np.array_equal(
                self.fading.mean_gain, self.grid.mean_gain)):
            raise ValueError("fading and grid mean gains differ")
        self._checked = False

    @property
    def num_users(self) -> int:
        return self.grid.num_users

    @cached_property
    def classes(self) -> tuple:
        """The grid's quantizer.channel_classes, which the grid computes
        once for quantize and every Problem on it: (channels, sizes, of),
        the representative channel and the size of each class, and the
        class of each channel."""
        return self.grid.classes

    @cached_property
    def _class_grid(self) -> QuantizerGrid:
        """The grid's QuantizerGrid.class_grid, on the classes'
        representative channels only: the only channels an offline
        evaluation or the target check reads."""
        return self.grid.class_grid

    @cached_property
    def static(self) -> np.ndarray:
        """The family's cell data on the classes' representative channels,
        its arrays (M, n_classes, L) stacked on a leading axis, read-only:
        ``_class_grid``'s QuantizerGrid.cell_data, built once per grid and
        model."""
        return self._class_grid.cell_data(self.model)

    @cached_property
    def region_probs(self) -> np.ndarray:
        """The region probabilities of ``static``'s cells, (M, n_classes,
        L), each class's rows summing to 1, read-only: ``_class_grid``'s
        QuantizerGrid.region_probs."""
        return self._class_grid.region_probs

    @cached_property
    def columns(self) -> tuple:
        """quantizer.column_space on ``region_probs``: (index, probs), the
        flat index (M, J) of every (class, column) into tables on
        ``static``'s (M, n_classes, L) cells, in (class, column) order, and
        the column probabilities (J,) in that order, summed over each
        class's channels. EnumerationBudgetError past ``enum_budget``."""
        return qz.column_space(self.region_probs, self.classes[1],
                               self.enum_budget)

    def check_targets(self) -> None:
        """allocator.check_reach, once per Problem and on its cached
        ``static`` and ``region_probs``, each class weighted by its size:
        raises InfeasibleTargetsError naming a user subset no allocation
        serves."""
        if not self._checked:
            check_reach(self.model.is_outage(self.static), self.region_probs,
                        self.classes[1], self.targets, self.rate_cap)
            self._checked = True

    @cached_property
    def _mu_cells(self) -> np.ndarray:
        """μ in the class tables' user-axis shape, (M, 1, 1)."""
        return self.mu[:, None, None]

    def tables(self, lam: np.ndarray) -> RateCostTables:
        """build_tables on ``static``'s cells at a finite λ ≥ 0 (M,),
        unchecked, with λ and μ shaped as the tables' user axis."""
        return build_tables(self.model, self.grid,
                            Prices(lam[:, None, None], self._mu_cells),
                            self.rate_cap, self.static)

    @cached_property
    def _hard_weight(self) -> np.ndarray:
        """size_c·p[m,c,l], (M, n_classes, L): the weight of cell (m, c, l)
        summed over class c's channels, which the hard rule serves or not."""
        return self.classes[1][:, None] * self.region_probs

    def evaluate(self, lam, mode: str = "smooth",
                 eps: float = 0.05) -> DualEvaluation:
        """Ensemble dual evaluation at λ: checks the mode, ε and λ, then runs
        the mode's core, serve_hard or serve_smooth.

        mode "hard" serves the cost minimizer when c* < 0 (ties broken to the
        lowest user index — the hard subgradient is set-valued at exact ties
        and this picks one selection; it ignores ε).

        mode "smooth" serves the ε-smooth weights and raises ValueError
        unless 0 < ε < ∞. Its ``jacobian()`` reuses the core's tables,
        columns and ε-window, and is computed only when called.
        """
        if mode not in ("hard", "smooth"):
            raise ValueError("mode must be 'hard' or 'smooth'")
        if mode == "smooth" and not 0.0 < eps < np.inf:     # NaN fails too
            raise ValueError("smooth eps must be positive and finite")
        lam = check_lambda(lam, self.num_users)
        jacobian = None
        if mode == "hard":
            rate, cost, power = self.serve_hard(lam)
        else:
            rate, cost, power, parts = self.serve_smooth(lam, eps)
            jacobian = partial(self._jacobian, lam, *parts, eps)
        return DualEvaluation(value=float(lam @ self.targets) + cost,
                              subgradient=self.targets - rate,
                              per_user_avg_rate=rate, avg_power=power,
                              jacobian=jacobian)

    def serve_hard(self, lam: np.ndarray, tables=None) -> tuple:
        """The hard rule's (served rate (M,), served cost, served power) at
        λ, unchecked: a finite nonnegative float (M,) array, as evaluate
        or a solver leaves it; on ``tables``, if given, else tables(λ).

        It works on the (M, n_classes, L) tables in product form
        (_hard_wins), O(n_classes·M²·L²), and enumerates nothing: _served
        sums R·win and C·win over the cells."""
        tables = self.tables(lam) if tables is None else tables
        return _served(lam, tables.cost, tables.rate,
                       self._hard_wins(tables.cost))

    def serve_smooth(self, lam: np.ndarray, eps: float) -> tuple:
        """The ε-smooth rule's (served rate, served cost, served power,
        parts) at λ, unchecked as serve_hard's, for 0 < ε < ∞; ``parts``
        are the tables, (M, J) columns and ε-window that _jacobian reads.

        It enumerates, O(n_classes·L^M·M): cost and rate are each taken once
        through ``columns`` as user-major (M, J) arrays, and the weights
        reduce over the M user rows; _served takes the row sums of R·w·p
        and the sum of C·w·p."""
        tables = self.tables(lam)
        index, probs = self.columns
        cost, rate = tables.cost.take(index), tables.rate.take(index)
        u, cstar = smooth_window(cost, eps)
        w = u * u
        # an idle column (c* ≥ 0) has Z = ∞, so w = 0 there
        z = np.where(cstar < 0.0, w.sum(axis=0), np.inf)
        w /= z
        w *= probs
        return (*_served(lam, cost, rate, w), (tables, cost, rate, u, z))

    def _hard_wins(self, cost: np.ndarray) -> np.ndarray:
        """Pr{the hard rule serves cell (m, c, l)}, summed over class c's
        channels, from the (M, n_classes, L) costs: _hard_weight·
        1{C[m,c,l] < 0}·_unbeaten, over chunks of whole classes of at most
        _HARD_CHUNK comparisons."""
        probs = self.region_probs
        M, n, L = cost.shape
        wins = np.where(cost < 0.0, self._hard_weight, 0.0)
        step = max(1, _HARD_CHUNK // (M * M * L * L))
        for c0 in range(0, n, step):
            part = slice(c0, c0 + step)
            wins[:, part] *= _unbeaten(cost[:, part], probs[:, part])
        return wins

    def _jacobian(self, lam: np.ndarray, tables: RateCostTables,
                  cost_all: np.ndarray, rate_all: np.ndarray,
                  u_all: np.ndarray, z_all: np.ndarray,
                  eps: float) -> np.ndarray:
        """Analytic Jacobian ∂g/∂λ (M, M), not symmetric, of the smooth rate
        deficit g = ř - r̄, from one evaluation's tables, (M, J) columns and
        ε-window u with its (J,) sums Z.

        By the envelope theorem ∂C_n/∂λ_n = -R*_n. Per column let
        d = C - c*, s = argmin C, and on the ε-window a = (1 - d/ε)²,
        Z = Σa, w = a/Z, b = -2(1 - d/ε)/(εZ), A = Σb; then
        ∂r̄_m/∂λ_n = Σ p·[δ_mn(w_m·R'_m - b_m·r_m²) + w_m·r_m·b_n·r_n
                           - r_m·(w_m·A - b_m)·[s = n]·r_n],
        with R' = ∂R*/∂λ from the family's ``rate_slope``. Over chunks of
        whole classes of at most _JAC_CHUNK column entries, the δ_mn term
        is a row sum and the two cross terms are (M, J)·(J, M) einsum
        contractions, which make no (M, M, J) temporary."""
        index, probs = self.columns
        M, C = len(lam), self.grid.regions_per_channel ** len(lam)
        mu = self._mu_cells
        rprime = self.model.rate_slope(self.static, lam[:, None, None] / mu,
                                       tables.rate, tables.power,
                                       self.rate_cap) / mu
        rp_all = rprime.take(index)
        user = np.arange(M)[:, None]
        diag, jac = np.zeros(M), np.zeros((M, M))
        step = max(1, _JAC_CHUNK // (C * M)) * C
        for j0 in range(0, index.shape[1], step):
            part = slice(j0, j0 + step)
            cost, rate = cost_all[:, part], rate_all[:, part]
            rp, p = rp_all[:, part], probs[part]
            u, z = u_all[:, part], z_all[part]
            w, b = u * u / z, -2.0 * u / (eps * z)
            pr = p * rate
            diag += (p * w * rp - pr * b * rate).sum(axis=1)
            mixed = pr * (w * b.sum(axis=0) - b)
            at_min = np.where(user == cost.argmin(axis=0), rate, 0.0)
            jac += (np.einsum("mj,nj->mn", pr * w, b * rate)
                    - np.einsum("mj,nj->mn", mixed, at_min))
        return -(jac + np.diag(diag))


def _unbeaten(cost: np.ndarray, probs: np.ndarray) -> np.ndarray:
    """Π_{n≠m} Pr{rival n does not beat cell (m, c, l)}, (M, n, L), from the
    costs and region probabilities of whole classes, (M, n, L) each: each
    factor sums rival n's probabilities over its L regions, by (M, M, n, L,
    L) comparisons. An earlier rival n < m must cost more than C[m,c,l],
    and a later one more than the float below it, so a later rival that
    ties does not beat it: ties go to the lowest user index."""
    later, rivals = _user_pairs(len(cost))
    # the cost rival n must stay above, [m, n, class, l]
    over = np.where(later, np.nextafter(cost, -np.inf)[:, None],
                    cost[:, None])
    keep = np.where(cost[None, :, :, None] > over[..., None],
                    probs[None, :, :, None], 0.0).sum(axis=-1)
    return keep.prod(axis=1, where=rivals)


@cache
def _user_pairs(num_users: int) -> tuple:
    """(later, rivals), read-only (M, M, 1, 1) masks of the user pairs
    [m, n] with n > m and with n ≠ m."""
    user = np.arange(num_users)
    masks = ((user[:, None] < user)[:, :, None, None],
             (user[:, None] != user)[:, :, None, None])
    for mask in masks:
        mask.setflags(write=False)
    return masks


@cache
def _legendre_rule() -> tuple:
    return np.polynomial.legendre.leggauss(_GL_NODES)      # on first use


def _unit_allocation(t, rate_cap: float) -> tuple:
    """(R*, Υ(R*)/slope, cost/λ) at the gain g_on·e^t, g_on = s·ln2·μ/λ the
    gain at which a user turns on: c = s/g gives slope/(c·ln2) = e^t, so
    every user shares these functions of t. The cost falls from 0 at t = 0
    towards the floor -rate_cap with slope -Υ/slope (envelope theorem).
    Far out, e^{-t} is 0: slope/0 = ∞ there, and the rate is capped."""
    with np.errstate(divide="ignore"):
        rate, power = linear_allocation(linear_cells(np.exp(-t) / _LN2), 1.0,
                                        rate_cap)
    return rate, power, power - rate


def _unit_gain(cost, rate_cap: float) -> np.ndarray:
    """h⁻¹(y), the t ≥ 0 at which _unit_allocation's cost/λ is y = ``cost``:
    0 for y ≥ 0, +inf for y ≤ -rate_cap, t = ln(2^cap - 1) - ln((y + cap)·ln2)
    on the capped piece. Below it φ(t) = t + e^{-t} - 1 = s = -y·ln2, φ convex:
    Newton from above the root, √(3s) for s < 0.6 (φ ≥ t²/3 there) else s + 1
    (φ ≥ t - 1), descends monotonically to the last bit in 4 steps."""
    s = np.maximum(-_LN2 * cost, 0.0)
    t = np.where(s < 0.6, np.sqrt(3.0 * s), s + 1.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        for _ in range(4):                      # 0/0 at s = 0 is masked
            dphi = -np.expm1(-t)
            t = t - (t - dphi - s) / dphi
        capped = (rate_cap * _LN2 + np.log1p(-np.exp2(-rate_cap))
                  - np.log(np.maximum(cost + rate_cap, 0.0) * _LN2))
    return np.where(cost < 0.0, np.where(t <= rate_cap * _LN2, t, capped), 0.0)


@dataclass
class PerfectCSI:
    """The exact hard dual when the scheduler knows the gains, independent
    exponentials of mean ``mean_gain`` (M, K).

    At a known gain g every family is Υ(x) = (s/g)·(2^x - 1), s =
    ``model.perfect_csi_scale()``, so user n's cost is λ_n·h(t) at t =
    ln(g/g_on,n) (_unit_allocation). n wins where that is below 0 and below
    each rival m's cost: where m's gain is below g_on,m·exp(h⁻¹(λ_n·h(t)/λ_m)),
    or always once it is below m's floor -λ_m·rate_cap. Ties have probability
    0, so the hard dual is differentiable. n's rates, power and cost are one
    integral over t, by Gauss–Legendre on pieces split where the integrand
    kinks: at n's rate cap and where n's cost reaches a rival's cap cost or
    floor; the last piece ends _TAIL_MEANS mean gains past the last split.
    Channels with one mean-gain column share the integral.

    It has what run_offline_newton uses of a Problem: ``num_users``,
    ``check_targets()`` and ``evaluate``, whose ``jacobian()`` is a forward
    difference.
    """

    mean_gain: np.ndarray
    model: PowerRate
    mu: np.ndarray
    targets: np.ndarray
    rate_cap: float = DEFAULT_RATE_CAP

    def __post_init__(self):
        self.mean_gain = np.atleast_2d(np.asarray(self.mean_gain, dtype=float))
        self.mu, self.targets = check_weights(self.mu, self.targets,
                                              self.num_users)
        self.columns, self.counts = np.unique(self.mean_gain.T, axis=0,
                                              return_counts=True)
        self._checked = False

    @property
    def num_users(self) -> int:
        return self.mean_gain.shape[0]

    def check_targets(self) -> None:
        """allocator.check_reach, once per PerfectCSI as per Problem, with
        no user ever in outage."""
        if not self._checked:
            one_cell = (self.num_users, 1, 1)
            check_reach(np.zeros(one_cell, dtype=bool), np.ones(one_cell),
                        [self.mean_gain.shape[1]], self.targets,
                        self.rate_cap)
            self._checked = True

    def evaluate(self, lam, *_) -> DualEvaluation:
        """The hard dual at λ, whatever mode and ε a Problem would take."""
        lam = check_lambda(lam, self.num_users)
        cap, act = self.rate_cap, np.flatnonzero(lam > 0.0)
        la = lam[act]                   # a user with λ = 0 has cost 0 always
        g_on = self.model.perfect_csi_scale() * _LN2 * self.mu[act] / la
        ratio = la[:, None] / la                        # λ_n/λ_m, (A, A)
        # split costs over λ_n, λ_m·h(t_cap) and -λ_m·cap; those outside
        # (-cap, 0) become empty pieces at t = 0
        split = np.concatenate([_unit_allocation(cap * _LN2, cap)[2] / ratio,
                                -cap / ratio], axis=1)
        split = np.sort(np.where(split > -cap, _unit_gain(split, cap), 0), 1)
        last = split.max(axis=1, initial=0.0)           # (A,), A may be 0
        x, w = _legendre_rule()
        rivals = _user_pairs(len(act))[1]
        rates, power, served_cost = np.zeros(self.num_users), 0.0, 0.0
        for col, count in zip(self.columns[:, act], self.counts):
            tail = np.log(np.exp(last) + _TAIL_MEANS * col / g_on)
            edges = np.column_stack([np.zeros(len(act)), split, tail])
            half = np.diff(edges, axis=1)[:, :, None] / 2.0
            t = edges[:, :-1, None] + half * (1.0 + x)          # (A, P, N)
            rate, unit_power, cost = _unit_allocation(t, cap)
            gain = (g_on / col)[:, None, None] * np.exp(t)       # g/ḡ
            rival = cost[:, None] * ratio[:, :, None, None]     # (A, A, P, N)
            # Pr{C_m > C_n}, m ≠ n; 1 where C_n ≤ m's floor (t = +inf)
            beaten = np.where(rivals, -np.expm1(-(g_on / col)[:, None, None]
                              * np.exp(_unit_gain(rival, cap))), 1.0)
            weight = count * half * w * gain * np.exp(-gain) * beaten.prod(1)
            rates[act] += np.sum(weight * rate, axis=(1, 2))
            power += float(la @ np.sum(weight * unit_power, axis=(1, 2)))
            served_cost += float(la @ np.sum(weight * cost, axis=(1, 2)))
        subgradient = self.targets - rates
        return DualEvaluation(
            value=float(lam @ self.targets) + served_cost,
            subgradient=subgradient, per_user_avg_rate=rates,
            avg_power=power, jacobian=partial(self._jacobian, lam, subgradient))

    def _jacobian(self, lam: np.ndarray, subgradient: np.ndarray) -> np.ndarray:
        """∂g/∂λ by forward steps _FD_STEP·λ_n, one evaluation per user."""
        steps = _FD_STEP * np.where(lam > 0.0, lam, lam.max() or 1.0)
        return np.column_stack([
            (self.evaluate(lam + h * e).subgradient - subgradient) / h
            for h, e in zip(steps, np.eye(len(lam)))])


def exact_dual(model: PowerRate, grid: QuantizerGrid, mult: Multipliers,
               mode: str = "smooth", eps: float = 0.05) -> DualEvaluation:
    """Problem.evaluate at ``mult.lambda_r`` in one call, on a throwaway
    Problem with the default rate cap and enumeration budget."""
    return Problem(grid, model, mult.mu, mult.targets).evaluate(
        mult.lambda_r, mode, eps)


def block_allocation(tables: RateCostTables, lam: np.ndarray, qcsi,
                     eps: float, of):
    """Smooth allocation at prices λ (M,) for realized Q-CSI, 1-based: one
    block's (M, K) matrix or an (N, M, K) stack of N blocks.

    ``tables`` are class tables, (M, n_classes, L), read through the
    channel→class map ``of`` (K,) at ``qcsi`` user-major, (M, K) or
    (M, N, K). Returns (served rate (M,), served cost, served power),
    summed over the blocks of a stack, as _served forms them; its products
    reuse the gathered costs and the weights, since a stack's are large.
    """
    if tables.cost.ndim != 3:
        raise ValueError("block_allocation reads class tables")
    index = region_index(tables.cost.shape, qcsi, of, users_first=True)
    cost, rate = tables.cost.take(index), tables.rate.take(index)
    del index                           # w can reuse its pages
    w = smooth_weights(cost, eps)
    served_cost = float(np.multiply(cost, w, out=cost).sum())
    w *= rate
    served_rate = w.reshape(len(w), -1).sum(axis=1)
    return served_rate, served_cost, served_cost + float(lam @ served_rate)


def serve_block(model: PowerRate, block: tuple, lam: np.ndarray,
                mu: np.ndarray, eps: float, rate_cap: float) -> tuple:
    """block_allocation's result for one block, built and served in one pass
    at prices λ (M,) and μ shaped (M, 1): C_W = Υ·μ - λ·R* on the block's
    own (M, K) cells (allocator.block_statics), then _served under the
    ε-smooth weights."""
    rate, cost = model.allocation(block, lam[:, None] / mu, rate_cap)
    cost *= mu
    cost -= lam[:, None] * rate         # exactly 0 wherever rate == 0
    return _served(lam, cost, rate, smooth_weights(cost, eps))


def _served(lam, cost, rate, w) -> tuple:
    """(served rate (M,), served cost, served power) on user-major cells
    (M, ...) under weights w, which it overwrites with w·R*: the served cost
    is ΣC·w, and the power the served cost plus λ·(served rate)."""
    served_cost = float((cost * w).sum())
    w *= rate
    served_rate = w.reshape(len(w), -1).sum(axis=1)
    return served_rate, served_cost, served_cost + float(lam @ served_rate)
