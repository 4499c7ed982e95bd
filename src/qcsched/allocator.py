"""Per-realization primal policies: rate loading, winner sets, scheduling.

Given multipliers λ the optimal rate in region l of (m, k) is
R* = Υ̇⁻¹(λ_m/μ_m), clipped to [0, rate_cap], and the cost of granting the
channel is C_W = μ_m·Υ(R*) - λ_m·R*. The family's one hook, ``allocation`` on
its ``cell_data``, gives R* and Υ(R*) whatever the shape of Υ. On each
channel the hard (winner-takes-all) rule serves the cost minimizer when that
minimum is negative; the smooth rule shares the channel among every user
within ε of the minimum with weights proportional to (1 - (C_W - c*)/ε)².
Exact cost ties under the hard rule are resolved globally by a small linear
program over the tie instances, held as arrays with one row per tied cell.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .powerrate import PowerRate, region_contexts
from .quantizer import QuantizerGrid
from .simplex import LPInfeasibleError, solve_lp

DEFAULT_RATE_CAP = 12.0     # bits/symbol; hardware ceiling for Υ̇⁻¹
DEFAULT_FEAS_TOL = 1e-9     # residual rate the tie LP treats as met


class TieInfeasibleError(Exception):
    """The tie LP has no solution: λ is not at the tie-consistent point."""


class InfeasibleTargetsError(ValueError):
    """No allocation on the grid meets the rate targets; ``users`` is a
    violated user subset, 1-based."""

    def __init__(self, message: str, users: list):
        super().__init__(message)
        self.users = users


def check_lambda(lam, num_users: int) -> np.ndarray:
    """λ as a float (M,) array; ValueError unless it is finite and
    nonnegative (one test, which NaN fails too)."""
    lam = np.asarray(lam, dtype=float)
    if lam.shape != (num_users,):
        raise ValueError("lambda_r must have shape (M,)")
    if not ((lam >= 0.0) & (lam < np.inf)).all():
        raise ValueError("lambda_r must be finite and nonnegative")
    return lam


def check_weights(mu, targets, num_users: int) -> tuple:
    """(μ, ř) as float (M,) arrays; ValueError unless μ > 0 and ř ≥ 0."""
    mu = np.asarray(mu, dtype=float)
    targets = np.asarray(targets, dtype=float)
    if mu.shape != (num_users,) or targets.shape != (num_users,):
        raise ValueError("mu and targets must have shape (M,)")
    if not (mu > 0.0).all():
        raise ValueError("mu must be strictly positive")
    if not (targets >= 0.0).all():
        raise ValueError("targets must be nonnegative")
    return mu, targets


@dataclass(frozen=True)
class Multipliers:
    """Rate prices λ ≥ 0, priority weights μ > 0, rate targets ř ≥ 0."""

    lambda_r: np.ndarray
    mu: np.ndarray
    targets: np.ndarray

    def __post_init__(self):
        lam = np.asarray(self.lambda_r, dtype=float)
        if lam.ndim != 1:
            raise ValueError("lambda_r, mu, targets must share shape (M,)")
        mu, tgt = check_weights(self.mu, self.targets, len(lam))
        object.__setattr__(self, "lambda_r", check_lambda(lam, len(lam)))
        object.__setattr__(self, "mu", mu)
        object.__setattr__(self, "targets", tgt)


class Prices(NamedTuple):
    """λ and μ as build_tables reads them, unchecked: for callers whose μ
    passed check_weights and whose λ is finite and nonnegative, such as a
    Problem's table build. Either (M,) or already shaped like the static
    data's user axis, (M, 1, 1) for (M, n, L) cells."""

    lambda_r: np.ndarray
    mu: np.ndarray


def make_static(grid: QuantizerGrid, model: PowerRate) -> tuple:
    """The family's λ-independent data for every (M, K, L) region of the
    grid (PowerRate.cell_data), cached across multiplier updates."""
    return model.cell_data(region_contexts(grid))


def check_reach(outage, probs, sizes, targets, rate_cap: float) -> None:
    """Raise InfeasibleTargetsError unless every user subset S can draw its
    targets: Σ_{m∈S} ř_m ≤ rate_cap · Σ_k Pr{some m ∈ S is out of outage
    on k}, over n channel classes of ``sizes`` channels each, given each
    class's outage mask and region probabilities, (M, n, L). With the rate
    cap the rate region is a polymatroid, so the 2^M - 1 subsets decide
    feasibility; the smallest violated one is named."""
    p_out = np.where(outage, probs, 0.0).sum(axis=2)    # Pr{m in outage}
    M = len(p_out)
    sets = ((np.arange(1, 2 ** M)[:, None] >> np.arange(M)) & 1).astype(bool)
    none_live = np.prod(np.where(sets[:, :, None], p_out, 1.0), axis=1)
    reach = rate_cap * ((1.0 - none_live) @ sizes)
    need = sets @ np.asarray(targets, dtype=float)
    bad = np.flatnonzero(need > reach * (1.0 + 1e-12))
    if len(bad):
        s = bad[np.argmin(sets[bad].sum(axis=1))]
        users = (np.flatnonzero(sets[s]) + 1).tolist()
        raise InfeasibleTargetsError(
            f"rate targets are infeasible: users {users} need "
            f"{need[s]:.6g} in total, but with rate_cap {rate_cap:g} they "
            f"can draw at most {reach[s]:.6g}", users)


def region_index(shape: tuple, j, of, users_first: bool = False) -> np.ndarray:
    """Flat indices into an (M, n_classes, L) class table of the cells
    table[m, of[k], l] with l = j[..., m, k] - 1: channel k reads its
    class's row through the channel→class map ``of`` (K,), for 1-based
    region indices j (..., M, K), the Q-CSI that quantizer.quantize returns;
    shaped like j or, with ``users_first``, with the user axis leading
    (M, ..., K) and laid out in that order."""
    M, n, L = shape
    j = np.asarray(j)
    K = len(of)
    if j.shape[-2:] != (M, K) or j.min() < 1 or j.max() > L:
        raise IndexError("region indices must be in range, shape (..., M, K)")
    cell = np.arange(-1, M * n * L - 1, L).reshape(M, n)[:, of]
    if users_first:
        j = np.moveaxis(j, -2, 0)
        cell = cell.reshape((M,) + (1,) * (j.ndim - 2) + (K,))
    return np.add(cell, j, order="C")


def block_statics(static: tuple, qcsi, of) -> list:
    """The static data of each block's cells, one tuple of (M, K) arrays per
    block of the 1-based Q-CSI stack (N, M, K), gathered from (M, n_classes,
    L) class data through the channel→class map ``of``. Gathers once for
    all N."""
    index = region_index(static[0].shape, qcsi, of)
    return list(zip(*(np.ravel(a).take(index) for a in static)))


class RateCostTables(NamedTuple):
    """Per-cell optimal rates/powers/costs for one λ; shapes follow the
    static data they were built from, (M, K, L) or (M, K)."""

    rate: np.ndarray
    power: np.ndarray               # Υ(R*), unweighted
    cost: np.ndarray                # μΥ(R*) - λR*


def build_tables(model: PowerRate, grid: QuantizerGrid,
                 mult: Multipliers | Prices,
                 rate_cap: float = DEFAULT_RATE_CAP,
                 static: tuple | None = None) -> RateCostTables:
    """Evaluate R*, Υ(R*) and C_W on every cell of ``static`` for the given λ.

    ``static`` defaults to every region of the grid (make_static), giving
    (M, K, L) tables; one block's (M, K) cells (block_statics) give its own.
    (M,) prices are reshaped onto the user axis; Prices already shaped so
    are read as they are.
    """
    if static is None:
        static = make_static(grid, model)
    lam, mu = mult.lambda_r, mult.mu
    if lam.ndim != static[0].ndim:
        user_axis = (-1,) + (1,) * (static[0].ndim - 1)
        lam, mu = lam.reshape(user_axis), mu.reshape(user_axis)
    rate, power = model.allocation(static, lam / mu, rate_cap)
    cost = power * mu
    cost -= lam * rate                      # exactly 0 wherever rate == 0
    return RateCostTables(rate=rate, power=power, cost=cost)


def smooth_window(costs: np.ndarray, eps: float) -> tuple:
    """(u, c*) over the leading (user) axis of a cost array, (M,) or
    (M, ...): u = 1 - (C - c*)/ε on the ε-window C - c* < ε, where it is
    positive, and 0 outside it, where it would be ≤ 0."""
    cstar = costs.min(axis=0)
    u = costs - cstar
    u /= eps
    np.subtract(1.0, u, out=u)
    np.maximum(u, 0.0, out=u)
    return u, cstar


def smooth_weights(costs: np.ndarray, eps: float) -> np.ndarray:
    """Vectorized ε-smooth sharing over the leading (user) axis of a cost
    array, (M,) or (M, ...): u²/Σu² (smooth_window), with an idle column
    (c* ≥ 0) divided by Z = ∞."""
    w, cstar = smooth_window(np.asarray(costs, dtype=float), eps)
    w *= w
    w /= np.where(cstar < 0.0, w.sum(axis=0), np.inf)
    return w


def find_tie_instances(problem, lam, tie_rtol: float, tables=None):
    """Split the (class, column) cells of ``problem`` (a dual.Problem: its
    flat ``columns`` and its ``tables`` at the classes' representative
    channels, or the given ``tables``, built so at λ) at λ into single-winner
    mass, accumulated into r̄_one, and T tie instances: cells whose minimum
    c* < 0 several users' costs reach within tie_rtol·max(1, |c*|), in
    (class, column) order.

    Returns (prob, members, rates, weighted_powers, r_bar_one), the ties
    along the leading axis: each cell's column probability summed over its
    class (T,), the mask of its tied users (T, M), every user's R* and
    μ_m·Υ(R*) in it (T, M), and r̄_one (M,); solve_tie_lp takes them in
    this order, after the targets.
    """
    lam = check_lambda(lam, problem.num_users)
    tables = problem.tables(lam) if tables is None else tables
    index, probs = problem.columns
    costs, rates = tables.cost.take(index), tables.rate.take(index)  # (M, J)
    wpow = (tables.power * problem.mu[:, None, None]).take(index)
    cstar = costs.min(axis=0)                   # (J,)
    tol = tie_rtol * np.maximum(1.0, np.abs(cstar))
    members = costs <= cstar + tol
    n_members = members.sum(axis=0)
    active = cstar < 0.0
    single = active & (n_members == 1)
    tied = active & (n_members > 1)

    # single-winner average rates (tie cells excluded by construction)
    served = np.where(single & members, rates, 0.0)
    r_bar_one = (served * probs).sum(axis=1)
    return (probs[tied], members.T[tied], rates.T[tied], wpow.T[tied],
            r_bar_one)


def solve_tie_lp(targets, prob, members, rates, weighted_powers, r_bar_one):
    """Share each tied cell so the residual rate targets are met exactly.

    min Σ prob·μΥ(R*)·w  s.t.  Σ_ties prob·R*·w = ř_tie per user,
    Σ_members w = 1 per tie, w ≥ 0, over the ties of find_tie_instances,
    with ř_tie = ``targets`` - r̄_one (M,). The variables are the tied
    (tie, user) pairs, tie-major and users ascending. Users in no tie must
    have |ř_tie| ≤ DEFAULT_FEAS_TOL (their row is dropped); otherwise the
    targets are unreachable and a TieInfeasibleError is raised, as it is
    when the LP itself has no feasible point (λ is not at the
    tie-consistent multiplier). Returns the weights (T, M), 0 off
    ``members``.
    """
    residual = np.subtract(targets, r_bar_one, dtype=float)
    present = members.any(axis=0)
    bad = np.flatnonzero(~present & (np.abs(residual) > DEFAULT_FEAS_TOL))
    if len(bad):
        raise TieInfeasibleError(
            f"users {bad.tolist()} have nonzero residual targets but appear "
            f"in no tie instance")
    if np.any(residual[present] < -DEFAULT_FEAS_TOL):
        raise TieInfeasibleError(
            "single-winner rates already exceed a target; λ is past the "
            "tie-consistent point")

    tie, user = np.nonzero(members)
    var, n_rows = np.arange(len(tie)), np.count_nonzero(present)
    A = np.zeros((n_rows + len(prob), len(tie)))
    A[np.cumsum(present)[user] - 1, var] = prob[tie] * rates[tie, user]
    A[n_rows + tie, var] = 1.0
    b = np.concatenate([np.maximum(residual[present], 0.0),
                        np.ones(len(prob))])
    try:
        x, _ = solve_lp(prob[tie] * weighted_powers[tie, user], A, b)
    except LPInfeasibleError as e:
        raise TieInfeasibleError(str(e)) from e
    weights = np.zeros(members.shape)
    weights[tie, user] = x
    return weights
