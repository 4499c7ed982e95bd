"""Overhead accounting and the scheme-comparison harness.

The comparison harness benchmarks five allocation policies at matched average
rates and reports average weighted power:

* RA1 — perfect CSI: the scheduler knows the gains. With continuous gains
  ties have probability 0, so the hard dual is differentiable, and
  dual.PerfectCSI evaluates it exactly, one deterministic integral per user
  and mean-gain column; damped Newton solves it. Its power at λ̂ is the
  perfect-CSI optimum for the rates it serves, and the hard dual value there,
  ``dual_bound``, is a weak-duality lower bound on every scheme's power.
* RA2 — hard-optimal policy by ε-continuation: damped Newton solves the
  smooth dual at ε, ε/4, … from the last λ, and after each stage the tie LP
  shares the cells within the window ε·max(1, |c*|) so that the rates meet
  the targets. The power P of that policy and the hard dual value D bracket
  the optimum, D ≤ P* ≤ P; it stops once P - D ≤ λ·tol and reports both.
* RA3 — the ε-smooth policy on the configured quantizer. Like every smooth
  point here (RA2's stages, RA4, sweep rows) it is solved by damped Newton, as
  RA1 is; those rows record ``iterations`` and ``max_abs_subgradient``.
  When a point lists RA2 too, RA3 reads RA2's first ε-stage (solve_rows).
* RA4 — the ε-smooth policy on a random quantizer (uninformed thresholds).
* RA5 — fixed scheduling heuristic: user m owns channels k ≡ m (mod M),
  transmits at constant power in non-outage regions (on/off power), rate
  adapting per region; one safeguarded Newton call finds every user's level,
  or, beyond what its channels carry at ``rate_cap``, the saturation one.

A run's rows are data, (label, setup, problem): compare_rows and sweep_rows
alone know which rows a run has, and build and check each row problem once,
so a run raises before it solves a row; solve_rows solves those objects.

No row hard-codes ``converged``: solver.serves_targets judges what each row
serves at ``tol``, and RA1's and RA2's power against their ``dual_bound``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from . import solver
from . import quantizer as qz
from .allocator import (DEFAULT_FEAS_TOL, DEFAULT_RATE_CAP, Multipliers,
                        find_tie_instances, solve_tie_lp)
from .channel import FadingModel, sample_gain_blocks
from .dual import PerfectCSI, block_allocation
from .powerrate import PowerRate, _vec_newton
from .quantizer import QuantizerGrid, build_equiprobable, build_random, quantize
from .solver import Problem, SolverConfig, run_offline_newton


@dataclass(frozen=True)
class OverheadReport:
    """Feedback budget: B for the full Q-CSI matrix, B' when the receiver
    feeds back the allocation outcome instead (winner id + its region, or
    idle, per channel)."""

    full_qcsi_bits: int
    allocation_bits: int
    per_channel_bits: int


def power_db(power: float) -> float:
    """10·log10 of a linear power: −inf for a silent row, NaN for NaN."""
    return -math.inf if power <= 0 else 10.0 * math.log10(power)


def feedback_bits(num_users: int, num_channels: int, regions: int) -> OverheadReport:
    """B = ⌈K·M·log2 L⌉ and B' = ⌈K·log2(M·L+1)⌉ (+1 for the idle symbol)."""
    if num_users < 1 or num_channels < 1 or regions < 1:
        raise ValueError("M, K, L must all be >= 1")
    M, K, L = num_users, num_channels, regions
    full = math.ceil(K * M * math.log2(L)) if L > 1 else 0
    per_channel = math.ceil(math.log2(M * L + 1))
    alloc = math.ceil(K * math.log2(M * L + 1))
    return OverheadReport(full_qcsi_bits=full, allocation_bits=alloc,
                          per_channel_bits=per_channel)


# --- scheme comparison -------------------------------------------------------

# rate sensitivities |dE[rate]/dlambda| here reach the thousands as L shrinks,
# where constant steps above 2/|eig|max limit-cycle: hence damped Newton.
# RA2 solves each ε-stage below the tie LP's feasibility tolerance, so that
# the smooth weights are a feasible point of the LP; RA1 solves to it too, so
# that its power and its dual bound meet
_TIGHT_TOL = DEFAULT_FEAS_TOL / 4


@dataclass
class CompareSetup:
    """Everything the harness needs for one (config, SNR) point."""

    fading: FadingModel
    regions: int
    model: PowerRate
    mu: np.ndarray
    targets: np.ndarray
    eps: float = 0.05
    rate_cap: float = DEFAULT_RATE_CAP
    enum_budget: int = qz.DEFAULT_ENUM_BUDGET
    beta: float = 1e-3                  # first Newton damping is 1/beta
    tol: float | np.ndarray = 1e-3      # tol, init: scalar or per user
    max_iters: int = 20_000
    init: float | np.ndarray = 0.1
    # RA4 random quantizer
    ra4_seed: int = 7
    ra4_range_scale: float = 3.0


def _solver_cfg(setup: CompareSetup, **over) -> SolverConfig:
    kw = dict(beta=setup.beta, tol=setup.tol, max_iters=setup.max_iters,
              eps=setup.eps, init=setup.init)
    kw.update(over)
    return SolverConfig(**kw)


def mc_primal(model: PowerRate, grid: QuantizerGrid, mult: Multipliers,
              eps: float, fading: FadingModel, num_blocks: int,
              first_block: int = 0):
    """Monte-Carlo primal evaluation at frozen multipliers.

    Sample-average served rates (M,) and weighted power over ``num_blocks``
    fading blocks at the default rate cap; ValueError unless num_blocks ≥ 1
    and 0 < ε < ∞. The tables are built once, since λ is frozen, on a
    Problem's (M, n_classes, L) class cells (Problem.tables). As online, a
    chunk of about solver.ONLINE_CHUNK cells is sampled and quantized at once
    and reads the cells its Q-CSI selects through the class map, so memory
    grows with neither the batch nor L. Block streams are the online
    solver's, so comparisons share them.
    """
    if num_blocks < 1:
        raise ValueError("num_blocks must be >= 1")
    if not 0.0 < eps < np.inf:                          # NaN fails too
        raise ValueError("smooth eps must be positive and finite")
    problem = Problem(grid, model, mult.mu, mult.targets)
    tables, of = problem.tables(mult.lambda_r), problem.classes[2]
    sum_rate = np.zeros(grid.num_users)
    sum_power = 0.0
    chunk = solver._chunk_blocks(grid.num_users, grid.num_channels)
    for done in range(0, num_blocks, chunk):
        n = min(chunk, num_blocks - done)
        qcsi = quantize(grid, sample_gain_blocks(fading, first_block + done, n))
        served, _, wpower = block_allocation(tables, mult.lambda_r, qcsi, eps,
                                             of)
        sum_rate += served
        sum_power += wpower
    return sum_rate / num_blocks, sum_power / num_blocks


def newton_point(setup: CompareSetup, problem, first=None) -> dict:
    """RA3 and RA4: damped Newton solve of ``problem``'s smooth dual (or of
    PerfectCSI, for RA1), or RA2's ``first`` ε-stage (λ, Trajectory). The
    row is the first iterate that serves ``setup.tol``, else the last, as
    copies: a view would keep the whole trajectory."""
    _, traj = first or run_offline_newton(problem, _solver_cfg(setup))
    served = (k for k, rates in enumerate(traj.rates)
              if solver.serves_targets(rates, problem.targets, setup.tol))
    k = next(served, -1)                # else the last, which serves none
    return {"avg_power": float(traj.power[k]),
            "avg_rates": traj.rates[k].copy(), "converged": k >= 0,
            "iterations": int(traj.iters[k]),
            "max_abs_subgradient": float(np.max(np.abs(traj.subgrad[k]))),
            "lambda": traj.lam[k].copy(), "method": "offline_exact"}


def _eps_stage(setup: CompareSetup, problem: Problem, **over) -> tuple:
    """(λ, Trajectory) of one RA2 ε-stage: damped Newton from setup's start,
    or the ``eps`` and ``init`` in ``over``, to min(tol, _TIGHT_TOL)."""
    tight = np.minimum(setup.tol, _TIGHT_TOL)
    return run_offline_newton(problem, _solver_cfg(setup, tol=tight, **over))


def ra2_point(setup: CompareSetup, problem: Problem, first=None) -> dict:
    """Hard-optimal policy by ε-continuation and the tie LP.

    Damped Newton solves the smooth dual at ε = ``setup.eps``, ε/4, …, each
    stage from the last λ and to _TIGHT_TOL. The tie LP then shares the
    cells within ε·max(1, |c*|) of each minimum, which hold every cell the
    smooth weights share, so those weights are LP-feasible and D ≤ P* ≤ P ≤ Pˢ
    at λ by weak duality and primal feasibility. P = D + Σ p·(Σ w·c - min c)
    over the ties, rows of find_tie_instances' (T, M) arrays weighted by the
    LP's (T, M) weights, serves the targets; the row reports P, D as
    ``dual_bound`` and the last ``eps``, and stops once solver.serves_targets
    holds for its rates, P and D. A stage whose Newton fails ends the run at
    its smooth point. ``first``, if given, is the first stage's (λ,
    Trajectory), _eps_stage(setup, problem).
    """
    eps, lam = setup.eps, setup.init
    while True:
        lam, traj = first or _eps_stage(setup, problem, eps=eps, init=lam)
        first = None                    # later stages start at the last λ
        # D as Problem.evaluate forms it, at Newton's finite λ ≥ 0, on the
        # tables that the tie search reads too
        tables = problem.tables(lam)
        dual = (float(lam @ problem.targets)
                + problem.serve_hard(lam, tables)[1])
        power, rates = traj.served_power, traj.served_rates
        if traj.converged:
            ties = find_tie_instances(problem, lam, eps, tables)
            w = solve_tie_lp(problem.targets, *ties)
            prob, _, r_tie, wpow, rates = ties
            cost = wpow - lam * r_tie           # its min is each tie's c*
            w_cost = np.matmul(w[:, None], cost[:, :, None])[:, 0, 0]
            # one dot per tie, added onto r̄_one and D tie by tie in order,
            # so the row does not depend on how numpy blocks a reduction
            rates = np.cumsum(np.vstack([rates, prob[:, None] * r_tie * w]),
                              axis=0)[-1]
            power = float(np.cumsum(
                np.r_[dual, prob * (w_cost - cost.min(axis=1))])[-1])
        converged = solver.serves_targets(rates, problem.targets, setup.tol,
                                          power, dual, lam)
        # below the float resolution a narrower window separates nothing
        if converged or not traj.converged or eps < np.finfo(float).eps:
            break
        eps /= 4.0
    return {"avg_power": power, "avg_rates": rates,
            "dual_bound": dual, "eps": eps, "converged": converged,
            "lambda": lam, "method": "eps_continuation_tie_lp"}


def ra5_point(setup: CompareSetup, problem: Problem) -> dict:
    """Round-robin fixed scheduling with on/off constant power per user.

    User m's level is the root of f_m(y) = Σ p·min(Υ⁻¹(y), rate_cap) - ř_m
    over its own cells, concave and increasing, by one safeguarded Newton
    for all users. At the upper end, max Υ(min(ř_m/Σ p, rate_cap)) over m's
    live cells, each carries that rate at least. A user they cannot serve
    even at ``rate_cap`` stops there, at the saturation power, and the row
    reports its rates; an end past the float range gives the level +inf."""
    grid, model, cap = problem.grid, setup.model, setup.rate_cap
    M, K = grid.num_users, grid.num_channels
    owner, channel = np.nonzero(np.arange(K) % M == np.arange(M)[:, None])
    own = owner, problem.classes[2][channel]            # (K,) cells, by owner
    cells = tuple(a[own] for a in problem.static)
    live = ~model.is_outage(cells)
    pr = problem.region_probs[own] * live               # (K, L)
    share = np.bincount(owner, pr.sum(1), M)
    saturated = setup.targets > cap * share
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        rho = np.fmin(setup.targets / share, cap)       # cap where share = 0
        ends = np.where(live, model.power_of_rate(cells, rho[owner, None]), 0)
    hi = np.zeros(M)
    np.maximum.at(hi, owner, ends.max(1))
    past = np.isinf(hi)

    def served(y):                      # rates at levels y, and d/dy
        r, deriv = model.rate_and_derivative(cells, y[owner, None])
        return (np.bincount(owner, (pr * np.minimum(r, cap)).sum(1), M),
                np.bincount(owner, (pr * deriv * (r < cap)).sum(1), M))

    def f_df(y):                        # 0 where the upper end is the root
        rates, deriv = served(y)
        return np.where(saturated | past, 0.0, rates - setup.targets), deriv

    levels = np.where(past, hi, _vec_newton(
        f_df, np.zeros(M), np.where(past, 0.0, hi), "RA5 power level"))
    rates = served(levels)[0]
    converged = solver.serves_targets(rates, setup.targets, setup.tol)
    return {"avg_power": float(setup.mu @ (levels * share)),
            "avg_rates": rates, "converged": converged,
            "power_levels": levels, "method": "heuristic"}


def ra1_point(setup: CompareSetup, problem: PerfectCSI) -> dict:
    """Perfect CSI: newton_point on dual.PerfectCSI, solved to _TIGHT_TOL.
    ``dual_bound`` is the hard dual there, avg_power + λ·(targets -
    avg_rates), which differs from avg_power by that λ·subgradient only."""
    tight = replace(setup, tol=np.minimum(setup.tol, _TIGHT_TOL))
    row = newton_point(tight, problem)
    row["dual_bound"] = row["avg_power"] + float(
        row["lambda"] @ (setup.targets - row["avg_rates"]))
    row["converged"] = solver.serves_targets(
        row["avg_rates"], setup.targets, setup.tol, row["avg_power"],
        row["dual_bound"], row["lambda"])
    row["method"] = "perfect_csi"
    return row


_SCHEME_FUNCS = {"RA1": ra1_point, "RA2": ra2_point, "RA3": newton_point,
                 "RA4": newton_point, "RA5": ra5_point}
SCHEMES = tuple(_SCHEME_FUNCS)
ENUMERATING = ("RA2", "RA3", "RA4")     # their solves read Problem.columns


def _problem(setup: CompareSetup, kind: str) -> Problem | PerfectCSI:
    """RA1 the perfect-CSI dual (dual.PerfectCSI); RA4 a Problem on the random
    ladder over [0, ra4_range_scale·max ḡ) drawn from ra4_seed; RA3 a Problem
    on the equiprobable ladder with ``setup.regions`` regions."""
    if kind == "RA1":
        return PerfectCSI(setup.fading.mean_gain, setup.model, setup.mu,
                          setup.targets, setup.rate_cap)
    if kind == "RA4":
        hi = setup.ra4_range_scale * float(setup.fading.mean_gain.max())
        grid = build_random(setup.fading, setup.regions, (0.0, hi),
                            setup.ra4_seed)
    else:
        grid = build_equiprobable(setup.fading, setup.regions)
    return Problem(grid=grid, model=setup.model, mu=setup.mu,
                   targets=setup.targets, fading=setup.fading,
                   rate_cap=setup.rate_cap, enum_budget=setup.enum_budget)


def _row(label: dict, setup: CompareSetup, problem) -> tuple:
    """The row once its problem's targets are checked and, for a scheme in
    ENUMERATING, its columns built for the solve: each of these can raise."""
    problem.check_targets()
    if label["scheme"] in ENUMERATING:
        problem.columns
    return label, setup, problem


def compare_rows(setup: CompareSetup, schemes) -> list:
    """The rows (label, setup, problem) of compare_schemes(setup, schemes),
    in order. RA2, RA3 and RA5 share one Problem on the equiprobable ladder
    (RA5 solves no dual on it; its check_targets is the scheduler's
    feasibility bound), RA4 solves its random-ladder Problem and RA1
    PerfectCSI; each is built when a row first needs it."""
    problems, rows = {}, []
    for name in schemes:
        if name not in _SCHEME_FUNCS:
            raise ValueError(f"unknown scheme {name!r}")
        kind = name if name in ("RA1", "RA4") else "RA3"
        if kind not in problems:
            problems[kind] = _problem(setup, kind)
        rows.append(_row({"scheme": name}, setup, problems[kind]))
    return rows


def sweep_rows(setup: CompareSetup, regions_list, reference_regions) -> list:
    """The rows of sweep_regions: one RA3 row per L on its own equiprobable
    Problem, then the perfect-CSI RA1 row (``regions`` = inf), the limit
    L → ∞, unless ``reference_regions`` is None."""
    if reference_regions not in (None, math.inf):
        raise ValueError("reference_regions is math.inf (perfect CSI) or None")
    rows = []
    for L in regions_list:
        point = replace(setup, regions=int(L))
        rows.append(_row({"scheme": "RA3", "regions": int(L)}, point,
                         _problem(point, "RA3")))
    if reference_regions is not None:
        rows.append(_row({"scheme": "RA1", "regions": math.inf}, setup,
                         _problem(setup, "RA1")))
    return rows


def solve_rows(rows) -> list:
    """Solve each row's problem with its scheme; every result carries the
    row's label, its linear and dB power, per-user average rates and a
    method tag. Non-convergence is reported in the result, not raised.
    Where the rows list both RA2 and RA3, RA2's first ε-stage is solved once
    per (setup, problem) and both rows read it: its tolerance is no looser,
    so it runs RA3's Newton path to RA3's stop or past it."""
    both = {"RA2", "RA3"} <= {label["scheme"] for label, _, _ in rows}
    firsts, out = {}, []
    for label, setup, problem in rows:
        name, shared = label["scheme"], {}
        if both and name in ("RA2", "RA3"):
            key = id(setup), id(problem)
            if key not in firsts:
                firsts[key] = _eps_stage(setup, problem)
            shared["first"] = firsts[key]
        row = {**label, **_SCHEME_FUNCS[name](setup, problem, **shared)}
        row["power_db"] = power_db(row["avg_power"])
        out.append(row)
    return out


def compare_schemes(setup: CompareSetup, schemes=SCHEMES) -> list:
    """solve_rows(compare_rows(setup, schemes)); the caller, which knows the
    setup's SNR, labels the rows with it."""
    return solve_rows(compare_rows(setup, schemes))


def sweep_regions(setup: CompareSetup, regions_list,
                  reference_regions: float | None = math.inf) -> list:
    """Smooth-policy power as L grows, decreasing towards the perfect-CSI
    row: solve_rows(sweep_rows(...)), with no SNR label."""
    return solve_rows(sweep_rows(setup, regions_list, reference_regions))
