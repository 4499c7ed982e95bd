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
* RA4 — the ε-smooth policy on a random quantizer (uninformed thresholds).
* RA5 — fixed scheduling heuristic: user m owns channels k ≡ m (mod M),
  transmits at constant power in non-outage regions (on/off power), rate
  adapting per region; the power level is root-found to meet the rate target,
  else, beyond what its channels carry at ``rate_cap``, is the saturation one.

No row hard-codes ``converged``: solver.serves_targets judges what each row
serves at ``tol``, and RA1's and RA2's power against their ``dual_bound``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from . import quantizer as qz
from . import solver
from .allocator import (DEFAULT_FEAS_TOL, DEFAULT_RATE_CAP, Multipliers,
                        build_tables, find_tie_instances, solve_tie_lp)
from .channel import FadingModel, sample_gain_blocks
from .dual import PerfectCSI, block_allocation
from .powerrate import PowerRate, RegionContext, region_contexts
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
    """10·log10 of a linear power; −inf for a zero-power (silent) row."""
    return 10.0 * math.log10(power) if power > 0 else -math.inf


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
              eps=setup.eps, init=setup.init, record_every=100)
    kw.update(over)
    return SolverConfig(**kw)


def row_problem(setup: CompareSetup, scheme: str) -> Problem | PerfectCSI:
    """What the ``scheme`` row solves at ``setup``: RA1 the perfect-CSI dual
    (dual.PerfectCSI); RA4 a Problem on the random ladder over [0,
    ra4_range_scale·max ḡ) drawn from ra4_seed; RA2, RA3 and RA5 a Problem on
    the equiprobable ladder with ``setup.regions`` regions. RA5 solves no
    dual on its Problem; its check_targets is the scheduler's feasibility
    bound, as for RA2 and RA3."""
    if scheme == "RA1":
        return PerfectCSI(setup.fading.mean_gain, setup.model, setup.mu,
                          setup.targets, setup.rate_cap)
    if scheme == "RA4":
        hi = setup.ra4_range_scale * float(setup.fading.mean_gain.max())
        grid = build_random(setup.fading, setup.regions, (0.0, hi),
                            setup.ra4_seed)
    else:
        grid = build_equiprobable(setup.fading, setup.regions)
    return Problem(grid=grid, model=setup.model, mu=setup.mu,
                   targets=setup.targets, fading=setup.fading,
                   rate_cap=setup.rate_cap, enum_budget=setup.enum_budget)


def check_rows(setup: CompareSetup, schemes=(), regions_list=()) -> None:
    """Check, in row order, the targets of the row problems (row_problem) of
    compare_schemes(setup, schemes), then of sweep_regions(setup,
    regions_list), and the enumeration budget of RA2-RA4, which enumerate."""
    rows = [(name, setup) for name in schemes]
    rows += [("RA3", replace(setup, regions=int(L))) for L in regions_list]
    if len(regions_list):
        rows.append(("RA1", setup))
    for name, point in rows:
        problem = row_problem(point, name)
        problem.check_targets()
        if name in ("RA2", "RA3", "RA4"):   # raises EnumerationBudgetError
            problem.space                   # over enum_budget


def _newton_row(scheme: str, problem, cfg: SolverConfig) -> dict:
    """Damped Newton solve of ``problem`` (a Problem's smooth dual, or
    PerfectCSI); the trajectory's last row is the exact evaluation at the
    final λ."""
    lam, traj = run_offline_newton(problem, cfg)
    return {"scheme": scheme, "avg_power": traj.served_power,
            "avg_rates": traj.served_rates, "converged": traj.converged,
            "iterations": int(traj.iters[-1]),
            "max_abs_subgradient": float(np.max(np.abs(traj.subgrad[-1]))),
            "lambda": lam, "method": "offline_exact"}


def mc_primal(model: PowerRate, grid: QuantizerGrid, mult: Multipliers,
              eps: float, fading: FadingModel, num_blocks: int,
              first_block: int = 0):
    """Monte-Carlo primal evaluation at frozen multipliers.

    Sample-average served rates (M,) and weighted power over ``num_blocks``
    fading blocks at the default rate cap; ValueError unless num_blocks ≥ 1
    and 0 < ε < ∞. The tables are built once, since λ is frozen; as online,
    solver.ONLINE_CHUNK blocks are sampled and quantized at once and read
    only the M×K cells their Q-CSI selects, so memory does not grow with L.
    Block streams are the online solver's, so comparisons share them.
    """
    if num_blocks < 1:
        raise ValueError("num_blocks must be >= 1")
    if not 0.0 < eps < np.inf:                          # NaN fails too
        raise ValueError("smooth eps must be positive and finite")
    tables = build_tables(model, grid, mult)
    sum_rate = np.zeros(grid.num_users)
    sum_power = 0.0
    chunk = solver.ONLINE_CHUNK
    for done in range(0, num_blocks, chunk):
        n = min(chunk, num_blocks - done)
        qcsi = quantize(grid, sample_gain_blocks(fading, first_block + done, n))
        served, wpower, _ = block_allocation(tables, mult.lambda_r, qcsi, eps)
        sum_rate += served
        sum_power += wpower
    return sum_rate / num_blocks, sum_power / num_blocks


def ra3_point(setup: CompareSetup) -> dict:
    """Smooth policy on the equiprobable quantizer."""
    return _newton_row("RA3", row_problem(setup, "RA3"), _solver_cfg(setup))


def ra4_point(setup: CompareSetup) -> dict:
    """Smooth policy on a random quantizer over a configured gain range."""
    return _newton_row("RA4", row_problem(setup, "RA4"), _solver_cfg(setup))


def ra2_point(setup: CompareSetup) -> dict:
    """Hard-optimal policy by ε-continuation and the tie LP.

    Damped Newton solves the smooth dual at ε = ``setup.eps``, ε/4, …, each
    stage from the last λ and to _TIGHT_TOL. The tie LP then shares the
    cells within ε·max(1, |c*|) of each minimum, which hold every cell the
    smooth weights share, so those weights are LP-feasible and D ≤ P* ≤ P ≤ Pˢ
    at λ by weak duality and primal feasibility. P = D + Σ p·(Σ w·c - min c)
    over the tie instances serves the targets; the row reports P, D as
    ``dual_bound`` and the last ``eps``, and stops once solver.serves_targets
    holds for its rates, P and D. A stage whose Newton fails ends the run at
    its smooth point.
    """
    problem = row_problem(setup, "RA2")
    eps, lam = setup.eps, setup.init
    stage_tol = np.minimum(setup.tol, _TIGHT_TOL)
    while True:
        cfg = _solver_cfg(setup, eps=eps, init=lam, tol=stage_tol)
        lam, traj = run_offline_newton(problem, cfg)
        dual = problem.evaluate(lam, "hard", eps).value
        power, rates = traj.served_power, traj.served_rates
        if traj.converged:
            instances, rates = find_tie_instances(problem, lam, eps)
            sol = solve_tie_lp(problem.targets, instances, rates)
            power = dual
            for inst, w in zip(instances, sol.weights):
                rates[inst.members] += inst.prob * inst.rates * w
                cost = inst.weighted_powers - lam[inst.members] * inst.rates
                power += float(inst.prob * (w @ cost - cost.min()))
        converged = solver.serves_targets(rates, problem.targets, setup.tol,
                                          power, dual, lam)
        # below the float resolution a narrower window separates nothing
        if converged or not traj.converged or eps < np.finfo(float).eps:
            break
        eps /= 4.0
    return {"scheme": "RA2", "avg_power": power, "avg_rates": rates,
            "dual_bound": dual, "eps": eps, "converged": converged,
            "lambda": lam, "method": "eps_continuation_tie_lp"}


def ra5_point(setup: CompareSetup) -> dict:
    """Round-robin fixed scheduling with on/off constant power per user.

    A user whose own channels cannot carry its target even at ``rate_cap``
    gets the saturation power, the largest Υ(rate_cap) over its live
    regions (or 0), and the row reports the rates served there."""
    grid = row_problem(setup, "RA5").grid
    M, K = grid.num_users, grid.num_channels
    ctx = region_contexts(grid)
    probs = qz.region_prob_table(grid)                  # (M, K, L)
    outage = setup.model.is_outage(ctx)
    power = 0.0
    rates = np.zeros(M)
    levels = np.zeros(M)
    for m in range(M):
        own = np.arange(K) % M == m
        pr = probs[m, own]                              # (Km, L)
        live = ~outage[m, own]

        sub = RegionContext(ctx.q_lo[m, own], ctx.q_hi[m, own],
                            ctx.mean_gain[m, own])

        def served(p):
            r = np.minimum(setup.model.rate_of_power(sub, p), setup.rate_cap)
            return float((pr * r * live).sum())

        target = float(setup.targets[m])
        if target > float((pr * setup.rate_cap * live).sum()):
            cap_power = setup.model.power_of_rate(sub, setup.rate_cap)
            levels[m] = np.max(cap_power[live], initial=0.0)
        elif target > 0:
            hi = 1.0
            while served(hi) < target:
                hi *= 2.0
            lo = 0.0
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
        power += float(setup.mu[m]) * levels[m] * float((pr * live).sum())
    converged = solver.serves_targets(rates, setup.targets, setup.tol)
    return {"scheme": "RA5", "avg_power": power, "avg_rates": rates,
            "converged": converged, "power_levels": levels,
            "method": "heuristic"}


def ra1_point(setup: CompareSetup) -> dict:
    """Perfect CSI: dual.PerfectCSI solved by damped Newton to _TIGHT_TOL.
    ``dual_bound`` is the hard dual there, avg_power + λ·(targets -
    avg_rates), which differs from avg_power by that λ·subgradient only."""
    cfg = _solver_cfg(setup, tol=np.minimum(setup.tol, _TIGHT_TOL))
    row = _newton_row("RA1", row_problem(setup, "RA1"), cfg)
    row["dual_bound"] = row["avg_power"] + float(
        row["lambda"] @ (setup.targets - row["avg_rates"]))
    row["converged"] = solver.serves_targets(
        row["avg_rates"], setup.targets, setup.tol, row["avg_power"],
        row["dual_bound"], row["lambda"])
    row["method"] = "perfect_csi"
    return row


_SCHEME_FUNCS = {"RA1": ra1_point, "RA2": ra2_point, "RA3": ra3_point,
                 "RA4": ra4_point, "RA5": ra5_point}


def compare_schemes(setup: CompareSetup,
                    schemes=("RA1", "RA2", "RA3", "RA4", "RA5")) -> list:
    """Run the requested schemes and return one result row per scheme.

    Rows carry linear weighted power, dB power, per-user average rates and a
    method tag; solver non-convergence is reported in the row, not raised.
    The caller, which knows the setup's SNR, labels the rows with it.
    """
    rows = []
    for name in schemes:
        if name not in _SCHEME_FUNCS:
            raise ValueError(f"unknown scheme {name!r}")
        row = _SCHEME_FUNCS[name](setup)
        row["power_db"] = power_db(row["avg_power"])
        rows.append(row)
    return rows


def sweep_regions(setup: CompareSetup, regions_list,
                  reference_regions: float | None = math.inf) -> list:
    """Smooth-policy power as the number of regions L grows.

    Returns one row per L, then the perfect-CSI row (ra1_point, its
    ``regions`` = inf), the limit L → ∞; ``reference_regions=None`` leaves
    that row out. Power decreases monotonically in L towards it. Rows carry
    dB power but no SNR label, as in compare_schemes.
    """
    if reference_regions not in (None, math.inf):
        raise ValueError("reference_regions is math.inf (perfect CSI) or None")
    rows = [{**ra3_point(replace(setup, regions=int(L))), "regions": int(L)}
            for L in regions_list]
    if reference_regions is not None:
        rows.append({**ra1_point(setup), "regions": math.inf})
    for row in rows:
        row["power_db"] = power_db(row["avg_power"])
    return rows
