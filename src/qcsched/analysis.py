"""Overhead accounting, structure audits and the scheme-comparison harness.

The comparison harness benchmarks five allocation policies at matched average
rates and reports average weighted power:

* RA1 — perfect-CSI proxy: the same machinery with a fine quantizer
  (default 256 regions/channel). When the column space fits the enumeration
  budget it is solved exactly offline; otherwise the multipliers are found
  online (no enumeration) and the primal is evaluated by seeded Monte Carlo
  with common random numbers. Either way the proxy *upper-bounds* the true
  perfect-CSI power (a finite quantizer can only do worse).
* RA2 — hard-optimal policy: diminishing-step refinement of the hard dual
  from the smooth solution; the reported power is the best hard dual value
  (zero duality gap), and the tie LP is attempted at a widened tie tolerance
  to exhibit the primal sharing weights.
* RA3 — the ε-smooth policy on the configured quantizer.
* RA4 — the ε-smooth policy on a random quantizer (uninformed thresholds).
* RA5 — fixed scheduling heuristic: user m owns channels k ≡ m (mod M),
  transmits at constant power in non-outage regions (on/off power), rate
  adapting per region; the power level is root-found to meet the rate target.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import quantizer as qz
from .allocator import (DEFAULT_RATE_CAP, DEFAULT_TIE_RTOL, Multipliers,
                        RateCostTables, TieInfeasibleError, build_tables,
                        find_tie_instances, smooth_weights, solve_tie_lp,
                        take_regions)
from .channel import FadingModel, sample_gain_blocks
from .dual import exact_dual
from .powerrate import (NumericError, PowerRate, RegionContext,
                        region_contexts)
from .quantizer import QuantizerGrid, build_equiprobable, build_random, quantize
from .solver import Problem, SolverConfig, run_offline_nonsmooth, \
    run_offline_smooth, run_online


@dataclass(frozen=True)
class OverheadReport:
    """Feedback budget: B for the full Q-CSI matrix, B' when the receiver
    feeds back the allocation outcome instead (winner id + its region, or
    idle, per channel)."""

    full_qcsi_bits: int
    allocation_bits: int
    per_channel_bits: int


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


def cluster_audit(tables: RateCostTables, k: int,
                  budget: int = qz.DEFAULT_ENUM_BUDGET,
                  tie_rtol: float = DEFAULT_TIE_RTOL) -> list:
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
        raise qz.EnumerationBudgetError(count, budget)

    def members(col0):
        c = costs_k[np.arange(M), col0]
        cstar = c.min()
        if cstar >= 0.0:
            return np.zeros(M, dtype=bool)
        return c <= cstar + tie_rtol * max(1.0, abs(cstar))

    violations = []
    for col in qz.enumerate_columns(M, L, budget):
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


# --- scheme comparison -------------------------------------------------------

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
    # the comparison configs have rate sensitivities |dE[rate]/dlambda| in the
    # hundreds to thousands (growing as L shrinks), and a constant stepsize
    # above 2/|eig|max limit-cycles instead of converging; start at 1e-3 and
    # let _smooth_point back off by 4x, warm-started, until the run settles
    beta: float = 1e-3
    beta_backoffs: int = 4
    tol: float = 1e-3
    max_iters: int = 20_000
    init: float = 0.1
    # RA1 proxy
    ra1_regions: int = 256
    ra1_blocks: int = 30_000
    ra1_beta: float = 2e-3
    ra1_eval_blocks: int = 200_000
    # RA2 refinement
    ra2_refine_iters: int = 2_000
    ra2_kappa: float = 0.05
    ra2_tie_rtol: float = 1e-3
    # RA4 random quantizer
    ra4_seed: int = 7
    ra4_range_scale: float = 3.0


def _solver_cfg(setup: CompareSetup, **over) -> SolverConfig:
    kw = dict(beta=setup.beta, tol=setup.tol, max_iters=setup.max_iters,
              eps=setup.eps, init=setup.init, record_every=100)
    kw.update(over)
    return SolverConfig(**kw)


def _smooth_point(setup: CompareSetup, grid: QuantizerGrid, **cfg_over):
    problem = Problem(grid=grid, model=setup.model, mu=setup.mu,
                      targets=setup.targets, fading=setup.fading,
                      rate_cap=setup.rate_cap, enum_budget=setup.enum_budget)
    beta = cfg_over.pop("beta", setup.beta)
    init = cfg_over.pop("init", setup.init)
    for _ in range(setup.beta_backoffs + 1):
        cfg = _solver_cfg(setup, beta=beta, init=init, **cfg_over)
        lam, traj = run_offline_smooth(problem, cfg)
        if traj.converged:
            break
        # a too-large constant stepsize hovers in a limit cycle around the
        # fixed point; retry smaller, warm-started from the hover region
        beta /= 4.0
        init = lam
    ev = exact_dual(setup.model, grid, problem.multipliers(lam), "smooth",
                    setup.eps, setup.rate_cap, setup.enum_budget,
                    problem.space(), problem.static())
    return problem, lam, ev, traj.converged


def mc_primal(model: PowerRate, grid: QuantizerGrid, mult: Multipliers,
              eps: float, fading: FadingModel, num_blocks: int,
              first_block: int = 0, rate_cap: float = DEFAULT_RATE_CAP,
              batch: int = 1024):
    """Monte-Carlo primal evaluation at frozen multipliers.

    Sample-average served rates (M,) and weighted power over ``num_blocks``
    fading blocks. The rate/cost tables are built once, since λ is frozen;
    each batch of ``batch`` blocks is sampled and quantized at once and
    reads only the M×K cells its Q-CSI selects, so memory grows with
    batch·M·K, not with L. Block streams are the ones the online solver
    sees, so comparisons share random numbers.
    """
    if batch < 1:
        raise ValueError("batch must be >= 1")
    tables = build_tables(model, grid, mult, rate_cap)
    M = grid.num_users
    sum_rate = np.zeros(M)
    sum_power = 0.0
    for done in range(0, num_blocks, batch):
        n = min(batch, num_blocks - done)
        gains = sample_gain_blocks(fading, first_block + done, n)
        j0 = quantize(grid, gains) - 1                          # (n, M, K)
        cost = take_regions(tables.cost, j0).transpose(0, 2, 1)  # (n, K, M)
        rate = take_regions(tables.rate, j0).transpose(0, 2, 1)
        w = smooth_weights(cost, eps)
        served = (rate * w).sum(axis=1)                     # (n, M)
        sum_rate += served.sum(axis=0)
        sum_power += float((cost * w).sum()) \
            + float(served.sum(axis=0) @ mult.lambda_r)
    avg_rate = sum_rate / num_blocks
    avg_power = sum_power / num_blocks
    return avg_rate, avg_power


def ra3_point(setup: CompareSetup, grid: QuantizerGrid | None = None) -> dict:
    """Smooth policy on the configured (default equiprobable) quantizer."""
    if grid is None:
        grid = build_equiprobable(setup.fading, setup.regions)
    _, lam, ev, converged = _smooth_point(setup, grid)
    return {"scheme": "RA3", "avg_power": ev.avg_power,
            "avg_rates": ev.per_user_avg_rate, "converged": converged,
            "lambda": lam, "method": "offline_exact"}


def ra4_point(setup: CompareSetup) -> dict:
    """Smooth policy on a random quantizer over a configured gain range."""
    hi = setup.ra4_range_scale * float(setup.fading.mean_gain.max())
    grid = build_random(setup.fading, setup.regions, (0.0, hi), setup.ra4_seed)
    _, lam, ev, converged = _smooth_point(setup, grid)
    return {"scheme": "RA4", "avg_power": ev.avg_power,
            "avg_rates": ev.per_user_avg_rate, "converged": converged,
            "lambda": lam, "method": "offline_exact"}


def ra2_point(setup: CompareSetup, grid: QuantizerGrid | None = None) -> dict:
    """Hard-optimal policy: refine the hard dual from the smooth solution.

    Power is the best hard dual value encountered (zero duality gap makes it
    the optimal primal power); the tie LP is attempted at a widened tie
    tolerance to recover sharing weights (infeasibility is reported, not
    fatal — it just means λ has not hit the exact tie-consistent point, and
    the row then carries the rates the hard policy serves at that λ).
    """
    if grid is None:
        grid = build_equiprobable(setup.fading, setup.regions)
    problem, lam_s, ev_s, converged = _smooth_point(setup, grid)

    best_val = -np.inf
    best_lam = lam_s
    lam = lam_s.copy()
    space = problem.space()
    static = problem.static()
    for i in range(setup.ra2_refine_iters):
        ev = exact_dual(setup.model, grid, problem.multipliers(lam), "hard",
                        setup.eps, setup.rate_cap, setup.enum_budget,
                        space, static)
        if ev.value > best_val:
            best_val, best_lam = ev.value, lam.copy()
        lam = np.maximum(0.0, lam + setup.ra2_kappa * (i + 1) ** (-0.51)
                         * ev.subgradient)
    mult = problem.multipliers(best_lam)
    row = {"scheme": "RA2", "avg_power": best_val, "converged": converged,
           "lambda": best_lam, "method": "hard_dual_refined"}
    try:
        instances, r_one = find_tie_instances(
            grid, setup.model, mult, rate_cap=setup.rate_cap,
            budget=setup.enum_budget, tie_rtol=setup.ra2_tie_rtol)
        sol = solve_tie_lp(mult, instances, r_one)
        rates = r_one.copy()
        for inst, w in zip(instances, sol.weights):
            rates[inst.members] += inst.prob * inst.rates * w
        row["avg_rates"] = rates
        row["tie_lp_feasible"] = True
    except TieInfeasibleError:
        # report what the hard policy serves at best_lam (ties to the
        # lowest user index), not the targets it was meant to meet
        row["avg_rates"] = exact_dual(
            setup.model, grid, mult, "hard", setup.eps, setup.rate_cap,
            setup.enum_budget, space, static).per_user_avg_rate
        row["tie_lp_feasible"] = False
    return row


def ra5_point(setup: CompareSetup, grid: QuantizerGrid | None = None) -> dict:
    """Round-robin fixed scheduling with on/off constant power per user."""
    if grid is None:
        grid = build_equiprobable(setup.fading, setup.regions)
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
        if target > 0:
            hi = 1.0
            for _ in range(200):
                if served(hi) >= target:
                    break
                hi *= 2.0
            else:
                raise NumericError("RA5 cannot meet the rate target", target)
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
    return {"scheme": "RA5", "avg_power": power, "avg_rates": rates,
            "converged": True, "power_levels": levels, "method": "heuristic"}


def ra1_point(setup: CompareSetup) -> dict:
    """Perfect-CSI proxy via a fine quantizer (upper bound on RA1 power)."""
    grid = build_equiprobable(setup.fading, setup.ra1_regions)
    M = grid.num_users
    if setup.ra1_regions ** M <= setup.enum_budget:
        sub = CompareSetup(**{**setup.__dict__, "regions": setup.ra1_regions})
        row = ra3_point(sub, grid)
        row["scheme"] = "RA1"
        row["method"] = "offline_exact_fine_grid"
        return row
    problem = Problem(grid=grid, model=setup.model, mu=setup.mu,
                      targets=setup.targets, fading=setup.fading,
                      rate_cap=setup.rate_cap, enum_budget=setup.enum_budget)
    cfg = _solver_cfg(setup, beta=setup.ra1_beta, record_every=1000)
    res = run_online(problem, cfg, setup.ra1_blocks)
    mult = problem.multipliers(res.final_lambda)
    avg_rate, avg_power = mc_primal(setup.model, grid, mult, setup.eps,
                                    setup.fading, setup.ra1_eval_blocks,
                                    first_block=setup.ra1_blocks,
                                    rate_cap=setup.rate_cap)
    return {"scheme": "RA1", "avg_power": avg_power, "avg_rates": avg_rate,
            "converged": True, "lambda": res.final_lambda,
            "method": "online_plus_monte_carlo"}


_SCHEME_FUNCS = {"RA1": ra1_point, "RA2": ra2_point, "RA3": ra3_point,
                 "RA4": ra4_point, "RA5": ra5_point}


def compare_schemes(setup: CompareSetup,
                    schemes=("RA1", "RA2", "RA3", "RA4", "RA5"),
                    snr_db: float | None = None) -> list:
    """Run the requested schemes and return one result row per scheme.

    Rows carry linear weighted power, dB power, per-user average rates and a
    method tag; solver non-convergence is reported in the row, not raised.
    """
    rows = []
    for name in schemes:
        try:
            row = _SCHEME_FUNCS[name](setup)
        except KeyError:
            raise ValueError(f"unknown scheme {name!r}")
        row["snr_db"] = snr_db
        row["power_db"] = (10.0 * math.log10(row["avg_power"])
                           if row["avg_power"] > 0 else -math.inf)
        rows.append(row)
    return rows


def sweep_regions(setup: CompareSetup, regions_list,
                  reference_regions: int | None = 256,
                  snr_db: float | None = None) -> list:
    """Smooth-policy power as the number of regions L grows.

    Returns one row per L (plus a fine-grid reference row when requested);
    power decreases monotonically in L and approaches the reference.
    """
    rows = []
    for L in regions_list:
        sub = CompareSetup(**{**setup.__dict__, "regions": int(L)})
        row = ra3_point(sub)
        row.update(regions=int(L), snr_db=snr_db,
                   power_db=10.0 * math.log10(row["avg_power"]))
        rows.append(row)
    if reference_regions:
        sub = CompareSetup(**{**setup.__dict__,
                              "ra1_regions": int(reference_regions)})
        row = ra1_point(sub)
        row.update(regions=int(reference_regions), snr_db=snr_db,
                   power_db=10.0 * math.log10(row["avg_power"]))
        rows.append(row)
    return rows
