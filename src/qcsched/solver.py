"""Multiplier search: offline smooth/non-smooth iterations and the online
stochastic estimator, with full trajectory recording.

All updates project onto λ ≥ 0. Every solver first checks that the
Problem's targets are reachable (Problem.check_targets), so infeasible
targets raise InfeasibleTargetsError before any evaluation. The offline
iterations evaluate through Problem.evaluate (dual.Problem, re-exported
here). The smooth offline iteration uses a constant stepsize on the exact
ε-smooth subgradient (or damped Newton steps on its analytic Jacobian); the
non-smooth baseline uses the hard subgradient with a diminishing schedule
β_i = κ·i^{-0.51} (square-summable but not summable); the online iteration
replaces the ensemble subgradient with the per-block estimate computed from
the realized Q-CSI only — it never touches Pr{J}. serves_targets, the one
convergence verdict, judges what each result serves. ``progress``, where
a solver takes it, is called as progress(i, λ, subgradient) at each iterate
or block.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .allocator import (Prices, block_statics, build_tables, check_lambda,
                        make_static)
from .channel import sample_gain_blocks
from .dual import Problem, block_allocation
from .quantizer import quantize

ONLINE_CHUNK = 1024     # fading blocks sampled and quantized at once online


@dataclass(frozen=True)
class SolverConfig:
    """Iteration knobs.

    beta — constant stepsize (smooth offline and online);
    kappa — scale of the diminishing schedule κ·i^{-0.51} (non-smooth only);
    init — λ^(0), scalar or length-M;
    tol — serves_targets' rate tolerance (scalar or length-M);
    record_every — trajectory thinning stride (the final iterate is always
    recorded).
    """

    beta: float = 1e-2
    kappa: float = 0.1
    init: float | np.ndarray = 0.1
    tol: float | np.ndarray = 1e-3
    max_iters: int = 200_000
    eps: float = 0.05
    record_every: int = 1

    def __post_init__(self):
        if not (0 < self.beta < np.inf and 0 < self.kappa < np.inf):
            raise ValueError("stepsizes must be positive and finite")
        if not np.all(np.asarray(self.tol) > 0):
            raise ValueError("tol must be positive")
        if not np.all((np.asarray(self.init) >= 0) & np.isfinite(self.init)):
            raise ValueError("init must be finite and nonnegative")
        if not (self.max_iters >= 1 and self.record_every >= 1):
            raise ValueError("max_iters and record_every must be >= 1")
        if not 0 < self.eps < np.inf:
            raise ValueError("eps must be positive and finite")


@dataclass
class Trajectory:
    """Recorded iterates: λ, subgradient, per-user rates, weighted power;
    why the loop stopped, what the run serves and serves_targets on it."""

    iters: np.ndarray
    lam: np.ndarray
    subgrad: np.ndarray
    rates: np.ndarray
    power: np.ndarray
    reason: str = ""
    converged: bool = False
    served_rates: np.ndarray | None = None
    served_power: float | None = None

    def write_csv(self, fh) -> None:
        """CSV rows `iter,lambda_*,subgrad_*,rate_*,power` (write_csv)."""
        M = self.lam.shape[1]
        cols = (["iter"]
                + [f"lambda_{m+1}" for m in range(M)]
                + [f"subgrad_{m+1}" for m in range(M)]
                + [f"rate_{m+1}" for m in range(M)]
                + ["power"])
        write_csv(fh, cols, ([i, *lam, *sg, *r, p] for i, lam, sg, r, p in
                             zip(self.iters, self.lam, self.subgrad,
                                 self.rates, self.power)))


def write_csv(fh, header, rows) -> None:
    """One CSV line per row after the header, each ended by LF: strings as
    they are, integers by str and every other value as the repr of its
    float (shortest round-trip form, '.' decimal)."""
    fh.write(",".join(header) + "\n")
    for row in rows:
        fh.write(",".join(
            v if isinstance(v, str) else str(int(v))
            if isinstance(v, (int, np.integer)) else repr(float(v))
            for v in row) + "\n")


class _Recorder:
    def __init__(self, every: int):
        self.every = every
        self.rows = []
        self.last_iter = -1

    def add(self, i, lam, subgrad, rates, power, force=False):
        if force or i % self.every == 0:
            if self.last_iter == i:
                return
            self.rows.append((i, lam.copy(), subgrad.copy(), rates.copy(),
                              float(power)))
            self.last_iter = i

    def build(self, reason: str, targets, tol, served=None) -> Trajectory:
        # every solver records its first iterate, so rows is never empty
        iters, lam, sg, rates, power = zip(*self.rows)
        r, p = served or (rates[-1], power[-1])
        return Trajectory(np.array(iters), np.stack(lam), np.stack(sg),
                          np.stack(rates), np.array(power), reason,
                          serves_targets(r, targets, tol), r, float(p))


def serves_targets(rates, targets, tol, power=None, dual_bound=None,
                   lam=None) -> bool:
    """The convergence verdict of every solver result and harness row: each
    |ř_m - rates_m| < tol_m, the offline stop rule on the subgradient, and,
    given a hard dual bound D on the served power, power - D ≤ λ·tol."""
    met = (np.abs(np.subtract(targets, rates)) < tol).all()
    return bool(met and (dual_bound is None
                         or power - dual_bound <= np.sum(lam * tol)))


def _per_user(value, M: int) -> np.ndarray:
    """A scalar or length-M setting (init, tol) as a fresh float (M,) array."""
    return np.broadcast_to(np.asarray(value, dtype=float), (M,)).copy()


def _run_offline(problem: Problem, cfg: SolverConfig, mode: str, progress=None):
    problem.check_targets()
    M = problem.num_users
    lam = _per_user(cfg.init, M)
    tol = _per_user(cfg.tol, M)
    rec = _Recorder(cfg.record_every)
    weight, rate_sum, power_sum = 0.0, np.zeros(M), 0.0
    for i in range(cfg.max_iters):
        ev = problem.evaluate(lam, mode, cfg.eps)
        done = serves_targets(ev.per_user_avg_rate, problem.targets, tol)
        last = i == cfg.max_iters - 1
        rec.add(i, lam, ev.subgradient, ev.per_user_avg_rate, ev.avg_power,
                force=done or last)
        if progress is not None:
            progress(i, lam, ev.subgradient)
        step = cfg.beta if mode == "smooth" else cfg.kappa * (i + 1) ** (-0.51)
        if mode == "hard" and i >= cfg.max_iters // 2:
            weight += step
            rate_sum += step * ev.per_user_avg_rate
            power_sum += step * ev.avg_power
        if done or last:
            break
        lam = np.maximum(0.0, lam + step * ev.subgradient)
    served = None if done or not weight else (rate_sum / weight,
                                              power_sum / weight)
    return lam, rec.build("converged" if done else "max_iters",
                          problem.targets, tol, served)


def run_offline_smooth(problem: Problem, cfg: SolverConfig, progress=None):
    """Constant-stepsize ascent on the smooth dual: λ ← [λ + β·∂ˢD]⁺.

    Returns (λ, Trajectory), which serves its last iterate.
    """
    return _run_offline(problem, cfg, "smooth", progress)


def _solve(a, b):
    """a⁻¹·b by Gauss–Jordan elimination with partial pivoting, for the tiny
    Newton system: LAPACK's first call would grow peak RSS by about 0.3 MB."""
    ab = np.column_stack([a, b])
    for c in range(len(b)):
        p = c + int(np.argmax(np.abs(ab[c:, c])))
        ab[[c, p]] = ab[[p, c]]
        ab -= np.outer(ab[:, c] - (np.arange(len(b)) == c), ab[c] / ab[c, c])
    return ab[:, -1]


def run_offline_newton(problem: Problem, cfg: SolverConfig):
    """Damped Newton ascent on the smooth dual: λ ← [λ + (νI - J)⁻¹·g]⁺, with
    J the accepted evaluation's ``jacobian()`` and ‖step‖∞ ≤ max(1, ‖λ‖∞).
    ``problem`` may be any evaluator with a Problem's ``num_users``,
    ``check_targets()`` and ``evaluate``, such as dual.PerfectCSI.
    A trial whose ‖g‖ does not grow (non-strict: with no user active, J = 0
    and g = ř) is accepted and ν drops by 4, else ν rises by 4
    (Levenberg–Marquardt, Nocedal & Wright §10.3). ν starts at 1/β, so the
    first step and the stop rule are run_offline_smooth's. Returns
    (λ, Trajectory); every evaluation counts toward ``max_iters``, and the
    trajectory indexes accepted steps."""
    problem.check_targets()
    M = problem.num_users
    tol = _per_user(cfg.tol, M)
    rec = _Recorder(cfg.record_every)
    lam = trial = _per_user(cfg.init, M)
    nu, i, best, done = 4.0 / cfg.beta, -1, np.inf, False  # λ⁽⁰⁾: ν = 1/β
    for _ in range(cfg.max_iters):
        ev = problem.evaluate(trial, "smooth", cfg.eps)
        norm = np.linalg.norm(ev.subgradient)
        if norm <= best:                                # λ⁽⁰⁾ always is
            lam, kept, best, i, nu = trial, ev, norm, i + 1, nu / 4.0
            done = serves_targets(ev.per_user_avg_rate, problem.targets, tol)
            rec.add(i, lam, ev.subgradient, ev.per_user_avg_rate, ev.avg_power)
            if done:
                break
            jac = ev.jacobian()
        else:
            nu *= 4.0
        step = _solve(nu * np.eye(M) - jac, kept.subgradient)
        cap = max(1.0, float(lam.max())) / np.abs(step).max()
        trial = np.maximum(0.0, lam + step * min(1.0, cap))
    rec.add(i, lam, kept.subgradient, kept.per_user_avg_rate, kept.avg_power,
            force=True)
    return lam, rec.build("converged" if done else "max_iters",
                          problem.targets, tol)


def run_offline_nonsmooth(problem: Problem, cfg: SolverConfig, progress=None):
    """Diminishing-stepsize subgradient ascent on the hard dual.

    The multipliers settle but the hard primal allocation generally keeps
    hovering (winner flips near ties), which is the behavior this baseline
    exists to demonstrate; unless the stop rule fires, the run serves the
    ergodic average (Larsson, Patriksson & Strömberg 1999) of the iterates
    i ≥ max_iters // 2, weighted by their steps. Returns the Trajectory only.
    """
    _, traj = _run_offline(problem, cfg, "hard", progress)
    return traj


@dataclass
class OnlineResult:
    """Per-block multiplier trace and cumulative sample averages.

    lam_trace[n] is λ̂ *before* the block-n update (so row 0 is the init,
    matching the offline trajectory convention); sample_avg_* are running
    means over blocks 0..n; the trajectory's rate columns carry the running
    means (the quantity whose convergence matters online).
    """

    lam_trace: np.ndarray
    sample_avg_rate: np.ndarray
    sample_avg_power: np.ndarray
    final_lambda: np.ndarray
    trajectory: Trajectory


def run_online(problem: Problem, cfg: SolverConfig, num_blocks: int,
               progress=None) -> OnlineResult:
    """Stochastic per-block iteration λ̂[n+1] = [λ̂[n] + β·∂ˢ(J[n])]⁺.

    Needs problem.fading; never enumerates the column space. The Q-CSI does
    not depend on λ, so it is sampled and quantized ONLINE_CHUNK blocks at a
    time, with each block's static data gathered once per chunk; a block
    then evaluates R*, Υ(R*) and C_W on its own M×K cells only. λ is checked
    once, at the start: each projected step keeps it finite and nonnegative.
    The fading model's seed is the only seed of the block stream, so runs on
    the same Problem are bitwise reproducible.
    """
    if problem.fading is None:
        raise ValueError("online iteration requires problem.fading")
    if num_blocks < 1:
        raise ValueError("num_blocks must be >= 1")
    problem.check_targets()
    M = problem.num_users
    lam = check_lambda(_per_user(cfg.init, M), M)   # steps keep it so
    static = make_static(problem.grid, problem.model)
    rec = _Recorder(cfg.record_every)
    lam_trace = np.empty((num_blocks, M))
    avg_rate = np.empty((num_blocks, M))
    avg_power = np.empty(num_blocks)
    csum_rate = np.zeros(M)
    csum_power = 0.0
    for first in range(0, num_blocks, ONLINE_CHUNK):
        count = min(ONLINE_CHUNK, num_blocks - first)
        gains = sample_gain_blocks(problem.fading, first, count)
        jmats = quantize(problem.grid, gains)
        cells = block_statics(static, jmats)
        for n, jmat, block in zip(range(first, first + count), jmats, cells):
            lam_trace[n] = lam
            tables = build_tables(problem.model, problem.grid,
                                  Prices(lam, problem.mu), problem.rate_cap,
                                  block)
            served, wpower, _ = block_allocation(tables, lam, jmat, cfg.eps)
            g = problem.targets - served
            csum_rate += served
            csum_power += wpower
            avg_rate[n] = csum_rate / (n + 1)
            avg_power[n] = csum_power / (n + 1)
            rec.add(n, lam, g, avg_rate[n], avg_power[n],
                    force=(n == num_blocks - 1))
            if progress is not None:
                progress(n, lam, g)
            lam = np.maximum(0.0, lam + cfg.beta * g)
    traj = rec.build("completed", problem.targets, _per_user(cfg.tol, M))
    return OnlineResult(lam_trace=lam_trace, sample_avg_rate=avg_rate,
                        sample_avg_power=avg_power, final_lambda=lam,
                        trajectory=traj)
