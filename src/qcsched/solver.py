"""Multiplier search: offline smooth/non-smooth iterations and the online
stochastic estimator, with full trajectory recording.

All updates project onto λ ≥ 0. The smooth offline iteration uses a constant
stepsize on the exact ε-smooth subgradient and stops when every entry drops
below the tolerance; the non-smooth baseline uses the hard subgradient with a
diminishing schedule β_i = κ·i^{-0.51} (square-summable but not summable);
the online iteration replaces the ensemble subgradient with the per-block
estimate computed from the realized Q-CSI only — it never touches Pr{J}.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import quantizer as qz
from .allocator import (DEFAULT_RATE_CAP, Multipliers, block_statics,
                        build_tables, make_static)
from .channel import FadingModel, sample_gain_blocks
from .dual import block_allocation, exact_dual
from .powerrate import PowerRate
from .quantizer import QuantizerGrid, quantize

ONLINE_CHUNK = 1024     # fading blocks sampled and quantized at once online


@dataclass
class Problem:
    """One allocation instance: quantized channels, Υ family, weights/targets.

    ``fading`` is only needed by the online path (it is sampled); offline
    evaluations work entirely from the grid's region probabilities.
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
        self._space = None
        self._static: tuple | None = None

    @property
    def num_users(self) -> int:
        return self.grid.num_users

    def multipliers(self, lam) -> Multipliers:
        return Multipliers(np.asarray(lam, dtype=float), self.mu, self.targets)

    def space(self):
        if self._space is None:
            self._space = qz.column_space(self.grid, self.enum_budget)
        return self._space

    def static(self) -> tuple:
        if self._static is None:
            self._static = make_static(self.grid, self.model)
        return self._static


@dataclass(frozen=True)
class SolverConfig:
    """Iteration knobs.

    beta — constant stepsize (smooth offline and online);
    kappa — scale of the diminishing schedule κ·i^{-0.51} (non-smooth only);
    init — λ^(0), scalar or length-M;
    tol — stop when every |subgradient entry| < tol (scalar or length-M);
    seed — online only; overrides the fading model's seed when set;
    record_every — trajectory thinning stride (the final iterate is always
    recorded).
    """

    beta: float = 1e-2
    kappa: float = 0.1
    init: float | np.ndarray = 0.1
    tol: float | np.ndarray = 1e-3
    max_iters: int = 200_000
    eps: float = 0.05
    seed: int | None = None
    record_every: int = 1

    def __post_init__(self):
        if self.beta <= 0 or self.kappa <= 0:
            raise ValueError("stepsizes must be positive")
        if np.any(np.asarray(self.tol) <= 0):
            raise ValueError("tol must be positive")
        if np.any(np.asarray(self.init) < 0):
            raise ValueError("init must be nonnegative")
        if self.max_iters < 1 or self.record_every < 1:
            raise ValueError("max_iters and record_every must be >= 1")
        if self.eps <= 0:
            raise ValueError("eps must be positive")


@dataclass
class Trajectory:
    """Recorded iterates: λ, subgradient, per-user rates, weighted power."""

    iters: np.ndarray
    lam: np.ndarray
    subgrad: np.ndarray
    rates: np.ndarray
    power: np.ndarray
    reason: str = ""
    converged: bool = False

    def write_csv(self, fh) -> None:
        """CSV rows `iter,lambda_*,subgrad_*,rate_*,power` with repr floats
        (shortest round-trip form, '.' decimal, LF endings)."""
        M = self.lam.shape[1]
        cols = (["iter"]
                + [f"lambda_{m+1}" for m in range(M)]
                + [f"subgrad_{m+1}" for m in range(M)]
                + [f"rate_{m+1}" for m in range(M)]
                + ["power"])
        fh.write(",".join(cols) + "\n")
        for i in range(len(self.iters)):
            row = [str(int(self.iters[i]))]
            row += [repr(float(v)) for v in self.lam[i]]
            row += [repr(float(v)) for v in self.subgrad[i]]
            row += [repr(float(v)) for v in self.rates[i]]
            row.append(repr(float(self.power[i])))
            fh.write(",".join(row) + "\n")


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

    def build(self, reason: str, converged: bool, M: int) -> Trajectory:
        if self.rows:
            iters = np.array([r[0] for r in self.rows])
            lam = np.stack([r[1] for r in self.rows])
            sg = np.stack([r[2] for r in self.rows])
            rates = np.stack([r[3] for r in self.rows])
            power = np.array([r[4] for r in self.rows])
        else:
            iters = np.zeros(0, dtype=int)
            lam = sg = rates = np.zeros((0, M))
            power = np.zeros(0)
        return Trajectory(iters, lam, sg, rates, power, reason, converged)


def _init_lambda(cfg: SolverConfig, M: int) -> np.ndarray:
    return np.broadcast_to(np.asarray(cfg.init, dtype=float), (M,)).copy()


def _tol_vector(cfg: SolverConfig, M: int) -> np.ndarray:
    return np.broadcast_to(np.asarray(cfg.tol, dtype=float), (M,)).copy()


def _run_offline(problem: Problem, cfg: SolverConfig, mode: str, progress=None):
    M = problem.num_users
    lam = _init_lambda(cfg, M)
    tol = _tol_vector(cfg, M)
    rec = _Recorder(cfg.record_every)
    space = problem.space()
    static = problem.static()
    converged = False
    for i in range(cfg.max_iters):
        ev = exact_dual(problem.model, problem.grid, problem.multipliers(lam),
                        mode, cfg.eps, problem.rate_cap, problem.enum_budget,
                        space, static)
        done = bool(np.all(np.abs(ev.subgradient) < tol))
        last = i == cfg.max_iters - 1
        rec.add(i, lam, ev.subgradient, ev.per_user_avg_rate, ev.avg_power,
                force=done or last)
        if progress is not None:
            progress(i, lam, ev)
        if done:
            converged = True
            break
        if last:
            break
        step = cfg.beta if mode == "smooth" else cfg.kappa * (i + 1) ** (-0.51)
        lam = np.maximum(0.0, lam + step * ev.subgradient)
    reason = "converged" if converged else "max_iters"
    return lam, rec.build(reason, converged, M)


def run_offline_smooth(problem: Problem, cfg: SolverConfig, progress=None):
    """Constant-stepsize ascent on the smooth dual: λ ← [λ + β·∂ˢD]⁺.

    Returns (λ, Trajectory); at convergence the per-user average rates match
    the targets within the stop tolerance.
    """
    return _run_offline(problem, cfg, "smooth", progress)


def run_offline_nonsmooth(problem: Problem, cfg: SolverConfig, progress=None):
    """Diminishing-stepsize subgradient ascent on the hard dual.

    The multipliers settle but the hard primal allocation generally keeps
    hovering (winner flips near ties), which is the behavior this baseline
    exists to demonstrate. Returns the Trajectory only.
    """
    _, traj = _run_offline(problem, cfg, "hard", progress)
    return traj


def multiplier_settled(traj: Trajectory, tail_frac: float = 0.1,
                       rel_tol: float = 0.01) -> bool:
    """Whether the multiplier trace stopped moving.

    The hard-dual baseline hovers in the primal forever, so its subgradient
    stop rule never fires; dual convergence is instead judged on the trace:
    per user, the λ spread over the trailing ``tail_frac`` of the iteration
    range, relative to the mean |λ| there, must stay below ``rel_tol``.
    """
    if len(traj.iters) == 0:
        return False
    span = traj.iters[-1] - traj.iters[0]
    sel = traj.iters >= traj.iters[-1] - tail_frac * span
    lam = traj.lam[sel]
    spread = lam.max(axis=0) - lam.min(axis=0)
    scale = np.maximum(np.abs(lam).mean(axis=0), 1e-12)
    return bool(np.all(spread / scale < rel_tol))


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
    then evaluates R*, Υ(R*) and C_W on its own M×K cells only. Seeded runs
    are bitwise reproducible.
    """
    if problem.fading is None:
        raise ValueError("online iteration requires problem.fading")
    if num_blocks < 1:
        raise ValueError("num_blocks must be >= 1")
    fading = problem.fading
    if cfg.seed is not None:
        fading = FadingModel(fading.mean_gain, cfg.seed)
    M = problem.num_users
    lam = _init_lambda(cfg, M)
    static = problem.static()
    rec = _Recorder(cfg.record_every)
    lam_trace = np.empty((num_blocks, M))
    avg_rate = np.empty((num_blocks, M))
    avg_power = np.empty(num_blocks)
    csum_rate = np.zeros(M)
    csum_power = 0.0
    for first in range(0, num_blocks, ONLINE_CHUNK):
        count = min(ONLINE_CHUNK, num_blocks - first)
        jmats = quantize(problem.grid, sample_gain_blocks(fading, first, count))
        cells = block_statics(static, jmats - 1)
        for n, jmat, block in zip(range(first, first + count), jmats, cells):
            lam_trace[n] = lam
            mult = problem.multipliers(lam)
            tables = build_tables(problem.model, problem.grid, mult,
                                  problem.rate_cap, block)
            served, wpower, _ = block_allocation(tables, mult, jmat, cfg.eps)
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
    traj = rec.build("completed", False, M)
    return OnlineResult(lam_trace=lam_trace, sample_avg_rate=avg_rate,
                        sample_avg_power=avg_power, final_lambda=lam,
                        trajectory=traj)
