"""Multiplier search: offline smooth/non-smooth iterations and the online
stochastic estimator, with full trajectory recording.

All updates project onto λ ≥ 0. Every solver starts in _start, which
checks that the Problem's targets are reachable (Problem.check_targets),
so infeasible targets raise InfeasibleTargetsError before any evaluation;
SolverConfig has refused a negative or non-finite λ⁽⁰⁾. Every constant or
diminishing step, offline and online, is _ascend's, and those three loops
run under _stepping: a step or an evaluation that overflows raises
FloatingPointError instead of warning. The offline loops call
the per-mode core behind Problem.evaluate (dual.Problem, re-exported here),
serve_smooth or serve_hard, on the data the Problem built once: its class
tables, region probabilities, μ in the tables' shape and the hard rule's
cell weights. Damped Newton evaluates through the checked Problem.evaluate.
The smooth offline iteration takes constant steps (or damped Newton
steps on its analytic Jacobian) on the smooth policy's exact rate deficit
g = ř - r̄, which is not a gradient: its fixed point r̄ = ř, what
serves_targets judges, is not in general where the smooth dual value is
largest. The non-smooth baseline uses the hard subgradient with a
diminishing schedule β_i = κ·i^{-0.51} (square-summable but not summable);
the online iteration replaces the ensemble subgradient with the per-block
estimate computed from the realized Q-CSI only — it never touches Pr{J}.
serves_targets, the one convergence verdict, judges what each result serves;
the non-smooth baseline is judged on a step-weighted average against the
best hard dual value it has seen (its certificate, every CHECK iterates).
``progress``, where a solver takes it, is called as progress(i, λ,
subgradient) at each iterate or block.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import wraps

import numpy as np

from .allocator import block_statics
from .channel import sample_gain_blocks
from .dual import Problem, serve_block
from .quantizer import quantize

# (M, K) cells sampled and quantized at once online, about 2¹⁵: a chunk's
# float arrays stay near 256 kB, in cache
ONLINE_CHUNK = 2 ** 15

# iterates between the non-smooth baseline's certificate checks
CHECK = 1000


def _chunk_blocks(num_users: int, num_channels: int) -> int:
    """The fading blocks of one online or Monte-Carlo chunk: ONLINE_CHUNK
    cells' worth, and at least one."""
    return max(1, ONLINE_CHUNK // (num_users * num_channels))


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
    why the loop stopped, what the run serves and serves_targets on it,
    against ``dual_bound``, the hard dual bound it was certified by (the
    non-smooth baseline's; None for the other loops)."""

    iters: np.ndarray
    lam: np.ndarray
    subgrad: np.ndarray
    rates: np.ndarray
    power: np.ndarray
    reason: str = ""
    converged: bool = False
    served_rates: np.ndarray | None = None
    served_power: float | None = None
    dual_bound: float | None = None

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

    def build(self, reason: str, targets, tol, served=None,
              dual_bound=None) -> Trajectory:
        # every solver records its first iterate, so rows is never empty
        iters, lam, sg, rates, power = zip(*self.rows)
        r, p = served or (rates[-1], power[-1])
        return Trajectory(np.array(iters), np.stack(lam), np.stack(sg),
                          np.stack(rates), np.array(power), reason,
                          serves_targets(r, targets, tol, p, dual_bound,
                                         lam[-1]),
                          r, float(p), dual_bound)


def serves_targets(rates, targets, tol, power=None, dual_bound=None,
                   lam=None) -> bool:
    """The convergence verdict of every solver result and harness row: each
    |ř_m - rates_m| < tol_m, the offline stop rule on the subgradient, and,
    given a hard dual bound D on the served power, power - D ≤ λ·tol."""
    met = (np.abs(np.subtract(targets, rates)) < tol).all()
    if not met or dual_bound is None:
        return bool(met)
    with np.errstate(over="ignore"):    # λ·tol past the float range: the
        return bool(power - dual_bound <= np.sum(lam * tol))   # slack is ∞


def _per_user(value, M: int) -> np.ndarray:
    """A scalar or length-M setting (init, tol) as a fresh float (M,) array."""
    return np.broadcast_to(np.asarray(value, dtype=float), (M,)).copy()


def _start(problem, cfg: SolverConfig) -> tuple:
    """Every solver's start: problem.check_targets(), then λ⁽⁰⁾ and tol as
    fresh float (M,) arrays and an empty _Recorder."""
    problem.check_targets()
    M = problem.num_users
    return (_per_user(cfg.init, M), _per_user(cfg.tol, M),
            _Recorder(cfg.record_every))


def _ascend(lam: np.ndarray, step: float, g: np.ndarray,
            out: np.ndarray | None = None) -> np.ndarray:
    """[λ + step·g]⁺, every loop's constant or diminishing step, in ``out``
    if given. λ⁽⁰⁾ is finite and ≥ 0 and the projection keeps λ ≥ 0; under
    _stepping a step that overflows raises here, before any evaluation at
    it."""
    return np.maximum(0.0, lam + step * g, out=out)


def _stepping(loop):
    """Runs a stepping loop with floating-point overflow and invalid
    operations raised, not warned: a step past the float range, or an
    evaluation or step-weighted sum that overflows at a huge λ, stops the
    run with a FloatingPointError naming the loop and the overflow (the
    CLI's exit 4), never with an inf or NaN result. Overflows that are a
    defined limit run under their own np.errstate, which takes precedence."""
    @wraps(loop)
    def run(*args, **kwargs):
        try:
            with np.errstate(over="raise", invalid="raise"):
                return loop(*args, **kwargs)
        except FloatingPointError as exc:
            raise FloatingPointError(
                f"{loop.__name__}: floating-point {exc}") from exc
    return run


@_stepping
def run_offline_smooth(problem: Problem, cfg: SolverConfig, progress=None):
    """Constant-stepsize ascent on the smooth dual: λ ← [λ + β·∂ˢD]⁺.

    Each iterate runs Problem.serve_smooth, the core behind
    Problem.evaluate, on the Problem's cached class data, records, and
    steps (_ascend). Returns (λ, Trajectory), which serves its last iterate.
    """
    lam, tol, rec = _start(problem, cfg)
    targets, last = problem.targets, cfg.max_iters - 1
    for i in range(cfg.max_iters):
        rate, _, power, _ = problem.serve_smooth(lam, cfg.eps)
        g = targets - rate
        done = serves_targets(rate, targets, tol)
        rec.add(i, lam, g, rate, power, force=done or i == last)
        if progress is not None:
            progress(i, lam, g)
        if done or i == last:
            break
        lam = _ascend(lam, cfg.beta, g)
    return lam, rec.build("converged" if done else "max_iters", targets, tol)


def _solve(a, b):
    """a⁻¹·b by Gauss–Jordan elimination with partial pivoting, for the tiny
    Newton system, on lists of Python floats: LAPACK's first call would grow
    peak RSS by about 0.3 MB, and numpy calls cost more than the arithmetic
    at this size. A zero pivot divides as numpy does, to ±inf or NaN."""
    ab = [row + [v] for row, v in zip(a.tolist(), b.tolist())]
    rows = range(len(ab))
    for c in rows:
        p, top = c, abs(ab[c][c])
        for i in rows[c + 1:]:          # the first largest |pivot|, as max
            if abs(ab[i][c]) > top:
                p, top = i, abs(ab[i][c])
        ab[c], ab[p] = ab[p], ab[c]
        pivot = ab[c][c] or np.float64(ab[c][c])
        row = ab[c] = [v / pivot for v in ab[c]]    # first, or a pivot past
        for i in rows:                              # 2⁵³ zeroes row c
            f = ab[i][c] - (i == c)
            ab[i] = [v - f * w for v, w in zip(ab[i], row)]
    return np.array([r[-1] for r in ab])


def run_offline_newton(problem: Problem, cfg: SolverConfig):
    """Damped Newton ascent on the smooth dual: λ ← [λ + (νI - J)⁻¹·g]⁺, with
    J the accepted evaluation's ``jacobian()``; ν alone damps the step.
    ``problem`` may be any evaluator with a Problem's ``num_users``,
    ``check_targets()`` and ``evaluate``, such as dual.PerfectCSI.
    λ⁽⁰⁾, whatever its ‖g‖ (NaN too), and a trial whose ‖g‖ does not grow
    (non-strict: with no user active, J = 0 and g = ř) are accepted and ν
    drops by 4, else ν rises by 4 (Levenberg–Marquardt, Nocedal & Wright
    §10.3). ν starts at 1/β, so the first step and the stop rule are
    run_offline_smooth's. A projected trial equal to λ (a step that ν or
    λ's rounding absorbs) would repeat λ, and one that is not finite (a
    singular νI - J, or a NaN g at λ⁽⁰⁾) cannot be evaluated: either
    stops the run, "stalled".
    Returns (λ, Trajectory); every evaluation counts toward ``max_iters``,
    and the trajectory indexes accepted steps."""
    lam, tol, rec = _start(problem, cfg)
    trial, M = lam, problem.num_users
    nu, i, best = 4.0 / cfg.beta, -1, np.inf            # λ⁽⁰⁾: ν = 1/β
    reason = "max_iters"
    for _ in range(cfg.max_iters):
        ev = problem.evaluate(trial, "smooth", cfg.eps)
        norm = np.linalg.norm(ev.subgradient)
        if norm <= best or i < 0:           # λ⁽⁰⁾ always is, even at NaN
            lam, kept, best, i, nu = trial, ev, norm, i + 1, nu / 4.0
            rec.add(i, lam, ev.subgradient, ev.per_user_avg_rate, ev.avg_power)
            if serves_targets(ev.per_user_avg_rate, problem.targets, tol):
                reason = "converged"
                break
            jac = ev.jacobian()
        else:
            nu *= 4.0
        trial = np.maximum(0.0, lam + _solve(nu * np.eye(M) - jac,
                                             kept.subgradient))
        if not np.isfinite(trial).all() or np.array_equal(trial, lam):
            reason = "stalled"
            break
    rec.add(i, lam, kept.subgradient, kept.per_user_avg_rate, kept.avg_power,
            force=True)
    return lam, rec.build(reason, problem.targets, tol)


@_stepping
def run_offline_nonsmooth(problem: Problem, cfg: SolverConfig, progress=None):
    """Diminishing-stepsize subgradient ascent on the hard dual.

    The multipliers settle but the hard primal allocation generally keeps
    hovering (winner flips near ties), which is the behavior this baseline
    exists to demonstrate, so the run serves an ergodic average (Larsson,
    Patriksson & Strömberg 1999) of its iterates, weighted by their steps.
    At each multiple n of CHECK below max_iters it serves the average of
    the iterates [n/2, n) and stops, "converged", once serves_targets
    certifies it against the best hard dual value D = λ_i·ř + c_i over
    every iterate so far (c_i the served cost serve_hard returns) and
    λ_{n-1}; else it runs to max_iters and serves the average of the
    iterates i ≥ max_iters // 2, "max_iters", with the same certificate.
    Window averages are differences of running sums of numpy floats, kept
    from iterate min(CHECK // 2, max_iters // 2), so that under _stepping
    a sum that overflows raises. Each iterate runs Problem.serve_hard, the
    core behind Problem.evaluate, and steps as run_offline_smooth does,
    but into the next row of a buffer of CHECK λ rows, from which, with the
    c_i, each check reduces every D at once: no λ is copied or kept alive
    per iterate. So the λ that ``progress`` sees is a row the loop
    overwrites CHECK iterates later. Returns the Trajectory only, whose
    ``dual_bound`` is that best D.
    """
    lam, tol, rec = _start(problem, cfg)
    targets, last = problem.targets, cfg.max_iters - 1
    half, kappa = cfg.max_iters // 2, np.float64(cfg.kappa)
    first = min(CHECK // 2, half)
    # running sums of step, step·rate and step·power from iterate first,
    # and their values where a window starts: each n/2 and half
    weight, rate_sum, power_sum = 0.0, np.zeros_like(lam), 0.0
    # λ_i of the iterates since the last check, row by row, and their c_i
    lams, costs, starts, best = np.empty((CHECK, len(lam))), [], {}, -np.inf
    lams[0] = lam
    lam = lams[0]
    for i in range(cfg.max_iters):
        rate, cost, power = problem.serve_hard(lam)
        g = targets - rate
        costs.append(cost)
        step = kappa * (i + 1) ** (-0.51)
        if i >= first:
            if i % (CHECK // 2) == 0 or i == half:
                starts[i] = weight, rate_sum.copy(), power_sum
            weight += step
            rate_sum += step * rate
            power_sum += step * power
        done = False
        if len(costs) == CHECK or i == last:
            best = max(best, float(((lams[:len(costs)] * targets).sum(axis=1)
                                    + costs).max()))
            costs.clear()
            w0, r0, p0 = starts[half if i == last else (i + 1) // 2]
            served = ((rate_sum - r0) / (weight - w0),
                      (power_sum - p0) / (weight - w0))
            done = i < last and serves_targets(served[0], targets, tol,
                                               served[1], best, lam)
        rec.add(i, lam, g, rate, power, force=done or i == last)
        if progress is not None:
            progress(i, lam, g)
        if done or i == last:
            break
        lam = _ascend(lam, step, g, lams[len(costs)])
    return rec.build("converged" if done else "max_iters", targets, tol,
                     served, best)


@dataclass
class OnlineResult:
    """Per-block multiplier trace and running sample-average rates.

    lam_trace[n] is λ̂ *before* the block-n update (so row 0 is the init,
    matching the offline trajectory convention); sample_avg_rate[n] is the
    running mean of the served rates over blocks 0..n. The trajectory's
    rate and power columns carry the running means at its recorded blocks
    (the quantity whose convergence matters online).
    """

    lam_trace: np.ndarray
    sample_avg_rate: np.ndarray
    final_lambda: np.ndarray
    trajectory: Trajectory


@_stepping
def run_online(problem: Problem, cfg: SolverConfig, num_blocks: int,
               progress=None) -> OnlineResult:
    """Stochastic per-block iteration λ̂[n+1] = [λ̂[n] + β·∂ˢ(J[n])]⁺.

    Needs problem.fading; never enumerates the column space. The Q-CSI does
    not depend on λ, so it is sampled and quantized a chunk of about
    ONLINE_CHUNK cells at a time (_chunk_blocks), with each block's static
    data gathered once per chunk from the Problem's (M, n_classes, L) class
    data through its class map. A block then does only the work that
    depends on λ: one dual.serve_block call (μ shaped once per run) builds
    and serves its own M×K cells; it calls ``progress`` and steps, and
    writes its served rates and weighted power to the chunk's buffer. Per
    chunk, one cumsum over that buffer (a sequential accumulate: the bits
    of adding block by block) and one division give the running averages,
    and the trajectory records the chunk's rows at its stride, so no output
    depends on the chunk size.
    Each block steps through _ascend. The fading model's seed is the only
    seed of the block stream, so runs on the same Problem are bitwise
    reproducible.
    """
    if problem.fading is None:
        raise ValueError("online iteration requires problem.fading")
    if num_blocks < 1:
        raise ValueError("num_blocks must be >= 1")
    lam, tol, rec = _start(problem, cfg)
    M, model, mu = problem.num_users, problem.model, problem.mu[:, None]
    grid, targets, rate_cap = problem.grid, problem.targets, problem.rate_cap
    static, of = problem.static, problem.classes[2]
    chunk = _chunk_blocks(M, grid.num_channels)
    every = cfg.record_every
    lam_trace = np.empty((num_blocks, M))
    avg_rate = np.empty((num_blocks, M))
    # row 0 carries the running sums into a chunk, row i + 1 its block i's
    # served rates (columns :M) and weighted power (column M)
    sums = np.zeros((min(chunk, num_blocks) + 1, M + 1))
    for first in range(0, num_blocks, chunk):
        count = min(chunk, num_blocks - first)
        gains = sample_gain_blocks(problem.fading, first, count)
        cells = block_statics(static, quantize(grid, gains), of)
        for n, block, row in zip(range(first, first + count), cells,
                                 sums[1:]):
            lam_trace[n] = lam
            served, row[M], _ = serve_block(model, block, lam, mu, cfg.eps,
                                            rate_cap)
            row[:M] = served
            g = targets - served
            if progress is not None:
                progress(n, lam, g)
            lam = _ascend(lam, cfg.beta, g)
        csum = np.cumsum(sums[:count + 1], axis=0)
        avg = csum[1:] / np.arange(first + 1, first + count + 1)[:, None]
        avg_rate[first:first + count] = avg[:, :M]
        sums[0] = csum[count]
        recorded = list(range(first + -first % every, first + count, every))
        if first + count == num_blocks:
            recorded.append(num_blocks - 1)     # forced; add drops a repeat
        for n in recorded:
            rec.add(n, lam_trace[n], targets - sums[n - first + 1, :M],
                    avg_rate[n], avg[n - first, M], force=True)
    traj = rec.build("completed", targets, tol)
    return OnlineResult(lam_trace=lam_trace, sample_avg_rate=avg_rate,
                        final_lambda=lam, trajectory=traj)
