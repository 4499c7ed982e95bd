"""The four benchmark workloads: inputs from a seed, timed operations, checks.

Run as a script, this file is one workload process (``run.py`` starts it):

    python3 perfbench/workloads.py --workload NAME --seed N --seconds S \
        --trace 0|1 [--spans FILE] [--setup-only]

It prints one JSON object on its last stdout line. Only inputs made from the
seed reach the library, always through qcsched's public API.

A workload is a list of operations per pass. Pass ``p`` always runs the same
inputs for a given seed, so a traced pass repeats exactly. ``--trace 0`` runs
passes until the next one would overrun ``--seconds`` (at least one) and
reports medians. ``--trace 1`` runs pass 0 untraced, traced and untraced
again, and reports the per-layer metrics of the traced pass. Outputs are
checked after the timed passes, outside the timed regions.
"""

import time

_T0 = time.perf_counter()          # setup_s: import qcsched + make inputs

import argparse                    # noqa: E402
import json                        # noqa: E402
import resource                    # noqa: E402
import statistics                  # noqa: E402
import sys                         # noqa: E402
import traceback                   # noqa: E402
from pathlib import Path           # noqa: E402

import numpy as np                 # noqa: E402

import qcsched as q                # noqa: E402

HERE = Path(__file__).resolve().parent
REFERENCE = json.loads((HERE / "reference.json").read_text())
SNR_DB = 6.0
EPS = 0.05


def flat_fading(M: int, K: int, seed: int) -> "q.FadingModel":
    mg = np.full((M, K), float(q.snr_db_to_mean_gain(SNR_DB)))
    return q.FadingModel(mg, seed=seed)


def rotated_lattice(rng, z, n: int, lo: float, hi: float):
    """Rank-1 lattice {i·z/n} in [lo, hi]^len(z), shifted by one uniform draw
    modulo 1 (Cranley and Patterson, 1976). Every seed gets different points
    with the same even coverage, so per-seed timings vary less than with
    independent draws."""
    u = (np.arange(n)[:, None] * np.asarray(z) / n + rng.random(len(z))) % 1.0
    return lo + (hi - lo) * u


def tail(values):
    """Highest order statistic with at least 10 samples above it, as
    (value, percentile, n), or None when there are 10 samples or fewer."""
    n = len(values)
    if n <= 10:
        return None
    return sorted(values)[n - 11], 100.0 * (n - 10) / n, n


# The host the benchmark was written on is shared, and its speed drifts by
# 10-40% within minutes. Each operation's wall time is therefore reported
# scaled to a nominal machine speed: multiplied by KERNEL_NOMINAL_S over the
# mean time of a fixed numpy kernel timed just before and just after the
# operation. The kernel never calls qcsched, so no program change moves it.
_KERNEL_INPUT = np.random.default_rng(0).random((16, 256, 4)) - 0.5
KERNEL_NOMINAL_S = 0.003


def kernel_s() -> float:
    """Median of 3 timings of a fixed computation shaped like one smooth
    exact-dual evaluation on the tc1 shape."""
    x = _KERNEL_INPUT
    times = []
    for _ in range(3):
        t0 = time.perf_counter()
        for _ in range(8):
            d = x - x.min(axis=2, keepdims=True)
            float((np.where(d < 0.05, (1.0 - d / 0.05) ** 2, 0.0) * x).sum())
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def fingerprint(*arrays) -> bytes:
    return b"".join(np.ascontiguousarray(a, dtype=float).tobytes()
                    for a in arrays)


class OfflineSolves:
    """Repeated offline smooth solves from seed-drawn λ⁽⁰⁾ on fresh Problems.

    Each pass solves from the points of a freshly rotated lattice in
    [0.02, 1]^M, so no two solves share a trajectory.
    """

    PASS_SOLVES = 8

    def __init__(self, seed: int):
        self.rng = np.random.default_rng(seed)
        self.grid = q.build_equiprobable(flat_fading(self.M, self.K, seed),
                                         self.L)
        self.mu = np.ones(self.M)
        self.targets = np.array(self.TARGETS, dtype=float)
        self.ref = REFERENCE[self.name]
        self.inits = []

    def pass_inits(self, p: int):
        while len(self.inits) <= p:
            self.inits.append(rotated_lattice(self.rng, self.LATTICE,
                                              self.PASS_SOLVES, 0.02, 1.0))
        return self.inits[p]

    def solve(self, init):
        problem = q.Problem(grid=self.grid, model=self.model, mu=self.mu,
                            targets=self.targets)
        cfg = q.SolverConfig(beta=self.BETA, tol=self.TOL, init=init, eps=EPS,
                             max_iters=self.MAX_ITERS)
        return q.run_offline_smooth(problem, cfg)

    def ops(self, p: int):
        return [("solve", self.solve, (init,)) for init in self.pass_inits(p)]

    def mult(self, lam):
        return q.Multipliers(lam, self.mu, self.targets)

    def check_solve(self, out):
        lam, traj = out
        bad = []
        if not traj.converged:
            bad.append(f"solve stopped with {traj.reason!r}")
        ev = q.exact_dual(self.model, self.grid, self.mult(lam), "smooth", EPS)
        sg = float(np.max(np.abs(ev.subgradient)))
        if not sg < self.TOL:
            bad.append(f"max|subgradient| {sg:.3g} >= tol {self.TOL}")
        ident = ev.avg_power + float(lam @ ev.subgradient)
        if abs(ev.value - ident) > 1e-9 * (1.0 + abs(ev.value)):
            bad.append(f"value {ev.value!r} != avg_power + lambda.subgradient "
                       f"{ident!r}")
        lam_ref = np.array(self.ref["lambda"])
        lam_atol = (2.0 * np.sqrt(self.M) * self.TOL
                    / self.ref["min_abs_jacobian_eig"])
        power_atol = 2.0 * self.TOL * float(lam_ref.sum())
        dlam = float(np.max(np.abs(lam - lam_ref)))
        if not dlam <= lam_atol:
            bad.append(f"lambda off the reference by {dlam:.3g} > {lam_atol:.3g}")
        dpow = abs(ev.avg_power - self.ref["power"])
        if not dpow <= power_atol:
            bad.append(f"power off the reference by {dpow:.3g} > {power_atol:.3g}")
        return bad, ev

    def check(self, label, out):
        return self.check_solve(out)[0]

    def fingerprint(self, label, out):
        lam, traj = out
        return fingerprint(lam, traj.rates[-1], traj.power[-1])

    def solve_walls(self, done):
        return [w for label, w, _ in done if label == "solve"]

    def per_pass(self, values):
        n = self.PASS_SOLVES
        return [sum(values[i:i + n]) for i in range(0, len(values), n)]

    def pass_solve_walls(self, done):
        """Wall time of each pass's solves."""
        return self.per_pass(self.solve_walls(done))

    def report(self, done):
        walls = self.solve_walls(done)
        solve_s = statistics.median(walls)
        lines = [("solve_s", solve_s, "s", f"median of {len(walls)} solves")]
        t = tail(walls)
        if t is None:
            lines.append(("solve_s_tail", None, "s",
                          f"needs more than 10 solves, have {len(walls)}"))
        else:
            lines.append(("solve_s_tail", t[0], "s",
                          f"p{t[1]:.1f} of {t[2]} solves"))
        return lines


class Tc1Offline(OfflineSolves):
    """The paper's Test Case 1 on the enumerated exact dual, then the
    non-smooth baseline for a fixed iteration budget."""

    name = "tc1_offline"
    M, K, L = 4, 16, 4
    TARGETS = (4.0, 8.0, 12.0, 16.0)
    BETA, TOL, MAX_ITERS = 8e-3, 1e-3, 2000    # converges in 166-197
    LATTICE = (1, 3, 5, 7)
    KAPPA, HARD_ITERS = 0.1, 1000

    def __init__(self, seed: int):
        self.model = q.OutageCapacity(outage_delta=0.0)
        super().__init__(seed)

    def nonsmooth(self, init):
        problem = q.Problem(grid=self.grid, model=self.model, mu=self.mu,
                            targets=self.targets)
        cfg = q.SolverConfig(kappa=self.KAPPA, init=init, eps=EPS,
                             max_iters=self.HARD_ITERS,
                             record_every=self.HARD_ITERS)
        return q.run_offline_nonsmooth(problem, cfg)

    def ops(self, p: int):
        return super().ops(p) + [("nonsmooth", self.nonsmooth,
                                  (self.pass_inits(p)[0],))]

    def check(self, label, out):
        if label == "nonsmooth":
            return self.check_nonsmooth(out)
        bad, ev = self.check_solve(out)
        hard = q.exact_dual(self.model, self.grid, self.mult(out[0]), "hard",
                            EPS)
        gap = self.K * EPS
        if not (hard.value <= ev.value + 1e-12 * abs(ev.value)
                and ev.value < hard.value + gap):
            bad.append(f"D={hard.value!r}, Ds={ev.value!r} break "
                       f"D <= Ds < D + K*eps")
        return bad

    def check_nonsmooth(self, traj):
        bad = []
        if int(traj.iters[-1]) + 1 != self.HARD_ITERS:
            bad.append(f"ran {int(traj.iters[-1]) + 1} of {self.HARD_ITERS} "
                       f"iterations")
        lam = traj.lam[-1]
        if not (np.all(np.isfinite(lam)) and np.all(lam >= 0.0)):
            bad.append(f"lambda {lam} is not finite and nonnegative")
            return bad
        # weak duality: D(λ) <= Ds(λ) <= max Ds, which the smooth solution
        # attains up to λ·subgradient
        d = q.exact_dual(self.model, self.grid, self.mult(lam), "hard", EPS)
        bound = self.ref["power"] + 2.0 * self.TOL * sum(self.ref["lambda"])
        if not d.value <= bound:
            bad.append(f"hard dual value {d.value!r} above the smooth optimum "
                       f"{bound!r}")
        return bad

    def fingerprint(self, label, out):
        if label == "nonsmooth":
            return fingerprint(out.lam[-1], out.rates[-1], out.power[-1])
        return super().fingerprint(label, out)

    def end_to_end(self, done):
        hard = [w for label, w, _ in done if label == "nonsmooth"]
        return (statistics.median(self.pass_solve_walls(done)),
                statistics.median(hard))

    def report(self, done):
        hard = [w for label, w, _ in done if label == "nonsmooth"]
        return super().report(done) + [
            ("hard_iters_per_s", self.HARD_ITERS / statistics.median(hard),
             "iter/s", f"{self.HARD_ITERS} iterations, median of {len(hard)} runs")]


class ErgodicSmall(OfflineSolves):
    """Offline solves on the ergodic-capacity family, whose tables need
    bracket-and-bisect root-finds over the exponential integral."""

    name = "ergodic_small"
    M, K, L = 2, 4, 4
    TARGETS = (2.0, 3.0)
    BETA, TOL, MAX_ITERS = 0.1, 1e-3, 100       # converges in 5-10
    LATTICE = (1, 3)

    def __init__(self, seed: int):
        self.model = q.ErgodicCapacity()
        super().__init__(seed)

    def per_iteration(self, done):
        """Wall time per smooth iteration over each pass's solves."""
        iters = self.per_pass([int(out[1].iters[-1]) + 1
                               for label, _, out in done if label == "solve"])
        return [w / n for w, n in zip(self.pass_solve_walls(done), iters)]

    def end_to_end(self, done):
        return (statistics.median(self.pass_solve_walls(done)),
                statistics.median(self.per_iteration(done)))

    def report(self, done):
        per_it = self.per_iteration(done)
        return super().report(done) + [
            ("s_per_iteration", statistics.median(per_it), "s",
             f"median over {len(per_it)} passes of {self.PASS_SOLVES} solves")]


class Ra1Online:
    """RA1's perfect-CSI proxy: online multipliers on a 256-region quantizer,
    then a Monte-Carlo primal evaluation on the blocks that follow."""

    name = "ra1_online"
    M, K, L = 3, 64, 256
    TARGETS = (40.0, 70.0, 100.0)
    BETA, INIT = 2e-3, 0.1
    ONLINE_BLOCKS, MC_BLOCKS = 1000, 8000
    PREFIX_BLOCKS = 50

    def __init__(self, seed: int):
        rng = np.random.default_rng(seed)
        self.fading = flat_fading(self.M, self.K, int(rng.integers(2 ** 63)))
        self.grid = q.build_equiprobable(self.fading, self.L)
        self.model = q.OutageCapacity(outage_delta=0.0)
        self.mu = np.ones(self.M)
        self.targets = np.array(self.TARGETS)
        self.moments = {}

    def online(self, blocks):
        problem = q.Problem(grid=self.grid, model=self.model, mu=self.mu,
                            targets=self.targets, fading=self.fading)
        cfg = q.SolverConfig(beta=self.BETA, init=self.INIT, eps=EPS,
                             record_every=1000)
        return q.run_online(problem, cfg, blocks)

    def mc(self, lam, blocks, first_block):
        mult = q.Multipliers(lam, self.mu, self.targets)
        return q.mc_primal(self.model, self.grid, mult, EPS, self.fading, blocks,
                           first_block=first_block)

    def ops(self, p: int):
        state = {}

        def online():
            state["res"] = self.online(self.ONLINE_BLOCKS)
            return state["res"]

        def mc():
            lam = state["res"].final_lambda
            return lam, self.mc(lam, self.MC_BLOCKS, self.ONLINE_BLOCKS)

        return [("online", online, ()), ("mc", mc, ())]

    def check(self, label, out):
        return self.check_online(out) if label == "online" else self.check_mc(*out)

    def check_online(self, res):
        lam = np.vstack([res.lam_trace, res.final_lambda])
        if not (np.all(np.isfinite(lam)) and np.all(lam >= 0.0)):
            return ["online lambda is not finite and nonnegative"]
        # λ_N = λ_0 + β·Σ(ř - served) while no step is clipped at 0, so the
        # sample-average rate is ř - (λ_N - λ_0)/(βN) to rounding
        if np.any(lam[1:] == 0.0):
            return []
        n = len(res.lam_trace)
        expect = self.targets - (res.final_lambda - self.INIT) / (self.BETA * n)
        err = float(np.max(np.abs(res.sample_avg_rate[-1] - expect)))
        if err > 1e-9 * float(self.targets.max()):
            return [f"sample-average rates miss r - dlambda/(beta*N) by {err:.3g}"]
        return []

    def exact_block_moments(self, lam):
        """Mean and variance of one block's served rates and weighted power
        at λ, enumerating a channel's L^M columns: every channel here has the
        same ladders and mean gain, and channels fade independently.

        The weights follow their definition, ∝ (1 - (C - c*)/ε)² over users
        with C - c* < ε when c* < 0, independently of the library's code.
        """
        key = np.asarray(lam, dtype=float).tobytes()
        if key in self.moments:
            return self.moments[key]
        mult = q.Multipliers(lam, self.mu, self.targets)
        tables = q.build_tables(self.model, self.grid, mult)
        cost, rate = tables.cost[:, 0, :], tables.rate[:, 0, :]      # (M, L)
        prob = q.region_prob_table(self.grid)[:, 0, :]
        # users 1..M-1 over every joint region, user 0 one region at a time
        idx = [i.ravel() for i in
               np.meshgrid(*[np.arange(self.L)] * (self.M - 1), indexing="ij")]
        c_rest = np.stack([cost[m + 1, i] for m, i in enumerate(idx)])
        r_rest = np.stack([rate[m + 1, i] for m, i in enumerate(idx)])
        p_rest = np.prod([prob[m + 1, i] for m, i in enumerate(idx)], axis=0)
        min_rest = c_rest.min(axis=0)
        m1 = np.zeros(self.M + 1)
        m2 = np.zeros(self.M + 1)
        for l0 in range(self.L):
            c0, r0 = cost[0, l0], rate[0, l0]
            cstar = np.minimum(min_rest, c0)
            diff = np.vstack([c0 - cstar, c_rest - cstar])
            raw = np.where((cstar < 0.0) & (diff < EPS),
                           (1.0 - diff / EPS) ** 2, 0.0)
            z = raw.sum(axis=0)
            w = raw / np.where(z > 0.0, z, 1.0)
            r = np.vstack([np.full_like(min_rest, r0), r_rest])
            c = np.vstack([np.full_like(min_rest, c0), c_rest])
            served = r * w
            power = ((c + lam[:, None] * r) * w).sum(axis=0)
            x = np.vstack([served, power])
            p = prob[0, l0] * p_rest
            m1 += x @ p
            m2 += (x * x) @ p
        self.moments[key] = (self.K * m1,
                             self.K * np.maximum(m2 - m1 * m1, 0.0))
        return self.moments[key]

    def check_mc(self, lam, result):
        avg_rate, avg_power = result
        if not (np.all(np.isfinite(avg_rate)) and np.isfinite(avg_power)):
            return ["Monte-Carlo averages are not finite"]
        mean, var = self.exact_block_moments(lam)
        se = np.sqrt(var / self.MC_BLOCKS)
        got = np.append(avg_rate, avg_power)
        z = np.abs(got - mean) / np.maximum(se, 1e-300)
        if np.any(z > 5.0):
            return [f"Monte-Carlo averages {got} are {z.max():.1f} standard "
                    f"errors from the exact expectation {mean}"]
        return []

    def global_checks(self):
        """Same-seed reruns of a short prefix must be bitwise identical."""
        a = self.online(self.PREFIX_BLOCKS)
        b = self.online(self.PREFIX_BLOCKS)
        same_online = (fingerprint(a.lam_trace, a.sample_avg_rate, a.final_lambda)
                       == fingerprint(b.lam_trace, b.sample_avg_rate,
                                      b.final_lambda))
        lam = a.final_lambda
        ma = self.mc(lam, 4 * self.PREFIX_BLOCKS, self.PREFIX_BLOCKS)
        mb = self.mc(lam, 4 * self.PREFIX_BLOCKS, self.PREFIX_BLOCKS)
        same_mc = fingerprint(*ma) == fingerprint(*mb)
        return [("same_seed_prefix",
                 [] if same_online and same_mc
                 else [f"reruns differ: online {not same_online}, "
                       f"mc {not same_mc}"])]

    def fingerprint(self, label, out):
        if label == "online":
            return fingerprint(out.lam_trace, out.sample_avg_rate,
                               out.final_lambda)
        return fingerprint(out[0], *out[1])

    def walls(self, done, label):
        return [w for lb, w, _ in done if lb == label]

    def end_to_end(self, done):
        return (statistics.median(self.walls(done, "online")),
                statistics.median(self.walls(done, "mc")))

    def report(self, done):
        on, mc = self.walls(done, "online"), self.walls(done, "mc")
        return [
            ("online_blocks_per_s", self.ONLINE_BLOCKS / statistics.median(on),
             "blocks/s", f"{self.ONLINE_BLOCKS} blocks, median of {len(on)} runs"),
            ("mc_blocks_per_s", self.MC_BLOCKS / statistics.median(mc),
             "blocks/s", f"{self.MC_BLOCKS} blocks, median of {len(mc)} runs"),
        ]


class SchemesSweep:
    """The bundled sweep_regions and compare_schemes configs without RA1."""

    name = "schemes_sweep"
    M, K = 3, 64
    TARGETS = (40.0, 70.0, 100.0)
    SWEEP_L = (2, 3, 4, 5, 6, 8)
    SCHEMES = ("RA2", "RA3", "RA4", "RA5")

    def __init__(self, seed: int):
        rng = np.random.default_rng(seed)
        fading = flat_fading(self.M, self.K, int(rng.integers(2 ** 63)))
        self.setup = q.CompareSetup(
            fading=fading, regions=4,
            model=q.OutageCapacity(outage_delta=0.0), mu=np.ones(self.M),
            targets=np.array(self.TARGETS), eps=EPS, beta=1e-3, tol=1e-3,
            max_iters=20_000, ra4_seed=int(rng.integers(2 ** 32)),
            ra4_range_scale=3.0)

    def ops(self, p: int):
        state = {}

        def sweep():
            state["sweep"] = q.sweep_regions(self.setup, self.SWEEP_L,
                                             reference_regions=None)
            return state["sweep"]

        def compare():
            return state["sweep"], q.compare_schemes(self.setup, self.SCHEMES)

        return [("sweep", sweep, ()), ("compare", compare, ())]

    def check(self, label, out):
        tol = self.setup.tol
        rows = out if label == "sweep" else out[1]
        bad = [f"{r.get('regions', r['scheme'])}: not converged"
               for r in rows if not r["converged"]]
        for r in rows:
            if r["scheme"] == "RA3" or r["scheme"] == "RA4":
                err = float(np.max(np.abs(r["avg_rates"] - self.setup.targets)))
                if not err < tol:
                    bad.append(f"{r.get('regions', r['scheme'])}: rates miss "
                               f"the targets by {err:.3g}")
        if label == "sweep":
            power = [r["avg_power"] for r in rows]
            if not all(a > b for a, b in zip(power, power[1:])):
                bad.append(f"sweep power is not decreasing in L: {power}")
            return bad
        by = {r["scheme"]: r["avg_power"] for r in rows}
        if not (by["RA3"] <= by["RA4"] and by["RA3"] <= by["RA5"]):
            bad.append(f"RA3 power {by['RA3']} above RA4 {by['RA4']} "
                       f"or RA5 {by['RA5']}")
        if not abs(by["RA3"] - by["RA2"]) <= self.K * EPS:
            bad.append(f"RA2 {by['RA2']} and RA3 {by['RA3']} differ by more "
                       f"than K*eps")
        return bad

    def fingerprint(self, label, out):
        rows = out if label == "sweep" else out[1]
        return fingerprint([r["avg_power"] for r in rows],
                           *[r["lambda"] for r in rows if "lambda" in r])

    def walls(self, done):
        """(sweep + compare, compare) wall time of each pass."""
        sweep = [w for label, w, _ in done if label == "sweep"]
        compare = [w for label, w, _ in done if label == "compare"]
        return [a + b for a, b in zip(sweep, compare)], compare

    def end_to_end(self, done):
        total, compare = self.walls(done)
        return statistics.median(total), statistics.median(compare)

    def report(self, done):
        total, compare = self.walls(done)
        return [
            ("schemes_s", statistics.median(total), "s",
             f"sweep L={list(self.SWEEP_L)} + compare {list(self.SCHEMES)}, "
             f"median of {len(total)}"),
            ("compare_s", statistics.median(compare), "s",
             f"the compare part, median of {len(compare)}"),
        ]


WORKLOADS = {w.name: w for w in (Tc1Offline, Ra1Online, SchemesSweep,
                                   ErgodicSmall)}


# --- running ---------------------------------------------------------------

def run_pass(w, p: int, tally, rec=None, scaled=None):
    """Run pass p; returns [(label, wall_s, output)] for the ops that ran.
    Appends each op's wall time at nominal machine speed to ``scaled``."""
    done = []
    k = kernel_s() if scaled is not None else 0.0
    for i, (label, fn, args) in enumerate(w.ops(p)):
        if rec is not None:
            rec.run_id = i
        t0 = time.perf_counter()
        try:
            out = fn(*args)
        except Exception:                        # counted, run goes on
            tally.fail(f"pass {p} {label}", traceback.format_exc())
            break
        wall = time.perf_counter() - t0
        done.append((label, wall, out))
        if scaled is not None:
            k_next = kernel_s()
            scaled.append(wall * KERNEL_NOMINAL_S / (0.5 * (k + k_next)))
            k = k_next
    return done


class Tally:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def fail(self, what, why):
        self.attempted += 1
        self.failed += 1
        self.problems.append(f"{what}: {why}")

    def record(self, what, problems):
        if problems:
            self.fail(what, "; ".join(problems))
        else:
            self.attempted += 1


def check_all(w, done, tally):
    for i, (label, _, out) in enumerate(done):
        try:
            problems = w.check(label, out)
        except Exception:
            problems = [traceback.format_exc()]
        tally.record(f"{label} #{i}", problems)


def measure(w, seconds: float, tally):
    """Passes until the next would overrun ``seconds`` (at least one).
    Returns the ops run and the same ops with scaled times."""
    done, scaled, walls, p = [], [], [], 0
    while True:
        t0 = time.perf_counter()
        done += run_pass(w, p, tally, scaled=scaled)
        walls.append(time.perf_counter() - t0)
        p += 1
        if tally.failed or sum(walls) + statistics.median(walls) > seconds:
            return done, [(label, t, out)
                          for (label, _, out), t in zip(done, scaled)]


def traced(w, tally, spans_path):
    """Pass 0 untraced, traced, untraced again; the overhead is the traced
    wall time minus the mean of the untraced ones."""
    import tracing

    def wall(ops):
        return sum(t for _, t, _ in ops)

    plain = run_pass(w, 0, tally)
    rec = tracing.Recorder()
    undo = tracing.install(rec)
    try:
        traced_ops = run_pass(w, 0, tally, rec)
    finally:
        tracing.restore(undo)
    again = run_pass(w, 0, tally)
    left = tracing.wrapped_bindings()
    tally.record("wrappers restored", [f"still wrapped: {left}"] if left else [])
    same = ([w.fingerprint(lb, out) for lb, _, out in plain]
            == [w.fingerprint(lb, out) for lb, _, out in traced_ops])
    tally.record("traced outputs identical",
                 [] if same else ["traced and untraced outputs differ"])
    if spans_path:
        rec.write(spans_path)
    overhead = wall(traced_ops) - 0.5 * (wall(plain) + wall(again))
    metrics, bases = tracing.metrics(rec, overhead)
    return plain + traced_ops + again, metrics, bases


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--spans", default="")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    w = WORKLOADS[args.workload](args.seed)
    setup_s = time.perf_counter() - _T0
    result = {"setup_s": setup_s, "numpy": np.__version__,
              "python": sys.version.split()[0]}
    if args.setup_only:
        result["setup_s"] = setup_s * KERNEL_NOMINAL_S / kernel_s()
        result["setup_wall_s"] = setup_s
        print(json.dumps(result))
        return 0

    tally = Tally()
    if args.trace:
        done, metrics, bases = traced(w, tally, args.spans)
        result["per_layer"] = {k: list(v) for k, v in metrics.items()}
        result["ratio_bases"] = bases
    else:
        done, scaled = measure(w, args.seconds, tally)
        speed = (sum(t for _, t, _ in scaled) / sum(t for _, t, _ in done)
                 if done else 1.0)
        result.update(setup_s=setup_s * speed, setup_wall_s=setup_s,
                      speed=speed)
    if hasattr(w, "global_checks"):
        for what, problems in w.global_checks():
            tally.record(what, problems)
    check_all(w, done, tally)
    if not args.trace and not tally.failed:
        task_s, aux_s = w.end_to_end(scaled)
        result["end_to_end"] = {"task_s": task_s, "aux_s": aux_s}
        result["report"] = w.report(done)
    result.update(attempted=tally.attempted, failed=tally.failed,
                  problems=tally.problems,
                  peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                  / 1024.0)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
