"""Acceptance checklist: one printed PASS/FAIL line per criterion.

Run ``pytest tests/test_acceptance.py -v -s`` to see the lines as they
complete (``-rP`` shows them in the summary instead). Every criterion is
asserted at its stated tolerance; nothing is retuned to pass. Criterion 2a
is a known, documented failure: the stepsize it pins (beta = 1e-2) sits
above the measured stability boundary of the smooth iteration on that
instance (beta < 2/|eig|_max = 8.58e-3), so the iteration limit-cycles
instead of converging. The run is kept faithful and the verdict line
carries the diagnosis; criterion 2a' re-runs just inside the boundary to
show the algorithm itself is sound.
"""

import itertools
import time

import numpy as np

from qcsched.allocator import (Multipliers, TieInstance, build_tables,
                               solve_tie_lp)
from qcsched.analysis import CompareSetup, compare_schemes, sweep_regions
from qcsched.channel import (FadingModel, sample_gain_blocks,
                             snr_db_to_mean_gain)
from qcsched.dual import exact_dual
from qcsched.powerrate import (ErgodicCapacity, MaxAvgBer, MaxInstBer,
                               OutageCapacity, RegionContext)
from qcsched.quantizer import QuantizerGrid, build_equiprobable, quantize
from qcsched.solver import (Problem, SolverConfig, run_offline_nonsmooth,
                            run_offline_smooth, run_online)

from oracles import jacobian_check, multiplier_settled, stochastic_subgradient

MODEL = OutageCapacity(outage_delta=0.0)


def verdict(criterion, ok, detail):
    line = (f"ACCEPTANCE criterion {criterion}: "
            f"{'PASS' if ok else 'FAIL'} — {detail}")
    print(line)
    assert ok, line


def tc1_problem(seed=0):
    """K=16 channels, M=4 users, flat 6 dB SNR, equiprobable L=4 ladders."""
    mg = np.full((4, 16), float(snr_db_to_mean_gain(6.0)))
    fading = FadingModel(mg, seed=seed)
    grid = build_equiprobable(fading, 4)
    return Problem(grid=grid, model=MODEL, mu=np.ones(4),
                   targets=np.array([4.0, 8.0, 12.0, 16.0]), fading=fading)


def reference_setup():
    """M=3 users on K=64 subcarriers, flat 6 dB SNR."""
    mg = np.full((3, 64), float(snr_db_to_mean_gain(6.0)))
    return CompareSetup(fading=FadingModel(mg, seed=0), regions=4,
                        model=MODEL, mu=np.ones(3),
                        targets=np.array([40.0, 70.0, 100.0]))


# --- 1: duality-gap sandwich ---------------------------------------------------

def test_criterion_1_duality_gap_bound():
    fading = FadingModel(np.array([[1.0, 2.0], [0.5, 1.5]]), seed=3)
    grid = build_equiprobable(fading, 4)
    K, eps = 2, 0.05
    rng = np.random.default_rng(11)
    lams = rng.exponential(1.0, size=(100, 2)) * rng.uniform(0.1, 5.0, (100, 1))
    lo_ok = hi_ok = True
    worst = -np.inf
    t0 = time.perf_counter()
    for lam in lams:
        mult = Multipliers(lam, np.ones(2), np.array([0.5, 0.7]))
        hard = exact_dual(MODEL, grid, mult, "hard", eps)
        smooth = exact_dual(MODEL, grid, mult, "smooth", eps)
        lo_ok &= bool(hard.value <= smooth.value + 1e-9)  # roundoff slack only
        hi_ok &= bool(smooth.value < hard.value + K * eps)
        worst = max(worst, smooth.value - hard.value)
    wall = time.perf_counter() - t0
    verdict(1, lo_ok and hi_ok and wall < 10.0,
            f"D <= Ds < D + K*eps held on 100/100 multiplier draws "
            f"(largest Ds - D = {worst:.4f} vs bound {K * eps:.2f}); "
            f"wall {wall:.2f}s (< 10s)")


# --- 2: smooth convergence -------------------------------------------------------

def test_criterion_2a_smooth_convergence_at_stated_stepsize():
    problem = tc1_problem()
    cfg = SolverConfig(beta=1e-2, tol=1e-3, max_iters=5_000, eps=0.05)
    t0 = time.perf_counter()
    _, traj = run_offline_smooth(problem, cfg)
    wall = time.perf_counter() - t0
    rate_err = float(np.max(np.abs(traj.rates[-1] / problem.targets - 1.0)))
    tail = traj.lam[-1000:]
    amp = float(np.max(tail.max(axis=0) - tail.min(axis=0)))
    ok = traj.converged and rate_err < 0.01 and wall < 300.0
    verdict("2a", ok,
            f"beta=1e-2 on the K=16/M=4 shape: converged={traj.converged} "
            f"after {int(traj.iters[-1]) + 1} iters, max rate error "
            f"{rate_err:.2%}, trailing multiplier oscillation amplitude "
            f"{amp:.4f}. This instance's smooth map has Jacobian eigenvalues "
            f"down to -233, so constant steps are stable only for "
            f"beta < 2/233 = 8.58e-3; at beta=1e-2 the iteration sits in an "
            f"attracting period-2 cycle and cannot converge. Kept faithful "
            f"(see 2a' for the run just inside the boundary).")


def test_criterion_2a_companion_within_stability_boundary():
    problem = tc1_problem()
    cfg = SolverConfig(beta=8e-3, tol=1e-3, max_iters=5_000, eps=0.05)
    t0 = time.perf_counter()
    _, traj = run_offline_smooth(problem, cfg)
    wall = time.perf_counter() - t0
    rate_err = float(np.max(np.abs(traj.rates[-1] / problem.targets - 1.0)))
    power = float(traj.power[-1])
    ok = traj.converged and rate_err < 0.01 and wall < 300.0
    verdict("2a'", ok,
            f"beta=8e-3 (inside the boundary) converges in "
            f"{int(traj.iters[-1]) + 1} iters, max rate error {rate_err:.1e} "
            f"(< 1%), avg power {power:.4f} ({10 * np.log10(power):.2f} dB), "
            f"wall {wall:.1f}s (< 5 min)")


def test_criterion_2b_smooth_vs_hard_power_gap():
    mg = np.full((2, 4), float(snr_db_to_mean_gain(6.0)))
    grid = build_equiprobable(FadingModel(mg, seed=2), 4)
    targets = np.array([1.0, 1.5])
    problem = Problem(grid=grid, model=MODEL, mu=np.ones(2), targets=targets)
    K, eps = 4, 0.05
    # beta inside this instance's stability range (2/|eig|_max = 0.143)
    _, traj = run_offline_smooth(
        problem, SolverConfig(beta=0.1, tol=1e-8, max_iters=20_000, eps=eps))
    p_smooth = float(traj.power[-1])

    def hard_value(lam):
        mult = Multipliers(np.maximum(lam, 0.0), np.ones(2), targets)
        return exact_dual(MODEL, grid, mult, "hard", eps).value

    # two-stage grid maximization of the (concave) hard dual
    axis = np.linspace(0.0, 3.0, 41)
    best, arg = -np.inf, np.zeros(2)
    for l1, l2 in itertools.product(axis, axis):
        v = hard_value(np.array([l1, l2]))
        if v > best:
            best, arg = v, np.array([l1, l2])
    span = np.linspace(-0.15, 0.15, 41)
    for d1, d2 in itertools.product(span, span):
        best = max(best, hard_value(arg + np.array([d1, d2])))
    gap = p_smooth - best
    ok = traj.converged and -0.02 <= gap <= K * eps
    verdict("2b", ok,
            f"smooth fixed-point power {p_smooth:.4f} vs grid-maximized hard "
            f"dual {best:.4f} on the reduced M=2/K=4 instance: gap {gap:.4f} "
            f"within K*eps = {K * eps:.2f} (and well below it)")


# --- 3: non-smooth hovering ------------------------------------------------------

def test_criterion_3_nonsmooth_dual_converges_primal_hovers():
    problem = tc1_problem()
    cfg = SolverConfig(kappa=0.1, tol=1e-9, max_iters=30_000, eps=0.05,
                       record_every=10)
    traj = run_offline_nonsmooth(problem, cfg)
    targets = problem.targets
    settled = multiplier_settled(traj)       # final-10% spread < 1% per user
    fin_err = np.abs(traj.rates[-1] - targets) / targets
    sel = traj.iters >= traj.iters[-1] - 0.1 * (traj.iters[-1] - traj.iters[0])
    tail = traj.rates[sel]
    band = (tail.max(axis=0) - tail.min(axis=0)) / targets
    cum = np.cumsum(traj.rates, axis=0) / np.arange(1, len(traj.iters) + 1)[:, None]
    cum_err = np.abs(cum[-1] - targets) / targets
    ok = settled and float(fin_err.max()) > 0.05 and float(band.max()) > 0.05
    verdict(3, ok,
            f"multipliers settled={settled} (final-10% spread < 1%) while the "
            f"per-iterate scheduled rates keep hovering: final-iterate error "
            f"{fin_err.max():.1%}, final-10% oscillation band up to "
            f"{band.max():.0%} of target. The cumulative time-average does "
            f"meet the targets (max err {cum_err.max():.2%}) — hovering lives "
            f"in the per-iterate allocation, not the long-run share.")


# --- 4: online locking ------------------------------------------------------------

def test_criterion_4_online_locking_shrinks_with_stepsize():
    problem = tc1_problem()
    N, betas = 10_000, (1e-2, 2e-3)
    offline = {}
    for beta in betas:
        cfg = SolverConfig(beta=beta, tol=1e-13, max_iters=N, eps=0.05,
                           record_every=1)
        _, traj = run_offline_smooth(problem, cfg)
        lam = traj.lam
        if len(lam) < N:     # converged early: fixed point, extend flat
            lam = np.vstack([lam, np.repeat(lam[-1:], N - len(lam), axis=0)])
        offline[beta] = lam[:N]
    gaps = {beta: [] for beta in betas}
    for beta in betas:
        for seed in range(5):
            cfg = SolverConfig(beta=beta, tol=1e-13, max_iters=N, eps=0.05,
                               record_every=N)
            res = run_online(tc1_problem(seed), cfg, N)
            gaps[beta].append(
                float(np.max(np.abs(res.lam_trace - offline[beta]))))
    small, big = float(np.mean(gaps[2e-3])), float(np.mean(gaps[1e-2]))
    wins = sum(s < b for s, b in zip(gaps[2e-3], gaps[1e-2]))
    verdict(4, small < big,
            f"matched-init sup-norm gap between online and offline multiplier "
            f"traces over 1e4 blocks (5-seed mean): {small:.3f} at beta=2e-3 "
            f"< {big:.3f} at beta=1e-2; the smaller stepsize locks tighter on "
            f"{wins}/5 seeds")


# --- 5: online primal convergence -------------------------------------------------

def test_criterion_5_online_sample_rates_reach_targets():
    problem = tc1_problem(seed=1)
    cfg = SolverConfig(beta=2e-3, tol=1e-13, max_iters=10_000, eps=0.05,
                       record_every=100)
    res = run_online(problem, cfg, 10_000)
    err = np.abs(res.sample_avg_rate[-1] - problem.targets) / problem.targets
    verdict(5, float(err.max()) < 0.05,
            f"after 1e4 blocks the sample-average rates sit within "
            f"{err.max():.2%} of the targets (bound 5%); per-user errors "
            f"{np.array2string(err, precision=4)}")


# --- 6: scheme ordering -------------------------------------------------------------

def test_criterion_6_scheme_ordering():
    setup = reference_setup()
    t0 = time.perf_counter()
    rows = {r["scheme"]: r
            for r in compare_schemes(setup, ("RA2", "RA3", "RA5"))}
    wall = time.perf_counter() - t0
    conv = all(r["converged"] for r in rows.values())
    p2, p3, p5 = (float(rows[s]["avg_power"]) for s in ("RA2", "RA3", "RA5"))
    db3, db5 = 10 * np.log10(p3), 10 * np.log10(p5)
    bound = 64 * setup.eps                    # K*eps, linear power units
    ok = conv and db3 <= db5 - 3.0 and abs(p3 - p2) <= bound
    verdict(6, ok,
            f"RA3 {db3:.2f} dB vs heuristic RA5 {db5:.2f} dB "
            f"(margin {db5 - db3:.2f} dB >= 3 dB); |RA3 - RA2| = "
            f"{abs(p3 - p2):.4f} linear <= K*eps = {bound:.2f}; "
            f"all schemes converged; wall {wall:.1f}s")


# --- 7: region sweep ---------------------------------------------------------------

def test_criterion_7_region_sweep_trend():
    setup = reference_setup()
    t0 = time.perf_counter()
    rows = sweep_regions(setup, [2, 3, 4, 6, 8])
    wall = time.perf_counter() - t0
    by_l = {r["regions"]: r for r in rows if r["scheme"] == "RA3"}
    ref, = (r for r in rows if r["scheme"] == "RA1")    # perfect CSI, L = ∞
    powers = [float(by_l[L]["avg_power"]) for L in (2, 3, 4, 6, 8)]
    pref = float(ref["avg_power"])
    strict = all(a > b for a, b in zip(powers, powers[1:]))
    gap2, gap8 = powers[0] - pref, powers[-1] - pref
    conv = all(r["converged"] for r in rows)
    trend = ", ".join(f"L={L}: {10 * np.log10(p):.2f}"
                      for L, p in zip((2, 3, 4, 6, 8, "inf"), powers + [pref]))
    verdict(7, conv and strict and gap8 < gap2,
            f"power strictly decreasing in L ({trend} dB); the perfect-CSI "
            f"reference gap shrinks with L: L=8 vs perfect CSI gap {gap8:.1f} "
            f"< L=2 vs perfect CSI gap {gap2:.1f} (linear); wall {wall:.1f}s")


def test_newton_solves_every_sweep_shape_in_few_iterations():
    # a return to constant-step limit cycles would take thousands
    setup = reference_setup()
    rows = sweep_regions(setup, [2, 3, 4, 6, 8], reference_regions=None)
    for r in rows:
        assert r["converged"], r["regions"]
        assert r["iterations"] <= 30, (r["regions"], r["iterations"])
        assert r["max_abs_subgradient"] < setup.tol


# --- 8: oracle equivalence -----------------------------------------------------------

def _vertex_opt_tie(instances, m, r_bar_one, tol=1e-9):
    """Brute-force optimum of the tie LP by basic-solution enumeration."""
    r_tie = m.targets - r_bar_one
    nvar = sum(len(t.members) for t in instances)
    offsets = np.cumsum([0] + [len(t.members) for t in instances])
    present = np.zeros(len(m.lambda_r), dtype=bool)
    for t in instances:
        present[t.members] = True
    rows_u = np.flatnonzero(present)
    A = np.zeros((len(rows_u) + len(instances), nvar))
    b = np.zeros(len(rows_u) + len(instances))
    c = np.zeros(nvar)
    row_of = {int(u): i for i, u in enumerate(rows_u)}
    for ti, t in enumerate(instances):
        sl = slice(offsets[ti], offsets[ti + 1])
        c[sl] = t.prob * t.weighted_powers
        A[len(rows_u) + ti, sl] = 1.0
        b[len(rows_u) + ti] = 1.0
        for j, u in enumerate(t.members):
            A[row_of[int(u)], offsets[ti] + j] = t.prob * t.rates[j]
    b[:len(rows_u)] = r_tie[rows_u]

    best = None
    mrows, n = A.shape
    for cols in itertools.combinations(range(n), mrows):
        B = A[:, list(cols)]
        if abs(np.linalg.det(B)) < 1e-12:
            continue
        xb = np.linalg.solve(B, b)
        if np.any(xb < -tol):
            continue
        x = np.zeros(n)
        x[list(cols)] = xb
        val = c @ x
        if best is None or val < best:
            best = val
    return best


def test_criterion_8_oracle_equivalence():
    # (i) scalar fixed point vs bisection on the same smooth subgradient map
    target = 0.3
    grid1 = QuantizerGrid(np.array([[[0.0, 1.0, np.inf]]]), np.array([[1.0]]))
    problem = Problem(grid=grid1, model=MODEL, mu=np.ones(1),
                      targets=np.array([target]))
    lam, traj = run_offline_smooth(
        problem, SolverConfig(beta=2.0, tol=1e-8, max_iters=10_000, eps=0.05))

    def resid(l):
        mult = Multipliers(np.array([l]), np.ones(1), np.array([target]))
        return float(exact_dual(MODEL, grid1, mult, "smooth").subgradient[0])

    lo, hi = 0.7, 12.0
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if resid(mid) > 0:
            lo = mid
        else:
            hi = mid
    d_scalar = abs(float(lam[0]) - 0.5 * (lo + hi))

    # (ii) tie LP against exhaustive vertex enumeration, planted feasible case
    rng = np.random.default_rng(5)
    members = [np.array([0, 1]), np.array([1, 2, 3]), np.array([0, 3])]
    instances, planted = [], []
    for mem in members:
        planted.append(rng.dirichlet(np.ones(len(mem))))
        instances.append(TieInstance(
            prob=float(rng.uniform(0.05, 0.3)), channel=0,
            column=np.arange(1, len(mem) + 1), members=mem,
            rates=rng.uniform(0.5, 3.0, len(mem)),
            weighted_powers=rng.uniform(0.5, 4.0, len(mem))))
    targets = np.zeros(4)
    for inst, w in zip(instances, planted):
        targets[inst.members] += inst.prob * inst.rates * w
    mult = Multipliers(np.ones(4), np.ones(4), targets)
    sol = solve_tie_lp(targets, instances, np.zeros(4))
    d_lp = abs(sol.objective - _vertex_opt_tie(instances, mult, np.zeros(4)))

    # (iii) stochastic subgradient Monte-Carlo mean vs exact smooth value
    fading = FadingModel(np.array([[1.0, 2.0], [0.5, 1.5]]), seed=3)
    grid2 = build_equiprobable(fading, 4)
    mult2 = Multipliers(np.array([0.8, 1.1]), np.ones(2), np.array([0.5, 0.7]))
    exact = exact_dual(MODEL, grid2, mult2, "smooth").subgradient
    tables = build_tables(MODEL, grid2, mult2)
    n = 20_000
    qcsi = quantize(grid2, sample_gain_blocks(fading, 0, n))
    draws = np.array([stochastic_subgradient(MODEL, grid2, mult2, qcsi[i],
                                             tables=tables)
                      for i in range(n)])
    sigma = draws.std(axis=0, ddof=1) / np.sqrt(n)
    z = np.abs(draws.mean(axis=0) - exact) / sigma

    ok = (traj.converged and d_scalar < 1e-6 and d_lp < 1e-9
          and bool(np.all(z < 3.0)))
    verdict(8, ok,
            f"M=1 fixed point vs bisection |dlam| = {d_scalar:.1e} (< 1e-6); "
            f"tie-LP objective vs vertex enumeration |d| = {d_lp:.1e} "
            f"(< 1e-9); Monte-Carlo subgradient mean within 3 sigma of the "
            f"exact smooth value (max |z| = {z.max():.2f})")


# --- 9: model numerics ----------------------------------------------------------------

def test_criterion_9_model_numerics():
    from scipy.integrate import quad    # oracle only

    families = [OutageCapacity(outage_delta=0.0),
                OutageCapacity(outage_delta=0.3),
                MaxInstBer(kappa1=0.2, kappa2=1.5, eps_max=0.01),
                MaxAvgBer(kappa1=0.2, kappa2=1.5, eps_avg=0.01),
                ErgodicCapacity()]
    ctx = RegionContext(q_lo=0.4, q_hi=2.1, mean_gain=1.3)

    convex_ok, fd_worst = True, 0.0
    xs = np.linspace(0.0, 10.0, 41)
    for fam in families:
        y = np.array([float(fam.power_of_rate(ctx, x)) for x in xs])
        convex_ok &= bool(np.all(np.diff(y, 2) > 0))
        h = 1e-6
        for x in (0.4, 1.3, 3.0, 7.5):
            fd = (float(fam.power_of_rate(ctx, x + h))
                  - float(fam.power_of_rate(ctx, x - h))) / (2 * h)
            rel = abs(float(fam.marginal_power(ctx, x)) / fd - 1.0)
            fd_worst = max(fd_worst, rel)

    erg = ErgodicCapacity()
    qctx = RegionContext(q_lo=0.2, q_hi=3.0, mean_gain=1.0)
    pr = np.exp(-0.2) - np.exp(-3.0)
    erg_worst = 0.0
    for y in (0.1, 1.0, 10.0):
        val, _ = quad(lambda t: np.log2(1.0 + y * t) * np.exp(-t),
                      0.2, 3.0, epsabs=1e-13, limit=200)
        erg_worst = max(erg_worst,
                        abs(float(erg.rate_of_power(qctx, y)) - val / pr))

    fading = FadingModel(np.array([[1.0, 2.0], [0.5, 1.5], [1.2, 0.8]]),
                         seed=9)
    grid = build_equiprobable(fading, 3)
    mult = Multipliers(np.array([1.0, 1.3, 0.9]), np.ones(3), np.full(3, 0.5))
    _, rep = jacobian_check(MODEL, grid, mult)
    eig_max = float(np.max(rep["symmetric_eigenvalues"]))

    ok = (convex_ok and fd_worst < 1e-6 and erg_worst < 1e-8 and eig_max < 0.0)
    verdict(9, ok,
            f"second differences positive for all four families; marginal "
            f"power vs finite differences max rel err {fd_worst:.1e} "
            f"(< 1e-6); ergodic closed form vs quadrature max |d| = "
            f"{erg_worst:.1e} (< 1e-8); smooth-map Jacobian symmetric "
            f"eigenvalues all negative at interior multipliers "
            f"(largest {eig_max:.2f})")
