"""Multiplier iterations: scalar oracles, trajectories, online determinism."""

import hashlib
import io
import warnings
from types import SimpleNamespace

import numpy as np
import pytest

from qcsched import dual, solver
from qcsched.allocator import (InfeasibleTargetsError, Multipliers,
                               build_tables, make_static)
from qcsched.channel import (FadingModel, sample_gain_blocks, sample_gains,
                             snr_db_to_mean_gain)
from qcsched.dual import block_allocation, exact_dual, serve_block
from qcsched.powerrate import (ErgodicCapacity, MaxAvgBer, MaxInstBer,
                               OutageCapacity)
from qcsched.quantizer import (QuantizerGrid, build_equiprobable, build_random,
                               quantize, region_prob_table)
from qcsched.solver import (OnlineResult, Problem, SolverConfig, Trajectory,
                            run_offline_newton, run_offline_nonsmooth,
                            run_offline_smooth, run_online, serves_targets)

from oracles import (gauss_jordan_lists, gauss_jordan_numpy,
                     multiplier_settled, offline_reference, online_reference,
                     step_weighted_average)

LN2 = np.log(2.0)
MODEL = OutageCapacity(outage_delta=0.0)


def scalar_problem(target=0.3):
    """M = K = 1, ladder (0,1,inf), mean 1: one active region with
    probability e^{-1} and unit effective gain."""
    fading = FadingModel(np.array([[1.0]]), seed=11)
    grid = QuantizerGrid(np.array([[[0.0, 1.0, np.inf]]]), np.array([[1.0]]))
    return Problem(grid=grid, model=MODEL, mu=np.ones(1),
                   targets=np.array([target]), fading=fading)


def two_user_problem(**kw):
    fading = FadingModel(np.array([[1.0, 2.0], [0.5, 1.5]]), seed=3)
    grid = build_equiprobable(fading, 4)
    return Problem(grid=grid, model=MODEL, mu=np.ones(2),
                   targets=np.array([0.5, 0.7]), fading=fading, **kw)


def bisect_root(f, lo, hi, iters=100):
    assert f(lo) > 0 > f(hi)
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if f(mid) > 0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def test_scalar_fixed_point_matches_bisection():
    target = 0.3
    problem = scalar_problem(target)
    p2 = np.exp(-1.0)

    def resid(lam):                 # subgradient of the scalar dual
        rstar = np.clip(np.log2(max(lam, 1e-300) / LN2), 0.0, 12.0)
        return target - p2 * rstar

    oracle = bisect_root(resid, 0.7, 12.0)
    cfg = SolverConfig(beta=2.0, tol=1e-7, max_iters=10_000, eps=0.05)
    lam, traj = run_offline_smooth(problem, cfg)
    assert traj.converged
    assert abs(lam[0] - oracle) < 1e-6
    # closed form of the same root: lambda* = ln2 * 2^(target * e)
    assert abs(lam[0] - LN2 * 2 ** (target * np.e)) < 1e-6


def test_scalar_nonsmooth_reaches_same_fixed_point():
    # single user, single active region: no ties, so the hard subgradient
    # is continuous and the diminishing-step baseline actually converges
    problem = scalar_problem(0.3)
    smooth_lam, _ = run_offline_smooth(
        problem, SolverConfig(beta=2.0, tol=1e-9, max_iters=10_000))
    traj = run_offline_nonsmooth(
        problem, SolverConfig(kappa=0.5, max_iters=20_000, tol=1e-6,
                              record_every=100))
    assert abs(traj.lam[-1, 0] - smooth_lam[0]) < 1e-3


@pytest.mark.parametrize("max_iters", [1000, 1001])
def test_nonsmooth_serves_its_step_weighted_average(max_iters):
    # on the bundled M=4, K=16 shape the hard iterates hover, and the run
    # serves the step-weighted average of iterates [500, 1000) that its loop
    # keeps as running sums: at max_iters = 1000 as its last window
    # ("max_iters"), at 1001 as its first check's, which certifies it
    # ("converged" at iterate 999)
    problem = tc2_problem()
    cfg = SolverConfig(kappa=0.1, tol=1e-3, max_iters=max_iters)
    traj = run_offline_nonsmooth(problem, cfg)
    assert traj.reason == ("max_iters" if max_iters == 1000 else "converged")
    rates, power = step_weighted_average(traj, cfg.kappa, 1000)
    np.testing.assert_allclose(traj.served_rates, rates, rtol=1e-12)
    assert traj.served_power == pytest.approx(power, rel=1e-12)
    assert traj.converged == serves_targets(rates, problem.targets, cfg.tol)
    assert np.max(np.abs(traj.rates[-1] - problem.targets)) > 0.5
    # no iterate stops the run: one whose every iterate serves its targets
    # (a zero target at λ = 0) runs to max_iters and serves the average of
    # its second half, which is each iterate's rates, certified by D = P = 0
    stopped = run_offline_nonsmooth(scalar_problem(0.0), SolverConfig(
        init=0.0, max_iters=100))
    assert stopped.reason == "max_iters" and stopped.converged
    assert stopped.iters[-1] == 99
    np.testing.assert_array_equal(stopped.served_rates, stopped.rates[-1])
    assert stopped.dual_bound == stopped.served_power == 0.0


# sha256 of the trajectory.csv text of a tc1-shape non-smooth run of 1 000
# iterates, with the repr of its served rates (a list) and served power
# appended, at record_every 1 and 1 000 (perfbench's shape), as the loop
# that tested every iterate and had no certificate gave them
NONSMOOTH_1000 = {
    1: "2971c2fafd9c00dac3de8f68025f4e54b4f3f644a1629d7294c7a0ee6f131e40",
    1000: "e786ebf810236a4dda147911386a9f8422d662d1a2545ee6e5444c1fbae2407a",
}


@pytest.mark.parametrize("every", sorted(NONSMOOTH_1000))
def test_nonsmooth_runs_of_one_check_keep_their_bits(every):
    # a run of max_iters ≤ CHECK makes no check before its end: the same
    # iterates, last row and served average, bitwise
    traj = run_offline_nonsmooth(tc2_problem(), SolverConfig(
        kappa=0.1, tol=1e-3, max_iters=1000, record_every=every))
    buf = io.StringIO()
    traj.write_csv(buf)
    text = (buf.getvalue() + repr(list(map(float, traj.served_rates)))
            + repr(traj.served_power))
    assert hashlib.sha256(text.encode()).hexdigest() == NONSMOOTH_1000[every]
    assert traj.reason == "max_iters" and traj.converged


def hard_duals(traj) -> np.ndarray:
    """D at each recorded iterate, by value = avg_power + λ·subgradient."""
    return traj.power + (traj.lam * traj.subgrad).sum(axis=1)


def test_nonsmooth_stops_at_its_first_certified_check():
    # on the bundled shape at κ = 0.1, tol = 1e-3 the first check, n = 1000,
    # certifies the average of [500, 1000) against the best D of iterates
    # [0, 1000): within tol of every target and P̄ - D ≤ λ₉₉₉·tol
    problem = tc2_problem()
    cfg = SolverConfig(kappa=0.1, tol=1e-3, max_iters=30_000)
    traj = run_offline_nonsmooth(problem, cfg)
    assert traj.reason == "converged" and traj.converged
    assert traj.iters[-1] == solver.CHECK - 1
    rates, power = step_weighted_average(traj, cfg.kappa, 1000)
    np.testing.assert_allclose(traj.served_rates, rates, rtol=1e-12)
    assert traj.served_power == pytest.approx(power, rel=1e-12)
    assert traj.dual_bound == pytest.approx(hard_duals(traj).max(), rel=1e-12)
    assert traj.dual_bound <= traj.served_power
    assert traj.served_power - traj.dual_bound <= traj.lam[-1] @ np.full(
        4, cfg.tol)


def test_nonsmooth_runs_to_max_iters_when_no_check_certifies():
    # criterion 3's regime: at tol = 1e-9 no average is within tol, so the
    # run serves [max_iters // 2, max_iters), its running sums differenced
    # at iterate 1500, and is not converged
    problem = tc2_problem()
    cfg = SolverConfig(kappa=0.1, tol=1e-9, max_iters=3000)
    traj = run_offline_nonsmooth(problem, cfg)
    assert traj.reason == "max_iters" and not traj.converged
    rates, power = step_weighted_average(traj, cfg.kappa, 3000)
    np.testing.assert_allclose(traj.served_rates, rates, rtol=1e-12)
    assert traj.served_power == pytest.approx(power, rel=1e-12)
    assert traj.dual_bound == pytest.approx(hard_duals(traj).max(), rel=1e-12)


def test_nonsmooth_tests_its_certificate_only_at_checks(monkeypatch):
    # one table build per iterate; serves_targets runs at each check below
    # max_iters and once when the trajectory is built, each time given the
    # dual bound, and never on an iterate
    builds, verdicts = [], []

    def spy_build(*args, **kwargs):
        builds.append(1)
        return build_tables(*args, **kwargs)

    def spy_verdict(rates, targets, tol, power=None, dual_bound=None,
                    lam=None):
        verdicts.append(dual_bound)
        return serves_targets(rates, targets, tol, power, dual_bound, lam)

    monkeypatch.setattr(dual, "build_tables", spy_build)
    monkeypatch.setattr(solver, "serves_targets", spy_verdict)
    for tol, max_iters, checks in ((1e-9, 2500, 2), (1e-3, 30_000, 1)):
        builds.clear()
        verdicts.clear()
        traj = run_offline_nonsmooth(tc2_problem(), SolverConfig(
            kappa=0.1, tol=tol, max_iters=max_iters, record_every=100))
        assert len(builds) == traj.iters[-1] + 1
        assert len(verdicts) == checks + 1
        assert None not in verdicts


def test_zero_targets_stay_at_zero():
    problem = scalar_problem(0.0)
    cfg = SolverConfig(init=0.0, beta=1.0, tol=1e-9, max_iters=100)
    lam, traj = run_offline_smooth(problem, cfg)
    assert lam[0] == 0.0
    assert traj.converged
    assert len(traj.iters) == 1            # stops on the first evaluation
    traj2 = run_offline_nonsmooth(problem, cfg)
    assert traj2.lam[-1, 0] == 0.0


def test_zero_init_first_subgradient_is_targets():
    problem = two_user_problem()
    cfg = SolverConfig(init=0.0, beta=1e-2, max_iters=5, record_every=1)
    _, traj = run_offline_smooth(problem, cfg)
    np.testing.assert_array_equal(traj.subgrad[0], problem.targets)
    np.testing.assert_array_equal(traj.rates[0], [0.0, 0.0])


def test_lambda_nonnegative_under_overshoot():
    # a huge stepsize slams the iterate into the projection boundary
    problem = two_user_problem()
    cfg = SolverConfig(beta=50.0, max_iters=60, record_every=1, tol=1e-9)
    _, traj = run_offline_smooth(problem, cfg)
    assert np.all(traj.lam >= 0.0)
    assert np.any(traj.lam == 0.0)         # the projection actually fired


def test_convergence_contract():
    problem = two_user_problem()
    cfg = SolverConfig(beta=0.2, tol=1e-4, max_iters=50_000, record_every=10)
    lam, traj = run_offline_smooth(problem, cfg)
    assert traj.converged
    assert traj.reason == "converged"
    assert np.all(np.abs(traj.subgrad[-1]) < 1e-4)
    # average rates meet targets within the tolerance at the fixed point
    np.testing.assert_allclose(traj.rates[-1], problem.targets, atol=1e-4)
    short = SolverConfig(beta=0.2, tol=1e-4, max_iters=3)
    _, traj2 = run_offline_smooth(problem, short)
    assert not traj2.converged
    assert traj2.reason == "max_iters"
    assert traj2.iters[-1] == 2


def test_vector_tol_and_init():
    problem = two_user_problem()
    cfg = SolverConfig(beta=0.2, tol=np.array([1e-4, 1e-3]),
                       init=np.array([0.2, 0.6]), max_iters=50_000,
                       record_every=1)
    lam, traj = run_offline_smooth(problem, cfg)
    np.testing.assert_array_equal(traj.lam[0], [0.2, 0.6])
    assert traj.converged
    assert abs(traj.subgrad[-1, 0]) < 1e-4
    assert abs(traj.subgrad[-1, 1]) < 1e-3


def test_record_every_thinning():
    problem = two_user_problem()
    cfg = SolverConfig(beta=1e-3, max_iters=157, record_every=25, tol=1e-12)
    _, traj = run_offline_smooth(problem, cfg)
    assert traj.iters[-1] == 156           # final iterate always recorded
    assert np.all(traj.iters[:-1] % 25 == 0)
    assert len(np.unique(traj.iters)) == len(traj.iters)


def test_solver_config_validation():
    nan, inf = np.nan, np.inf
    for bad in (dict(beta=0.0), dict(kappa=-1.0), dict(tol=0.0),
                dict(init=-0.1), dict(max_iters=0), dict(record_every=0),
                dict(eps=0.0), dict(tol=np.array([1e-3, 0.0])),
                # NaN fails every check, and a stepsize, init or ε is finite
                dict(beta=nan), dict(kappa=nan), dict(tol=nan),
                dict(tol=np.array([1e-3, nan])), dict(init=nan),
                dict(init=np.array([0.1, nan])), dict(max_iters=nan),
                dict(record_every=nan), dict(eps=nan), dict(eps=-1.0),
                dict(beta=inf), dict(kappa=inf), dict(init=inf),
                dict(eps=inf)):
        with pytest.raises(ValueError):
            SolverConfig(**bad)


def test_problem_validation():
    fading = FadingModel(np.array([[1.0]]), seed=0)
    grid = build_equiprobable(fading, 2)
    with pytest.raises(ValueError):
        Problem(grid=grid, model=MODEL, mu=np.ones(2),
                targets=np.array([1.0]), fading=fading)


def test_problem_rejects_fading_that_disagrees_with_its_grid():
    # the online loop would sample one gain law while the ladders and every
    # offline evaluation use another
    grid = build_equiprobable(FadingModel(np.full((2, 4), 4.0), seed=0), 4)
    with pytest.raises(ValueError, match="mean gains differ"):
        Problem(grid=grid, model=MODEL, mu=np.ones(2),
                targets=np.array([1.0, 1.5]),
                fading=FadingModel(np.full((2, 4), 0.5), seed=0))


def test_online_requires_fading_and_blocks():
    problem = two_user_problem()
    problem.fading = None
    with pytest.raises(ValueError):
        run_online(problem, SolverConfig(), 10)
    with pytest.raises(ValueError):
        run_online(two_user_problem(), SolverConfig(), 0)


def test_online_trace_starts_at_init_and_reproduces_bitwise():
    problem = two_user_problem()
    problem.fading = FadingModel(problem.fading.mean_gain, seed=42)
    cfg = SolverConfig(beta=5e-3, init=0.25, record_every=10)
    a = run_online(problem, cfg, 400)
    b = run_online(problem, cfg, 400)
    assert isinstance(a, OnlineResult)
    np.testing.assert_array_equal(a.lam_trace[0], [0.25, 0.25])
    np.testing.assert_array_equal(a.lam_trace, b.lam_trace)
    np.testing.assert_array_equal(a.sample_avg_rate, b.sample_avg_rate)
    np.testing.assert_array_equal(a.final_lambda, b.final_lambda)


def test_online_trace_follows_the_fading_seed():
    # the fading model's seed is the only seed of the block stream: fresh
    # Problems with the same seed agree bitwise, another seed moves the trace
    def trace(seed):
        problem = two_user_problem()
        problem.fading = FadingModel(problem.fading.mean_gain, seed)
        return run_online(problem, SolverConfig(beta=5e-3), 200).lam_trace

    np.testing.assert_array_equal(trace(3), trace(3))
    assert np.any(trace(4) != trace(3))
    with pytest.raises(TypeError):
        SolverConfig(seed=3)


def test_online_matches_offline_on_deterministic_channel():
    # L=1 (single region): the quantizer output never varies, so the online
    # per-block subgradient equals the ensemble one and the paths coincide.
    # The average-BER family serves positive rate on the full-line region.
    fading = FadingModel(np.array([[1.0], [2.0]]), seed=6)
    grid = QuantizerGrid(np.tile(np.array([0.0, np.inf]), (2, 1, 1)),
                         fading.mean_gain)
    model = MaxAvgBer(kappa1=0.2, kappa2=1.5, eps_avg=0.01)
    problem = Problem(grid=grid, model=model, mu=np.ones(2),
                      targets=np.array([0.4, 0.9]), fading=fading)
    cfg = SolverConfig(beta=0.05, tol=1e-10, max_iters=300, record_every=1)
    lam_off, traj = run_offline_smooth(problem, cfg)
    res = run_online(problem, cfg, num_blocks=300)
    n = min(len(traj.iters), res.lam_trace.shape[0])
    np.testing.assert_allclose(res.lam_trace[:n], traj.lam[:n], atol=1e-10)


def reference_online(problem, cfg, num_blocks):
    """The online iteration block by block from the public pieces: sample,
    quantize, build every region's tables, allocate at the realized Q-CSI."""
    M, K = problem.num_users, problem.grid.num_channels
    lam = np.broadcast_to(np.asarray(cfg.init, dtype=float), (M,)).copy()
    trace, avg_rate, avg_power = [], [], []
    csum_rate = np.zeros(M)
    csum_power = 0.0
    for n in range(num_blocks):
        trace.append(lam.copy())
        jmat = quantize(problem.grid, sample_gains(problem.fading, n))
        mult = Multipliers(lam, problem.mu, problem.targets)
        tables = build_tables(problem.model, problem.grid, mult,
                              problem.rate_cap)
        served, wpower, _ = block_allocation(tables, lam, jmat, cfg.eps,
                                             np.arange(K))
        csum_rate += served
        csum_power += wpower
        avg_rate.append(csum_rate / (n + 1))
        avg_power.append(csum_power / (n + 1))
        lam = np.maximum(0.0, lam + cfg.beta * (problem.targets - served))
    return np.array(trace), np.array(avg_rate), np.array(avg_power), lam


def tc2_problem():
    """The bundled testcase2_online shape: M=4, K=16, L=4 at 6 dB."""
    fading = FadingModel(np.full((4, 16), snr_db_to_mean_gain(6.0)), seed=0)
    return Problem(grid=build_equiprobable(fading, 4), model=MODEL,
                   mu=np.ones(4), targets=np.array([4.0, 8.0, 12.0, 16.0]),
                   fading=fading)


def avg_ber_random_problem():
    fading = FadingModel(np.array([[1.0, 2.0, 0.7], [0.5, 1.5, 3.0]]), seed=8)
    grid = build_random(fading, 5, (0.0, 6.0), seed=4)
    return Problem(grid=grid, model=MaxAvgBer(kappa1=0.2, kappa2=1.5,
                                              eps_avg=0.01),
                   mu=np.array([1.0, 1.5]), targets=np.array([1.0, 2.0]),
                   fading=fading)


def ergodic_problem():
    fading = FadingModel(np.array([[1.0, 2.0, 0.7], [0.5, 1.5, 3.0]]), seed=5)
    return Problem(grid=build_equiprobable(fading, 3), model=ErgodicCapacity(),
                   mu=np.ones(2), targets=np.array([0.8, 1.2]), fading=fading)


def test_ergodic_family_solved_end_to_end():
    problem = ergodic_problem()
    eps, tol = 0.05, 1e-3
    cfg = SolverConfig(beta=0.2, tol=tol, eps=eps, max_iters=200)
    lam, traj = run_offline_smooth(problem, cfg)
    assert traj.converged
    mult = Multipliers(lam, problem.mu, problem.targets)
    smooth = exact_dual(problem.model, problem.grid, mult, "smooth", eps)
    hard = exact_dual(problem.model, problem.grid, mult, "hard", eps)
    assert np.all(np.abs(smooth.subgradient) < tol)
    np.testing.assert_allclose(traj.rates[-1], problem.targets, atol=tol)
    assert smooth.value == pytest.approx(
        smooth.avg_power + lam @ smooth.subgradient, rel=1e-12)
    K = problem.grid.num_channels
    assert hard.value <= smooth.value < hard.value + K * eps


def test_ergodic_family_online_end_to_end():
    problem, blocks = ergodic_problem(), 60
    cfg = SolverConfig(beta=0.05, init=0.5, eps=0.05, record_every=10)
    res = run_online(problem, cfg, blocks)
    again = run_online(ergodic_problem(), cfg, blocks)
    for got, want in ((res.lam_trace, again.lam_trace),
                      (res.sample_avg_rate, again.sample_avg_rate),
                      (res.trajectory.power, again.trajectory.power),
                      (res.final_lambda, again.final_lambda)):
        np.testing.assert_array_equal(got, want)
    # λ never hits the projection, so the N updates telescope:
    # λ_N - λ_0 = β·Σ(ř - served) and the sample average is ř - (λ_N - λ_0)/(βN)
    assert np.all(res.lam_trace > 0) and np.all(res.final_lambda > 0)
    np.testing.assert_allclose(
        res.sample_avg_rate[-1],
        problem.targets - (res.final_lambda - res.lam_trace[0])
        / (cfg.beta * blocks), rtol=0.0, atol=1e-12)
    # served rates at the offline λ*: Monte Carlo within 5 SE of exact_dual
    lam, traj = run_offline_smooth(problem, SolverConfig(
        beta=0.2, tol=1e-3, eps=0.05, max_iters=200))
    assert traj.converged
    mult = Multipliers(lam, problem.mu, problem.targets)
    tables = build_tables(problem.model, problem.grid, mult)
    qcsi = quantize(problem.grid, sample_gain_blocks(problem.fading, 0, 4000))
    of = np.arange(problem.grid.num_channels)
    served = np.array([block_allocation(tables, lam, j, 0.05, of)[0]
                       for j in qcsi])
    se = served.std(axis=0, ddof=1) / np.sqrt(len(served))
    exact = exact_dual(problem.model, problem.grid, mult, "smooth", 0.05)
    assert np.all(se > 0)
    assert np.all(np.abs(served.mean(axis=0) - exact.per_user_avg_rate)
                  < 5.0 * se)


@pytest.mark.parametrize("make, blocks, beta, rtol, chunk", [
    (tc2_problem, 300, 2e-3, 0.0, 1024),
    (tc2_problem, 300, 2e-3, 0.0, 7),
    (avg_ber_random_problem, 200, 0.05, 0.0, 1024),
    (avg_ber_random_problem, 200, 0.05, 0.0, 7),
    (ergodic_problem, 20, 0.05, 1e-12, 7),
])
def test_online_fused_path_matches_reference_loop(make, blocks, beta, rtol,
                                                  chunk, monkeypatch):
    # the fused path samples a chunk of blocks and evaluates only the cells
    # each block reads; closed-form families must match the full-table loop
    # bitwise, the ergodic root-finds to rounding. ``chunk`` is in blocks,
    # chunk·M·K cells: 1024 holds the whole run, 7 puts chunk boundaries
    # inside it.
    problem = make()
    monkeypatch.setattr(solver, "ONLINE_CHUNK",
                        chunk * problem.num_users * problem.grid.num_channels)
    cfg = SolverConfig(beta=beta, init=0.1, eps=0.05, record_every=10)
    res = run_online(problem, cfg, blocks)
    trace, avg_rate, avg_power, lam = reference_online(problem, cfg, blocks)
    assert np.any(trace[-1] != trace[0])
    for got, want in ((res.lam_trace, trace), (res.sample_avg_rate, avg_rate),
                      (res.trajectory.power, avg_power[res.trajectory.iters]),
                      (res.final_lambda, lam)):
        if rtol == 0.0:
            np.testing.assert_array_equal(got, want)
        else:
            np.testing.assert_allclose(got, want, rtol=rtol, atol=0.0)


def micro_problem():
    """The comparison harness's micro instance: M=2, K=4, 6 dB, L=4."""
    fading = FadingModel(np.full((2, 4), snr_db_to_mean_gain(6.0)), seed=2)
    return Problem(grid=build_equiprobable(fading, 4), model=MODEL,
                   mu=np.ones(2), targets=np.array([1.0, 1.5]), fading=fading)


FAMILIES = [OutageCapacity(outage_delta=0.0),
            MaxInstBer(kappa1=0.2, kappa2=1.5, eps_max=0.01),
            MaxAvgBer(kappa1=0.2, kappa2=1.5, eps_avg=0.01),
            ErgodicCapacity()]
FAMILY_IDS = ["outage", "inst_ber", "avg_ber", "ergodic"]


@pytest.mark.parametrize("model", FAMILIES, ids=FAMILY_IDS)
def test_online_bookkeeping_per_chunk_matches_the_per_block_loop(model,
                                                                 monkeypatch):
    # 7-block chunks and a stride of 3 over 20 blocks: recorded rows fall
    # on both sides of chunk edges and the forced last row (19) is off the
    # stride; stride 1 records every block's running averages. Every array
    # and every progress call keeps its bits
    micro = micro_problem()
    monkeypatch.setattr(solver, "ONLINE_CHUNK", 7 * 2 * 4)    # M=2, K=4
    problem = Problem(grid=micro.grid, model=model, mu=micro.mu,
                      targets=micro.targets, fading=micro.fading)

    def spy(seen):
        return lambda n, lam, g: seen.append((n, lam.copy(), g.copy()))

    for every, iters in ((3, [0, 3, 6, 9, 12, 15, 18, 19]),
                         (1, list(range(20)))):
        cfg = SolverConfig(beta=0.05, init=0.1, eps=0.05, record_every=every)
        calls = {"got": [], "want": []}
        got = run_online(problem, cfg, 20, spy(calls["got"]))
        want = online_reference(problem, cfg, 20, spy(calls["want"]))
        assert list(got.trajectory.iters) == iters
        for field in ("lam_trace", "sample_avg_rate", "final_lambda"):
            assert np.array_equal(getattr(got, field), getattr(want, field))
        for field in ("iters", "lam", "subgrad", "rates", "power",
                      "served_rates"):
            assert np.array_equal(getattr(got.trajectory, field),
                                  getattr(want.trajectory, field))
        for field in ("reason", "converged", "served_power"):
            assert (getattr(got.trajectory, field)
                    == getattr(want.trajectory, field))
        assert len(calls["got"]) == 20
        for (n, lam, g), (n0, lam0, g0) in zip(calls["got"], calls["want"],
                                              strict=True):
            assert (n == n0 and np.array_equal(lam, lam0)
                    and np.array_equal(g, g0))


def micro_online_problem(model):
    """The golden micro_online shape: M=3, K=3, L=4 at 6 dB, seed 5."""
    fading = FadingModel(np.full((3, 3), snr_db_to_mean_gain(6.0)), seed=5)
    return Problem(grid=build_equiprobable(fading, 4), model=model,
                   mu=np.ones(3), targets=np.array([0.5, 0.8, 1.1]),
                   fading=fading)


@pytest.mark.parametrize("model", FAMILIES, ids=FAMILY_IDS)
def test_online_iteration_reads_no_channel_distribution(model, monkeypatch):
    # the paper's stochastic iteration needs no knowledge of the channel
    # distribution: once the targets are checked, a run for which the
    # region probabilities, the column space and the hard rule's cell
    # weights raise serves every block bitwise as a run that can read them
    cfg = SolverConfig(beta=5e-3, init=0.1, eps=0.05, record_every=10)
    want = run_online(micro_online_problem(model), cfg, 200)
    problem = micro_online_problem(model)
    problem.check_targets()

    def unread(self):
        raise AssertionError("the online iteration read Pr{J}")

    for name in ("region_probs", "columns", "_hard_weight"):
        monkeypatch.setattr(Problem, name, property(unread))
    got = run_online(problem, cfg, 200)
    for field in ("lam_trace", "sample_avg_rate", "final_lambda"):
        assert np.array_equal(getattr(got, field), getattr(want, field))
    for field in ("iters", "lam", "subgrad", "rates", "power"):
        assert np.array_equal(getattr(got.trajectory, field),
                              getattr(want.trajectory, field))
    assert got.trajectory.served_power == want.trajectory.served_power


def classes_grid(random: bool) -> QuantizerGrid:
    """M = 2, K = 5 in three classes of sizes 2, 2 and 1, channels of one
    class apart: an equiprobable or a random ladder on three channels,
    repeated."""
    fading = FadingModel(np.array([[1.0, 2.0, 0.7], [0.5, 1.5, 3.0]]), seed=0)
    three = (build_random(fading, 4, (0.0, 6.0), seed=5) if random
             else build_equiprobable(fading, 4))
    channels = [0, 1, 0, 2, 1]
    return QuantizerGrid(three.thresholds[:, channels],
                         three.mean_gain[:, channels])


@pytest.mark.parametrize("random", [False, True], ids=["equi", "random"])
@pytest.mark.parametrize("model", FAMILIES, ids=FAMILY_IDS)
def test_class_data_read_through_the_class_map_is_the_full_grid_data(
        model, random):
    # cell data and region probabilities are elementwise in the cells, so
    # the class grid's, read per channel through ``of``, are bitwise those
    # of the whole grid
    grid = classes_grid(random)
    problem = Problem(grid, model, np.ones(2), np.array([0.5, 0.7]))
    channels, sizes, of = problem.classes
    np.testing.assert_array_equal(channels, [0, 1, 3])
    np.testing.assert_array_equal(sizes, [2, 2, 1])
    np.testing.assert_array_equal(of, [0, 1, 0, 2, 1])
    for got, want in zip(problem.static, make_static(grid, model),
                         strict=True):
        assert got[:, of].tobytes() == want.tobytes()
    assert (problem.region_probs[:, of].tobytes()
            == region_prob_table(grid).tobytes())


@pytest.mark.parametrize("model", FAMILIES, ids=FAMILY_IDS)
def test_online_builds_the_family_data_once(model, monkeypatch):
    # on the Problem's (M, n_classes, L) class grid: the target check builds
    # it, and the blocks read it per channel through the class map
    fading = FadingModel(np.array([[1.0, 2.0, 1.0, 0.7, 2.0],
                                   [0.5, 1.5, 0.5, 3.0, 1.5]]), seed=4)
    problem = Problem(build_equiprobable(fading, 4), model, np.ones(2),
                      np.array([0.5, 0.7]), fading=fading)
    shapes, cell_data = [], type(model).cell_data

    def spy(self, ctx):
        shapes.append(np.broadcast(ctx.q_lo, ctx.q_hi, ctx.mean_gain).shape)
        return cell_data(self, ctx)

    monkeypatch.setattr(type(model), "cell_data", spy)
    run_online(problem, SolverConfig(beta=0.05), 20)
    assert shapes == [(2, 3, 4)]


def test_newton_agrees_with_the_constant_step():
    # beta = 0.05 is inside this instance's stability range (2/14 = 0.14);
    # two answers that each meet tol may differ by 2·sqrt(M)·tol/min|eig J|
    # in lambda and by 2·tol·Σλ in power
    problem, tol = micro_problem(), 1e-3
    cfg = SolverConfig(beta=1e-3, tol=tol, max_iters=20_000)
    lam, traj = run_offline_newton(problem, cfg)
    ref, ref_traj = run_offline_smooth(
        problem, SolverConfig(beta=0.05, tol=tol, max_iters=20_000))
    assert traj.converged and ref_traj.converged
    assert traj.reason == "converged"
    assert np.all(np.abs(traj.subgrad[-1]) < tol)
    jac = problem.evaluate(lam).jacobian()
    min_eig = np.min(np.abs(np.linalg.eigvalsh(0.5 * (jac + jac.T))))
    assert np.max(np.abs(lam - ref)) <= 2 * np.sqrt(2) * tol / min_eig
    assert abs(traj.power[-1] - ref_traj.power[-1]) <= 2 * tol * ref.sum()
    np.testing.assert_array_equal(traj.lam[-1], lam)


def test_newton_rerun_is_bitwise_identical():
    problem = micro_problem()
    cfg = SolverConfig(beta=1e-3, tol=1e-6, max_iters=20_000)
    runs = [run_offline_newton(problem, cfg) for _ in range(2)]
    assert runs[0][0].tobytes() == runs[1][0].tobytes()
    for field in ("iters", "lam", "subgrad", "rates", "power"):
        assert (getattr(runs[0][1], field).tobytes()
                == getattr(runs[1][1], field).tobytes())


def test_newton_counts_every_evaluation_toward_max_iters(monkeypatch):
    # rejected trials count too: max_iters bounds the dual evaluations
    calls = []
    evaluate = Problem.evaluate

    def counted(*args, **kwargs):
        calls.append(1)
        return evaluate(*args, **kwargs)

    monkeypatch.setattr(Problem, "evaluate", counted)
    problem = micro_problem()
    for n in (1, 2, 5):
        calls.clear()
        lam, traj = run_offline_newton(
            problem, SolverConfig(beta=1e-3, tol=1e-12, max_iters=n))
        assert len(calls) == n
        assert not traj.converged and traj.reason == "max_iters"
        assert traj.iters[-1] < n
        np.testing.assert_array_equal(traj.lam[-1], lam)
    one, _ = run_offline_newton(
        problem, SolverConfig(beta=1e-3, tol=1e-12, max_iters=1))
    np.testing.assert_array_equal(one, np.full(2, 0.1))


class LinearRate:
    """A one-user evaluator that serves r̄ = λ: g = ř - λ and J = -1."""

    num_users = 1

    def __init__(self, target: float):
        self.targets = np.array([target])
        self.seen = []

    def check_targets(self):
        pass

    def evaluate(self, lam, mode="smooth", eps=0.05):
        self.seen.append(lam.copy())
        return SimpleNamespace(subgradient=self.targets - lam,
                               per_user_avg_rate=lam.copy(), avg_power=0.0,
                               jacobian=lambda: -np.eye(1))


def test_newton_takes_a_long_first_step_whole():
    # ν = 1/β = 1000 at λ⁽⁰⁾ = 0.1, so the first step is (5000 - 0.1)/1001,
    # about 5, past max(1, λ): ν alone damps it, and a trial that shrinks
    # ‖g‖ is accepted as it is
    problem = LinearRate(5000.0)
    lam, traj = run_offline_newton(problem,
                                   SolverConfig(beta=1e-3, max_iters=2))
    step = (5000.0 - 0.1) / (1000.0 + 1.0)
    assert step > 1.0
    assert len(problem.seen) == 2
    assert problem.seen[1][0] == pytest.approx(0.1 + step, rel=1e-15)
    np.testing.assert_array_equal(lam, problem.seen[1])
    assert list(traj.iters) == [0, 1]


def test_newton_stops_on_a_zero_step(monkeypatch):
    # a step that rounds to all zero would repeat λ until max_iters: the
    # run stops at once, "stalled"
    calls = []
    evaluate = Problem.evaluate

    def counted(*args, **kwargs):
        calls.append(1)
        return evaluate(*args, **kwargs)

    monkeypatch.setattr(Problem, "evaluate", counted)
    monkeypatch.setattr(solver, "_solve", lambda a, b: np.zeros_like(b))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        lam, traj = run_offline_newton(
            micro_problem(), SolverConfig(beta=1e-3, max_iters=100))
    assert len(calls) == 1 and traj.reason == "stalled"
    assert not traj.converged and list(traj.iters) == [0]
    np.testing.assert_array_equal(lam, np.full(2, 0.1))


def test_newton_stalls_on_a_step_lambda_absorbs():
    # at λ⁽⁰⁾ = 1e30 no user is active and the step rounds away in λ + step:
    # the trial would repeat λ, so the run stops after one evaluation
    problem = micro_problem()
    lam, traj = run_offline_newton(
        problem, SolverConfig(beta=1e-3, init=1e30, max_iters=20_000))
    assert traj.reason == "stalled" and not traj.converged
    assert list(traj.iters) == [0]
    np.testing.assert_array_equal(lam, np.full(2, 1e30))


def test_newton_stalls_on_a_trial_that_is_not_finite():
    # at μ = (1e20, 1) user 0's row of J is 0 late in the run (its served
    # rate no longer moves with λ), and ν/4 underflows to 0 after some 2800
    # accepted steps: _solve's zero pivot (a RuntimeWarning by design) gives
    # a NaN step, which stops the run at the last finite λ
    micro = micro_problem()
    problem = Problem(micro.grid, MODEL, np.array([1e20, 1.0]), micro.targets)
    with pytest.warns(RuntimeWarning) as caught:
        lam, traj = run_offline_newton(
            problem, SolverConfig(beta=1e-3, tol=2.5e-10, max_iters=20_000))
    assert any("divide by zero" in str(w.message) for w in caught)
    assert traj.reason == "stalled" and not traj.converged
    assert np.isfinite(traj.lam).all() and np.isfinite(lam).all()
    np.testing.assert_array_equal(traj.lam[-1], lam)


@pytest.mark.parametrize("a, b", [
    ([[2e16, 1.0], [1.0, 3.0]], [4.0, 1.0]),
    ([[1.0, 3e17, 2.0], [5e16, 1.0, 0.0], [2.0, 1.0, 4.0]], [1.0, 2.0, 3.0]),
])
def test_solve_keeps_the_step_past_a_pivot_of_2_to_the_53(a, b):
    # pivot - 1 == pivot past 2⁵³: the elimination must not round the pivot
    # row to zero there, or the step is 0 (RA2's last ε-stage at μ = 1e-12
    # solves systems like the first)
    a, b = np.array(a), np.array(b)
    np.testing.assert_allclose(solver._solve(a, b), np.linalg.solve(a, b),
                               rtol=1e-14, atol=0)


@pytest.mark.parametrize("seed", range(4))
def test_solve_matches_the_numpy_elimination(seed):
    # the same operations in the same order as on numpy rows: every bit
    rng = np.random.default_rng(seed)
    for n in (1, 2, 3, 5):
        a = rng.normal(size=(n, n)) * 10.0 ** rng.integers(-8, 18, (n, n))
        b = rng.normal(size=n)
        got, want = solver._solve(a, b), gauss_jordan_numpy(a, b)
        assert got.tobytes() == want.tobytes()


def _systems(rng, n):
    """Random, badly scaled and singular n×n systems (integer entries with a
    repeated row, a zero column: exact zero pivots), with finite
    right-hand sides and with one holding a NaN."""
    plain = rng.normal(size=(n, n))
    scaled = plain * 10.0 ** rng.integers(-150, 150, (n, n))
    repeated = rng.integers(-3, 4, (n, n)).astype(float)
    repeated[-1] = repeated[0]
    zero_col = rng.normal(size=(n, n))
    zero_col[:, rng.integers(n)] = 0.0
    b = rng.normal(size=n)
    nan_b = b.copy()
    nan_b[rng.integers(n)] = np.nan
    for a in (plain, scaled, repeated, zero_col):
        yield a, b
        yield a, nan_b


@pytest.mark.parametrize("n", range(1, 7))
def test_solve_is_bitwise_the_column_stack_elimination(n):
    # the list rows and the plain pivot loop do every operation of the
    # column_stack and max form in its order: the same bits, NaN and ±inf
    # in the same places, on every kind of system
    rng = np.random.default_rng(n)
    for _ in range(25):
        for a, b in _systems(rng, n):
            with np.errstate(all="ignore"):
                got, want = solver._solve(a, b), gauss_jordan_lists(a, b)
            assert got.tobytes() == want.tobytes(), (a, b)


def test_solve_divides_a_zero_pivot_as_numpy_does():
    # ±inf and NaN under errstate, the same RuntimeWarning otherwise: no
    # ZeroDivisionError
    a, b = np.array([[0.0, 1.0], [-0.0, 2.0]]), np.array([1.0, -1.0])
    with np.errstate(all="ignore"):
        got, want = solver._solve(a, b), gauss_jordan_numpy(a, b)
    np.testing.assert_array_equal(got, want)
    assert not np.isfinite(got).any()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        solver._solve(a, b)
    assert {w.category for w in caught} == {RuntimeWarning}
    assert any("divide by zero" in str(w.message) for w in caught)


def tc1_problem(first_target):
    """Test Case 1: M=4, K=16, L=4 at 6 dB, targets (ř₁, 8, 12, 16)."""
    fading = FadingModel(np.full((4, 16), snr_db_to_mean_gain(6.0)), seed=0)
    return Problem(grid=build_equiprobable(fading, 4), model=MODEL,
                   mu=np.ones(4), targets=np.array([first_target, 8, 12, 16]),
                   fading=fading)


@pytest.mark.parametrize("run", [
    run_offline_smooth, run_offline_nonsmooth, run_offline_newton,
    lambda problem, cfg: run_online(problem, cfg, 10)],
    ids=["smooth", "nonsmooth", "newton", "online"])
def test_infeasible_targets_raise_before_any_evaluation(run, monkeypatch):
    # user 1 alone can draw at most 12·16·3/4 = 144 < 200; the feasible
    # run shows that the counters see the evaluations of each solver (the
    # constant-step and non-smooth loops build their tables through dual's
    # binding, behind Problem.evaluate; an online block is one serve_block)
    calls = []
    evaluate = Problem.evaluate

    def counted(fn):
        return lambda *args, **kwargs: calls.append(1) or fn(*args, **kwargs)

    monkeypatch.setattr(Problem, "evaluate", counted(evaluate))
    monkeypatch.setattr(solver, "serve_block", counted(serve_block))
    monkeypatch.setattr(dual, "build_tables", counted(build_tables))
    cfg = SolverConfig(max_iters=3)
    with pytest.raises(InfeasibleTargetsError) as err:
        run(tc1_problem(200.0), cfg)
    assert err.value.users == [1] and "users [1]" in str(err.value)
    assert calls == []
    run(tc1_problem(4.0), cfg)
    assert calls


def offline_cases():
    """(problem, β) per family: the tc1 outage shape, an ergodic micro
    problem, MaxAvgBer on random ladders in three channel classes and
    MaxInstBer on the micro instance; β converges each smooth run."""
    micro = micro_problem()
    return {
        "tc1_outage": (tc1_problem(4.0), 8e-3),
        "ergodic": (ergodic_problem(), 0.05),
        "avg_ber_classes": (Problem(classes_grid(True), FAMILIES[2],
                                    np.array([1.0, 1.5]),
                                    np.array([0.5, 0.7])), 0.05),
        "inst_ber": (Problem(micro.grid, FAMILIES[1], micro.mu,
                             micro.targets), 0.05),
    }


# (mode, SolverConfig knobs): a converged and a max_iters stop of each loop,
# strides of 1 and more than 1 (with a forced last row off the stride), odd
# and even max_iters
OFFLINE_RUNS = [
    ("smooth", {"max_iters": 2001, "record_every": 7}),
    ("smooth", {"max_iters": 25, "record_every": 1}),
    ("smooth", {"max_iters": 24, "record_every": 5}),
    ("hard", {"kappa": 0.1, "tol": 0.05, "max_iters": 1001,
              "record_every": 4}),
    ("hard", {"kappa": 0.1, "max_iters": 24, "record_every": 1}),
    ("hard", {"kappa": 0.1, "max_iters": 27, "record_every": 4}),
]
OFFLINE_LOOPS = {"smooth": run_offline_smooth,
                 "hard": lambda *args: (None, run_offline_nonsmooth(*args))}


@pytest.mark.parametrize("case", ["tc1_outage", "ergodic", "avg_ber_classes",
                                  "inst_ber"])
def test_offline_loops_match_the_checked_reference_bitwise(case):
    # the loops call the Problem's per-mode core with λ checked once; the
    # reference evaluates through Problem.evaluate at every iterate: every
    # field, the final λ and each progress call keep their bits
    problem, beta = offline_cases()[case]
    reasons = set()
    for mode, knobs in OFFLINE_RUNS:
        cfg = SolverConfig(beta=beta, init=0.1, **knobs)
        calls = {"got": [], "want": []}

        def spy(key):
            return lambda i, lam, g: calls[key].append((i, lam.copy(),
                                                        g.copy()))

        lam, got = OFFLINE_LOOPS[mode](problem, cfg, spy("got"))
        want_lam, want = offline_reference(problem, cfg, mode, spy("want"))
        if lam is not None:
            assert lam.tobytes() == want_lam.tobytes()
        for field in ("iters", "lam", "subgrad", "rates", "power",
                      "served_rates"):
            assert (getattr(got, field).tobytes()
                    == getattr(want, field).tobytes()), field
        for field in ("reason", "converged", "served_power"):
            assert getattr(got, field) == getattr(want, field), field
        # the loop sums λ·ř per check, the reference takes each value
        if mode == "hard":
            assert got.dual_bound == pytest.approx(want.dual_bound,
                                                   rel=1e-12)
        assert len(calls["got"]) == got.iters[-1] + 1
        for (i, lam, g), (i0, lam0, g0) in zip(calls["got"], calls["want"],
                                              strict=True):
            assert (i == i0 and lam.tobytes() == lam0.tobytes()
                    and g.tobytes() == g0.tobytes())
        reasons.add((mode, got.reason))
    # each loop stopped both ways on some family, and both ways on the tc1
    # shape, where the hard loop's first check certifies at tol = 0.05
    if case == "tc1_outage":
        assert reasons == {(mode, reason) for mode in ("smooth", "hard")
                           for reason in ("converged", "max_iters")}
    else:
        assert ("hard", "converged") in reasons


@pytest.mark.parametrize("mode, knob", [("smooth", "beta"),
                                        ("hard", "kappa"), ("online", "beta")])
def test_an_overflowing_step_raises_before_it_is_evaluated(mode, knob,
                                                            monkeypatch):
    # λ⁽⁰⁾ is finite: a step of 1e308 overflows λ, which the loop's
    # floating-point state (_stepping) raises at once, in the step itself
    # (_ascend) and with no RuntimeWarning, before any evaluation at it. The
    # offline loops build through dual's binding, an online block in
    # solver's serve_block
    builds = []

    def spy(fn):
        return lambda *args, **kwargs: builds.append(1) or fn(*args, **kwargs)

    monkeypatch.setattr(dual, "build_tables", spy(build_tables))
    monkeypatch.setattr(solver, "serve_block", spy(serve_block))
    cfg = SolverConfig(max_iters=1000, **{knob: 1e308})
    loop = OFFLINE_LOOPS.get(
        mode, lambda problem, cfg, _: run_online(problem, cfg, 10))
    with pytest.raises(FloatingPointError, match="overflow"):
        loop(tc1_problem(4.0), cfg, None)
    assert builds == [1]


@pytest.mark.parametrize("mode", ["smooth", "hard"])
def test_each_offline_iterate_builds_one_table(mode, monkeypatch):
    # dual's build_tables binding is the one perfbench counts: one table
    # build per iterate, none added or dropped, for a max_iters stop and a
    # converged one
    builds = []

    def spy(*args, **kwargs):
        builds.append(1)
        return build_tables(*args, **kwargs)

    monkeypatch.setattr(dual, "build_tables", spy)
    problem, beta = offline_cases()["inst_ber"]
    for knobs in ({"max_iters": 9}, {"tol": 0.05, "max_iters": 2000}):
        builds.clear()
        cfg = SolverConfig(beta=beta, kappa=0.1, record_every=1, **knobs)
        traj = OFFLINE_LOOPS[mode](problem, cfg, None)[1]
        assert len(builds) == traj.iters[-1] + 1 == len(traj.iters)
        assert traj.reason == ("max_iters" if knobs["max_iters"] == 9
                               else "converged")


class NaNRate(LinearRate):
    """LinearRate whose every evaluation has a NaN subgradient."""

    def evaluate(self, lam, mode="smooth", eps=0.05):
        ev = super().evaluate(lam, mode, eps)
        ev.subgradient = np.full(1, np.nan)
        return ev


def test_newton_accepts_a_first_evaluation_that_is_not_finite():
    # ‖g‖ = NaN at λ⁽⁰⁾ fails ‖g‖ ≤ ∞, yet λ⁽⁰⁾ is always accepted: its NaN
    # step gives a trial that is not finite, and the run stops "stalled"
    problem = NaNRate(1.0)
    lam, traj = run_offline_newton(problem,
                                   SolverConfig(beta=1e-3, max_iters=50))
    assert traj.reason == "stalled" and not traj.converged
    assert len(problem.seen) == 1 and list(traj.iters) == [0]
    np.testing.assert_array_equal(lam, [0.1])
    assert np.isnan(traj.subgrad[-1]).all()


def test_serves_targets_takes_an_overflowing_slack_as_infinite():
    # λ·tol past the float range is ∞ slack, so the bound holds, silently
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert serves_targets(np.ones(2), np.ones(2), 1e10, power=1.0,
                              dual_bound=0.5, lam=np.full(2, 1e300))
        assert not serves_targets(np.ones(2), np.ones(2), 1e-3, power=1.0,
                                  dual_bound=0.5, lam=np.full(2, 1e2))


def test_trajectory_csv_roundtrip():
    problem = two_user_problem()
    cfg = SolverConfig(beta=1e-2, max_iters=7, record_every=2, tol=1e-12)
    _, traj = run_offline_smooth(problem, cfg)
    buf = io.StringIO()
    traj.write_csv(buf)
    lines = buf.getvalue().splitlines()
    assert lines[0] == ("iter,lambda_1,lambda_2,subgrad_1,subgrad_2,"
                        "rate_1,rate_2,power")
    assert len(lines) == 1 + len(traj.iters)
    for i, line in enumerate(lines[1:]):
        fields = line.split(",")
        assert int(fields[0]) == traj.iters[i]
        got = np.array([float(x) for x in fields[1:]])
        expect = np.concatenate([traj.lam[i], traj.subgrad[i], traj.rates[i],
                                 [traj.power[i]]])
        np.testing.assert_array_equal(got, expect)   # repr round-trips


def test_multiplier_settled_semantics():
    iters = np.arange(100)
    flat = np.ones((100, 2)) * [1.0, 2.0]
    zeros = np.zeros((100, 2))
    t_flat = Trajectory(iters, flat, zeros, zeros, np.zeros(100))
    assert multiplier_settled(t_flat)
    drift = np.linspace(0.0, 1.0, 100)[:, None] * np.ones(2)
    t_drift = Trajectory(iters, drift, zeros, zeros, np.zeros(100))
    assert not multiplier_settled(t_drift)
    empty = Trajectory(np.zeros(0, dtype=int), np.zeros((0, 2)),
                       np.zeros((0, 2)), np.zeros((0, 2)), np.zeros(0))
    assert not multiplier_settled(empty)
    # tail fraction matters: early motion is forgiven
    settled_late = drift.copy()
    settled_late[50:] = drift[50]
    t_late = Trajectory(iters, settled_late, zeros, zeros, np.zeros(100))
    assert multiplier_settled(t_late)
