"""Multiplier iterations: scalar oracles, trajectories, online determinism."""

import io

import numpy as np
import pytest

from qcsched import solver
from qcsched.allocator import InfeasibleTargetsError, Multipliers, build_tables
from qcsched.channel import (FadingModel, sample_gain_blocks, sample_gains,
                             snr_db_to_mean_gain)
from qcsched.dual import block_allocation, exact_dual
from qcsched.powerrate import ErgodicCapacity, MaxAvgBer, OutageCapacity
from qcsched.quantizer import (QuantizerGrid, build_equiprobable, build_random,
                               quantize)
from qcsched.solver import (OnlineResult, Problem, SolverConfig, Trajectory,
                            run_offline_newton, run_offline_nonsmooth,
                            run_offline_smooth, run_online, serves_targets)

from oracles import multiplier_settled, step_weighted_average

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
    # on the bundled M=4, K=16 shape the hard iterates hover, so the stop
    # rule never fires and the run serves the average its loop keeps as
    # running sums
    problem = tc2_problem()
    cfg = SolverConfig(kappa=0.1, tol=1e-3, max_iters=max_iters)
    traj = run_offline_nonsmooth(problem, cfg)
    assert traj.reason == "max_iters"
    rates, power = step_weighted_average(traj, cfg.kappa, max_iters)
    np.testing.assert_allclose(traj.served_rates, rates, rtol=1e-12)
    assert traj.served_power == pytest.approx(power, rel=1e-12)
    assert traj.converged == serves_targets(rates, problem.targets, cfg.tol)
    assert np.max(np.abs(traj.rates[-1] - problem.targets)) > 0.5
    # a stop rule that fires serves the iterate that met it
    stopped = run_offline_nonsmooth(scalar_problem(0.0), SolverConfig(
        init=0.0, max_iters=100))
    assert stopped.reason == "converged" and stopped.converged
    np.testing.assert_array_equal(stopped.served_rates, stopped.rates[-1])


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
    M = problem.num_users
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
        served, wpower, _ = block_allocation(tables, lam, jmat, cfg.eps)
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
                      (res.sample_avg_power, again.sample_avg_power),
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
    served = np.array([block_allocation(tables, lam, j, 0.05)[0]
                       for j in qcsi])
    se = served.std(axis=0, ddof=1) / np.sqrt(len(served))
    exact = exact_dual(problem.model, problem.grid, mult, "smooth", 0.05)
    assert np.all(se > 0)
    assert np.all(np.abs(served.mean(axis=0) - exact.per_user_avg_rate)
                  < 5.0 * se)


@pytest.mark.parametrize("make, blocks, beta, rtol, chunk", [
    (tc2_problem, 300, 2e-3, 0.0, solver.ONLINE_CHUNK),
    (tc2_problem, 300, 2e-3, 0.0, 7),
    (avg_ber_random_problem, 200, 0.05, 0.0, solver.ONLINE_CHUNK),
    (avg_ber_random_problem, 200, 0.05, 0.0, 7),
    (ergodic_problem, 20, 0.05, 1e-12, 7),
])
def test_online_fused_path_matches_reference_loop(make, blocks, beta, rtol,
                                                  chunk, monkeypatch):
    # the fused path samples a chunk of blocks and evaluates only the cells
    # each block reads; closed-form families must match the full-table loop
    # bitwise, the ergodic root-finds to rounding. A 7-block chunk puts
    # chunk boundaries inside the run.
    monkeypatch.setattr(solver, "ONLINE_CHUNK", chunk)
    problem = make()
    cfg = SolverConfig(beta=beta, init=0.1, eps=0.05, record_every=10)
    res = run_online(problem, cfg, blocks)
    trace, avg_rate, avg_power, lam = reference_online(problem, cfg, blocks)
    assert np.any(trace[-1] != trace[0])
    for got, want in ((res.lam_trace, trace), (res.sample_avg_rate, avg_rate),
                      (res.sample_avg_power, avg_power),
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
    # run shows that the counters see the evaluations of each solver
    calls = []
    evaluate = Problem.evaluate

    def counted(fn):
        return lambda *args, **kwargs: calls.append(1) or fn(*args, **kwargs)

    monkeypatch.setattr(Problem, "evaluate", counted(evaluate))
    monkeypatch.setattr(solver, "build_tables", counted(build_tables))
    cfg = SolverConfig(max_iters=3)
    with pytest.raises(InfeasibleTargetsError) as err:
        run(tc1_problem(200.0), cfg)
    assert err.value.users == [1] and "users [1]" in str(err.value)
    assert calls == []
    run(tc1_problem(4.0), cfg)
    assert calls


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
