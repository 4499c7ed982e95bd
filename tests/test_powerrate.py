"""Power-rate families: closed forms, quadrature oracles, convexity, marginals.

The quadrature oracles integrate the defining region averages directly
(conditional ergodic capacity, average BER), independent of the closed
forms / root-finds under test.
"""

import decimal
import math
import warnings
from decimal import Decimal

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from qcsched import powerrate
from qcsched.powerrate import (ErgodicCapacity, MaxAvgBer, MaxInstBer,
                               NumericError, OutageCapacity, RegionContext,
                               delta_outage_gain, make_model, region_contexts)
from qcsched.quantizer import build_equiprobable
from qcsched.channel import FadingModel, snr_db_to_mean_gain
from qcsched.solver import Problem, SolverConfig, run_offline_smooth

from oracles import (linear_allocation_guarded, linear_power_guarded,
                     marginal_power)

LN2 = np.log(2.0)
FAMILIES = [
    OutageCapacity(outage_delta=0.0),
    OutageCapacity(outage_delta=0.3),
    MaxInstBer(kappa1=0.2, kappa2=1.5, eps_max=0.01),
    MaxAvgBer(kappa1=0.2, kappa2=1.5, eps_avg=0.01),
    ErgodicCapacity(),
]
# a region away from zero so no family sees an outage
CTX = RegionContext(q_lo=0.4, q_hi=2.1, mean_gain=1.3)


def inv_marginal(model, ctx, slope, rate_cap=math.inf):
    """R* = Υ̇⁻¹(slope) through the family's one hook, ``allocation``."""
    return model.allocation(model.cell_data(ctx), slope, rate_cap)[0]


# --- delta-outage gain ----------------------------------------------------------

def test_delta_outage_gain_zero_delta_is_floor():
    ctx = RegionContext(q_lo=np.array([0.0, 0.7]), q_hi=np.array([0.7, np.inf]),
                        mean_gain=1.0)
    np.testing.assert_array_equal(delta_outage_gain(ctx, 0.0), [0.0, 0.7])


def test_delta_outage_gain_halfway_by_hand():
    # region (ln2, inf), mean 1: survival at the floor is 1/2, so the median
    # of the conditional law sits at survival 1/4, i.e. g = ln 4
    ctx = RegionContext(q_lo=LN2, q_hi=np.inf, mean_gain=1.0)
    assert abs(delta_outage_gain(ctx, 0.5) - np.log(4.0)) < 1e-15


def test_delta_outage_gain_validation():
    ctx = RegionContext(q_lo=0.0, q_hi=1.0, mean_gain=1.0)
    for bad in (-0.1, 1.0, 1.5):
        with pytest.raises(ValueError):
            delta_outage_gain(ctx, bad)


def _decimal_region(lo, hi, g, delta):
    """Pr/S_lo, E[g | R], E[g² | R] and the δ-quantile of the truncated
    exponential at 60 digits, from the survivals over S_lo: S_hi/S_lo =
    e^{-(q_hi - q_lo)/ḡ}, which the decimal range keeps far in the tail."""
    with decimal.localcontext() as ctx:
        ctx.prec = 60
        lo, g, d = Decimal(lo), Decimal(g), Decimal(delta)
        e = 0 if math.isinf(hi) else (-(Decimal(hi) - lo) / g).exp()
        hi = 0 if math.isinf(hi) else Decimal(hi)
        m1 = ((lo + g) - (hi + g) * e) / (1 - e)
        m2 = ((lo + g) ** 2 + g * g - ((hi + g) ** 2 + g * g) * e) / (1 - e)
        quantile = lo - g * ((1 - d) + d * e).ln()
        return [float(v) for v in (1 - e, m1, m2, quantile)]


# widths from narrow enough that today's ratio of survivals cancels to
# wide; lower edges from 0 to a million mean gains out, where the
# survivals underflow; and the last region
@settings(max_examples=300, deadline=None)
@given(g=st.floats(-3, 3).map(lambda e: 10.0 ** e),
       lo=st.one_of(st.just(0.0), st.floats(-6, 6).map(lambda e: 10.0 ** e)),
       w=st.one_of(st.just(math.inf), st.floats(-12, 3).map(lambda e: 10.0 ** e)),
       delta=st.floats(0.01, 0.99))
@example(g=1.0, lo=0.0, w=1e-12, delta=0.5)
@example(g=1.0, lo=1000.0, w=1.0, delta=0.3)
@example(g=1.0, lo=1e6, w=math.inf, delta=0.3)
def test_region_moments_and_quantile_match_a_decimal_reference(g, lo, w,
                                                               delta):
    # each lies in [q_lo, q_hi] (its square's), finite in a region whose
    # probability underflows to 0, and within a few ulps of 60 digits:
    # measured at most 4.2e-16 (m1) and 5.2e-15 (m2) relative on 3 000
    # random regions of this kind, where the ratio of survivals gave 36
    # non-finite moments and, on narrow regions, m1 off by far more than m1
    lo *= g
    hi = lo + g * w
    assume(lo < hi)
    ctx = RegionContext(q_lo=lo, q_hi=hi, mean_gain=g)
    ratio, pr, m1, m2 = powerrate._truncated_exp(ctx)
    gd = delta_outage_gain(ctx, delta)
    want = _decimal_region(lo, hi, g, delta)
    assert abs(ratio + pr - 1.0) <= 2.3e-16
    assert lo <= m1 <= hi and lo * lo <= m2 <= hi * hi and lo <= gd <= hi
    for got, ref, rtol in zip((pr, m1, m2, gd), want,
                              (1e-15, 3e-15, 3e-14, 3e-15)):
        assert abs(got - ref) <= rtol * ref, (got, ref)


def test_region_context_validation():
    nan, inf = math.nan, math.inf
    for q_lo, q_hi, mean_gain in ((1.0, 1.0, 1.0), (-0.1, 1.0, 1.0),
                                  (0.0, 1.0, 0.0), (nan, 1.0, 1.0),
                                  (0.0, nan, 1.0), (0.0, 1.0, nan),
                                  (0.0, 1.0, inf)):
        with pytest.raises(ValueError):
            RegionContext(q_lo=q_lo, q_hi=q_hi, mean_gain=mean_gain)


def test_region_contexts_covers_grid():
    model = FadingModel(np.full((2, 3), 2.0), seed=0)
    grid = build_equiprobable(model, 4)
    ctx = region_contexts(grid)
    assert ctx.q_lo.shape == (2, 3, 4)
    np.testing.assert_array_equal(ctx.q_lo, grid.thresholds[:, :, :-1])
    np.testing.assert_array_equal(ctx.q_hi, grid.thresholds[:, :, 1:])


# --- outage capacity -------------------------------------------------------------

def test_outage_capacity_hand_values():
    model = OutageCapacity(outage_delta=0.0)
    ctx = RegionContext(q_lo=1.0, q_hi=2.0, mean_gain=1.0)   # g^0 = 1
    assert model.power_of_rate(model.cell_data(ctx), 1.0) == 1.0  # (2^1-1)/1
    assert model.power_of_rate(model.cell_data(ctx), 0.0) == 0.0
    ctx3 = RegionContext(q_lo=3.0, q_hi=np.inf, mean_gain=1.0)
    assert abs(model.rate_and_derivative(model.cell_data(ctx3), 1.0)[0]
               - 2.0) < 1e-15                       # log2(1+3)
    assert model.rate_and_derivative(model.cell_data(ctx3), 0.0)[0] == 0.0


def test_outage_region_semantics():
    model = OutageCapacity(outage_delta=0.0)
    out = RegionContext(q_lo=0.0, q_hi=0.5, mean_gain=1.0)
    assert model.is_outage(model.cell_data(out))
    assert np.isposinf(model.power_of_rate(model.cell_data(out), 1.0))
    assert model.power_of_rate(model.cell_data(out), 0.0) == 0.0
    assert model.rate_and_derivative(model.cell_data(out), 5.0)[0] == 0.0
    assert inv_marginal(model, out, 100.0) == 0.0
    # positive delta lifts the first region out of outage
    d = OutageCapacity(outage_delta=0.2)
    assert not d.is_outage(d.cell_data(out))
    assert np.isfinite(d.power_of_rate(d.cell_data(out), 1.0))


def test_outage_inv_marginal_by_hand():
    model = OutageCapacity(outage_delta=0.0)
    ctx = RegionContext(q_lo=1.0, q_hi=np.inf, mean_gain=1.0)
    assert abs(inv_marginal(model, ctx, 2.0 * LN2) - 1.0) < 1e-15
    assert inv_marginal(model, ctx, LN2) == 0.0        # clip boundary
    assert inv_marginal(model, ctx, 0.5 * LN2) == 0.0
    assert inv_marginal(model, ctx, 1e9, 6.0) == 6.0


def test_max_inst_ber_closed_form():
    k1, k2, em = 0.2, 1.5, 0.01
    model = MaxInstBer(kappa1=k1, kappa2=k2, eps_max=em)
    ctx = RegionContext(q_lo=0.8, q_hi=2.0, mean_gain=1.0)
    x = 1.7
    expect = (2 ** x - 1) * np.log(k1 / em) / (k2 * 0.8)
    assert abs(model.power_of_rate(model.cell_data(ctx), x) - expect) < 1e-12
    # first region (floor 0) is an outage region
    assert model.is_outage(model.cell_data(RegionContext(0.0, 0.8, 1.0)))


def test_family_param_validation():
    nan, inf = math.nan, math.inf
    with pytest.raises(ValueError):
        OutageCapacity(outage_delta=1.0)
    with pytest.raises(ValueError):
        OutageCapacity(outage_delta=nan)
    with pytest.raises(ValueError):
        MaxInstBer(kappa1=0.2, kappa2=1.0, eps_max=0.25)     # eps >= kappa1
    # κ1 and κ2 are positive and finite: NaN fails each check
    for k1, k2 in ((0.2, -1.0), (0.2, nan), (0.2, inf), (nan, 1.5),
                   (inf, 1.5)):
        with pytest.raises(ValueError):
            MaxInstBer(kappa1=k1, kappa2=k2, eps_max=0.01)
        with pytest.raises(ValueError):
            MaxAvgBer(kappa1=k1, kappa2=k2, eps_avg=0.01)
    with pytest.raises(ValueError):
        MaxAvgBer(kappa1=0.2, kappa2=1.0, eps_avg=0.0)


# --- average BER: quadrature oracle ----------------------------------------------

def _avg_ber_quadrature(y, x, ctx, k1, k2):
    """Average kappa1*exp(-y*kappa2*g/(2^x-1)) over the truncated exponential."""
    quad = pytest.importorskip("scipy.integrate").quad
    g, lo, hi = ctx.mean_gain, ctx.q_lo, ctx.q_hi
    pr = np.exp(-lo / g) - (0.0 if np.isposinf(hi) else np.exp(-hi / g))
    a = y * k2 / (2.0 ** x - 1.0)

    def integrand(t):
        return k1 * np.exp(-a * t) * np.exp(-t / g) / g
    val, err = quad(integrand, lo, min(hi, 200.0 * g), epsabs=1e-13)
    return val / pr


@pytest.mark.parametrize("rate", [0.5, 1.0, 2.0, 4.0])
def test_max_avg_ber_meets_the_ber_target(rate):
    k1, k2, eps = 0.2, 1.5, 0.01
    model = MaxAvgBer(kappa1=k1, kappa2=k2, eps_avg=eps)
    for ctx in (RegionContext(0.3, 1.7, 1.2), RegionContext(0.0, 0.9, 0.6),
                RegionContext(2.0, np.inf, 1.0)):
        y = float(model.power_of_rate(model.cell_data(ctx), rate))
        assert _avg_ber_quadrature(y, rate, ctx, k1, k2) == pytest.approx(
            eps, rel=1e-8)


def test_max_avg_ber_has_no_outage_region():
    model = MaxAvgBer(kappa1=0.2, kappa2=1.5, eps_avg=0.01)
    ctx = RegionContext(q_lo=0.0, q_hi=0.5, mean_gain=1.0)
    assert not model.is_outage(model.cell_data(ctx))
    assert np.isfinite(model.power_of_rate(model.cell_data(ctx), 2.0))


# --- ergodic capacity: quadrature oracle ------------------------------------------

def _cond_ergodic_quadrature(y, ctx):
    """E[log2(1 + y g) | g in region] for the truncated exponential gain."""
    quad = pytest.importorskip("scipy.integrate").quad
    g, lo, hi = ctx.mean_gain, ctx.q_lo, ctx.q_hi
    pr = np.exp(-lo / g) - (0.0 if np.isposinf(hi) else np.exp(-hi / g))

    def integrand(t):
        return np.log2(1.0 + y * t) * np.exp(-t / g) / g
    val, err = quad(integrand, lo, min(hi, 400.0 * g),
                    epsabs=1e-13, limit=200)
    return val / pr


@pytest.mark.parametrize("y", [0.1, 1.0, 10.0])
def test_ergodic_rate_matches_quadrature(y):
    model = ErgodicCapacity()
    ctx = RegionContext(q_lo=0.2, q_hi=3.0, mean_gain=1.0)
    rate = model.rate_and_derivative(model.cell_data(ctx), y)[0]
    assert rate == pytest.approx(_cond_ergodic_quadrature(y, ctx), abs=1e-8)


def test_ergodic_rate_matches_quadrature_unbounded_region():
    model = ErgodicCapacity()
    ctx = RegionContext(q_lo=LN2, q_hi=np.inf, mean_gain=2.0)
    for y in (0.05, 0.7, 4.0):
        rate = model.rate_and_derivative(model.cell_data(ctx), y)[0]
        assert rate == pytest.approx(_cond_ergodic_quadrature(y, ctx),
                                     abs=1e-8)


def test_ergodic_power_roundtrip():
    model = ErgodicCapacity()
    ctx = RegionContext(q_lo=0.5, q_hi=2.0, mean_gain=1.0)
    x = float(model.rate_and_derivative(model.cell_data(ctx), 2.0)[0])
    assert model.power_of_rate(model.cell_data(ctx), x) == pytest.approx(
        2.0, abs=1e-8)


def test_ergodic_inv_marginal_consistency():
    model = ErgodicCapacity()
    ctx = RegionContext(q_lo=0.3, q_hi=1.8, mean_gain=0.9)
    zero_slope = float(LN2 / model.cell_data(ctx)[2])
    assert inv_marginal(model, ctx, 0.5 * zero_slope) == 0.0
    for t in (1.5 * zero_slope, 4.0 * zero_slope):
        r = float(inv_marginal(model, ctx, t))
        assert r > 0
        assert marginal_power(model, ctx, r) == pytest.approx(t, rel=1e-7)


def _cond_ergodic_marginal_quadrature(y, ctx):
    """d/dy E[log2(1 + y g) | g in region] = E[g/(1 + y g) | region]/ln2."""
    quad = pytest.importorskip("scipy.integrate").quad
    g, lo, hi = ctx.mean_gain, ctx.q_lo, ctx.q_hi
    pr = np.exp(-lo / g) - (0.0 if np.isposinf(hi) else np.exp(-hi / g))

    def integrand(t):
        return t / (1.0 + y * t) * np.exp(-t / g) / g
    val, err = quad(integrand, lo, min(hi, 400.0 * g),
                    epsabs=0.0, epsrel=1e-13, limit=200)
    return val / (pr * LN2)


@pytest.mark.parametrize("y", [1e-9, 1e-6, 1e-3, 0.5])
def test_ergodic_marginal_stays_accurate_at_small_power(y):
    # Υ̇ = 1/(Υ⁻¹)'; the closed form of (Υ⁻¹)' must not cancel as y -> 0,
    # where the marginal inverse puts cells whose slope is just above Υ̇(0)
    model = ErgodicCapacity()
    for ctx in (RegionContext(q_lo=0.2, q_hi=3.0, mean_gain=1.0),
                RegionContext(q_lo=0.0, q_hi=0.3, mean_gain=1.0),
                RegionContext(q_lo=LN2, q_hi=np.inf, mean_gain=2.0)):
        x = float(model.rate_and_derivative(model.cell_data(ctx), y)[0])
        assert float(marginal_power(model, ctx, x)) == pytest.approx(
            1.0 / _cond_ergodic_marginal_quadrature(y, ctx), rel=1e-10)


# --- cross-family properties -------------------------------------------------------

@pytest.mark.parametrize("model", FAMILIES, ids=lambda m: type(m).__name__)
def test_roundtrip_rate_power(model):
    x = np.linspace(0.0, 12.0, 25)
    y = model.power_of_rate(model.cell_data(CTX), x)
    np.testing.assert_allclose(
        model.rate_and_derivative(model.cell_data(CTX), y)[0], x,
        rtol=1e-8, atol=1e-8)


@pytest.mark.parametrize("model", FAMILIES, ids=lambda m: type(m).__name__)
def test_strict_convexity_and_monotonicity(model):
    x = np.linspace(0.0, 10.0, 41)
    y = np.array([float(model.power_of_rate(model.cell_data(CTX), xi))
                  for xi in x])
    assert np.all(np.diff(y) > 0)
    assert np.all(np.diff(y, 2) > 0)


@pytest.mark.parametrize("model", FAMILIES, ids=lambda m: type(m).__name__)
def test_marginal_matches_finite_differences(model):
    h = 1e-6
    for x in (0.4, 1.3, 3.0, 7.5):
        fd = (float(model.power_of_rate(model.cell_data(CTX), x + h))
              - float(model.power_of_rate(model.cell_data(CTX), x - h))
              ) / (2 * h)
        got = float(marginal_power(model, CTX, x))
        assert got == pytest.approx(fd, rel=1e-6)


@pytest.mark.parametrize("model", FAMILIES, ids=lambda m: type(m).__name__)
def test_rate_derivative_matches_a_central_difference(model):
    # (Υ⁻¹)' against Υ⁻¹'s central difference, step 1e-4·y: truncation
    # near 1e-8 relative, rounding far below; the first region is outage for
    # the δ = 0 and instantaneous-BER families, where both are exactly 0,
    # and ergodic y reaches down to its first-order branch below
    # y·E[g|R] = 1e-300
    ctx = RegionContext(q_lo=np.array([0.0, 0.4, 2.1]),
                        q_hi=np.array([0.4, 2.1, np.inf]), mean_gain=1.3)
    data = model.cell_data(ctx)
    outage = model.is_outage(data)
    for y in (1e-305, 1e-9, 1e-3, 0.5, 5.0, 80.0):
        h = 1e-4 * y
        deriv = model.rate_and_derivative(data, y)[1]
        fd = (model.rate_and_derivative(data, y + h)[0]
              - model.rate_and_derivative(data, y - h)[0]) / (2 * h)
        np.testing.assert_array_equal(deriv[outage], 0.0)
        np.testing.assert_array_equal(fd[outage], 0.0)
        np.testing.assert_allclose(deriv[~outage], fd[~outage], rtol=1e-6)


@pytest.mark.parametrize("model", FAMILIES, ids=lambda m: type(m).__name__)
def test_marginal_strictly_increasing(model):
    x = np.linspace(0.05, 9.0, 30)
    d = np.array([float(marginal_power(model, CTX, xi)) for xi in x])
    assert np.all(np.diff(d) > 0)


@pytest.mark.parametrize("model", FAMILIES, ids=lambda m: type(m).__name__)
def test_negative_inputs_rejected(model):
    with pytest.raises(ValueError):
        model.power_of_rate(model.cell_data(CTX), -0.5)
    with pytest.raises(ValueError):
        model.rate_and_derivative(model.cell_data(CTX), -1.0)[0]


def test_make_model_families():
    assert isinstance(make_model("outage_capacity", outage_delta=0.1),
                      OutageCapacity)
    assert isinstance(make_model("ergodic_capacity"), ErgodicCapacity)
    assert isinstance(
        make_model("max_inst_ber", kappa1=0.2, kappa2=1.0, eps_max=0.01),
        MaxInstBer)
    assert isinstance(
        make_model("max_avg_ber", kappa1=0.2, kappa2=1.0, eps_avg=0.01),
        MaxAvgBer)
    with pytest.raises(ValueError, match="unknown power_rate family"):
        make_model("waterfilling")


@pytest.mark.parametrize("model", FAMILIES, ids=lambda m: repr(m)[:40])
def test_cell_data_is_the_only_method_that_reads_regions(model):
    # every other method reads the tuple cell_data returns
    public = {n for n in dir(model)
              if not n.startswith("_") and callable(getattr(model, n))}
    assert public == {"cell_data", "allocation", "rate_slope", "power_of_rate",
                      "rate_and_derivative", "is_outage", "perfect_csi_scale"}


@pytest.mark.parametrize("model", FAMILIES, ids=lambda m: repr(m)[:40])
@pytest.mark.parametrize("g", [0.05, 1.3, 9.0])
def test_perfect_csi_scale_is_the_shrinking_region_limit(model, g):
    # on [g, g·(1+w)], g·c → s for the c·(2^x - 1) families and
    # g·Υ̇(0)/ln2 = g/E[g|R] → s = 1 for ergodic, the error within w
    s = model.perfect_csi_scale()
    for w in (1e-2, 1e-4, 1e-6):
        ctx = RegionContext(q_lo=g, q_hi=g * (1.0 + w), mean_gain=1.3)
        if isinstance(model, ErgodicCapacity):
            limit = g * (LN2 / model.cell_data(ctx)[2]) / LN2
        else:
            limit = g * model.cell_data(ctx)[0]
        assert abs(limit / s - 1.0) <= w, (w, limit, s)


def test_numeric_error_carries_residual():
    err = NumericError("boom", residual=0.5)
    assert err.residual == 0.5


def test_unconverged_root_find_raises_with_its_residual(monkeypatch):
    monkeypatch.setattr(powerrate, "ROOT_MAX_ITER", 3)
    ctx = RegionContext(q_lo=np.array([0.0, 0.4]), q_hi=np.array([0.4, 2.0]),
                        mean_gain=1.3)
    for call in (
            lambda: MaxAvgBer(kappa1=0.2, kappa2=1.5,
                              eps_avg=0.01).cell_data(ctx)[0],
            lambda: inv_marginal(ErgodicCapacity(), ctx, 5.0)):
        with pytest.raises(NumericError, match="did not converge") as info:
            call()
        assert np.isfinite(info.value.residual) and info.value.residual > 0


def test_unbracketed_root_find_reports_its_residual():
    # Υ(2000 bits) overflows a double: the report is the rate still missing
    # at the last finite bracket, not the bracket itself
    with pytest.raises(NumericError, match="could not bracket") as info:
        ErgodicCapacity().power_of_rate(ErgodicCapacity().cell_data(CTX),
                                        2000.0)
    assert 900.0 < info.value.residual < 2000.0


def recorded(f_df, calls):
    """f_df that appends every point it is asked for to ``calls``."""
    def wrapped(x):
        calls.extend(np.atleast_1d(x).tolist())
        return f_df(x)
    return wrapped


def cube_minus(c):
    return lambda x: (x * x * x - c, 3.0 * x * x)


def tanh_minus(c):
    return lambda x: (np.tanh(x - c), 1.0 - np.tanh(x - c) ** 2)


def test_vec_newton_starts_at_the_bracket_it_grew():
    # x³ - 300 from [0, 1]: hi doubles three times to 8, and the evaluation
    # at 8 is Newton's first step, so f is asked for 1, 2, 4, 8 and then the
    # Newton points alone, each once: doublings + 1 + Newton steps calls.
    # From the right of the root of a convex increasing f every Newton point
    # stays inside the bracket
    f_df, calls, tol = cube_minus(300.0), [], powerrate.ROOT_TOL
    root = powerrate._vec_newton(recorded(f_df, calls), 0.0, np.ones(1),
                                 "cube")
    x, newton = np.array([8.0]), []
    while abs((step := x - np.divide(*f_df(x))) - x) > tol * (1.0 + abs(x)):
        x = step
        newton.append(float(x[0]))
    assert len(newton) >= 3
    assert calls == [1.0, 2.0, 4.0, 8.0] + newton
    assert root[0] == pytest.approx(300.0 ** (1 / 3), rel=1e-14)


def test_vec_newton_bisects_when_the_newton_point_leaves_the_bracket():
    # tanh(x - 3) is flat at hi = 8: Newton from there lands far below
    # lo = 0, so the first step is the midpoint 4
    calls = []
    root = powerrate._vec_newton(recorded(tanh_minus(3.0), calls), 0.0,
                                 np.array([8.0]), "tanh")
    assert calls[:2] == [8.0, 4.0]
    assert root[0] == pytest.approx(3.0, abs=1e-12)


def test_vec_newton_elements_do_not_depend_on_each_other():
    # roots that need no doubling or six, pure Newton steps or bisection
    # steps (tanh is flat far from its root), and one batch that mixes
    # them: a root at hi, roots just below hi that Newton alone finds, and
    # roots whose first step, or every step, bisects while the others do
    # not. Each element's root, and the last point it was evaluated at
    # while live, are the ones its own call finds, to the bit
    def with_point(f_df):
        return lambda x: (*f_df(x), x.copy())

    for f_of, c in ((cube_minus, np.array([0.5, 3.0, 300.0, 1e5])),
                    (tanh_minus, np.array([0.3, 3.0, 7.0, 20.0])),
                    (tanh_minus, np.array([0.99, 1.0, 4.01, 30.0, 60.0]))):
        both = powerrate._vec_newton(with_point(f_of(c)), 0.0,
                                     np.ones(len(c)), "batch")
        for i in range(len(c)):
            one = powerrate._vec_newton(with_point(f_of(c[i:i + 1])), 0.0,
                                        np.ones(1), "solo")
            for solo, batch in zip(one, both):
                assert solo.tobytes() == batch[i:i + 1].tobytes()


def test_vec_newton_keeps_each_elements_last_live_evaluation():
    # f_df hands back the point it was asked at as an extra array. Each
    # element's extra is the last point its solo call asked for, the one its
    # last step started from, although the batch asks every element again
    # while the slowest one is still live; the roots are the plain call's
    def with_point(f_df):
        return lambda x: (*f_df(x), x.copy())

    c = np.array([0.5, 3.0, 300.0, 1e5])
    plain = powerrate._vec_newton(cube_minus(c), 0.0, np.ones(len(c)),
                                  "batch")
    calls = []
    root, point = powerrate._vec_newton(
        recorded(with_point(cube_minus(c)), calls), 0.0, np.ones(len(c)),
        "batch")
    assert root.tobytes() == plain.tobytes()
    for i in range(len(c)):
        solo = []
        powerrate._vec_newton(recorded(with_point(cube_minus(c[i:i + 1])),
                                       solo), 0.0, np.ones(1), "solo")
        assert point[i] == solo[-1]
    # some element stopped a step early and was asked again at its root
    assert np.any(point != np.array(calls[-len(c):]))


def bisect(f, lo, hi):
    """Elementwise root of an increasing f: double hi until f(hi) >= 0, then
    halve [lo, hi] down to the last bit. The oracle of the root-finds."""
    lo, hi = (np.array(v, dtype=float) for v in np.broadcast_arrays(lo, hi))
    while np.any(short := f(hi) < 0.0):
        lo, hi = np.where(short, hi, lo), np.where(short, 2.0 * hi, hi)
    while True:
        mid = 0.5 * (lo + hi)
        live = (lo < mid) & (mid < hi)
        if not live.any():
            return mid
        below = f(mid) < 0.0
        lo, hi = np.where(live & below, mid, lo), np.where(live & ~below, mid, hi)


@settings(max_examples=12, deadline=None)
@given(g=st.floats(0.25, 4.0), lo=st.one_of(st.just(0.0), st.floats(0.0, 3.0)),
       width=st.one_of(st.just(np.inf), st.floats(0.3, 3.0)),
       log_excess=st.lists(st.floats(-12.0, 2.0), min_size=4, max_size=4),
       cap=st.floats(0.05, 6.0), eps_avg=st.floats(1e-4, 0.1))
# 1e-10 above Υ̇(0) the root sits 1.2 units of eps/m1 below ρ·y_hi
@example(g=1.0, lo=2.0, width=np.inf, log_excess=[0.0, 0.0, 0.0, -10.0],
         cap=1.0, eps_avg=0.0625)
@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_root_finds_match_an_independent_bisection(g, lo, width, log_excess,
                                                   cap, eps_avg):
    # One region (q_lo, q_hi in units of its mean gain), four slopes from
    # 1e-12 to 100 relative above Υ̇(0), and a rate cap. Agreement is to
    # 1e-10 relative, with pytest's 1e-12 absolute floor, the scale at which
    # the root-finds themselves stop (ROOT_TOL·(1 + |root|)). Regions narrower
    # than 0.3·ḡ are left out: the two edges of the closed form of (Υ⁻¹)'
    # cancel there, and near Υ̇(0), where the root is ill-conditioned, that
    # rounding alone moves it by up to 2.4e-12 (at 0.1·ḡ, from q_lo = 0)
    # whichever root-finder is used.
    n = len(log_excess)
    ctx = RegionContext(np.full(n, lo * g), np.full(n, (lo + width) * g),
                        np.full(n, g))
    close = lambda want: pytest.approx(want, rel=1e-10)
    erg = ErgodicCapacity()
    slope = LN2 / erg.cell_data(ctx)[2] * (1.0 + 10.0 ** np.array(log_excess))
    # the marginal inverse: (Υ⁻¹)'(y*) = 1/slope, clipped at the cap
    edges = erg._edges(erg.cell_data(ctx), slope)
    y_star = bisect(lambda y: 1.0 / slope - erg._slopes(edges, y)[0],
                    0.0, 1.0)
    r_star = erg.rate_and_derivative(erg.cell_data(ctx), y_star)[0]
    y_cap = bisect(lambda y: erg.rate_and_derivative(erg.cell_data(ctx),
                                                     y)[0] - cap, 0.0, 1.0)
    rate, power = erg.allocation(erg.cell_data(ctx), slope, cap)
    assert rate == close(np.minimum(r_star, cap))
    assert power == close(np.where(r_star > cap, y_cap, y_star))
    # Υ at the uncapped rates, the cap and four times the cap
    x = np.append(r_star, [cap, 4.0 * cap])
    wide = RegionContext(*(np.full(n + 2, v[0])
                           for v in (ctx.q_lo, ctx.q_hi, ctx.mean_gain)))
    want = bisect(lambda y: erg.rate_and_derivative(erg.cell_data(wide),
                                                    y)[0] - x, 0.0, 1.0)
    assert erg.power_of_rate(erg.cell_data(wide), x) == close(want)
    # the average-BER region constant: ∫_region e^{-a·g} dg = ε·ḡ·Pr/κ1
    k1, k2 = 0.2, 1.5
    q_lo, q_hi = lo * g, (lo + width) * g
    pr = np.exp(-lo) - np.exp(-(lo + width))
    h = lambda a: (np.exp(-a * q_lo) - np.exp(-a * q_hi)) / a
    a_star = bisect(lambda a: eps_avg * g * pr / k1 - h(a), 1.0 / g, 2.0 / g)
    avg = MaxAvgBer(kappa1=k1, kappa2=k2, eps_avg=eps_avg)
    assert avg.cell_data(RegionContext(q_lo, q_hi, g))[0] == close(
        (a_star - 1.0 / g) / k2)


@settings(max_examples=12, deadline=None)
@given(g=st.floats(0.25, 4.0), lo=st.one_of(st.just(0.0), st.floats(0.0, 3.0)),
       width=st.one_of(st.just(np.inf), st.floats(0.3, 3.0)),
       log_excess=st.lists(st.floats(-12.0, 4.0), min_size=4, max_size=4),
       rate=st.lists(st.floats(0.0, 12.0), min_size=4, max_size=4))
@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_jensen_brackets_hold_the_roots(g, lo, width, log_excess, rate):
    # With m_k = E[g^k|R] and ρ = m1²/m2, the marginal inverse's power y*
    # lies in [ρ·y_hi, y_hi], y_hi = slope/ln2 - 1/m1, and Υ(x) in
    # [(2^x - 1)/m1, (2^{x/ρ} - 1)·m1/m2], both checked against the
    # bisection oracle. As y* → 0 the lower end is tight to first order, so
    # rounding in the oracle's (Υ⁻¹)' may put y* below it, by up to 14 units
    # of eps/m1 in 4000 draws, which is why ``allocation`` lowers that end
    # by ROOT_TOL. Each bound is allowed the root-finds' own stopping scale,
    # ROOT_TOL·(1 + |root|).
    n = len(log_excess)
    ctx = RegionContext(np.full(n, lo * g), np.full(n, (lo + width) * g),
                        np.full(n, g))
    erg = ErgodicCapacity()
    data = erg.cell_data(ctx)
    m1, m2 = data[2], data[3]
    rho = m1 * m1 / m2
    slack = lambda root: powerrate.ROOT_TOL * (1.0 + root)
    slope = LN2 / erg.cell_data(ctx)[2] * (1.0 + 10.0 ** np.array(log_excess))
    edges = erg._edges(data, slope)
    y_star = bisect(lambda y: 1.0 / slope - erg._slopes(edges, y)[0],
                    0.0, 1.0)
    y_hi = slope / LN2 - 1.0 / m1
    assert np.all(rho * y_hi <= y_star + slack(y_star))
    assert np.all(y_star <= y_hi + slack(y_star))
    x = np.array(rate)
    power = bisect(lambda y: erg.rate_and_derivative(erg.cell_data(ctx),
                                                     y)[0] - x, 0.0, 1.0)
    assert np.all(np.expm1(LN2 * x) / m1 <= power + slack(power))
    assert np.all(power <= np.expm1(LN2 * x / rho) * m1 / m2 + slack(power))


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_ergodic_closed_form_at_subnormal_powers():
    # u = 1/(y·ḡ) overflows below y·ḡ ≈ 5.6e-309; below y·E[g|R] = 1e-300
    # Υ⁻¹ and (Υ⁻¹)' are their first-order limits y·m1/ln2 and m1/ln2
    erg = ErgodicCapacity()
    ctx = RegionContext(q_lo=0.0, q_hi=2.0, mean_gain=1.0)
    m1 = float(erg.cell_data(ctx)[2])
    y = 1e-310
    assert abs(erg.rate_and_derivative(erg.cell_data(ctx), y)[0]
               - y * m1 / LN2) <= 1e-15 * y * m1
    assert marginal_power(erg, ctx, y) == pytest.approx(LN2 / m1, rel=1e-12)
    assert marginal_power(erg, ctx, 0.0) == pytest.approx(LN2 / m1, rel=1e-12)


def test_power_past_the_overflow_of_its_upper_bound():
    # on [0, ∞) ρ = 1/2, so 2^{x/ρ} overflows at x = 600 while Υ(600) ≈
    # 2^600/ḡ does not: the upper end is doubled from 1, as with no bracket
    erg, x = ErgodicCapacity(), 600.0
    ctx = RegionContext(q_lo=0.0, q_hi=np.inf, mean_gain=1.3)
    want = bisect(lambda y: erg.rate_and_derivative(erg.cell_data(ctx),
                                                    y)[0] - x, 0.0, 1.0)
    assert erg.power_of_rate(erg.cell_data(ctx), x) == pytest.approx(
        want, rel=1e-10)


def test_ergodic_allocation_makes_at_most_three_exp12_calls(monkeypatch):
    # Along offline solves on a 6 dB, M=2, K=4, L=4 grid: one call at the
    # Jensen bracket's upper end, which is also Newton's first step, and two
    # more for the Newton steps on the reciprocal marginal; the rates come
    # from the last evaluation of each cell, with no call of their own. An
    # allocation with no active cell makes one. Newton from the bracket's
    # midpoint on (Υ⁻¹)' itself took up to seven, and a separate call for
    # the rates made four
    calls, per_allocation = [0], []
    exp12, allocation = powerrate.exp12_scaled, ErgodicCapacity.allocation

    def counted_exp12(t):
        calls[0] += 1
        return exp12(t)

    def counted_allocation(self, *args):
        before = calls[0]
        out = allocation(self, *args)
        per_allocation.append(calls[0] - before)
        return out

    monkeypatch.setattr(powerrate, "exp12_scaled", counted_exp12)
    monkeypatch.setattr(ErgodicCapacity, "allocation", counted_allocation)
    mean_gain = np.full((2, 4), float(snr_db_to_mean_gain(6.0)))
    grid = build_equiprobable(FadingModel(mean_gain, seed=1), 4)
    for init in (0.02, 0.3, 1.0):
        problem = Problem(grid=grid, model=ErgodicCapacity(), mu=np.ones(2),
                          targets=np.array([2.0, 3.0]))
        traj = run_offline_smooth(problem, SolverConfig(
            beta=0.1, tol=1e-3, init=np.full(2, init), max_iters=100))[1]
        assert traj.converged
    assert per_allocation and max(per_allocation) <= 3


@settings(max_examples=30, deadline=None)
@given(st.floats(0.05, 3.0), st.floats(0.1, 4.0), st.floats(0.0, 11.0))
def test_outage_roundtrip_property(lo, width, x):
    model = OutageCapacity(outage_delta=0.0)
    ctx = RegionContext(q_lo=lo, q_hi=lo + width, mean_gain=1.0)
    y = float(model.power_of_rate(model.cell_data(ctx), x))
    rate = model.rate_and_derivative(model.cell_data(ctx), y)[0]
    assert float(rate) == pytest.approx(x, abs=1e-9)


# --- the lean closed form against the guarded formulas ----------------------

def _same_bits(got, want):
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape and got.tobytes() == want.tobytes(), \
        (got, want)


def test_linear_allocation_matches_the_guarded_formulas():
    # outage cells (c = +inf), slopes exactly at c·ln2, below and above it,
    # 0, and past the rate cap, short of overflow, on linear_cells and on
    # one 0-d cell; nothing warns
    c = np.array([np.inf, 1.0, 0.5, 3.0, 1e-300, 1e300])[:, None]
    at = np.where(np.isposinf(c), 5.0, c * powerrate._LN2)  # slope < inf
    slope = np.concatenate([at,
                            np.broadcast_to([0.0, 1e-310, 0.3, 0.7, 2.0,
                                             1e4, 1e8], (len(c), 7))],
                           axis=1)
    cells = powerrate.linear_cells(c)
    _same_bits(cells[0], c)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for cap in (math.inf, 12.0, 3.0):
            rate, power = powerrate.linear_allocation(cells, slope, cap)
            want = linear_allocation_guarded(c, slope, cap)
            _same_bits(rate, want[0])
            _same_bits(power, want[1])
            for i, j in ((0, 0), (1, 0), (2, 5), (5, 7)):
                one = powerrate.linear_allocation(
                    powerrate.linear_cells(c[i, 0]), slope[i, j], cap)
                _same_bits(one, (want[0][i, j], want[1][i, j]))
    assert rate[0].tolist() == [0.0] * 8                # outage
    assert power[0].tolist() == [0.0] * 8
    assert not np.signbit(power).any()                  # +0, never -0
    assert rate[1:, 0].tolist() == [0.0] * 5            # slope = c·ln2
    assert (rate == 3.0).any() and (power > 0).any()
    # the masked Υ still charges +inf for a positive rate in an outage cell
    model = OutageCapacity(outage_delta=0.0)
    outage = model.cell_data(RegionContext(q_lo=0.0, q_hi=0.5, mean_gain=1.0))
    assert np.isposinf(model.power_of_rate(outage, 1.0))
    assert model.power_of_rate(outage, 0.0) == 0.0


@pytest.mark.parametrize("model", FAMILIES[:4], ids=lambda m: repr(m)[:14])
def test_power_of_rate_matches_the_guarded_formula(model):
    # rates 0, -0, subnormal, normal and +inf on outage and finite c, and
    # a scalar rate broadcast over every cell, short of overflow; nothing
    # warns
    c = np.array([np.inf, 1.0, 1e-300, 1e300, 5e-324])[:, None]
    rate = np.array([0.0, -0.0, 5e-324, 1e-310, 0.5, 3.0, np.inf])
    data = (np.broadcast_to(c, (5, 7)),)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for r in (rate, 0.0, 5e-324):
            _same_bits(model.power_of_rate(data, r),
                       linear_power_guarded(data[0], r))
