"""Power-rate families: closed forms, quadrature oracles, convexity, marginals.

The quadrature oracles integrate the defining region averages directly
(conditional ergodic capacity, average BER), independent of the closed
forms / root-finds under test.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from qcsched import powerrate
from qcsched.powerrate import (ErgodicCapacity, MaxAvgBer, MaxInstBer,
                               NumericError, OutageCapacity, RegionContext,
                               delta_outage_gain, make_model, region_contexts)
from qcsched.quantizer import build_equiprobable
from qcsched.channel import FadingModel, snr_db_to_mean_gain
from qcsched.solver import Problem, SolverConfig, run_offline_smooth

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


def test_region_context_validation():
    with pytest.raises(ValueError):
        RegionContext(q_lo=1.0, q_hi=1.0, mean_gain=1.0)
    with pytest.raises(ValueError):
        RegionContext(q_lo=-0.1, q_hi=1.0, mean_gain=1.0)
    with pytest.raises(ValueError):
        RegionContext(q_lo=0.0, q_hi=1.0, mean_gain=0.0)


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
    assert model.power_of_rate(ctx, 1.0) == 1.0             # (2^1 - 1)/1
    assert model.power_of_rate(ctx, 0.0) == 0.0
    ctx3 = RegionContext(q_lo=3.0, q_hi=np.inf, mean_gain=1.0)
    assert abs(model.rate_of_power(ctx3, 1.0) - 2.0) < 1e-15   # log2(1+3)
    assert model.rate_of_power(ctx3, 0.0) == 0.0


def test_outage_region_semantics():
    model = OutageCapacity(outage_delta=0.0)
    out = RegionContext(q_lo=0.0, q_hi=0.5, mean_gain=1.0)
    assert model.is_outage(out)
    assert np.isposinf(model.power_of_rate(out, 1.0))
    assert model.power_of_rate(out, 0.0) == 0.0
    assert model.rate_of_power(out, 5.0) == 0.0
    assert model.inv_marginal_power(out, 100.0) == 0.0
    # positive delta lifts the first region out of outage
    d = OutageCapacity(outage_delta=0.2)
    assert not d.is_outage(out)
    assert np.isfinite(d.power_of_rate(out, 1.0))


def test_outage_inv_marginal_by_hand():
    model = OutageCapacity(outage_delta=0.0)
    ctx = RegionContext(q_lo=1.0, q_hi=np.inf, mean_gain=1.0)
    assert abs(model.inv_marginal_power(ctx, 2.0 * LN2) - 1.0) < 1e-15
    assert model.inv_marginal_power(ctx, LN2) == 0.0        # clip boundary
    assert model.inv_marginal_power(ctx, 0.5 * LN2) == 0.0
    assert model.inv_marginal_power(ctx, 1e9, rate_cap=6.0) == 6.0


def test_max_inst_ber_closed_form():
    k1, k2, em = 0.2, 1.5, 0.01
    model = MaxInstBer(kappa1=k1, kappa2=k2, eps_max=em)
    ctx = RegionContext(q_lo=0.8, q_hi=2.0, mean_gain=1.0)
    x = 1.7
    expect = (2 ** x - 1) * np.log(k1 / em) / (k2 * 0.8)
    assert abs(model.power_of_rate(ctx, x) - expect) < 1e-12
    # first region (floor 0) is an outage region
    assert model.is_outage(RegionContext(0.0, 0.8, 1.0))


def test_family_param_validation():
    with pytest.raises(ValueError):
        OutageCapacity(outage_delta=1.0)
    with pytest.raises(ValueError):
        MaxInstBer(kappa1=0.2, kappa2=1.0, eps_max=0.25)     # eps >= kappa1
    with pytest.raises(ValueError):
        MaxInstBer(kappa1=0.2, kappa2=-1.0, eps_max=0.01)
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
        y = float(model.power_of_rate(ctx, rate))
        assert _avg_ber_quadrature(y, rate, ctx, k1, k2) == pytest.approx(
            eps, rel=1e-8)


def test_max_avg_ber_has_no_outage_region():
    model = MaxAvgBer(kappa1=0.2, kappa2=1.5, eps_avg=0.01)
    ctx = RegionContext(q_lo=0.0, q_hi=0.5, mean_gain=1.0)
    assert not model.is_outage(ctx)
    assert np.isfinite(model.power_of_rate(ctx, 2.0))


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
    assert model.rate_of_power(ctx, y) == pytest.approx(
        _cond_ergodic_quadrature(y, ctx), abs=1e-8)


def test_ergodic_rate_matches_quadrature_unbounded_region():
    model = ErgodicCapacity()
    ctx = RegionContext(q_lo=LN2, q_hi=np.inf, mean_gain=2.0)
    for y in (0.05, 0.7, 4.0):
        assert model.rate_of_power(ctx, y) == pytest.approx(
            _cond_ergodic_quadrature(y, ctx), abs=1e-8)


def test_ergodic_power_roundtrip():
    model = ErgodicCapacity()
    ctx = RegionContext(q_lo=0.5, q_hi=2.0, mean_gain=1.0)
    x = float(model.rate_of_power(ctx, 2.0))
    assert model.power_of_rate(ctx, x) == pytest.approx(2.0, abs=1e-8)


def test_ergodic_inv_marginal_consistency():
    model = ErgodicCapacity()
    ctx = RegionContext(q_lo=0.3, q_hi=1.8, mean_gain=0.9)
    zero_slope = float(model.marginal_at_zero(ctx))
    assert model.inv_marginal_power(ctx, 0.5 * zero_slope) == 0.0
    for t in (1.5 * zero_slope, 4.0 * zero_slope):
        r = float(model.inv_marginal_power(ctx, t))
        assert r > 0
        assert model.marginal_power(ctx, r) == pytest.approx(t, rel=1e-7)


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
        x = float(model.rate_of_power(ctx, y))
        assert float(model.marginal_power(ctx, x)) == pytest.approx(
            1.0 / _cond_ergodic_marginal_quadrature(y, ctx), rel=1e-10)


# --- cross-family properties -------------------------------------------------------

@pytest.mark.parametrize("model", FAMILIES, ids=lambda m: type(m).__name__)
def test_roundtrip_rate_power(model):
    x = np.linspace(0.0, 12.0, 25)
    y = model.power_of_rate(CTX, x)
    np.testing.assert_allclose(model.rate_of_power(CTX, y), x,
                               rtol=1e-8, atol=1e-8)


@pytest.mark.parametrize("model", FAMILIES, ids=lambda m: type(m).__name__)
def test_strict_convexity_and_monotonicity(model):
    x = np.linspace(0.0, 10.0, 41)
    y = np.array([float(model.power_of_rate(CTX, xi)) for xi in x])
    assert np.all(np.diff(y) > 0)
    assert np.all(np.diff(y, 2) > 0)


@pytest.mark.parametrize("model", FAMILIES, ids=lambda m: type(m).__name__)
def test_marginal_matches_finite_differences(model):
    h = 1e-6
    for x in (0.4, 1.3, 3.0, 7.5):
        fd = (float(model.power_of_rate(CTX, x + h))
              - float(model.power_of_rate(CTX, x - h))) / (2 * h)
        got = float(model.marginal_power(CTX, x))
        assert got == pytest.approx(fd, rel=1e-6)


@pytest.mark.parametrize("model", FAMILIES, ids=lambda m: type(m).__name__)
def test_marginal_strictly_increasing(model):
    x = np.linspace(0.05, 9.0, 30)
    d = np.array([float(model.marginal_power(CTX, xi)) for xi in x])
    assert np.all(np.diff(d) > 0)


@pytest.mark.parametrize("model", FAMILIES, ids=lambda m: type(m).__name__)
def test_negative_inputs_rejected(model):
    with pytest.raises(ValueError):
        model.power_of_rate(CTX, -0.5)
    with pytest.raises(ValueError):
        model.rate_of_power(CTX, -1.0)


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
@pytest.mark.parametrize("g", [0.05, 1.3, 9.0])
def test_perfect_csi_scale_is_the_shrinking_region_limit(model, g):
    # on [g, g·(1+w)], g·c → s for the c·(2^x - 1) families and
    # g·Υ̇(0)/ln2 = g/E[g|R] → s = 1 for ergodic, the error within w
    s = model.perfect_csi_scale()
    for w in (1e-2, 1e-4, 1e-6):
        ctx = RegionContext(q_lo=g, q_hi=g * (1.0 + w), mean_gain=1.3)
        if isinstance(model, ErgodicCapacity):
            limit = g * model.marginal_at_zero(ctx) / LN2
        else:
            limit = g * model.linear_coeff(ctx)
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
                              eps_avg=0.01).linear_coeff(ctx),
            lambda: ErgodicCapacity().inv_marginal_power(ctx, 5.0)):
        with pytest.raises(NumericError, match="did not converge") as info:
            call()
        assert np.isfinite(info.value.residual) and info.value.residual > 0


def test_unbracketed_root_find_reports_its_residual():
    # Υ(2000 bits) overflows a double: the report is the rate still missing
    # at the last finite bracket, not the bracket itself
    with pytest.raises(NumericError, match="could not bracket") as info:
        ErgodicCapacity().power_of_rate(CTX, 2000.0)
    assert 900.0 < info.value.residual < 2000.0


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
    slope = erg.marginal_at_zero(ctx) * (1.0 + 10.0 ** np.array(log_excess))
    # the marginal inverse: (Υ⁻¹)'(y*) = 1/slope, clipped at the cap
    edges = erg._edges(erg.cell_data(ctx), slope)
    y_star = bisect(lambda y: 1.0 / slope - erg._closed_form(edges, y)[1],
                    0.0, 1.0)
    r_star = erg.rate_of_power(ctx, y_star)
    y_cap = bisect(lambda y: erg.rate_of_power(ctx, y) - cap, 0.0, 1.0)
    rate, power = erg.allocation(erg.cell_data(ctx), slope, cap)
    assert rate == close(np.minimum(r_star, cap))
    assert power == close(np.where(r_star > cap, y_cap, y_star))
    # Υ at the uncapped rates, the cap and four times the cap
    x = np.append(r_star, [cap, 4.0 * cap])
    wide = RegionContext(*(np.full(n + 2, v[0])
                           for v in (ctx.q_lo, ctx.q_hi, ctx.mean_gain)))
    want = bisect(lambda y: erg.rate_of_power(wide, y) - x, 0.0, 1.0)
    assert erg.power_of_rate(wide, x) == close(want)
    # the average-BER region constant: ∫_region e^{-a·g} dg = ε·ḡ·Pr/κ1
    k1, k2 = 0.2, 1.5
    q_lo, q_hi = lo * g, (lo + width) * g
    pr = np.exp(-lo) - np.exp(-(lo + width))
    h = lambda a: (np.exp(-a * q_lo) - np.exp(-a * q_hi)) / a
    a_star = bisect(lambda a: eps_avg * g * pr / k1 - h(a), 1.0 / g, 2.0 / g)
    avg = MaxAvgBer(kappa1=k1, kappa2=k2, eps_avg=eps_avg)
    assert avg.linear_coeff(RegionContext(q_lo, q_hi, g)) == close(
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
    m1, m2 = data[3], data[4]
    rho = m1 * m1 / m2
    slack = lambda root: powerrate.ROOT_TOL * (1.0 + root)
    slope = erg.marginal_at_zero(ctx) * (1.0 + 10.0 ** np.array(log_excess))
    edges = erg._edges(data, slope)
    y_star = bisect(lambda y: 1.0 / slope - erg._closed_form(edges, y)[1],
                    0.0, 1.0)
    y_hi = slope / LN2 - 1.0 / m1
    assert np.all(rho * y_hi <= y_star + slack(y_star))
    assert np.all(y_star <= y_hi + slack(y_star))
    x = np.array(rate)
    power = bisect(lambda y: erg.rate_of_power(ctx, y) - x, 0.0, 1.0)
    assert np.all(np.expm1(LN2 * x) / m1 <= power + slack(power))
    assert np.all(power <= np.expm1(LN2 * x / rho) * m1 / m2 + slack(power))


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_ergodic_closed_form_at_subnormal_powers():
    # u = 1/(y·ḡ) overflows below y·ḡ ≈ 5.6e-309; below y·E[g|R] = 1e-300
    # Υ⁻¹ and (Υ⁻¹)' are their first-order limits y·m1/ln2 and m1/ln2
    erg = ErgodicCapacity()
    ctx = RegionContext(q_lo=0.0, q_hi=2.0, mean_gain=1.0)
    m1 = float(erg.cell_data(ctx)[3])
    y = 1e-310
    assert abs(erg.rate_of_power(ctx, y) - y * m1 / LN2) <= 1e-15 * y * m1
    assert erg.marginal_power(ctx, y) == pytest.approx(LN2 / m1, rel=1e-12)
    assert erg.marginal_power(ctx, 0.0) == pytest.approx(LN2 / m1, rel=1e-12)


def test_power_past_the_overflow_of_its_upper_bound():
    # on [0, ∞) ρ = 1/2, so 2^{x/ρ} overflows at x = 600 while Υ(600) ≈
    # 2^600/ḡ does not: the upper end is doubled from 1, as with no bracket
    erg, x = ErgodicCapacity(), 600.0
    ctx = RegionContext(q_lo=0.0, q_hi=np.inf, mean_gain=1.3)
    want = bisect(lambda y: erg.rate_of_power(ctx, y) - x, 0.0, 1.0)
    assert erg.power_of_rate(ctx, x) == pytest.approx(want, rel=1e-10)


def test_ergodic_allocation_makes_at_most_seven_exp12_calls(monkeypatch):
    # Along offline solves on a 6 dB, M=2, K=4, L=4 grid: one call confirms
    # the Jensen bracket's upper end, the Newton steps take four or five and
    # one more gives the rates; doubling from 1 took 8 to 14
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
    assert per_allocation and max(per_allocation) <= 7


@settings(max_examples=30, deadline=None)
@given(st.floats(0.05, 3.0), st.floats(0.1, 4.0), st.floats(0.0, 11.0))
def test_outage_roundtrip_property(lo, width, x):
    model = OutageCapacity(outage_delta=0.0)
    ctx = RegionContext(q_lo=lo, q_hi=lo + width, mean_gain=1.0)
    y = float(model.power_of_rate(ctx, x))
    assert float(model.rate_of_power(ctx, y)) == pytest.approx(x, abs=1e-9)
