"""Power-rate families: closed forms, quadrature oracles, convexity, marginals.

The quadrature oracles integrate the defining region averages directly
(conditional ergodic capacity, average BER), independent of the closed
forms / root-finds under test.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qcsched.powerrate import (ErgodicCapacity, MaxAvgBer, MaxInstBer,
                               NumericError, OutageCapacity, RegionContext,
                               delta_outage_gain, make_model, region_contexts)
from qcsched.quantizer import build_equiprobable
from qcsched.channel import FadingModel

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
    with pytest.raises(ValueError):
        ErgodicCapacity(root_tol=0.0)


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


def test_numeric_error_carries_residual():
    err = NumericError("boom", residual=0.5)
    assert err.residual == 0.5


def test_unconverged_root_find_raises_with_its_residual():
    ctx = RegionContext(q_lo=np.array([0.0, 0.4]), q_hi=np.array([0.4, 2.0]),
                        mean_gain=1.3)
    for call in (
            lambda: MaxAvgBer(kappa1=0.2, kappa2=1.5, eps_avg=0.01,
                              max_iter=3).linear_coeff(ctx),
            lambda: ErgodicCapacity(max_iter=3).inv_marginal_power(ctx, 5.0)):
        with pytest.raises(NumericError, match="did not converge") as info:
            call()
        assert np.isfinite(info.value.residual) and info.value.residual > 0


@settings(max_examples=30, deadline=None)
@given(st.floats(0.05, 3.0), st.floats(0.1, 4.0), st.floats(0.0, 11.0))
def test_outage_roundtrip_property(lo, width, x):
    model = OutageCapacity(outage_delta=0.0)
    ctx = RegionContext(q_lo=lo, q_hi=lo + width, mean_gain=1.0)
    y = float(model.power_of_rate(ctx, x))
    assert float(model.rate_of_power(ctx, y)) == pytest.approx(x, abs=1e-9)
