"""Exponential-integral tests against frozen mpmath references, scipy, the
continued fraction the Gauss–Laguerre rule replaced and the Horner loop the
table of powers replaced."""

import os
import subprocess
import sys
from math import factorial
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import qcsched
from qcsched import special
from qcsched.special import exp1, exp1_scaled, exp12_scaled

from oracles import horner_series, lentz_scaled

# mpmath.e1 at 30 digits, rounded to double
E1_REF = [
    (1e-08, 17.843465089050833),
    (0.0001, 8.6332247045747054),
    (0.01, 4.0379295765381138),
    (0.1, 1.8229239584193906),
    (0.25, 1.0442826344437382),
    (0.5, 0.55977359477616081),
    (0.7, 0.37376884323350918),
    (0.9, 0.26018393932599963),
    (0.999999, 0.21938430227532934),   # just below the series/CF split
    (1.0, 0.21938393439552027),
    (1.000001, 0.21938356651644701),   # just above
    (1.5, 0.10001958240663265),
    (2.0, 0.04890051070806112),
    (5.0, 0.0011482955912753258),
    (10.0, 4.1569689296853243e-6),
    (30.0, 3.0215520106888125e-15),
    (50.0, 3.783264029550459e-24),
    (700.0, 1.4065187662340329e-307),
]

E1_SCALED_REF = [
    (0.3, 1.2225356050805856),
    (1.0, 0.59634736232319407),
    (3.0, 0.2620837402553185),
    (10.0, 0.091563333939788082),
    (100.0, 0.0099019422867330184),
    (10000.0, 9.999000199940024e-5),
    (100000000.0, 9.999999900000002e-9),
]

# e^x·E2(x), mpmath.expint(2, x) at 30 digits, rounded to double
E2_SCALED_REF = [
    (1.0, 0.4036526376768059),
    (1.000001, 0.4036524449821868),    # just above the series/rule split
    (1.5, 0.32761499606262556),
    (2.0, 0.2773427662235548),
    (5.0, 0.147889118576339),
    (10.0, 0.08436666060211918),
    (100.0, 0.00980577132669816),
]


@pytest.mark.parametrize("x,ref", E1_REF)
def test_exp1_reference_values(x, ref):
    got = exp1(x)
    assert abs(got - ref) <= 1e-14 + 1e-14 * abs(ref)


@pytest.mark.parametrize("x,ref", E1_SCALED_REF)
def test_exp1_scaled_reference_values(x, ref):
    got = exp1_scaled(x)
    assert abs(got - ref) <= 1e-14 + 1e-14 * abs(ref)


def test_against_scipy_dense_grid():
    sp = pytest.importorskip("scipy.special")
    x = np.concatenate([np.geomspace(1e-12, 0.999, 400),
                        np.geomspace(1.001, 600.0, 400)])
    ours = exp1(x)
    ref = sp.exp1(x)
    np.testing.assert_allclose(ours, ref, rtol=1e-13, atol=1e-15)


def test_scaled_identity_moderate_arguments():
    # e^x stays representable below ~709, so the identity is directly checkable
    x = np.geomspace(1e-6, 500.0, 300)
    np.testing.assert_allclose(exp1_scaled(x), np.exp(x) * exp1(x),
                               rtol=1e-12, atol=0.0)


def test_scaled_large_argument_asymptote():
    # e^x E1(x) = 1/x - 1/x^2 + 2/x^3 - ...
    for x in (1e6, 1e9, 1e12):
        approx = 1.0 / x - 1.0 / x ** 2 + 2.0 / x ** 3
        assert abs(exp1_scaled(x) - approx) < 1e-14 / x


def test_edge_cases():
    assert exp1(0.0) == np.inf
    assert exp1_scaled(0.0) == np.inf
    assert exp1(np.inf) == 0.0
    assert exp1_scaled(np.inf) == 0.0
    with pytest.raises(ValueError):
        exp1(-1.0)
    with pytest.raises(ValueError):
        exp1_scaled(np.array([0.5, -0.1]))


def test_shapes_scalar_vs_array():
    out = exp1(0.5)
    assert np.ndim(out) == 0
    arr = exp1(np.array([[0.5, 2.0], [10.0, 0.01]]))
    assert arr.shape == (2, 2)
    assert arr[0, 0] == exp1(0.5)


def test_monotone_decreasing():
    x = np.geomspace(1e-10, 100.0, 1000)
    v = exp1(x)
    assert np.all(np.diff(v) < 0.0)
    s = exp1_scaled(x)
    assert np.all(np.diff(s) < 0.0)


@given(st.floats(min_value=1e-10, max_value=690.0,
                 allow_nan=False, allow_infinity=False))
def test_exp1_matches_scipy_property(x):
    sp = pytest.importorskip("scipy.special")
    ref = sp.exp1(x)
    assert abs(exp1(x) - ref) <= 1e-13 * abs(ref) + 1e-16


def test_exp12_scaled_matches_scipy():
    sp = pytest.importorskip("scipy.special")
    x = np.concatenate([np.geomspace(1e-12, 0.999, 200),
                        np.geomspace(1.0, 600.0, 300)])
    e1, e2 = exp12_scaled(x)
    np.testing.assert_allclose(e1, np.exp(x) * sp.exp1(x), rtol=1e-13)
    np.testing.assert_allclose(e2, np.exp(x) * sp.expn(2, x), rtol=1e-13)
    for xr, ref in E1_SCALED_REF:
        assert abs(exp12_scaled(xr)[0][0] - ref) <= 1e-14 * ref


def test_exp12_scaled_large_arguments_do_not_cancel():
    # e^x E2(x) = 1/x - 2/x^2 + 6/x^3 - ...; the recurrence 1 - x·e^x·E1(x)
    # would lose about x ulps here
    x = np.array([1e4, 1e6, 1e9])
    approx = 1.0 / x - 2.0 / x ** 2 + 6.0 / x ** 3 - 24.0 / x ** 4 \
        + 120.0 / x ** 5
    np.testing.assert_allclose(exp12_scaled(x)[1], approx, rtol=1e-14)


def test_exp12_scaled_edges():
    e1, e2 = exp12_scaled(np.array([0.0, np.inf]))
    np.testing.assert_array_equal(e1, [np.inf, 0.0])
    np.testing.assert_array_equal(e2, [1.0, 0.0])
    with pytest.raises(ValueError):
        exp12_scaled(np.array([0.5, -0.1]))


@pytest.mark.parametrize("x,ref", E2_SCALED_REF)
def test_exp2_scaled_reference_values(x, ref):
    assert abs(exp12_scaled(x)[1][0] - ref) <= 1e-14 * ref


def test_huge_arguments_keep_the_asymptote():
    # x·e^x·E_n(x) → 1; a rule summing x·w·r² would underflow to 0 here
    for x in (1e154, 1e200, 1e300):
        e1, e2 = exp12_scaled(x)
        assert abs(x * e1[0] - 1.0) <= 1e-14
        assert abs(x * e2[0] - 1.0) <= 1e-14


@settings(max_examples=200, deadline=None)
@given(st.floats(min_value=0.0, max_value=12.0))
@example(0.021715860043927122)  # Lentz in double is 1.2e-14 off here
@example(10.506032232060523)   # and here every double step ratio is 1 - 1.1e-16
def test_rule_agrees_with_the_continued_fraction(log10_x):
    x = np.array([10.0 ** log10_x])
    e1, e2 = exp12_scaled(x)
    assert abs(e1[0] - lentz_scaled(x, 1)[0]) <= 1e-14 * e1[0]
    assert abs(e2[0] - lentz_scaled(x, 2)[0]) <= 1e-14 * e2[0]


def test_series_agrees_with_horners_rule():
    # the row sum of the powers against the 19 multiply-adds, in ulps of the
    # result: both are near 2 ulps of the partial sum (≈ 0.8 as x → 1),
    # which the cancellation against γ - ln(x) turns into up to 8 ulps of
    # E1(1) ≈ 0.22, the most seen on 6·10⁶ random arguments
    rng = np.random.default_rng(11)
    x = np.concatenate([rng.uniform(0.0, 1.0, 100_000),
                        1.0 - 10.0 ** rng.uniform(-16.0, 0.0, 20_000),
                        10.0 ** rng.uniform(-300.0, 0.0, 20_000)])
    x = x[(x > 0.0) & (x < 1.0)]
    want = horner_series(x)
    assert np.all(np.abs(special._series(x) - want) <= 8 * np.spacing(want))


def test_rule_matches_golub_welsch():
    # the eigenvalues of the Jacobi matrix and the squared first components
    # of its eigenvectors, by LAPACK; eigh's own error is about eps·‖T‖
    u, w = special._laguerre_rule()
    n = len(u)
    off = np.arange(1.0, n)
    jacobi = np.diag(2.0 * np.arange(n) + 1.0) + np.diag(off, 1) \
        + np.diag(off, -1)
    nodes, vectors = np.linalg.eigh(jacobi)
    np.testing.assert_allclose(u, nodes, rtol=0.0, atol=1e-12)
    np.testing.assert_allclose(w, vectors[0] ** 2, rtol=0.0, atol=1e-13)
    # Gauss exactness: Σ w·u^j = ∫ u^j e^{-u} du = j!
    for j in range(6):
        assert (w * u ** j).sum() == pytest.approx(factorial(j), rel=1e-14)


def test_each_element_is_independent_of_the_call():
    # more elements than one slice in each regime, and the edges, in one
    # call; then calls whose arguments all lie below 1 or all from 1 on,
    # each with and without 0 or ∞, and a (2, n) array like the stacked
    # edges of the ergodic closed form: every value equals that of a call
    # on its element alone, to the bit
    rng = np.random.default_rng(3)
    x = np.concatenate([[0.0, np.inf, 1.0], rng.uniform(0.0, 2.0, 300),
                        10.0 ** rng.uniform(0.0, 12.0, special._SLICE + 300),
                        rng.uniform(0.0, 1.0, special._SLICE + 300)])
    below, above = rng.uniform(0.0, 1.0, 40), 10.0 ** rng.uniform(0, 12, 40)
    edges = np.stack([rng.uniform(0.05, 0.9, 12),
                      rng.uniform(0.05, 0.9, 12) + rng.uniform(0.0, 3.0, 12)])
    for arr in (x, below, np.r_[below, 0.0], above, np.r_[above, np.inf],
                np.r_[1.0, above], edges):
        e1, e2 = exp12_scaled(arr)
        for i in np.ndindex(arr.shape):
            one = exp12_scaled(arr[i])
            assert one[0].tobytes() == e1[i].tobytes()
            assert one[1].tobytes() == e2[i].tobytes()


def test_import_does_not_build_the_rule():
    src = str(Path(qcsched.__file__).parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    code = ("import qcsched, qcsched.special as s; "
            "print(s._laguerre_rule.cache_info().currsize)")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "0"
