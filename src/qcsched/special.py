"""Exponential integrals e^x·E1(x) and e^x·E2(x) for x ≥ 0, vectorized.

Two fixed-cost kernels, split at argument 1. Below it, the series E1(x) =
-γ - ln(x) + Σ_{n≥1} (-1)^{n+1} x^n/(n·n!) (Abramowitz & Stegun 5.1.11),
19 terms (the 20th is below 3e-20) from one table of the powers x^1..x^19
per slice, with no loop over the terms. From 1 on, the 128-node
Gauss–Laguerre rule (nodes u, weights w for the weight e^{-u}) with
r = 1/(x+u): e^x·E1 = ∫ e^{-u}/(x+u) du ≈ Σ w·r and e^x·E2 ≈ Σ w·r·(x·r),
positive terms that do not underflow at huge x. The n-node rule is the
n-th convergent of E1's continued fraction, which needs about 92 terms at
x = 1 and fewer above, so 128 nodes reach double precision on [1, ∞) at a
cost that does not depend on x. The rule is a table of its 256 numbers,
read on first use, never at import. Arguments go through in slices of
``_SLICE`` (temporaries near 1 MB), and a call that fits one slice runs
without a slice loop. Each element takes the same operations whatever else
is in the call, so a batch equals its one-element calls bit for bit.
"""

from __future__ import annotations

from functools import cache
from math import factorial
from pathlib import Path

import numpy as np

_EULER_GAMMA = 0.5772156649015328606
_SLICE = 1024
# the powers n of Σ_{n=1}^{19} (-1)^{n+1} x^n/(n·n!) and their coefficients,
# highest first, so that a row sum adds the largest terms last
_POWERS = np.arange(19.0, 0.0, -1.0)
_SERIES = np.array([(-1.0) ** (n + 1) / (n * factorial(n))
                    for n in range(19, 0, -1)])


def _sliced(kernel, x: np.ndarray) -> tuple:
    # kernel's arrays on the column x[:, None], in slices of _SLICE rows
    # unless x fits one
    if len(x) <= _SLICE:
        return kernel(x[:, None])
    parts = [kernel(x[s:s + _SLICE, None]) for s in range(0, len(x), _SLICE)]
    return tuple(np.concatenate(p) for p in zip(*parts))


def _series_sum(xs: np.ndarray) -> tuple:
    # one row of powers per element, summed along the row
    return ((np.power(xs, _POWERS) * _SERIES).sum(axis=1),)


def _series(x: np.ndarray) -> np.ndarray:
    # E1(x) + γ + ln(x) = Σ (-1)^{n+1} x^n / (n·n!); alternating, for x < 1
    return -_EULER_GAMMA - np.log(x) + _sliced(_series_sum, x)[0]


@cache
def _laguerre_rule() -> tuple:
    """Nodes and weights of the 128-node Gauss–Laguerre rule, read from
    ``laguerre128.txt`` beside this module: one node and its weight per
    line, as float.hex literals. The tests rebuild the table bit for bit
    (oracles.laguerre_rule: Sturm bisection on the Jacobi matrix, then
    Newton on L_128 in longdouble, correctly rounded on x87 hardware)."""
    text = Path(__file__).with_name("laguerre128.txt").read_text()
    table = np.array([float.fromhex(v) for v in text.split()])
    return table[0::2], table[1::2]


def _laguerre_sums(xs: np.ndarray) -> tuple:
    # (e^x·E1(x), e^x·E2(x)) for x ≥ 1, one row of nodes per element
    u, w = _laguerre_rule()
    r = 1.0 / (xs + u)
    wr = w * r
    return wr.sum(axis=1), (wr * (xs * r)).sum(axis=1)


def _scaled_pair(x, name: str) -> tuple:
    # x as a float array of at least one dimension, e^x·E1(x) and e^x·E2(x):
    # the series below 1 (with e^x·E2 = 1 - x·e^x·E1, which cancels as x
    # grows), the quadrature from 1 on. At the edges the kernels give e^x·E1
    # its limits, ∞ at 0 (ln 0 = -∞) and 0 at ∞, but e^x·E2 the NaN of 0·∞;
    # its limits are 1 and 0
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if (x < 0.0).any():
        raise ValueError(f"{name} requires nonnegative arguments")
    small = x < 1.0
    xs, large = x[small], ~small
    e1, e2 = np.empty_like(x), np.empty_like(x)
    with np.errstate(divide="ignore", invalid="ignore"):
        e1[small] = s = np.exp(xs) * _series(xs)
        e2[small] = 1.0 - xs * s
        e1[large], e2[large] = _sliced(_laguerre_sums, x[large])
    e2[x == 0.0] = 1.0
    e2[x == np.inf] = 0.0
    return x, e1, e2


def exp1(x) -> np.ndarray:
    """E1(x) for x ≥ 0 elementwise; E1(0) = +inf, negative input raises.
    Below 1 it is the series itself, not e^{-x} times the scaled value."""
    t, e1, _ = _scaled_pair(x, "exp1")
    out = np.exp(-t) * e1
    small = (t > 0.0) & (t < 1.0)
    out[small] = _series(t[small])
    return out if np.ndim(x) else out[0]


def exp1_scaled(x) -> np.ndarray:
    """e^x·E1(x) for x > 0 elementwise; tends to 0 like 1/x as x → ∞."""
    e1 = _scaled_pair(x, "exp1_scaled")[1]
    return e1 if np.ndim(x) else e1[0]


def exp12_scaled(x) -> tuple:
    """(e^x·E1(x), e^x·E2(x)) for x ≥ 0, both to full precision, as arrays
    of at least one dimension. x = 0 gives (∞, 1) and x = ∞ gives (0, 0)."""
    return _scaled_pair(x, "exp12_scaled")[1:]
