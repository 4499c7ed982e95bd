"""Exponential integral E1 for positive arguments, vectorized.

Two regimes, split at argument 1 (standard special-function practice):

* ``x < 1`` — power series  E1(x) = -γ - ln(x) + Σ_{n≥1} (-1)^{n+1} x^n / (n·n!)
* ``x ≥ 1`` — modified Lentz evaluation of the continued fraction
  E1(x) = e^{-x} / (x + 1 - 1²/(x + 3 - 2²/(x + 5 - ...)))

Absolute tolerance 1e-14; each element stops at its own last term, so its
value does not depend on the rest of the call. ``exp1_scaled`` returns
e^x·E1(x), which stays finite for large x and is what the ergodic-capacity
closed form needs (products like e^{1/(yḡ)}·E1(t) evaluate without overflow).
"""

from __future__ import annotations

import numpy as np

_EULER_GAMMA = 0.5772156649015328606
_TOL = 1e-14
# The CF converges linearly and the per-step delta underestimates the tail;
# break an order tighter than the advertised tolerance (delta saturates at
# exactly 1.0 in doubles, so this always terminates).
_CF_TOL = 1e-16
_MAX_TERMS = 300
_TINY = 1e-300


def _series(x: np.ndarray) -> np.ndarray:
    # E1(x) + γ + ln(x) = Σ (-1)^{n+1} x^n / (n·n!); alternating, fast for x < 1
    total = np.zeros_like(x)
    term = np.ones_like(x)
    live = np.ones(x.shape, dtype=bool)
    for n in range(1, _MAX_TERMS + 1):
        term = term * (-x) / n
        contrib = -term / n
        total += np.where(live, contrib, 0.0)
        live &= ~(np.abs(contrib) < _TOL)
        if not live.any():
            break
    return -_EULER_GAMMA - np.log(x) + total


def _lentz_scaled(x: np.ndarray) -> np.ndarray:
    # Modified Lentz for the continued fraction of e^x·E1(x).
    b = x + 1.0
    c = np.full_like(x, 1.0 / _TINY)
    d = 1.0 / b
    h = d.copy()
    live = np.ones(x.shape, dtype=bool)
    for i in range(1, _MAX_TERMS + 1):
        a = -float(i) * float(i)
        b = b + 2.0
        d = a * d + b
        d = np.where(np.abs(d) < _TINY, _TINY, d)
        d = 1.0 / d
        c = b + a / c
        c = np.where(np.abs(c) < _TINY, _TINY, c)
        delta = c * d
        h = np.where(live, h * delta, h)
        live &= ~(np.abs(delta - 1.0) < _CF_TOL)
        if not live.any():
            break
    return h


def exp1(x) -> np.ndarray:
    """E1(x) for x ≥ 0 elementwise; E1(0) = +inf, negative input raises."""
    x = np.asarray(x, dtype=float)
    if np.any(x < 0.0):
        raise ValueError("exp1 requires nonnegative arguments")
    scalar = x.ndim == 0
    x = np.atleast_1d(x)
    out = np.empty_like(x)
    zero = x == 0.0
    inf = np.isinf(x)
    small = (x < 1.0) & ~zero
    large = ~small & ~zero & ~inf
    out[zero] = np.inf
    out[inf] = 0.0
    if np.any(small):
        out[small] = _series(x[small])
    if np.any(large):
        out[large] = np.exp(-x[large]) * _lentz_scaled(x[large])
    return out[0] if scalar else out


def exp1_scaled(x) -> np.ndarray:
    """e^x·E1(x) for x > 0 elementwise; tends to 0 like 1/x as x → ∞."""
    x = np.asarray(x, dtype=float)
    if np.any(x < 0.0):
        raise ValueError("exp1_scaled requires nonnegative arguments")
    scalar = x.ndim == 0
    x = np.atleast_1d(x)
    out = np.empty_like(x)
    zero = x == 0.0
    inf = np.isinf(x)
    small = (x < 1.0) & ~zero
    large = ~small & ~zero & ~inf
    out[zero] = np.inf
    out[inf] = 0.0
    if np.any(small):
        out[small] = np.exp(x[small]) * _series(x[small])
    if np.any(large):
        out[large] = _lentz_scaled(x[large])
    return out[0] if scalar else out
