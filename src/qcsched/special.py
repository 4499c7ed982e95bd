"""Exponential integral E1 for positive arguments, vectorized.

Two regimes, split at argument 1 (standard special-function practice):

* ``x < 1`` — power series  E1(x) = -γ - ln(x) + Σ_{n≥1} (-1)^{n+1} x^n / (n·n!)
* ``x ≥ 1`` — modified Lentz evaluation of the continued fraction
  E1(x) = e^{-x} / (x + 1 - 1²/(x + 3 - 2²/(x + 5 - ...)))

Absolute tolerance 1e-14; each element stops at its own last term, so its
value does not depend on the rest of the call. ``exp1_scaled`` returns
e^x·E1(x), finite for large x; ``exp12_scaled`` adds e^x·E2(x) from E2's own
continued fraction, the pair the ergodic-capacity closed form needs.
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


def _lentz_scaled(x: np.ndarray, n: int = 1) -> np.ndarray:
    # Modified Lentz for the continued fraction of e^x·E_n(x) (n = 1, 2).
    b = x + float(n)
    c = np.full_like(x, 1.0 / _TINY)
    d = 1.0 / b
    h = d.copy()
    live = np.ones(x.shape, dtype=bool)
    for i in range(1, _MAX_TERMS + 1):
        a = -float(i) * float(i + n - 1)
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


def _by_regime(x, name: str, series_form, fraction_form) -> np.ndarray:
    # validation, scalar handling and the zero / inf / x<1 / x≥1 split shared
    # by exp1 and exp1_scaled; each passes its own form for the two regimes
    x = np.asarray(x, dtype=float)
    if np.any(x < 0.0):
        raise ValueError(f"{name} requires nonnegative arguments")
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
        out[small] = series_form(x[small])
    if np.any(large):
        out[large] = fraction_form(x[large])
    return out[0] if scalar else out


def exp1(x) -> np.ndarray:
    """E1(x) for x ≥ 0 elementwise; E1(0) = +inf, negative input raises."""
    return _by_regime(x, "exp1", _series,
                      lambda t: np.exp(-t) * _lentz_scaled(t))


def exp1_scaled(x) -> np.ndarray:
    """e^x·E1(x) for x > 0 elementwise; tends to 0 like 1/x as x → ∞."""
    return _by_regime(x, "exp1_scaled", lambda t: np.exp(t) * _series(t),
                      _lentz_scaled)


def exp12_scaled(x) -> tuple:
    """(e^x·E1(x), e^x·E2(x)) for x ≥ 0, both to full precision. The
    recurrence e^x·E2 = 1 - x·e^x·E1 cancels as x grows (e^x·E2 ~ 1/x), so
    from x = 1 on E2 comes from its own continued fraction and e^x·E1 =
    (1 - e^x·E2)/x. x = 0 gives (∞, 1) and x = ∞ gives (0, 0)."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if np.any(x < 0.0):
        raise ValueError("exp12_scaled requires nonnegative arguments")
    e1, e2 = np.where(x == 0.0, np.inf, 0.0), np.where(x == 0.0, 1.0, 0.0)
    small, large = (x > 0.0) & (x < 1.0), (x >= 1.0) & np.isfinite(x)
    e1[small] = np.exp(x[small]) * _series(x[small])
    e2[small] = 1.0 - x[small] * e1[small]
    e2[large] = _lentz_scaled(x[large], 2)
    e1[large] = (1.0 - e2[large]) / x[large]
    return e1, e2
