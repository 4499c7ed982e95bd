"""Power-rate couplings Υ per quantization region, for four QoS families.

Υ_R(x) is the transmit power needed to sustain rate x (bits/symbol) for a
user whose gain lies in region R = [q_lo, q_hi); all families are increasing
and strictly convex in x with Υ(0) = 0:

* ``OutageCapacity(δ)`` — Υ(x) = (2^x - 1)/g^δ with g^δ the δ-quantile of the
  gain inside the region; δ = 0 uses the region floor q_lo, making the first
  region an outage region (zero rate, else infinite power).
* ``MaxInstBer(κ1, κ2, ε_max)`` — worst-case instantaneous BER
  κ1·exp(-g·p·κ2/(2^r - 1)) ≤ ε_max over the region, i.e.
  Υ(x) = (2^x - 1)·ln(κ1/ε_max)/(κ2·q_lo); first region is again outage.
* ``MaxAvgBer(κ1, κ2, ε_avg)`` — the *average* BER over the region equals
  ε_avg. Averaging the same exponential BER model over the truncated
  exponential gain gives the region equation
  ∫_region e^{-a g} dg = ε_avg·ḡ·Pr{R}/κ1  with  a = 1/ḡ + y·κ2/(2^x - 1);
  the left side is strictly decreasing in a, so a unique root a* > 1/ḡ exists
  whenever ε_avg < κ1, and Υ(x) = (a* - 1/ḡ)(2^x - 1)/κ2. No outage regions.
  (Published statements of this family sometimes carry inconsistent κ2
  placement and off-by-one threshold indices; this implementation follows the
  BER-model average above, which the quadrature tests pin down.)
* ``ErgodicCapacity`` — Υ⁻¹(y) is the conditional ergodic capacity
  E[log2(1+y·g) | g ∈ R]. Integration by parts gives the closed form
  Υ⁻¹(y) = [S_lo·(ln(1+y·q_lo) + e^{t_lo}E1(t_lo))
            - S_hi·(ln(1+y·q_hi) + e^{t_hi}E1(t_hi))] / (Pr·ln 2)
  with S = e^{-q/ḡ}, t = (1+y·q)/(y·ḡ); the exp-scaled E1 keeps it stable
  down to y → 0. Υ̇⁻¹ is one monotone root-find on the derivative, for the
  power y* = Υ(R*); Υ alone is one on the closed form. No outage regions.

The first three families share the shape Υ(x) = c·(2^x - 1) with a per-region
constant c, which gives closed-form marginals:
Υ̇(x) = c·ln2·2^x and Υ̇⁻¹(t) = log2(t/(c·ln2)) for t > c·ln2, else 0.
``linear_allocation`` is the one implementation of Υ̇⁻¹ and Υ for that shape.

Every family is used through its methods, and only this module knows its
shape. The scheduler's hook is ``allocation(cell_data(ctx), slope,
rate_cap)``: ``cell_data`` is the λ-independent per-region data (c above; the
region for ergodic) and ``allocation`` returns (R*, Υ(R*)) with R* =
Υ̇⁻¹(slope), 0 below Υ̇(0) and at most ``rate_cap``. Pointwise there are
``power_of_rate`` (Υ), ``rate_of_power`` (Υ⁻¹), ``marginal_power`` (Υ̇) and
``inv_marginal_power`` (R*).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .quantizer import QuantizerGrid
from .special import exp1_scaled

_LN2 = float(np.log(2.0))


class NumericError(Exception):
    """Root-find failure; carries the worst residual for diagnostics."""

    def __init__(self, message: str, residual: float = np.nan):
        super().__init__(message)
        self.residual = residual


@dataclass(frozen=True)
class RegionContext:
    """One quantization region per entry: thresholds and the mean gain.

    Fields may be scalars or broadcastable arrays, so a single context can
    describe a whole (M, K, L) grid of regions at once.
    """

    q_lo: np.ndarray
    q_hi: np.ndarray
    mean_gain: np.ndarray

    def __post_init__(self):
        lo = np.asarray(self.q_lo, dtype=float)
        hi = np.asarray(self.q_hi, dtype=float)
        g = np.asarray(self.mean_gain, dtype=float)
        if np.any(lo < 0) or np.any(lo >= hi):
            raise ValueError("regions need 0 <= q_lo < q_hi")
        if np.any(g <= 0) or not np.all(np.isfinite(g)):
            raise ValueError("mean gain must be finite and positive")
        object.__setattr__(self, "q_lo", lo)
        object.__setattr__(self, "q_hi", hi)
        object.__setattr__(self, "mean_gain", g)


def region_contexts(grid: QuantizerGrid) -> RegionContext:
    """All (M, K, L) regions of a grid as one broadcast context."""
    thr = grid.thresholds
    return RegionContext(q_lo=thr[:, :, :-1], q_hi=thr[:, :, 1:],
                         mean_gain=grid.mean_gain[:, :, None])


def delta_outage_gain(ctx: RegionContext, delta: float) -> np.ndarray:
    """δ-quantile of the gain conditioned on the region.

    Solves Pr{g <= g^δ | g in region} = δ for the truncated exponential:
    g^δ = -ḡ·ln((1-δ)e^{-q_lo/ḡ} + δe^{-q_hi/ḡ}).  δ = 0 returns q_lo exactly.
    """
    if not (0.0 <= delta < 1.0):
        raise ValueError("delta must lie in [0, 1)")
    if delta == 0.0:
        return np.asarray(ctx.q_lo, dtype=float).copy()
    s_lo, s_hi, _ = _survivals(ctx)
    return -ctx.mean_gain * np.log((1.0 - delta) * s_lo + delta * s_hi)


def _survivals(ctx: RegionContext):
    g = ctx.mean_gain
    s_lo = np.exp(-ctx.q_lo / g)
    s_hi = np.where(np.isposinf(ctx.q_hi), 0.0, np.exp(-ctx.q_hi / g))
    return s_lo, s_hi, s_lo - s_hi


def _vec_bisect(f, lo, hi, rel_tol, max_iter, what: str):
    """Bisect f (increasing through zero) elementwise on [lo, hi].

    Each element stops at the first step that meets its tolerance, so its
    root does not depend on the other elements of the call.
    """
    lo, hi = (np.array(v, dtype=float) for v in np.broadcast_arrays(lo, hi))
    live = np.ones(lo.shape, dtype=bool)
    for _ in range(max_iter):
        mid = 0.5 * (lo + hi)
        below = f(mid) < 0.0
        lo = np.where(live & below, mid, lo)
        hi = np.where(live & ~below, mid, hi)
        live &= ~(hi - lo <= rel_tol * (1.0 + np.abs(hi)))
        if not live.any():
            return 0.5 * (lo + hi)
    resid = float(np.max(np.abs(f(mid)[live])))
    raise NumericError(f"bisection for {what} did not converge", resid)


def _grow_bracket(f_nonneg, hi0, max_doublings, what: str):
    """Double hi until f_nonneg(hi) is true elementwise."""
    hi = np.asarray(hi0, dtype=float).copy()
    for _ in range(max_doublings):
        short = ~f_nonneg(hi)
        if not np.any(short):
            return hi
        hi = np.where(short, 2.0 * hi, hi)
    raise NumericError(f"could not bracket the root for {what}",
                       float(np.max(hi)))


def linear_allocation(c, slope=None, rate_cap: float | None = None,
                      rate=None):
    """(rate, power) for Υ(x) = c·(2^x - 1), c = +inf in outage regions.

    The rate is ``rate`` when given, else Υ̇⁻¹(slope) = log2(slope/(c·ln2)),
    0 where slope ≤ c·ln2 (always in outage regions) and at most
    ``rate_cap``. The power is Υ(rate), exactly 0 where the rate is 0, since
    c·0 is NaN in outage regions.
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        if rate is None:
            ratio = np.asarray(slope, dtype=float) / (c * _LN2)
            rate = np.where(ratio > 1.0, np.log2(np.maximum(ratio, 1.0)), 0.0)
            if rate_cap is not None:
                rate = np.minimum(rate, rate_cap)
        power = c * np.expm1(_LN2 * rate)
    return rate, np.where(rate == 0.0, 0.0, power)


class PowerRate:
    """Shared behavior for all Υ families (see module docstring)."""

    # -- family hooks -------------------------------------------------------
    def linear_coeff(self, ctx: RegionContext):
        """Per-region c with Υ(x) = c·(2^x-1); outage regions carry +inf."""
        raise NotImplementedError

    def cell_data(self, ctx: RegionContext) -> tuple:
        """λ-independent per-region arrays, all of one shape, that
        ``allocation`` reads: (c,) for the c·(2^x-1) families."""
        return (self.linear_coeff(ctx),)

    def allocation(self, data: tuple, slope,
                   rate_cap: float | None = None) -> tuple:
        """(R*, Υ(R*)) per cell of ``cell_data``: R* = Υ̇⁻¹(slope), 0 where
        slope ≤ Υ̇(0) and at most ``rate_cap``."""
        return linear_allocation(data[0], slope, rate_cap)

    # -- generic closed forms for linear-coefficient families ---------------
    def power_of_rate(self, ctx: RegionContext, rate) -> np.ndarray:
        x = np.asarray(rate, dtype=float)
        if np.any(x < 0):
            raise ValueError("rate must be nonnegative")
        return linear_allocation(self.linear_coeff(ctx), rate=x)[1]

    def rate_of_power(self, ctx: RegionContext, power) -> np.ndarray:
        c = self.linear_coeff(ctx)
        y = np.asarray(power, dtype=float)
        if np.any(y < 0):
            raise ValueError("power must be nonnegative")
        with np.errstate(invalid="ignore"):
            r = np.log1p(y / c) / _LN2
        return np.where(np.isposinf(c), 0.0, r)

    def marginal_power(self, ctx: RegionContext, rate) -> np.ndarray:
        c = self.linear_coeff(ctx)
        x = np.asarray(rate, dtype=float)
        return c * _LN2 * np.exp2(x)

    def marginal_at_zero(self, ctx: RegionContext) -> np.ndarray:
        return self.linear_coeff(ctx) * _LN2

    def inv_marginal_power(self, ctx: RegionContext, slope,
                           rate_cap: float | None = None) -> np.ndarray:
        return self.allocation(self.cell_data(ctx), slope, rate_cap)[0]

    def is_outage(self, ctx: RegionContext) -> np.ndarray:
        """Regions where even the first bit costs infinite marginal power."""
        return np.isposinf(self.marginal_at_zero(ctx))


@dataclass(frozen=True)
class OutageCapacity(PowerRate):
    """Υ(x) = (2^x - 1)/g^δ; δ = 0 reduces g^δ to the region floor."""

    outage_delta: float = 0.0

    def __post_init__(self):
        if not (0.0 <= self.outage_delta < 1.0):
            raise ValueError("outage_delta must lie in [0, 1)")

    def linear_coeff(self, ctx: RegionContext):
        gd = delta_outage_gain(ctx, self.outage_delta)
        with np.errstate(divide="ignore"):
            return np.where(gd > 0.0, 1.0 / np.maximum(gd, 1e-300), np.inf)


@dataclass(frozen=True)
class MaxInstBer(PowerRate):
    """Υ(x) = (2^x - 1)·ln(κ1/ε_max)/(κ2·q_lo); first region is outage."""

    kappa1: float
    kappa2: float
    eps_max: float

    def __post_init__(self):
        if self.kappa1 <= 0 or self.kappa2 <= 0:
            raise ValueError("kappa1 and kappa2 must be positive")
        if not (0.0 < self.eps_max < self.kappa1):
            raise ValueError("eps_max must lie in (0, kappa1)")

    def linear_coeff(self, ctx: RegionContext):
        scale = np.log(self.kappa1 / self.eps_max) / self.kappa2
        lo = np.asarray(ctx.q_lo, dtype=float)
        with np.errstate(divide="ignore"):
            return np.where(lo > 0.0, scale / np.maximum(lo, 1e-300), np.inf)


@dataclass(frozen=True)
class MaxAvgBer(PowerRate):
    """Average-BER-constrained family; c = (a* - 1/ḡ)/κ2 per region."""

    kappa1: float
    kappa2: float
    eps_avg: float
    root_tol: float = 1e-12
    max_iter: int = 256

    def __post_init__(self):
        if self.kappa1 <= 0 or self.kappa2 <= 0:
            raise ValueError("kappa1 and kappa2 must be positive")
        if not (0.0 < self.eps_avg < self.kappa1):
            raise ValueError("eps_avg must lie in (0, kappa1)")
        if self.root_tol <= 0 or self.max_iter <= 0:
            raise ValueError("tolerances must be positive")

    def linear_coeff(self, ctx: RegionContext):
        lo = np.asarray(ctx.q_lo, dtype=float)
        hi = np.asarray(ctx.q_hi, dtype=float)
        g = np.asarray(ctx.mean_gain, dtype=float)
        lo, hi, g = np.broadcast_arrays(lo, hi, g)
        _, _, pr = _survivals(RegionContext(lo, hi, g))
        target = self.eps_avg * g * pr / self.kappa1

        def h(a):
            # ∫_region e^{-a·g} dg, decreasing in a
            upper = np.where(np.isposinf(hi), 0.0, np.exp(-a * hi))
            return (np.exp(-a * lo) - upper) / a

        # root of h(a) = target lies in (1/ḡ, ∞) because h(1/ḡ) = ḡ·Pr > target
        a_hi = _grow_bracket(lambda a: h(a) <= target, 2.0 / g,
                             1024, "average-BER region constant")
        a = _vec_bisect(lambda a: target - h(a), 1.0 / g, a_hi,
                        self.root_tol, self.max_iter,
                        "average-BER region constant")
        return (a - 1.0 / g) / self.kappa2


@dataclass(frozen=True)
class ErgodicCapacity(PowerRate):
    """Conditional-ergodic-capacity family (closed-form Υ⁻¹, numeric Υ)."""

    root_tol: float = 1e-12
    max_iter: int = 256

    def __post_init__(self):
        if self.root_tol <= 0 or self.max_iter <= 0:
            raise ValueError("tolerances must be positive")

    # Υ⁻¹ and its derivative in closed form ---------------------------------
    def rate_of_power(self, ctx: RegionContext, power) -> np.ndarray:
        y = np.asarray(power, dtype=float)
        if np.any(y < 0):
            raise ValueError("power must be nonnegative")
        return self._closed_form(ctx, y)[0]

    def _rate_deriv(self, ctx: RegionContext, power) -> np.ndarray:
        """d Υ⁻¹/dy — strictly decreasing, (Υ⁻¹)'(0) = E[g|region]/ln2."""
        return self._closed_form(ctx, power)[1]

    def _closed_form(self, ctx: RegionContext, power) -> tuple:
        """Υ⁻¹(y) and d Υ⁻¹/dy, which share their exponential integrals."""
        y = np.asarray(power, dtype=float)
        lo, hi, g, y = np.broadcast_arrays(ctx.q_lo, ctx.q_hi, ctx.mean_gain, y)
        s_lo, s_hi, pr = _survivals(RegionContext(lo, hi, g))
        ys = np.where(y > 0.0, y, 1.0)                 # dummy where y == 0
        e_lo = exp1_scaled((1.0 + ys * lo) / (ys * g))
        e_hi = np.zeros_like(e_lo)                     # s_hi = 0 where q_hi = ∞
        fin = ~np.isposinf(hi)
        if np.any(fin):
            e_hi[fin] = exp1_scaled((1.0 + ys[fin] * hi[fin])
                                    / (ys[fin] * g[fin]))
        hi_fin = np.where(fin, hi, 0.0)
        rate = (s_lo * (np.log1p(ys * lo) + e_lo)
                - s_hi * (np.log1p(ys * hi_fin) + e_hi)) / (pr * _LN2)
        deriv = ((pr - (s_lo * e_lo - s_hi * e_hi) / (ys * g))
                 / (pr * _LN2 * ys))
        at0 = self._cond_mean_gain(lo, hi, g, s_lo, s_hi, pr) / _LN2
        return np.where(y > 0.0, rate, 0.0), np.where(y > 0.0, deriv, at0)

    @staticmethod
    def _cond_mean_gain(lo, hi, g, s_lo, s_hi, pr):
        hi_fin = np.where(np.isposinf(hi), 0.0, hi)   # s_hi = 0 there anyway
        top = (lo + g) * s_lo - (hi_fin + g) * s_hi
        return top / pr

    def marginal_at_zero(self, ctx: RegionContext) -> np.ndarray:
        lo, hi, g = np.broadcast_arrays(ctx.q_lo, ctx.q_hi, ctx.mean_gain)
        s_lo, s_hi, pr = _survivals(RegionContext(lo, hi, g))
        return _LN2 / self._cond_mean_gain(lo, hi, g, s_lo, s_hi, pr)

    # numeric inversions -----------------------------------------------------
    def power_of_rate(self, ctx: RegionContext, rate) -> np.ndarray:
        x = np.asarray(rate, dtype=float)
        if np.any(x < 0):
            raise ValueError("rate must be nonnegative")
        lo, hi, g, x = np.broadcast_arrays(ctx.q_lo, ctx.q_hi, ctx.mean_gain, x)
        c = RegionContext(lo, hi, g)
        y_hi = _grow_bracket(lambda y: self.rate_of_power(c, y) >= x,
                             np.ones_like(x), 1024, "ergodic power")
        y = _vec_bisect(lambda y: self.rate_of_power(c, y) - x,
                        np.zeros_like(x), y_hi, self.root_tol, self.max_iter,
                        "ergodic power")
        return np.where(x > 0.0, y, 0.0)

    def marginal_power(self, ctx: RegionContext, rate) -> np.ndarray:
        y = self.power_of_rate(ctx, rate)
        return 1.0 / self._rate_deriv(ctx, y)

    def cell_data(self, ctx: RegionContext) -> tuple:
        return tuple(np.broadcast_arrays(ctx.q_lo, ctx.q_hi, ctx.mean_gain))

    def allocation(self, data: tuple, slope,
                   rate_cap: float | None = None) -> tuple:
        """One root-find per active cell, for the power y* with
        (Υ⁻¹)'(y*) = 1/slope; then R* = Υ⁻¹(y*) and Υ(R*) = y*. Cells
        clipped at ``rate_cap`` get Υ(rate_cap) instead."""
        t = np.asarray(slope, dtype=float)
        if np.any(t < 0):
            raise ValueError("slope must be nonnegative")
        lo, hi, g, t = np.broadcast_arrays(*data, t)
        active = t > self.marginal_at_zero(RegionContext(lo, hi, g))
        c = RegionContext(lo[active], hi[active], g[active])
        inv_t = 1.0 / t[active]
        y_hi = _grow_bracket(lambda y: self._rate_deriv(c, y) <= inv_t,
                             np.ones_like(inv_t), 1024,
                             "ergodic marginal inverse")
        y = _vec_bisect(lambda y: inv_t - self._rate_deriv(c, y),
                        np.zeros_like(inv_t), y_hi, self.root_tol,
                        self.max_iter, "ergodic marginal inverse")
        r = self.rate_of_power(c, y)
        capped = r > (np.inf if rate_cap is None else rate_cap)
        if capped.any():
            r[capped] = rate_cap
            y[capped] = self.power_of_rate(RegionContext(
                c.q_lo[capped], c.q_hi[capped], c.mean_gain[capped]), rate_cap)
        rate, power = np.zeros(t.shape), np.zeros(t.shape)
        rate[active], power[active] = r, y
        return rate, power


_FAMILIES = {
    "outage_capacity": OutageCapacity,
    "ergodic_capacity": ErgodicCapacity,
    "max_inst_ber": MaxInstBer,
    "max_avg_ber": MaxAvgBer,
}


def make_model(family: str, **params) -> PowerRate:
    """Construct a family by config name; unknown names raise ValueError."""
    try:
        cls = _FAMILIES[family]
    except KeyError:
        raise ValueError(
            f"unknown power_rate family {family!r}; expected one of "
            f"{sorted(_FAMILIES)}") from None
    return cls(**params)
