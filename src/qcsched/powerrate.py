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
  with S = e^{-q/ḡ}, t = (1+y·q)/(y·ḡ), stable down to y → 0. Υ̇⁻¹ is one
  root-find on (Υ⁻¹)' for the power y* = Υ(R*), Υ one on Υ⁻¹, each from a
  bracket that Jensen's inequality gives in terms of E[g|R] and E[g²|R];
  no outage regions. Every root-find here is safeguarded Newton
  (``_vec_newton``).

The first three families share the shape Υ(x) = c·(2^x - 1) with a per-region
constant c, which gives closed-form marginals:
Υ̇(x) = c·ln2·2^x and Υ̇⁻¹(t) = log2(t/(c·ln2)) for t > c·ln2, else 0.
``linear_allocation`` is the one implementation of Υ̇⁻¹ and Υ for that shape.

Every family is used through its methods, and only this module knows its
shape. The scheduler's hook is ``allocation(cell_data(ctx), slope,
rate_cap)``: ``cell_data`` is the λ-independent per-region data (c above; the
region's moments and edges for ergodic) and ``allocation`` returns
(R*, Υ(R*)) with R* = Υ̇⁻¹(slope), 0 below Υ̇(0) and at most ``rate_cap``.
Pointwise there are ``power_of_rate`` (Υ), ``rate_of_power`` (Υ⁻¹),
``marginal_power`` (Υ̇) and ``inv_marginal_power`` (R*). At a known gain g
every family is Υ(x) = (s/g)·(2^x - 1), and ``perfect_csi_scale`` gives s.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .quantizer import QuantizerGrid
from .special import exp12_scaled

_LN2 = float(np.log(2.0))
# every family root-find (``_vec_newton``) stops each element once its step
# or bracket is within ROOT_TOL·(1 + |x|), and gives up after ROOT_MAX_ITER
# safeguarded steps; both are read at call time
ROOT_TOL = 1e-12
ROOT_MAX_ITER = 256


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


def _nonneg(values, name: str) -> np.ndarray:
    v = np.asarray(values, dtype=float)
    if np.any(v < 0):
        raise ValueError(f"{name} must be nonnegative")
    return v


def _survivals(ctx: RegionContext):
    g = ctx.mean_gain
    s_lo = np.exp(-ctx.q_lo / g)
    s_hi = np.where(np.isposinf(ctx.q_hi), 0.0, np.exp(-ctx.q_hi / g))
    return s_lo, s_hi, s_lo - s_hi


def _truncated_exp(ctx: RegionContext):
    """S_lo, S_hi, Pr and the moments E[g | region], E[g² | region]."""
    s_lo, s_hi, pr = _survivals(ctx)
    lo, g = ctx.q_lo, ctx.mean_gain
    hi = np.where(np.isposinf(ctx.q_hi), 0.0, ctx.q_hi)   # s_hi = 0 there
    m1 = ((lo + g) * s_lo - (hi + g) * s_hi) / pr
    m2 = (((lo + g) ** 2 + g * g) * s_lo
          - ((hi + g) ** 2 + g * g) * s_hi) / pr
    return s_lo, s_hi, pr, m1, m2


def _vec_newton(f_df, lo, hi, rel_tol, max_iter, what: str):
    """Safeguarded Newton ("rtsafe") on an increasing f, elementwise: ``f_df``
    gives (f, f'), f(lo) ≤ 0, and hi is doubled until f(hi) ≥ 0. A step
    narrows the bracket by the sign of f and takes the Newton point if it is
    finite and strictly inside, else the midpoint. An element stops on its
    own once its step or bracket is within rel_tol·(1 + |x|); ``max_iter``
    counts these safeguarded steps."""
    hi = _grow_bracket(lambda v: f_df(v)[0], hi, what)
    x = 0.5 * (lo + hi)
    live = np.ones(x.shape, dtype=bool)
    for _ in range(max_iter):
        f, df = f_df(x)
        lo = np.where(live & (f < 0.0), x, lo)
        hi = np.where(live & (f > 0.0), x, hi)
        with np.errstate(divide="ignore", invalid="ignore"):
            newton = x - f / df
        small = (f == 0.0) | (abs(newton - x) <= rel_tol * (1.0 + abs(x)))
        inside = (newton > lo) & (newton < hi)
        x = np.where(live, np.where(inside, newton, np.where(
            small, x, 0.5 * (lo + hi))), x)
        live &= ~(small | (hi - lo <= rel_tol * (1.0 + np.abs(hi))))
        if not live.any():
            return x
    raise NumericError(f"root-find for {what} did not converge",
                       float(np.max(np.abs(f[live]))))


@np.errstate(over="ignore")            # overflow is the expected exit
def _grow_bracket(f, hi, what: str):
    """Double hi until f(hi) ≥ 0 elementwise; if hi overflows first, the
    residual is the worst finite |f| of the last bracket that had one."""
    resid = np.nan
    while np.all(np.isfinite(hi)):
        fh = f(hi)
        short = ~(fh >= 0.0)
        if not short.any():
            return hi
        finite = short & np.isfinite(fh)
        resid = float(np.max(np.abs(fh[finite]))) if finite.any() else resid
        hi = np.where(short, 2.0 * hi, hi)
    raise NumericError(f"could not bracket the root for {what}", resid)


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

    def rate_slope(self, data: tuple, slope, rate, power,
                   rate_cap: float) -> np.ndarray:
        """∂R*/∂slope per cell at (rate, power) = ``allocation(data, slope,
        rate_cap)``, 0 on inactive and capped cells: 1/(slope·ln2) here."""
        live = (rate > 0.0) & (rate < rate_cap)
        with np.errstate(divide="ignore", over="ignore"):
            return np.where(live, 1.0 / (slope * _LN2), 0.0)

    # -- generic closed forms for linear-coefficient families ---------------
    def power_of_rate(self, ctx: RegionContext, rate) -> np.ndarray:
        return linear_allocation(self.linear_coeff(ctx),
                                 rate=_nonneg(rate, "rate"))[1]

    def rate_of_power(self, ctx: RegionContext, power) -> np.ndarray:
        y, c = _nonneg(power, "power"), self.linear_coeff(ctx)
        with np.errstate(invalid="ignore"):
            r = np.log1p(y / c) / _LN2
        return np.where(np.isposinf(c), 0.0, r)

    def marginal_power(self, ctx: RegionContext, rate) -> np.ndarray:
        c = self.linear_coeff(ctx)
        x = np.asarray(rate, dtype=float)
        return c * _LN2 * np.exp2(x)

    def marginal_at_zero(self, ctx: RegionContext) -> np.ndarray:
        return self.linear_coeff(ctx) * _LN2

    def perfect_csi_scale(self) -> float:
        """s with Υ(x) = (s/g)·(2^x - 1) at a known gain g, the limit of
        g·c on shrinking regions: 1 for the capacity families."""
        return 1.0

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

    def perfect_csi_scale(self) -> float:
        return float(np.log(self.kappa1 / self.eps_max) / self.kappa2)

    def linear_coeff(self, ctx: RegionContext):
        scale, lo = self.perfect_csi_scale(), ctx.q_lo
        with np.errstate(divide="ignore"):
            return np.where(lo > 0.0, scale / np.maximum(lo, 1e-300), np.inf)


@dataclass(frozen=True)
class MaxAvgBer(PowerRate):
    """Average-BER-constrained family; c = (a* - 1/ḡ)/κ2 per region."""

    kappa1: float
    kappa2: float
    eps_avg: float

    def __post_init__(self):
        if self.kappa1 <= 0 or self.kappa2 <= 0:
            raise ValueError("kappa1 and kappa2 must be positive")
        if not (0.0 < self.eps_avg < self.kappa1):
            raise ValueError("eps_avg must lie in (0, kappa1)")

    def perfect_csi_scale(self) -> float:
        # a region of zero width averages nothing: the instantaneous BER's s
        return float(np.log(self.kappa1 / self.eps_avg) / self.kappa2)

    def linear_coeff(self, ctx: RegionContext):
        lo, hi, g = np.broadcast_arrays(ctx.q_lo, ctx.q_hi, ctx.mean_gain)
        target = self.eps_avg * g * _survivals(ctx)[2] / self.kappa1
        hi_fin = np.where(np.isposinf(hi), 0.0, hi)    # e^{-a·q_hi} = 0 there

        def f_df(a):
            # target - h(a) with h(a) = ∫_region e^{-a·g} dg, and its slope
            e_lo, e_hi = np.exp(-a * lo), np.exp(-a * hi)
            h = (e_lo - e_hi) / a
            return target - h, (lo * e_lo - hi_fin * e_hi + h) / a

        # root of h(a) = target lies in (1/ḡ, ∞) because h(1/ḡ) = ḡ·Pr > target
        a = _vec_newton(f_df, 1.0 / g, 2.0 / g, ROOT_TOL, ROOT_MAX_ITER,
                        "average-BER region constant")
        return (a - 1.0 / g) / self.kappa2


@dataclass(frozen=True)
class ErgodicCapacity(PowerRate):
    """Conditional-ergodic-capacity family (closed-form Υ⁻¹, numeric Υ)."""

    # Υ⁻¹ and its derivatives in closed form --------------------------------
    def cell_data(self, ctx: RegionContext) -> tuple:
        """S_lo, S_hi, Pr, E[g|R], E[g²|R], q_lo, q_hi (0 where it is ∞, as
        S_hi = 0 there) and ḡ, from which ``_edges`` builds what
        ``_closed_form`` reads."""
        hi = np.where(np.isposinf(ctx.q_hi), 0.0, ctx.q_hi)
        return tuple(np.broadcast_arrays(*_truncated_exp(ctx), ctx.q_lo, hi,
                                         ctx.mean_gain))

    @staticmethod
    def _edges(data: tuple, like) -> tuple:
        """What ``_closed_form`` reads but the power, built once per call on
        the cells of ``cell_data`` broadcast against ``like``: (S_lo, -S_hi)
        and (q_lo, q_hi) stacked on a leading edge axis, q/ḡ, ḡ, Pr·ln2,
        E[g|R] and E[g²|R]."""
        s_lo, s_hi, pr, m1, m2, lo, hi, g, _ = np.broadcast_arrays(*data, like)
        q = np.stack([lo, hi])
        return np.stack([s_lo, -s_hi]), q, q / g, g, pr * _LN2, m1, m2

    def rate_of_power(self, ctx: RegionContext, power) -> np.ndarray:
        y = _nonneg(power, "power")
        return self._closed_form(self._edges(self.cell_data(ctx), y), y)[0]

    def _closed_form(self, edges: tuple, y) -> tuple:
        """Υ⁻¹(y), (Υ⁻¹)' and (Υ⁻¹)'' on the cells of ``_edges`` from one
        exp12_scaled call. With e = e^t·E1(t), G = e^t·E2(t), u = 1/(yḡ) and
        S = (S_lo, -S_hi) summed over the edges, (Υ⁻¹)' = Σ S·(G + q·e/ḡ)/
        (Pr·ln2·y) does not cancel as y → 0; e' = -G/t and G' = G - e give
        (Υ⁻¹)'', which cancels like 1e-16/(y·E[g|R])²: below y·E[g|R] = 1e-5
        it is its y = 0 value -E[g²|R]/ln2, within 3e-5 relative, ample for
        Newton; its last division skips y there, where the cancellation
        noise over y² can overflow. Below y·E[g|R] = 1e-300, where u
        overflows for subnormal y, Υ⁻¹ and (Υ⁻¹)' are their first-order
        limits y·E[g|R]/ln2 and E[g|R]/ln2."""
        sv, q, qg, g, prl, m1, m2 = edges
        ym1 = y * m1
        tiny, small = ym1 < 1e-300, ym1 < 1e-5
        ys = np.where(tiny, 1.0, y)                    # dummy where tiny
        u = 1.0 / (ys * g)
        t = qg + u
        e, big_g = exp12_scaled(t)
        rate = (sv * (np.log1p(ys * q) + e)).sum(0) / prl
        deriv = (sv * (big_g + qg * e)).sum(0) / (prl * ys)
        curv = -(deriv + u * (sv * (big_g * u / t - e)).sum(0)
                 / (prl * ys)) / np.where(small, 1.0, ys)
        return (np.where(tiny, ym1 / _LN2, rate),
                np.where(tiny, m1 / _LN2, deriv),
                np.where(small, -m2 / _LN2, curv))

    def marginal_at_zero(self, ctx: RegionContext) -> np.ndarray:
        return _LN2 / _truncated_exp(ctx)[3]

    # numeric inversions: safeguarded Newton on the closed forms -------------
    def power_of_rate(self, ctx: RegionContext, rate) -> np.ndarray:
        return self._power(self.cell_data(ctx), _nonneg(rate, "rate"))

    def _power(self, data: tuple, rate) -> np.ndarray:
        """Υ(rate) on ``cell_data``: one root-find on Υ⁻¹ per cell, inside a
        bracket. Concavity of log gives Υ⁻¹(y) ≤ log2(1 + y·m1), and
        integrating the lower Jensen bound on (Υ⁻¹)' (see ``allocation``)
        gives Υ⁻¹(y) ≥ ρ·log2(1 + y·m2/m1), so Υ(x) lies in
        [(2^x - 1)/m1, (2^{x/ρ} - 1)·m1/m2]. Where 2^{x/ρ} overflows, the
        upper end is doubled from 1 instead."""
        edges = self._edges(data, rate)
        m1, m2 = edges[5:]
        x = np.broadcast_to(rate, m1.shape)

        def f_df(y):                           # f = 0 where x = 0: Υ(0) = 0
            rate, deriv, _ = self._closed_form(edges, y)
            return np.where(x > 0.0, rate - x, 0.0), deriv

        with np.errstate(over="ignore"):
            lo = np.expm1(_LN2 * x) / m1
            hi = np.expm1(_LN2 * x * m2 / (m1 * m1)) * m1 / m2
        y = _vec_newton(f_df, lo, np.where(np.isfinite(hi), hi, 1.0),
                        ROOT_TOL, ROOT_MAX_ITER, "ergodic power")
        return np.where(x > 0.0, y, 0.0)

    def marginal_power(self, ctx: RegionContext, rate) -> np.ndarray:
        y = self.power_of_rate(ctx, rate)
        return 1.0 / self._closed_form(self._edges(self.cell_data(ctx), y),
                                       y)[1]

    def allocation(self, data: tuple, slope,
                   rate_cap: float | None = None) -> tuple:
        """One root-find per active cell, for the power y* with
        (Υ⁻¹)'(y*) = 1/slope; then R* = Υ⁻¹(y*) and Υ(R*) = y*. Cells
        clipped at ``rate_cap`` get Υ(rate_cap) instead. Active cells are
        those with slope > Υ̇(0) = ln2/m1, where m_k = E[g^k|R].

        The root-find starts inside a bracket from Jensen's inequality on
        (Υ⁻¹)'(y) = E[g/(1 + y·g) | R]/ln2. As g ↦ g/(1 + y·g) is concave,
        (Υ⁻¹)'(y) ≤ m1/((1 + y·m1)·ln2); as g ↦ 1/(1 + y·g) is convex under
        the size-biased law g·dP/m1, (Υ⁻¹)'(y) ≥ m1/((1 + y·m2/m1)·ln2).
        Setting each bound to 1/slope gives ρ·y_hi ≤ y* ≤ y_hi with
        y_hi = slope/ln2 - 1/m1, positive on exactly the active cells, and
        ρ = m1²/m2 ≤ 1."""
        *cells, t = np.broadcast_arrays(*data, _nonneg(slope, "slope"))
        active = t > _LN2 / cells[3]
        c = tuple(a[active] for a in cells)
        inv_t = 1.0 / t[active]
        edges = self._edges(c, inv_t)
        m1, m2 = edges[5:]

        def f_df(y):
            _, deriv, curv = self._closed_form(edges, y)
            return inv_t - deriv, -curv

        # widened by the root-find's absolute tolerance: ρ·y_hi is tight to
        # first order as y* → 0, where rounding in (Υ⁻¹)' can put the root
        # just below it, and y_hi cancels just above Υ̇(0)
        y_hi = t[active] / _LN2 - 1.0 / m1
        lo = np.maximum(m1 * m1 / m2 * y_hi - ROOT_TOL, 0.0)
        hi = np.maximum(y_hi, ROOT_TOL)
        y = _vec_newton(f_df, lo, hi, ROOT_TOL, ROOT_MAX_ITER,
                        "ergodic marginal inverse")
        r = self._closed_form(edges, y)[0]
        capped = r > (np.inf if rate_cap is None else rate_cap)
        if capped.any():
            r[capped] = rate_cap
            y[capped] = self._power(tuple(a[capped] for a in c), rate_cap)
        rate, power = np.zeros(t.shape), np.zeros(t.shape)
        rate[active], power[active] = r, y
        return rate, power

    def rate_slope(self, data: tuple, slope, rate, power,
                   rate_cap: float) -> np.ndarray:
        """Differentiating (Υ⁻¹)'(y*) = 1/t at the allocated power y* gives
        ∂R*/∂t = -1/(t³·(Υ⁻¹)''(y*)) on active, uncapped cells."""
        *cells, t, r, y = np.broadcast_arrays(*data, slope, rate, power)
        live = (r > 0.0) & (r < rate_cap)
        out = np.zeros(t.shape)
        y = y[live]
        edges = self._edges(tuple(a[live] for a in cells), y)
        out[live] = -1.0 / (t[live] ** 3 * self._closed_form(edges, y)[2])
        return out


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
