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
  root-find on 1/(Υ⁻¹)', nearly linear, for the power y* = Υ(R*), Υ one
  on Υ⁻¹, each from a bracket that Jensen's inequality gives in terms of
  E[g|R] and E[g²|R]; no outage regions. Every root-find here is
  safeguarded Newton (``_vec_newton``) started at the bracket's upper end.

The first three families share the shape Υ(x) = c·(2^x - 1) with a per-region
constant c, which gives closed-form marginals:
Υ̇(x) = c·ln2·2^x and Υ̇⁻¹(t) = log2(t/(c·ln2)) for t > c·ln2, else 0.
``linear_allocation`` is the one implementation of Υ̇⁻¹ for that shape, and
``PowerRate.power_of_rate`` the one of Υ at any rate.

Every family is used through its methods, and only this module knows its
shape. Only ``cell_data(ctx)`` reads regions: it gives the λ-independent
per-region data (``linear_cells``: c, c·ln2 and c with outage cells at 0,
above; the region's moments and edges for ergodic), which a caller builds
once and passes to the other methods. Υ̇⁻¹ is the scheduler's hook:
``allocation(data, slope, rate_cap)`` gives fresh (R*, Υ(R*)) with
R* = Υ̇⁻¹(slope), 0 below Υ̇(0) and at most ``rate_cap`` (``math.inf`` for
none). Pointwise there are ``power_of_rate`` (Υ), ``rate_and_derivative``
(Υ⁻¹ and (Υ⁻¹)') and ``is_outage``.
At a known gain g every family is Υ(x) = (s/g)·(2^x - 1), and
``perfect_csi_scale`` gives s.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .special import exp12_scaled

if TYPE_CHECKING:
    from .quantizer import QuantizerGrid

_LN2 = float(np.log(2.0))
# every root-find (``_vec_newton``: the families' and RA5's) stops each
# element once its step or bracket is within ROOT_TOL·(1 + |x|), and gives up
# after ROOT_MAX_ITER safeguarded steps; both are read at call time
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
        if not (np.all(lo >= 0) and np.all(lo < hi)):     # NaN fails too
            raise ValueError("regions need 0 <= q_lo < q_hi")
        if not np.all((g > 0) & (g < np.inf)):
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
    g^δ = -ḡ·ln((1-δ)e^{-q_lo/ḡ} + δe^{-q_hi/ḡ}), taken as
    q_lo - ḡ·log1p(δ·expm1(-w)) with w = (q_hi - q_lo)/ḡ, so that a region
    whose survivals underflow keeps its quantile.  δ = 0 returns q_lo exactly.
    """
    if not (0.0 <= delta < 1.0):
        raise ValueError("delta must lie in [0, 1)")
    lo, g = ctx.q_lo, ctx.mean_gain
    if delta == 0.0:
        return np.asarray(lo, dtype=float).copy()
    return lo - g * np.log1p(delta * np.expm1((lo - ctx.q_hi) / g))


def _nonneg(values, name: str) -> np.ndarray:
    v = np.asarray(values, dtype=float)
    if np.any(v < 0):
        raise ValueError(f"{name} must be nonnegative")
    return v


# B_k/k! for k ≤ 14 (Bernoulli numbers): w/expm1(w) = Σ B_k·w^k/k!. The
# Taylor series of 1 - w/expm1(w) and 2 - (w + 2)·w/expm1(w) follow as the
# columns of one table, highest power first (the first padded with a leading
# 0, which Horner's rule keeps at 0); _truncated_exp sums them below
# _SERIES_W, where those closed forms cancel
_BERNOULLI = np.array([1, -1 / 2, 1 / 12, 0, -1 / 720, 0, 1 / 30240, 0,
                       -1 / 1209600, 0, 1 / 47900160, 0, -691 / 1307674368000,
                       0, 1 / 74724249600])
_MOMENT_SERIES = np.stack([
    np.r_[0.0, -_BERNOULLI[1:], 0.0],
    np.r_[0.0, -(_BERNOULLI[:-1] + 2.0 * _BERNOULLI[1:]), -_BERNOULLI[-1]],
], axis=1)[::-1]
_SERIES_W = 0.5


def _truncated_exp(ctx: RegionContext):
    """S_hi/S_lo, Pr/S_lo and the moments E[g | region], E[g² | region],
    each from q_lo and the width w = (q_hi - q_lo)/ḡ alone.

    Given the region, g - q_lo is exponential with mean ḡ truncated to
    [0, w·ḡ): S_hi/S_lo = e^{-w}, Pr/S_lo = -expm1(-w), E[g - q_lo] =
    ḡ·(1 - w/expm1(w)) and E[(g - q_lo)²] = ḡ²·(2 - w·(w + 2)/expm1(w)), or
    ḡ and 2ḡ² on the last region. No survival or ratio of survivals enters,
    so a region far in the tail, where S_lo and Pr underflow to 0, keeps
    finite ratios and moments in [q_lo, q_hi]."""
    lo, g = ctx.q_lo, ctx.mean_gain
    w = (ctx.q_hi - lo) / g                             # ∞ on the last region
    small = w < _SERIES_W
    # each form on its own widths, a dummy elsewhere; past w = 700,
    # w/expm1(w) < 1e-300 leaves 1 and 2 to the last bit
    ws, wd = np.where(small, w, 0.0), np.where(small, 1.0, np.minimum(w, 700.0))
    ratio = wd / np.expm1(wd)
    series = np.zeros((2,) + ws.shape)      # both series in one Horner pass
    for coeff in _MOMENT_SERIES.reshape(_MOMENT_SERIES.shape
                                        + (1,) * ws.ndim):
        series *= ws
        series += coeff
    mean = np.where(small, series[0], 1.0 - ratio)
    square = np.where(small, series[1], 2.0 - ratio * (wd + 2.0))
    return (np.exp(-w), -np.expm1(-w), lo + g * mean,
            lo * lo + g * (2.0 * lo * mean + g * square))


def _vec_newton(f_df, lo, hi, what: str):
    """Safeguarded Newton ("rtsafe") on an increasing f, elementwise: ``f_df``
    gives (f, f'), f(lo) ≤ 0, and hi is doubled until f(hi) ≥ 0. The first
    step starts at hi, from the evaluation that confirmed it. A step narrows
    the bracket by the sign of f and takes the Newton point if it is finite
    and strictly inside, else the midpoint. An element stops on its own once
    its step or bracket is within ROOT_TOL·(1 + |x|); ROOT_MAX_ITER counts
    these safeguarded steps.

    ``f_df`` may give arrays after (f, f'); then the root comes back with
    those of each element's last evaluation while it was live, the one its
    last step started from, as (x, *extras). A stopped element is evaluated
    again only while others are live, so its later evaluations are not
    kept: they would make its extras depend on the rest of the call.

    Each element takes the same steps whatever else is in the call, so a
    batch equals its one-element calls bit for bit. The bracket ends are
    updated in place, without a live mask, since a stopped element's are
    never read again."""
    x, (f, df, *extras) = _grow_bracket(f_df, hi, what)
    kept = [np.array(e) for e in extras]
    lo = np.array(np.broadcast_to(lo, x.shape), dtype=float)
    hi = np.array(x)
    live = np.ones(x.shape, dtype=bool)
    for _ in range(ROOT_MAX_ITER):
        np.copyto(lo, x, where=f < 0.0)
        np.copyto(hi, x, where=f > 0.0)
        with np.errstate(divide="ignore", invalid="ignore"):
            newton = x - f / df
        small = (f == 0.0) | (abs(newton - x) <= ROOT_TOL * (1.0 + abs(x)))
        inside = (newton > lo) & (newton < hi)
        x = np.where(live, np.where(inside, newton, np.where(
            small, x, 0.5 * (lo + hi))), x)
        live &= ~(small | (hi - lo <= ROOT_TOL * (1.0 + np.abs(hi))))
        if not live.any():
            return (x, *kept) if kept else x
        f, df, *extras = f_df(x)
        for k, e in zip(kept, extras):
            np.copyto(k, e, where=live)
    raise NumericError(f"root-find for {what} did not converge",
                       float(np.max(np.abs(f[live]))))


@np.errstate(over="ignore")            # overflow is the expected exit
def _grow_bracket(f_df, hi, what: str):
    """Double hi until f(hi) ≥ 0 elementwise and return hi with the last
    evaluation, (f(hi), f'(hi), …), which is Newton's first; if hi overflows
    first, the residual is the worst finite |f| of the last bracket that had
    one."""
    resid = np.nan
    while np.all(np.isfinite(hi)):
        out = f_df(hi)
        fh = out[0]
        short = ~(fh >= 0.0)
        if not short.any():
            return hi, out
        finite = short & np.isfinite(fh)
        resid = float(np.max(np.abs(fh[finite]))) if finite.any() else resid
        hi = np.where(short, 2.0 * hi, hi)
    raise NumericError(f"could not bracket the root for {what}", resid)


def linear_cells(c) -> tuple:
    """The cell data of Υ(x) = c·(2^x - 1), c > 0 and +inf in outage
    regions: (c, c·ln2, c°) with c° = c, but 0 in outage regions."""
    c = np.asarray(c, dtype=float)
    return c, c * _LN2, np.where(np.isposinf(c), 0.0, c)


def linear_allocation(cells, slope, rate_cap: float):
    """(R*, Υ(R*)), fresh, on ``linear_cells``: R* = log2(slope/(c·ln2)), 0
    where slope ≤ c·ln2 (always in outage regions) and at most ``rate_cap``;
    Υ(R*) = c°·(2^R* - 1): c° = c wherever R* ≠ 0, and +0 where R* = 0."""
    _, c_ln2, c_live = cells
    rate = np.minimum(np.log2(np.maximum(np.divide(slope, c_ln2), 1.0)),
                      rate_cap)
    power = np.expm1(_LN2 * rate)
    power *= c_live
    return rate, power


class PowerRate:
    """Shared behavior for all Υ families (see module docstring)."""

    # -- family hooks -------------------------------------------------------
    def cell_data(self, ctx: RegionContext) -> tuple:
        """λ-independent per-region arrays, all of one shape, that every
        other method reads, as this tuple or stacked on a leading axis as a
        grid keeps them (QuantizerGrid.cell_data): ``linear_cells(c)`` for
        the c·(2^x-1) families, with c = +inf in outage regions."""
        raise NotImplementedError

    def allocation(self, data: tuple, slope, rate_cap: float) -> tuple:
        """(R*, Υ(R*)) per cell of ``cell_data``: R* = Υ̇⁻¹(slope), 0 where
        slope ≤ Υ̇(0) and at most ``rate_cap`` (``math.inf`` for no cap),
        as fresh arrays the caller may overwrite."""
        return linear_allocation(data, slope, rate_cap)

    def rate_slope(self, data: tuple, slope, rate, power,
                   rate_cap: float) -> np.ndarray:
        """∂R*/∂slope per cell at (rate, power) = ``allocation(data, slope,
        rate_cap)``, 0 on inactive and capped cells: 1/(slope·ln2) here."""
        live = (rate > 0.0) & (rate < rate_cap)
        with np.errstate(divide="ignore", over="ignore"):
            return np.where(live, 1.0 / (slope * _LN2), 0.0)

    # -- generic closed forms for linear-coefficient families ---------------
    def power_of_rate(self, data: tuple, rate) -> np.ndarray:
        """Υ(rate) = c·(2^rate - 1), exactly 0 where the rate is 0: the
        product is only formed elsewhere, since c·0 is NaN in outage
        regions, where a positive rate costs +inf."""
        rate, c = _nonneg(rate, "rate"), data[0]
        grow = np.expm1(_LN2 * rate)
        return np.multiply(c, grow, out=np.zeros(np.broadcast(c, grow).shape),
                           where=rate != 0.0)

    def rate_and_derivative(self, data: tuple, power) -> tuple:
        """(Υ⁻¹(y), (Υ⁻¹)'(y)): log2(1 + y/c), 1/((c + y)·ln2); 0 in outage"""
        y, c = _nonneg(power, "power"), data[0]
        with np.errstate(invalid="ignore"):
            r = np.log1p(y / c) / _LN2
        return np.where(np.isposinf(c), 0.0, r), 1.0 / ((c + y) * _LN2)

    def perfect_csi_scale(self) -> float:
        """s with Υ(x) = (s/g)·(2^x - 1) at a known gain g, the limit of
        g·c on shrinking regions: 1 for the capacity families."""
        return 1.0

    def is_outage(self, data: tuple) -> np.ndarray:
        """Cells with c = +inf, where the first bit costs infinite power."""
        return np.isposinf(data[0])


@dataclass(frozen=True)
class OutageCapacity(PowerRate):
    """Υ(x) = (2^x - 1)/g^δ; δ = 0 reduces g^δ to the region floor."""

    outage_delta: float = 0.0

    def __post_init__(self):
        if not (0.0 <= self.outage_delta < 1.0):
            raise ValueError("outage_delta must lie in [0, 1)")

    def cell_data(self, ctx: RegionContext) -> tuple:
        gd = delta_outage_gain(ctx, self.outage_delta)
        return linear_cells(np.where(gd > 0.0, 1.0 / np.maximum(gd, 1e-300),
                                     np.inf))


@dataclass(frozen=True)
class MaxInstBer(PowerRate):
    """Υ(x) = (2^x - 1)·ln(κ1/ε_max)/(κ2·q_lo); first region is outage."""

    kappa1: float
    kappa2: float
    eps_max: float

    def __post_init__(self):
        if not (0 < self.kappa1 < np.inf and 0 < self.kappa2 < np.inf):
            raise ValueError("kappa1 and kappa2 must be positive and finite")
        if not (0.0 < self.eps_max < self.kappa1):
            raise ValueError("eps_max must lie in (0, kappa1)")

    def perfect_csi_scale(self) -> float:
        return float(np.log(self.kappa1 / self.eps_max) / self.kappa2)

    def cell_data(self, ctx: RegionContext) -> tuple:
        s, lo = self.perfect_csi_scale(), ctx.q_lo
        return linear_cells(np.where(lo > 0.0, s / np.maximum(lo, 1e-300),
                                     np.inf))


@dataclass(frozen=True)
class MaxAvgBer(PowerRate):
    """Average-BER-constrained family; c = (a* - 1/ḡ)/κ2 per region."""

    kappa1: float
    kappa2: float
    eps_avg: float

    def __post_init__(self):
        if not (0 < self.kappa1 < np.inf and 0 < self.kappa2 < np.inf):
            raise ValueError("kappa1 and kappa2 must be positive and finite")
        if not (0.0 < self.eps_avg < self.kappa1):
            raise ValueError("eps_avg must lie in (0, kappa1)")

    def perfect_csi_scale(self) -> float:
        # a region of zero width averages nothing: the instantaneous BER's s
        return float(np.log(self.kappa1 / self.eps_avg) / self.kappa2)

    def cell_data(self, ctx: RegionContext) -> tuple:
        lo, hi, g = np.broadcast_arrays(ctx.q_lo, ctx.q_hi, ctx.mean_gain)
        # ε·ḡ·Pr{R}/κ1, Pr{R} the difference of the edges' survivals e^{-q/ḡ}
        s_hi = np.where(np.isposinf(hi), 0.0, np.exp(-hi / g))
        target = self.eps_avg * g * (np.exp(-lo / g) - s_hi) / self.kappa1
        hi_fin = np.where(np.isposinf(hi), 0.0, hi)    # e^{-a·q_hi} = 0 there

        def f_df(a):
            # target - h(a) with h(a) = ∫_region e^{-a·g} dg, and its slope
            e_lo, e_hi = np.exp(-a * lo), np.exp(-a * hi)
            h = (e_lo - e_hi) / a
            return target - h, (lo * e_lo - hi_fin * e_hi + h) / a

        # root of h(a) = target lies in (1/ḡ, ∞) because h(1/ḡ) = ḡ·Pr > target
        a = _vec_newton(f_df, 1.0 / g, 2.0 / g, "average-BER region constant")
        return linear_cells((a - 1.0 / g) / self.kappa2)


def _edge_views(cells: np.ndarray) -> tuple:
    """What ErgodicCapacity's ``_slopes`` and ``_rate`` read but the power,
    as views of ``cells``, the arrays of its ``cell_data`` stacked on a
    leading axis: S_hi, (q_lo, q_hi) and (q_lo, q_hi)/ḡ on a leading edge
    axis, ḡ, Pr·ln2, E[g|R] and E[g²|R]."""
    return (cells[0], cells[4:6], cells[7:9], cells[6], cells[9], cells[2],
            cells[3])


def _edge_sum(s_hi, a) -> np.ndarray:
    """Σ S·a over the leading (lo, hi) edge axis, S = (1, -S_hi)."""
    return a[0] - s_hi * a[1]


@dataclass(frozen=True)
class ErgodicCapacity(PowerRate):
    """Conditional-ergodic-capacity family (closed-form Υ⁻¹, numeric Υ)."""

    # Υ⁻¹ and its derivatives in closed form --------------------------------
    def cell_data(self, ctx: RegionContext) -> tuple:
        """S_hi and Pr relative to S_lo (_truncated_exp), E[g|R],
        E[g²|R], q_lo, q_hi (0 where it is ∞, as S_hi = 0 there), ḡ, then
        q_lo/ḡ, q_hi/ḡ and Pr·ln2: ``_edges`` reads them, stacked, as
        ``_slopes`` and ``_rate`` do, which read the survivals only over
        Pr."""
        s_hi, pr, m1, m2 = _truncated_exp(ctx)
        lo, g = ctx.q_lo, ctx.mean_gain
        hi = np.where(np.isposinf(ctx.q_hi), 0.0, ctx.q_hi)
        return tuple(np.broadcast_arrays(s_hi, pr, m1, m2, lo, hi, g, lo / g,
                                         hi / g, pr * _LN2))

    @staticmethod
    def _edges(data: tuple, like) -> tuple:
        """_edge_views of the cells of ``cell_data`` broadcast against
        ``like``."""
        return _edge_views(np.stack(np.broadcast_arrays(*data, like)[:-1]))

    def rate_and_derivative(self, data: tuple, power) -> tuple:
        y = _nonneg(power, "power")
        edges = self._edges(data, y)
        deriv, _, e = self._slopes(edges, y)
        return self._rate(edges, y, e), deriv

    @staticmethod
    def _slopes(edges: tuple, y) -> tuple:
        """(Υ⁻¹)', (Υ⁻¹)'' and e on the cells of ``_edges`` from one
        exp12_scaled call. With e = e^t·E1(t), G = e^t·E2(t), u = 1/(yḡ) and
        S = (1, -S_hi) summed over the edges, (Υ⁻¹)' = Σ S·(G + q·e/ḡ)/
        (Pr·ln2·y) does not cancel as y → 0; e' = -G/t and G' = G - e give
        (Υ⁻¹)'', which cancels like 1e-16/(y·E[g|R])²: below y·E[g|R] = 1e-5
        it is its y = 0 value -E[g²|R]/ln2, within 3e-5 relative, ample for
        Newton; its last division skips y there, where the cancellation
        noise over y² can overflow. Below y·E[g|R] = 1e-300, where u
        overflows for subnormal y, (Υ⁻¹)' is its limit E[g|R]/ln2 and y a
        dummy 1 (as in ``_rate``). The guards are formed only when some cell
        lies below them."""
        s_hi, q, qg, g, prl, m1, m2 = edges
        ym1 = y * m1
        guarded = not ym1.min(initial=np.inf) >= 1e-5
        if guarded:
            tiny, small = ym1 < 1e-300, ym1 < 1e-5
            y = np.where(tiny, 1.0, y)
        u = 1.0 / (y * g)
        t = qg + u
        e, big_g = exp12_scaled(t)
        py = prl * y
        deriv = _edge_sum(s_hi, big_g + qg * e) / py
        curv = -(deriv + u * _edge_sum(s_hi, big_g * u / t - e) / py)
        if not guarded:
            return deriv, curv / y, e
        return (np.where(tiny, m1 / _LN2, deriv),
                np.where(small, -m2 / _LN2, curv / np.where(small, 1.0, y)), e)

    @staticmethod
    def _rate(edges: tuple, y, e) -> np.ndarray:
        """Υ⁻¹(y) from the e that ``_slopes`` gave at y, with no exp12_scaled
        call; below y·E[g|R] = 1e-300 its first-order limit y·E[g|R]/ln2."""
        s_hi, q, _, _, prl, m1, _ = edges
        ym1 = y * m1
        tiny = ym1 < 1e-300
        rate = _edge_sum(s_hi, np.log1p(np.where(tiny, 1.0, y) * q) + e) / prl
        return np.where(tiny, ym1 / _LN2, rate)

    def is_outage(self, data: tuple) -> np.ndarray:
        """No outage regions: Υ̇(0) = ln2/E[g|R] is finite."""
        return np.zeros(data[0].shape, dtype=bool)

    # numeric inversions: safeguarded Newton on the closed forms -------------
    def power_of_rate(self, data: tuple, rate) -> np.ndarray:
        """Υ(rate) on ``cell_data``: one root-find on Υ⁻¹ per cell, inside a
        bracket. Concavity of log gives Υ⁻¹(y) ≤ log2(1 + y·m1), and
        integrating the lower Jensen bound on (Υ⁻¹)' (see ``allocation``)
        gives Υ⁻¹(y) ≥ ρ·log2(1 + y·m2/m1), so Υ(x) lies in
        [(2^x - 1)/m1, (2^{x/ρ} - 1)·m1/m2]. Where 2^{x/ρ} overflows, the
        upper end is doubled from 1 instead."""
        edges = self._edges(data, rate)
        m1, m2 = edges[5:]
        x = np.broadcast_to(_nonneg(rate, "rate"), m1.shape)

        def f_df(y):                           # f = 0 where x = 0: Υ(0) = 0
            deriv, _, e = self._slopes(edges, y)
            return np.where(x > 0.0, self._rate(edges, y, e) - x, 0.0), deriv

        with np.errstate(over="ignore"):
            lo = np.expm1(_LN2 * x) / m1
            hi = np.expm1(_LN2 * x * m2 / (m1 * m1)) * m1 / m2
        y = _vec_newton(f_df, lo, np.where(np.isfinite(hi), hi, 1.0),
                        "ergodic power")
        return np.where(x > 0.0, y, 0.0)

    def allocation(self, data: tuple, slope, rate_cap: float) -> tuple:
        """One root-find per active cell, for the power y* with
        (Υ⁻¹)'(y*) = 1/slope; then Υ(R*) = y* and R* = Υ⁻¹(y*), taken from
        the root-find's last live evaluation y' of the cell as Υ⁻¹(y') +
        (Υ⁻¹)'(y')·(y* - y'): |y* - y'| is within the root-find's tolerance,
        so the dropped term (Υ⁻¹)''·(y* - y')²/2 is near 1e-24. Υ⁻¹(y') is
        formed once, after the root-find, from the e that evaluation kept.
        Cells clipped at ``rate_cap`` get Υ(rate_cap) instead. Active cells
        are those with slope > Υ̇(0) = ln2/m1, where m_k = E[g^k|R].

        The root-find starts inside a bracket from Jensen's inequality on
        (Υ⁻¹)'(y) = E[g/(1 + y·g) | R]/ln2. As g ↦ g/(1 + y·g) is concave,
        (Υ⁻¹)'(y) ≤ m1/((1 + y·m1)·ln2); as g ↦ 1/(1 + y·g) is convex under
        the size-biased law g·dP/m1, (Υ⁻¹)'(y) ≥ m1/((1 + y·m2/m1)·ln2).
        Setting each bound to 1/slope gives ρ·y_hi ≤ y* ≤ y_hi with
        y_hi = slope/ln2 - 1/m1, positive on exactly the active cells, and
        ρ = m1²/m2 ≤ 1. The root-find is on F(y) = 1/(Υ⁻¹)'(y) - slope,
        F' = -(Υ⁻¹)''/((Υ⁻¹)')², which the bounds put between the lines
        ln2·(1 + y·m1)/m1 - slope and ln2·(1 + y·m2/m1)/m1 - slope, equal
        for a point-mass gain: Newton from y_hi lands almost on the root."""
        t, cells = _nonneg(slope, "slope"), np.asarray(data)
        active = t > _LN2 / cells[2]
        if cells.shape[1:] != active.shape:     # more slopes than cells
            cells = np.broadcast_to(cells, cells.shape[:1] + active.shape)
        cells, t = cells[:, active], np.broadcast_to(t, active.shape)[active]
        edges = _edge_views(cells)
        m1, m2 = edges[5:]

        def f_df(y):
            deriv, curv, e = self._slopes(edges, y)
            return 1.0 / deriv - t, -curv / (deriv * deriv), deriv, e, y

        # widened by the root-find's absolute tolerance: ρ·y_hi is tight to
        # first order as y* → 0, where rounding in (Υ⁻¹)' can put the root
        # just below it, and y_hi cancels just above Υ̇(0)
        y_hi = t / _LN2 - 1.0 / m1
        lo = np.maximum(m1 * m1 / m2 * y_hi - ROOT_TOL, 0.0)
        hi = np.maximum(y_hi, ROOT_TOL)
        y, deriv, e, y_eval = _vec_newton(f_df, lo, hi,
                                          "ergodic marginal inverse")
        r = self._rate(edges, y_eval, e)
        r += deriv * (y - y_eval)
        capped = r > rate_cap
        if capped.any():
            r[capped] = rate_cap
            y[capped] = self.power_of_rate(cells[:, capped], rate_cap)
        rate, power = np.zeros(active.shape), np.zeros(active.shape)
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
        edges = _edge_views(np.stack(cells)[:, live])
        out[live] = -1.0 / (t[live] ** 3 * self._slopes(edges, y)[1])
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
