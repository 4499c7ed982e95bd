"""Gain quantization: threshold ladders, region indices and the Pr{J} machinery.

Each (user, channel) pair owns a ladder of L+1 thresholds
0 = q_1 < q_2 < ... < q_{L+1} = ∞ partitioning the gain axis into L half-open
regions [q_l, q_{l+1}); a gain exactly at a threshold belongs to the upper
region. Region indices are 1-based (1..L) throughout the public API.

Region probabilities follow the exponential gain law:
Pr{region l} = e^{-q_l/ḡ} - e^{-q_{l+1}/ḡ}, and a channel column's
probability is the product across users (independent fading).

Channels whose ladders and mean gains are bitwise equal form a class
(channel_classes). A grid computes its classes once (QuantizerGrid.classes):
quantize searches the classes' ladders through a per-class guide table,
and every dual.Problem on the grid reads the same classes.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .channel import FadingModel

DEFAULT_ENUM_BUDGET = 10 ** 6


class EnumerationBudgetError(Exception):
    """Raised when n_classes·L^M exceeds the column-enumeration budget."""

    def __init__(self, num_columns: int, budget: int):
        super().__init__(
            f"column space has {num_columns} elements, exceeding the "
            f"enumeration budget of {budget}")
        self.num_columns = num_columns
        self.budget = budget


@dataclass(frozen=True)
class QuantizerGrid:
    """Threshold ladders (M, K, L+1) and the mean gains they quantize.

    ``mean_gain`` is carried so that the grid is self-contained for
    probability queries. L ≥ 1 is accepted for custom ladders (L = 1 models a
    feedback-free / single-region channel); the equiprobable builder requires
    L ≥ 2.
    """

    thresholds: np.ndarray
    mean_gain: np.ndarray

    def __post_init__(self):
        thr = np.asarray(self.thresholds, dtype=float)
        mg = np.asarray(self.mean_gain, dtype=float)
        if thr.ndim != 3 or thr.shape[2] < 2:
            raise ValueError("thresholds must have shape (M, K, L+1) with L >= 1")
        if mg.shape != thr.shape[:2]:
            raise ValueError("mean_gain shape must match thresholds (M, K)")
        if np.any(mg <= 0) or not np.all(np.isfinite(mg)):
            raise ValueError("mean gains must be finite and positive")
        if np.any(thr[:, :, 0] != 0.0):
            raise ValueError("every ladder must start at q_1 = 0")
        if not np.all(np.isposinf(thr[:, :, -1])):
            raise ValueError("every ladder must end at q_{L+1} = +inf")
        if not np.all(thr[:, :, 1:] > thr[:, :, :-1]):  # NaN, inf fail too
            raise ValueError("thresholds must be strictly increasing")
        thr = thr.copy()
        thr.setflags(write=False)
        mg = mg.copy()
        mg.setflags(write=False)
        object.__setattr__(self, "thresholds", thr)
        object.__setattr__(self, "mean_gain", mg)

    @property
    def num_users(self) -> int:
        return self.thresholds.shape[0]

    @property
    def num_channels(self) -> int:
        return self.thresholds.shape[1]

    @property
    def regions_per_channel(self) -> int:
        return self.thresholds.shape[2] - 1

    @cached_property
    def classes(self) -> tuple:
        """channel_classes on this grid, computed once and kept: quantize
        searches the classes' ladders and dual.Problem reads them too."""
        return channel_classes(self)

    @cached_property
    def _ladders(self) -> tuple:
        """The classes' ladders, flat (M·n_classes·(L+1)), and the flat index
        of q_1 of each cell's class ladder minus 1 (M, K), which turns a flat
        position into a 1-based region."""
        channels, _, of = self.classes
        M, L1 = self.num_users, self.thresholds.shape[2]
        first = (np.arange(M)[:, None] * len(channels) + of) * L1 - 1
        return self.thresholds[:, channels].reshape(-1), first

    @cached_property
    def _guide(self):
        # finding the bucket costs about two search levels, and below L = 9
        # a search has at most three, so there the table cannot pay
        return _guide_table(self) if self.regions_per_channel > 8 else None


def build_equiprobable(model: FadingModel, regions: int) -> QuantizerGrid:
    """Ladders with Pr{region l} = 1/L exactly under the exponential gain law.

    Closed-form CDF inversion: q_{m,k,l} = -ḡ_{m,k} · ln(1 - (l-1)/L).
    (This is this library's interpretation of an "equally probable" quantizer;
    constructions tuned to other criteria can be supplied as custom ladders.)
    """
    if regions < 2:
        raise ValueError("equiprobable construction requires L >= 2")
    L = int(regions)
    frac = np.arange(L + 1) / L                     # (L+1,)
    with np.errstate(divide="ignore"):
        base = -np.log1p(-frac)                     # 0 ... +inf
    thr = model.mean_gain[:, :, None] * base[None, None, :]
    return QuantizerGrid(thresholds=thr, mean_gain=model.mean_gain)


def build_random(model: FadingModel, regions: int, gain_range, seed: int) -> QuantizerGrid:
    """Ladders from sorted uniform draws over ``gain_range`` (lo, hi).

    Supports comparisons against deliberately uninformed quantizers. The
    interior L-1 thresholds are iid uniform per (m, k), sorted; ends pinned
    at 0 and +inf as always.
    """
    if regions < 2:
        raise ValueError("random construction requires L >= 2")
    lo, hi = float(gain_range[0]), float(gain_range[1])
    if not (0.0 <= lo < hi) or not np.isfinite(hi):
        raise ValueError("gain_range must satisfy 0 <= lo < hi < inf")
    M, K = model.num_users, model.num_channels
    rng = np.random.Generator(np.random.Philox(key=np.array([seed, 0],
                                                            dtype=np.uint64)))
    interior = np.sort(rng.uniform(lo, hi, size=(M, K, regions - 1)), axis=2)
    # nudge any coincident draws apart by one ulp; strict monotonicity is
    # an invariant
    for l in range(1, regions - 1):
        interior[:, :, l] = np.maximum(
            interior[:, :, l], np.nextafter(interior[:, :, l - 1], np.inf))
    thr = np.concatenate([
        np.zeros((M, K, 1)),
        interior,
        np.full((M, K, 1), np.inf),
    ], axis=2)
    return QuantizerGrid(thresholds=thr, mean_gain=model.mean_gain)


def _descend(flat, pos, n, gains):
    # moves flat indices pos in place to the last q_l <= g in [pos, pos + n)
    while n > 1:
        half = n // 2
        pos += half * (flat[half:].take(pos) <= gains)     # ties go up
        n -= half
    return pos


def _guide_table(grid: QuantizerGrid):
    """``quantize``'s guide table (Chen & Asau, 1974) over the classes'
    ladders: (table, n, B, cell). B buckets per class, 4L where the table
    fits in the grid's thresholds' bytes, else L; flat starts into the class
    ladders laid out (M, n_classes, B+1) (entry B repeats B-1, for u = 1);
    the width n; and the flat index of each cell's class row (M, K). None
    when n does not save two search levels."""
    channels, _, of = grid.classes
    M, K, L1 = grid.thresholds.shape
    L, n_cls = L1 - 1, len(channels)
    B = 4 * L if n_cls * (4 * L + 1) <= K * L1 else L
    with np.errstate(divide="ignore"):
        base = -np.log1p(-np.clip(np.arange(-1, B + 2), 0, B) / B)
    edges = base[:, None, None] * grid.mean_gain[:, channels]  # E_-1..E_B+1
    flat, _ = grid._ladders
    ladder = np.arange(0, M * n_cls * L1, L1).reshape(M, n_cls)
    region = _descend(flat, ladder + np.zeros(edges.shape, dtype=np.intp), L,
                      edges) - ladder
    n = int((region[3:] - region[:-3]).max()) + 1       # E_{b-1} .. E_{b+2}
    if (n - 1).bit_length() > (L - 1).bit_length() - 2:
        return None
    # start + n stays at or below q_{L+1}, which must never be read
    starts = np.minimum(region[np.r_[:B, B - 1]], L - n)   # (B+1, M, n_cls)
    table = (np.moveaxis(starts, 0, -1) + ladder[:, :, None]).reshape(-1)
    table.setflags(write=False)
    cell = (np.arange(M)[:, None] * n_cls + of) * (B + 1)
    return table, n, B, cell


def quantize(grid: QuantizerGrid, gains: np.ndarray) -> np.ndarray:
    """Map an (M, K) gain matrix (or a stacked (..., M, K) batch) to 1-based
    region indices.

    Membership is half-open, [q_l, q_{l+1}); a gain exactly at an interior
    threshold lands in the upper region, and +inf in region L. NaN and
    negative gains raise ValueError.

    A branchless binary search for the last q_l <= g runs on the whole batch
    over the ladders of the grid's channel classes (``classes``), which a
    batch's cells share: ⌈log2 L⌉ levels from q_1, each a gather, a
    comparison and an add. The grid's guide table splits each class's CDF
    u = -expm1(-g/ḡ) into B buckets, B = 4L where the table fits in the
    grid's thresholds' bytes, else L; bucket b starts at the region of
    E_{b-1} = -ḡ·log1p(-(b-1)/B), and the search then needs ⌈log2 n⌉
    levels, n the widest region span from E_{b-1} to E_{b+2}. Finding b
    costs about two levels, so the table serves only where it saves two:
    equiprobable ladders have n = 2, one level, at 4L buckets, and n <= 4 at
    L. It is exact, since rounding moves u and the edges by a few ulps, far
    less than the one bucket of padding on each side of b.
    """
    gains = np.asarray(gains, dtype=float)
    M, K, L1 = grid.thresholds.shape
    if gains.shape[-2:] != (M, K):
        raise ValueError("gain matrix shape does not match the grid")
    if gains.size and not gains.min() >= 0.0:               # NaN fails too
        raise ValueError(
            f"gains must be non-negative: {np.count_nonzero(np.isnan(gains))} "
            f"NaN and {np.count_nonzero(gains < 0.0)} negative")
    flat, first = grid._ladders
    guide = grid._guide
    if guide is None:                                       # q_1 = 0 <= g
        pos, n = first + np.ones(gains.shape, dtype=np.intp), L1 - 1
    else:
        table, n, buckets, cell = guide
        with np.errstate(over="ignore"):                  # huge g/ḡ: u = 1
            t = gains / -grid.mean_gain
        np.expm1(t, out=t)
        t *= -buckets                                       # B·u in [0, B]
        pos = t.astype(np.intp)
        pos += cell
        pos = table.take(pos)
    pos = _descend(flat, pos, n, gains)
    pos -= first
    return pos


def region_prob_table(grid: QuantizerGrid) -> np.ndarray:
    """All region probabilities at once, shape (M, K, L); rows sum to 1."""
    q = grid.thresholds
    g = grid.mean_gain[:, :, None]
    with np.errstate(over="ignore"):
        surv = np.where(np.isposinf(q), 0.0, np.exp(-q / g))
    return surv[:, :, :-1] - surv[:, :, 1:]


def channel_classes(grid: QuantizerGrid):
    """(channels, sizes, of): the first channel of each class of channels
    whose ladders and mean gains are bitwise equal, in channel order; the
    class sizes as floats, the weights the class rows carry; and the class
    of each channel (K,). Channels of one class have identical column
    laws."""
    keys = np.concatenate([grid.mean_gain[:, :, None], grid.thresholds],
                          axis=2).transpose(1, 0, 2)
    first = {}
    reps = [first.setdefault(key.tobytes(), k) for k, key in enumerate(keys)]
    channels = np.array(list(first.values()))           # ascending
    of = channels.searchsorted(reps)
    return channels, np.bincount(of).astype(float), of


def column_space(probs: np.ndarray, sizes, budget: int = DEFAULT_ENUM_BUDGET):
    """Dense enumeration of every class's L^M columns, from the classes'
    region probabilities ``probs`` (M, n, L) and sizes (n,): (index,
    column_probs) with
    index        -- (M, J) flat index of each (class, column) cell into
                    (M, n, L) tables, J = n·L^M, in (class, column) order
                    and the columns lexicographic (user 0's region slowest);
    column_probs -- (J,) Π_m probs at those cells times the class's size,
                    so each class's columns sum to its size.
    EnumerationBudgetError if J exceeds ``budget``.
    """
    M, n, L = probs.shape
    count = n * L ** M
    if count > budget:
        raise EnumerationBudgetError(count, budget)
    cell = np.arange(0, M * n * L, L).reshape(M, n, 1)     # region 1 of each
    index = (cell + np.indices((L,) * M).reshape(M, 1, -1)).reshape(M, -1)
    return index, probs.take(index).prod(axis=0) * np.repeat(sizes, L ** M)
