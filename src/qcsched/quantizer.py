"""Gain quantization: threshold ladders, region indices and the Pr{J} machinery.

Each (user, channel) pair owns a ladder of L+1 thresholds
0 = q_1 < q_2 < ... < q_{L+1} = ∞ partitioning the gain axis into L half-open
regions [q_l, q_{l+1}); a gain exactly at a threshold belongs to the upper
region. Region indices are 1-based (1..L) throughout the public API.

Region probabilities follow the exponential gain law:
Pr{region l} = e^{-q_l/ḡ} - e^{-q_{l+1}/ḡ}, and a channel column's
probability is the product across users (independent fading).
"""

from __future__ import annotations

from dataclasses import dataclass

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
    # nudge any coincident draws apart; strict monotonicity is an invariant
    eps = 1e-12 * max(hi, 1.0)
    for l in range(1, regions - 1):
        bump = interior[:, :, l] <= interior[:, :, l - 1]
        interior[:, :, l] = np.where(bump, interior[:, :, l - 1] + eps,
                                     interior[:, :, l])
    thr = np.concatenate([
        np.zeros((M, K, 1)),
        interior,
        np.full((M, K, 1), np.inf),
    ], axis=2)
    return QuantizerGrid(thresholds=thr, mean_gain=model.mean_gain)


def quantize(grid: QuantizerGrid, gains: np.ndarray) -> np.ndarray:
    """Map an (M, K) gain matrix (or a stacked (..., M, K) batch) to 1-based
    region indices.

    Membership is half-open, [q_l, q_{l+1}); a gain exactly at an interior
    threshold lands in the upper region.

    Each gain costs ⌈log2 L⌉ threshold comparisons: a branchless binary
    search for the last q_l ≤ g, run on every gain of the batch at once.
    """
    gains = np.asarray(gains, dtype=float)
    M, K, L1 = grid.thresholds.shape
    if gains.shape[-2:] != (M, K):
        raise ValueError("gain matrix shape does not match the grid")
    flat = grid.thresholds.reshape(-1)
    ladder = np.arange(0, M * K * L1, L1).reshape(M, K)    # q_1 of each cell
    # pos is a flat threshold index; invariant: the last q_l <= g lies in
    # [pos, pos + n), which holds at the start because q_1 = 0
    pos = ladder + np.zeros(gains.shape, dtype=np.intp)
    n = L1 - 1
    while n > 1:
        half = n // 2
        # ties go up because of <=
        pos += half * (flat.take(pos + half) <= gains)
        n -= half
    return pos - ladder + 1


def region_prob_table(grid: QuantizerGrid) -> np.ndarray:
    """All region probabilities at once, shape (M, K, L); rows sum to 1."""
    q = grid.thresholds
    g = grid.mean_gain[:, :, None]
    with np.errstate(over="ignore"):
        surv = np.where(np.isposinf(q), 0.0, np.exp(-q / g))
    return surv[:, :, :-1] - surv[:, :, 1:]


def channel_classes(grid: QuantizerGrid):
    """(channels, sizes): the first channel of each class of channels whose
    ladders and mean gains are bitwise equal, in channel order, and the
    class sizes as floats, the weights the class rows carry. Channels of
    one class have identical column laws."""
    keys = np.concatenate([grid.mean_gain[:, :, None], grid.thresholds],
                          axis=2).transpose(1, 0, 2)
    classes = {}
    for k, key in enumerate(keys):
        classes.setdefault(key.tobytes(), []).append(k)
    return (np.array([ks[0] for ks in classes.values()]),
            np.array([len(ks) for ks in classes.values()], dtype=float))


def column_space(grid: QuantizerGrid, budget: int = DEFAULT_ENUM_BUDGET):
    """Dense enumeration, one representative channel per class
    (channel_classes): (columns0, probs, channels) with
    columns0 -- (L^M, M) 0-based region indices, lexicographic;
    probs    -- (n_classes, L^M) column probabilities of each class summed
                over its channels (a row sums to the class size);
    channels -- (n_classes,) the representative channel of each row.
    EnumerationBudgetError if n_classes·L^M exceeds ``budget``.
    """
    M, L = grid.num_users, grid.regions_per_channel
    channels, sizes = channel_classes(grid)
    count = len(channels) * L ** M
    if count > budget:
        raise EnumerationBudgetError(count, budget)
    ranges = [np.arange(L)] * M
    mesh = np.meshgrid(*ranges, indexing="ij")
    cols0 = np.stack([ax.reshape(-1) for ax in mesh], axis=1)   # (C, M)
    rp = region_prob_table(grid)[:, channels].transpose(1, 0, 2)  # (n, M, L)
    # probs[c, j] = sizes[c] · prod_m rp[c, m, cols0[j, m]]
    per_user = rp[:, np.arange(M), cols0]                       # (n, C, M)
    probs = per_user.prod(axis=2) * sizes[:, None]
    return cols0, probs, channels
