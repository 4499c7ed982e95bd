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

import itertools
import json
from dataclasses import dataclass

import numpy as np

from .channel import FadingModel

DEFAULT_ENUM_BUDGET = 10 ** 6


class EnumerationBudgetError(Exception):
    """Raised when L^M exceeds the configured column-enumeration budget."""

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
        if np.any(np.diff(thr, axis=2) <= 0):
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

    def to_json(self) -> str:
        """Serialize to JSON; +inf thresholds are encoded as the string "inf"."""
        def enc(v):
            return "inf" if np.isposinf(v) else float(v)
        payload = {
            "mean_gain": self.mean_gain.tolist(),
            "thresholds": [[[enc(v) for v in ladder] for ladder in row]
                           for row in self.thresholds],
        }
        return json.dumps(payload)

    @classmethod
    def from_json(cls, text: str) -> "QuantizerGrid":
        payload = json.loads(text)

        def dec(v):
            return np.inf if v == "inf" else float(v)
        thr = np.array([[[dec(v) for v in ladder] for ladder in row]
                        for row in payload["thresholds"]])
        return cls(thresholds=thr, mean_gain=np.array(payload["mean_gain"]))


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


def region_prob(grid: QuantizerGrid, m: int, k: int, l: int) -> float:
    """Pr{[J]_{m,k} = l} = e^{-q_l/ḡ} - e^{-q_{l+1}/ḡ} (l is 1-based)."""
    if not (1 <= l <= grid.regions_per_channel):
        raise ValueError("region index out of range")
    q = grid.thresholds[m, k]
    g = grid.mean_gain[m, k]
    hi = 0.0 if np.isposinf(q[l]) else np.exp(-q[l] / g)
    return float(np.exp(-q[l - 1] / g) - hi)


def region_prob_table(grid: QuantizerGrid) -> np.ndarray:
    """All region probabilities at once, shape (M, K, L); rows sum to 1."""
    q = grid.thresholds
    g = grid.mean_gain[:, :, None]
    with np.errstate(over="ignore"):
        surv = np.where(np.isposinf(q), 0.0, np.exp(-q / g))
    return surv[:, :, :-1] - surv[:, :, 1:]


def column_prob(grid: QuantizerGrid, k: int, col) -> float:
    """Pr{[J]_k = j}: product over users of their region probabilities."""
    col = np.asarray(col, dtype=int)
    if col.shape != (grid.num_users,):
        raise ValueError("column must hold one region index per user")
    p = 1.0
    for m in range(grid.num_users):
        p *= region_prob(grid, m, k, int(col[m]))
    return p


def enumerate_columns(num_users: int, regions: int,
                      budget: int = DEFAULT_ENUM_BUDGET):
    """Yield every Q-CSI column (1-based region per user) exactly once,
    in lexicographic order. Raises EnumerationBudgetError if L^M > budget."""
    count = regions ** num_users
    if count > budget:
        raise EnumerationBudgetError(count, budget)
    for combo in itertools.product(range(1, regions + 1), repeat=num_users):
        yield np.array(combo, dtype=int)


def column_space(grid: QuantizerGrid, budget: int = DEFAULT_ENUM_BUDGET):
    """Dense enumeration helper: (columns0, probs) with
    columns0 -- (L^M, M) 0-based region indices, lexicographic;
    probs    -- (K, L^M) per-channel column probabilities (each row sums to 1).
    """
    M, K, L = grid.num_users, grid.num_channels, grid.regions_per_channel
    count = L ** M
    if count > budget:
        raise EnumerationBudgetError(count, budget)
    ranges = [np.arange(L)] * M
    mesh = np.meshgrid(*ranges, indexing="ij")
    cols0 = np.stack([ax.reshape(-1) for ax in mesh], axis=1)   # (C, M)
    rp = region_prob_table(grid).transpose(1, 0, 2)             # (K, M, L)
    # probs[k, c] = prod_m rp[k, m, cols0[c, m]]
    per_user = rp[:, np.arange(M), cols0]                       # (K, C, M)
    probs = per_user.prod(axis=2)
    return cols0, probs
