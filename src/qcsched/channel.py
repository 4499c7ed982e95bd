"""Rayleigh block-fading gain generation with O(1) reproducible block addressing.

The physical model: M users share K orthogonal channels; the instantaneous
power gain of user m on channel k is exponentially distributed with mean
``mean_gain[m, k]`` (squared magnitude of a complex Gaussian tap, unit-variance
noise normalization, so the mean gain doubles as the average SNR in linear
units). Gains are independent across users, channels and fading blocks.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


def snr_db_to_mean_gain(snr_db) -> np.ndarray:
    """Map average SNR in dB to mean linear gain under unit noise variance."""
    return np.asarray(10.0 ** (np.asarray(snr_db, dtype=float) / 10.0))


@dataclass(frozen=True)
class FadingModel:
    """Fading environment: mean gains ḡ_{m,k} (M x K) plus an RNG seed.

    Invariants: M ≥ 1, K ≥ 1, every mean gain finite and > 0. Identical
    (model, block_index) pairs reproduce identical gain matrices bit for bit.
    """

    mean_gain: np.ndarray
    seed: int = 0

    def __post_init__(self):
        mg = np.atleast_2d(np.asarray(self.mean_gain, dtype=float))
        if mg.ndim != 2 or mg.size == 0:
            raise ValueError("mean_gain must be a nonempty M x K matrix")
        if not np.all(np.isfinite(mg)) or np.any(mg <= 0.0):
            raise ValueError("mean gains must be finite and strictly positive")
        if not (0 <= int(self.seed) < 2 ** 64):
            raise ValueError("seed must fit in 64 bits")
        mg = mg.copy()
        mg.setflags(write=False)
        object.__setattr__(self, "mean_gain", mg)
        object.__setattr__(self, "seed", int(self.seed))

    @property
    def num_users(self) -> int:
        return self.mean_gain.shape[0]

    @property
    def num_channels(self) -> int:
        return self.mean_gain.shape[1]


def _block_rng(seed: int, block_index: int) -> np.random.Generator:
    # 128-bit Philox key = (seed, block); distinct keys give independent
    # streams, so block addressing is O(1) and parallel-safe.
    key = np.array([seed, block_index], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def sample_gains(model: FadingModel, block_index: int) -> np.ndarray:
    """Draw the M x K gain matrix for one fading block.

    Entries are independent exponentials with means ``model.mean_gain``;
    the draw is a pure function of (model.seed, block_index).
    """
    if block_index < 0 or block_index >= 2 ** 64:
        raise ValueError("block_index must be a nonnegative 64-bit integer")
    rng = _block_rng(model.seed, int(block_index))
    return rng.exponential(model.mean_gain)


def sample_gain_blocks(model: FadingModel, first_block: int,
                       num_blocks: int) -> np.ndarray:
    """Stack ``num_blocks`` consecutive gain matrices, shape (N, M, K).

    Equivalent to calling :func:`sample_gains` block by block (same streams),
    batched for Monte-Carlo evaluation loops.
    """
    out = np.empty((num_blocks, model.num_users, model.num_channels))
    for i in range(num_blocks):
        out[i] = sample_gains(model, first_block + i)
    return out
