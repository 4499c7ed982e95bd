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

MAX_SEED = 2 ** 64 - 1  # a seed is one word of a two-word Philox key


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
        if not 0 <= int(self.seed) <= MAX_SEED:
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


_GAIN_STREAM = 1    # second key word: build_random keys ladders (seed, 0)


def sample_gains(model: FadingModel, block_index: int) -> np.ndarray:
    """The M x K gain matrix of one fading block, a pure function of
    (model.seed, block_index): row 0 of a one-block draw."""
    return sample_gain_blocks(model, block_index, 1)[0]


def sample_gain_blocks(model: FadingModel, first_block: int,
                       num_blocks: int) -> np.ndarray:
    """Stack ``num_blocks`` consecutive gain matrices, shape (N, M, K).

    One Philox stream per seed, keyed (seed, _GAIN_STREAM): block b owns the
    s = ⌈M·K/4⌉ counter steps from b·s (four 64-bit words each), so any block
    is O(1)-addressable and a chunk is one draw of uniforms mapped in place
    to inverse-CDF exponentials −ḡ·log1p(−u) (Salmon et al., SC'11). A draw
    equals the same rows of any longer draw that starts at or before it.
    """
    first_block, num_blocks = int(first_block), int(num_blocks)
    if first_block < 0 or num_blocks < 0 or first_block + num_blocks > 2 ** 64:
        raise ValueError("block indices must be nonnegative 64-bit integers")
    M, K = model.num_users, model.num_channels
    stride = -(-M * K // 4)
    bitgen = np.random.Philox(key=np.array([model.seed, _GAIN_STREAM],
                                           dtype=np.uint64))
    bitgen.advance(first_block * stride)
    u = np.random.Generator(bitgen).random((num_blocks, 4 * stride))
    gains = u[:, :M * K]
    np.log1p(np.negative(gains, out=gains), out=gains)
    gains *= -model.mean_gain.reshape(-1)
    return gains.reshape(num_blocks, M, K)
