"""Fading generator: distribution, independence, reproducible block addressing."""

import numpy as np
import pytest

from qcsched.channel import (FadingModel, sample_gains, sample_gain_blocks,
                             snr_db_to_mean_gain)

# One shared sample tensor: 10^4 blocks of a 2x50 unit-mean model gives 10^6
# iid Exp(1) draws once cross-entry independence (verified below) holds.
_MODEL = FadingModel(np.ones((2, 50)), seed=12345)
_N = 10_000


@pytest.fixture(scope="module")
def draws():
    return sample_gain_blocks(_MODEL, 0, _N)          # (N, 2, 50)


def test_snr_db_mapping():
    assert snr_db_to_mean_gain(0.0) == 1.0
    assert abs(snr_db_to_mean_gain(6.0) - 10 ** 0.6) < 1e-15
    np.testing.assert_allclose(snr_db_to_mean_gain([0.0, 10.0]), [1.0, 10.0])


def test_model_validation():
    with pytest.raises(ValueError):
        FadingModel(np.array([[1.0, -2.0]]))
    with pytest.raises(ValueError):
        FadingModel(np.array([[1.0, np.inf]]))
    with pytest.raises(ValueError):
        FadingModel(np.ones((2, 2)), seed=-1)
    with pytest.raises(ValueError):
        FadingModel(np.ones((2, 2)), seed=2 ** 64)
    m = FadingModel(np.ones((3, 4)), seed=2 ** 64 - 1)
    assert m.num_users == 3 and m.num_channels == 4


def test_same_seed_block_bitwise_identical():
    m = FadingModel(np.full((4, 16), 2.5), seed=77)
    a = sample_gains(m, 123)
    b = sample_gains(m, 123)
    assert a.shape == (4, 16)
    assert np.array_equal(a, b)
    # distinct blocks and distinct seeds give different matrices
    assert not np.array_equal(a, sample_gains(m, 124))
    assert not np.array_equal(a, sample_gains(FadingModel(m.mean_gain, 78), 123))


# (M, K, first block): M·K a multiple of 4 or not (padded counter stride),
# first blocks off the stride, and a block far along the counter
@pytest.mark.parametrize("shape,first", [((2, 3), 5), ((4, 16), 5),
                                         ((3, 3), 7), ((1, 1), 2),
                                         ((2, 3), 2 ** 40)])
def test_blocks_stack_matches_single_calls(shape, first):
    m = FadingModel(np.full(shape, 0.7), seed=9)
    stacked = sample_gain_blocks(m, first, 4)
    assert stacked.shape == (4, *shape)
    for i in range(4):
        assert np.array_equal(stacked[i], sample_gains(m, first + i))
    # a draw equals the same rows of a longer draw that starts earlier
    assert np.array_equal(stacked, sample_gain_blocks(m, first - 2, 9)[2:6])


def test_block_index_validation():
    m = FadingModel(np.ones((1, 1)))
    with pytest.raises(ValueError):
        sample_gains(m, -1)
    with pytest.raises(ValueError):
        sample_gains(m, 2 ** 64)
    with pytest.raises(ValueError):
        sample_gain_blocks(m, 2 ** 64 - 1, 2)
    assert sample_gains(m, 2 ** 64 - 1).shape == (1, 1)


def test_law_of_large_numbers(draws):
    # pooled per-user means; >5e5 draws each, so 1% is a >7 sigma band
    assert abs(draws[:, 0, :].mean() - 1.0) < 0.01
    assert abs(draws[:, 1, :].mean() - 1.0) < 0.01
    # the g_{1,1} stream alone (1e4 draws, 3 sigma band)
    assert abs(draws[:, 0, 0].mean() - 1.0) < 3.0 / np.sqrt(_N)


def test_exponential_cdf_point():
    # P(g <= mean*ln2) = 0.5 for the exponential law; mean gain 4 here
    m = FadingModel(np.full((1, 50), 4.0), seed=31)
    g = sample_gain_blocks(m, 0, 4000).ravel()        # 2e5 draws
    assert abs(np.mean(g <= 4.0 * np.log(2.0)) - 0.5) < 0.01


def test_kolmogorov_smirnov(draws):
    g = np.sort(draws.ravel())                        # 1e6 Exp(1) samples
    n = g.size
    cdf = -np.expm1(-g)
    ecdf_hi = np.arange(1, n + 1) / n
    ecdf_lo = np.arange(0, n) / n
    ks = max(np.max(ecdf_hi - cdf), np.max(cdf - ecdf_lo))
    assert ks < 0.01


def _corr(a, b):
    a = a - a.mean()
    b = b - b.mean()
    return float((a * b).sum() / np.sqrt((a * a).sum() * (b * b).sum()))


def test_cross_entry_and_cross_block_independence(draws):
    # users on the same channel, pooled over channels: ~5e5 pairs
    assert abs(_corr(draws[:, 0, :].ravel(), draws[:, 1, :].ravel())) < 0.01
    # adjacent channels, same user
    assert abs(_corr(draws[:, 0, :-1].ravel(), draws[:, 0, 1:].ravel())) < 0.01
    # consecutive blocks
    assert abs(_corr(draws[:-1].ravel(), draws[1:].ravel())) < 0.01


def test_mean_gain_is_readonly():
    m = FadingModel(np.ones((2, 2)))
    with pytest.raises(ValueError):
        m.mean_gain[0, 0] = 5.0
