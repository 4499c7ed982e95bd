"""Threshold ladders, region indexing and the Pr{J} probability machinery."""

import itertools
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from qcsched import quantizer as qz
from qcsched.channel import FadingModel, sample_gain_blocks
from qcsched.quantizer import (EnumerationBudgetError, QuantizerGrid,
                               build_equiprobable, build_random,
                               channel_classes, column_space, quantize,
                               region_prob_table)

from oracles import column_prob, enumerate_columns, region_prob

LN2 = np.log(2.0)


def _unit_model(M=1, K=1, mean=1.0, seed=0):
    return FadingModel(np.full((M, K), float(mean)), seed=seed)


# --- construction -------------------------------------------------------------

def test_equiprobable_l2_thresholds():
    grid = build_equiprobable(_unit_model(), 2)
    np.testing.assert_array_equal(grid.thresholds[0, 0, :2], [0.0, LN2])
    assert np.isposinf(grid.thresholds[0, 0, 2])


def test_equiprobable_probabilities_exact():
    grid = build_equiprobable(_unit_model(2, 3), 4)
    table = region_prob_table(grid)
    np.testing.assert_allclose(table, 0.25, rtol=0, atol=1e-15)
    for l in range(1, 5):
        assert abs(region_prob(grid, 1, 2, l) - 0.25) < 1e-15


def test_equiprobable_scales_with_mean_gain():
    g1 = build_equiprobable(_unit_model(mean=1.0), 4)
    g10 = build_equiprobable(_unit_model(mean=10.0), 4)
    np.testing.assert_allclose(g10.thresholds[0, 0, 1:-1],
                               10.0 * g1.thresholds[0, 0, 1:-1], rtol=1e-15)


def test_equiprobable_requires_two_regions():
    with pytest.raises(ValueError):
        build_equiprobable(_unit_model(), 1)


def test_grid_validation():
    ok = np.array([[[0.0, 1.0, np.inf]]])
    QuantizerGrid(ok, np.ones((1, 1)))
    with pytest.raises(ValueError):        # must start at 0
        QuantizerGrid(np.array([[[0.1, 1.0, np.inf]]]), np.ones((1, 1)))
    with pytest.raises(ValueError):        # must end at +inf
        QuantizerGrid(np.array([[[0.0, 1.0, 2.0]]]), np.ones((1, 1)))
    for thr in ([0.0, 1.0, 1.0, np.inf], [0.0, np.nan, np.inf],
                [0.0, np.inf, np.inf]):
        # strictly increasing, NaN fails, and no warning comes first
        with pytest.raises(ValueError), warnings.catch_warnings():
            warnings.simplefilter("error")
            QuantizerGrid(np.array([[thr]]), np.ones((1, 1)))
    with pytest.raises(ValueError):        # mean gain positive
        QuantizerGrid(ok, np.zeros((1, 1)))
    with pytest.raises(ValueError):        # shape agreement
        QuantizerGrid(ok, np.ones((2, 1)))


def test_single_region_ladder_allowed():
    grid = QuantizerGrid(np.array([[[0.0, np.inf]]]), np.ones((1, 1)))
    assert grid.regions_per_channel == 1
    assert region_prob(grid, 0, 0, 1) == 1.0


def test_build_random_properties():
    model = _unit_model(3, 5, mean=2.0)
    grid = build_random(model, 6, (0.0, 8.0), seed=42)
    thr = grid.thresholds
    assert thr.shape == (3, 5, 7)
    assert np.all(thr[:, :, 0] == 0.0)
    assert np.all(np.isposinf(thr[:, :, -1]))
    assert np.all(np.diff(thr[:, :, :-1], axis=2) > 0)
    assert np.all(thr[:, :, 1:-1] <= 8.0 + 1e-9)
    # seeded determinism
    again = build_random(model, 6, (0.0, 8.0), seed=42)
    np.testing.assert_array_equal(thr, again.thresholds)
    other = build_random(model, 6, (0.0, 8.0), seed=43)
    assert not np.array_equal(thr, other.thresholds)
    with pytest.raises(ValueError):
        build_random(model, 4, (3.0, 1.0), seed=0)
    with pytest.raises(ValueError):
        build_random(model, 4, (0.0, np.inf), seed=0)


# --- quantize ------------------------------------------------------------------

def test_quantize_edges_and_boundaries():
    grid = build_equiprobable(_unit_model(), 2)
    assert quantize(grid, np.array([[0.0]]))[0, 0] == 1
    # a gain exactly at an interior threshold belongs to the upper region
    assert quantize(grid, np.array([[LN2]]))[0, 0] == 2
    assert quantize(grid, np.array([[np.nextafter(LN2, 0.0)]]))[0, 0] == 1
    assert quantize(grid, np.array([[1e9]]))[0, 0] == 2


def test_quantize_batched_and_shape_check():
    model = _unit_model(2, 3)
    grid = build_equiprobable(model, 4)
    gains = sample_gain_blocks(model, 0, 10)
    j = quantize(grid, gains)
    assert j.shape == (10, 2, 3)
    assert j.min() >= 1 and j.max() <= 4
    np.testing.assert_array_equal(j[4], quantize(grid, gains[4]))
    with pytest.raises(ValueError):
        quantize(grid, np.ones((3, 2)))


def test_quantize_agrees_with_searchsorted_oracle():
    rng = np.random.default_rng(5)
    model = _unit_model(2, 2, mean=1.5)
    grid = build_random(model, 5, (0.0, 6.0), seed=11)
    gains = rng.exponential(1.5, size=(200, 2, 2))
    got = quantize(grid, gains)
    for m in range(2):
        for k in range(2):
            ref = np.searchsorted(grid.thresholds[m, k, 1:-1], gains[:, m, k],
                                  side="right") + 1
            np.testing.assert_array_equal(got[:, m, k], ref)


def _threshold_count(grid, gains):
    """The defining rule: 1 + the number of interior thresholds <= g."""
    gains = np.asarray(gains, dtype=float)
    return 1 + (gains[..., None] >= grid.thresholds[:, :, 1:-1]).sum(axis=-1)


@settings(max_examples=80, deadline=None)
@given(L=st.integers(1, 40), ladder=st.sampled_from(["equiprobable", "random"]),
       seed=st.integers(0, 2 ** 31),
       gains=arrays(np.float64, (6, 2, 3),
                    elements=st.floats(0.0, 1e300, allow_subnormal=True)))
def test_quantize_matches_threshold_count(L, ladder, seed, gains):
    rng = np.random.default_rng(seed)
    model = FadingModel(rng.uniform(0.2, 5.0, size=(2, 3)), seed=0)
    if L == 1:
        grid = QuantizerGrid(np.tile([0.0, np.inf], (2, 3, 1)), model.mean_gain)
    elif ladder == "random":
        grid = build_random(model, L, (0.0, 6.0), seed=seed)
    else:
        grid = build_equiprobable(model, L)
    # overwrite some gains with 0, a huge gain, an exact threshold of the
    # gain's own ladder, or the double just below that threshold
    thr = np.broadcast_to(grid.thresholds, (6, 2, 3, L + 1))
    at = np.take_along_axis(thr, rng.integers(0, L, size=(6, 2, 3, 1)),
                            axis=-1)[..., 0]
    kind = rng.integers(0, 5, size=gains.shape)
    gains = np.select([kind == 1, kind == 2, kind == 3, kind == 4],
                      [at, np.nextafter(at, 0.0), 0.0, 1e300], gains)
    got = quantize(grid, gains)
    np.testing.assert_array_equal(got, _threshold_count(grid, gains))
    for i in range(len(gains)):
        np.testing.assert_array_equal(quantize(grid, gains[i]), got[i])


# --- probabilities -------------------------------------------------------------

def test_region_prob_by_hand():
    grid = QuantizerGrid(np.array([[[0.0, LN2, np.inf]]]), np.ones((1, 1)))
    assert abs(region_prob(grid, 0, 0, 1) - 0.5) < 1e-15
    assert abs(region_prob(grid, 0, 0, 2) - 0.5) < 1e-15
    with pytest.raises(ValueError):
        region_prob(grid, 0, 0, 3)


def test_region_probs_sum_to_one():
    model = _unit_model(3, 4, mean=2.3, seed=1)
    for grid in (build_equiprobable(model, 7),
                 build_random(model, 5, (0.0, 10.0), seed=3)):
        table = region_prob_table(grid)
        np.testing.assert_allclose(table.sum(axis=2), 1.0, rtol=0, atol=1e-12)
        assert np.all(table > 0)


def test_top_region_prob_is_survival():
    grid = build_random(_unit_model(mean=2.0), 4, (0.0, 5.0), seed=8)
    qL = grid.thresholds[0, 0, -2]
    assert abs(region_prob(grid, 0, 0, 4) - np.exp(-qL / 2.0)) < 1e-15


def test_column_prob_product_form():
    grid = build_equiprobable(_unit_model(2, 1), 4)
    for col in itertools.product((1, 2, 3, 4), repeat=2):
        assert abs(column_prob(grid, 0, np.array(col)) - 1 / 16) < 1e-15
    g1 = build_equiprobable(_unit_model(1, 1), 4)
    assert column_prob(g1, 0, [3]) == region_prob(g1, 0, 0, 3)
    with pytest.raises(ValueError):
        column_prob(grid, 0, [1, 2, 3])


def test_column_prob_monte_carlo():
    # mixed ladders; empirical column frequency within 3 sigma binomial bounds
    model = FadingModel(np.array([[1.0], [2.5], [0.7]]), seed=21)
    grid = build_random(model, 3, (0.0, 4.0), seed=9)
    n = 100_000
    j = quantize(grid, sample_gain_blocks(model, 0, n))[:, :, 0]   # (n, 3)
    for col in ([1, 1, 1], [2, 3, 1], [3, 2, 2]):
        p = column_prob(grid, 0, col)
        freq = np.mean(np.all(j == col, axis=1))
        sigma = np.sqrt(p * (1 - p) / n)
        assert abs(freq - p) < 3 * sigma + 1e-12


# --- enumeration ---------------------------------------------------------------

def test_enumerate_columns_counts_and_order():
    cols = list(enumerate_columns(1, 4))
    assert [int(c[0]) for c in cols] == [1, 2, 3, 4]
    cols = list(enumerate_columns(4, 4))
    assert len(cols) == 256
    assert len({tuple(c) for c in cols}) == 256
    assert len(list(enumerate_columns(6, 4))) == 4096
    # lexicographic order
    cols = [tuple(c) for c in enumerate_columns(2, 3)]
    assert cols == sorted(cols)
    assert cols[0] == (1, 1) and cols[-1] == (3, 3)


def test_enumeration_budget_error():
    with pytest.raises(EnumerationBudgetError) as ei:
        list(enumerate_columns(10, 4, budget=1000))
    assert ei.value.num_columns == 4 ** 10
    assert ei.value.budget == 1000
    grid = build_equiprobable(_unit_model(4, 1), 4)
    with pytest.raises(EnumerationBudgetError):
        column_space(grid, budget=255)


def test_column_space_matches_bruteforce():
    # channels 0 and 2 are copies, channel 1 differs: two classes, and each
    # class row is the sum of its channels' brute-force rows
    model = FadingModel(np.array([[1.0, 2.0], [0.5, 3.0]]), seed=0)
    base = build_random(model, 3, (0.0, 5.0), seed=17)
    grid = QuantizerGrid(base.thresholds[:, [0, 1, 0]],
                         base.mean_gain[:, [0, 1, 0]])
    cols0, probs, channels = column_space(grid)
    assert cols0.shape == (9, 2) and probs.shape == (2, 9)
    np.testing.assert_array_equal(channels, [0, 1])
    np.testing.assert_allclose(probs.sum(axis=1), [2.0, 1.0], atol=1e-12)
    for row, members in enumerate(([0, 2], [1])):
        for c, col0 in enumerate(cols0):
            brute = sum(column_prob(grid, k, col0 + 1) for k in members)
            assert abs(probs[row, c] - brute) < 1e-15
    # lexicographic agreement with the iterator
    it = np.stack(list(enumerate_columns(2, 3))) - 1
    np.testing.assert_array_equal(cols0, it)


def test_channel_classes_need_bitwise_equal_channels():
    # same ladders, one mean gain one ulp apart: two classes; ladders and
    # mean gains both equal: one class, represented by its first channel
    mg = np.array([[1.0, 1.0, np.nextafter(1.0, 2.0), 1.0]])
    thr = np.tile(np.array([0.0, 0.5, np.inf]), (1, 4, 1))
    channels, counts = channel_classes(QuantizerGrid(thr, mg))
    np.testing.assert_array_equal(channels, [0, 2])
    np.testing.assert_array_equal(counts, [3, 1])
    thr[0, 1, 1] = 0.25
    channels, counts = channel_classes(QuantizerGrid(thr, mg))
    np.testing.assert_array_equal(channels, [0, 1, 2])
    np.testing.assert_array_equal(counts, [2, 1, 1])


@settings(max_examples=50, deadline=None)
@given(st.floats(0.0, 50.0), st.integers(2, 8))
def test_quantize_in_range_property(g, L):
    grid = build_equiprobable(_unit_model(mean=1.3), L)
    j = int(quantize(grid, np.array([[g]]))[0, 0])
    assert 1 <= j <= L
    assert region_prob(grid, 0, 0, j) > 0
