"""Hypothesis properties of the quantile and label-set kernels."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from confdet.classification import prediction_set_matrix, set_totals, sets_from_totals
from confdet.core import RAPSConfig
from confdet.errors import DataError, InvalidClass, MissingClass, OutOfRange
from confdet.regression import (
    _order_rank,
    conformal_quantile,
    group_quantiles,
    masked_group_quantiles,
    presort_groups,
)

import reference
from reference import exact_rank

# typed levels such as 0.72 sit on integer boundaries of (n + 1)(1 - alpha)
levels = st.one_of(
    st.integers(1, 999).map(lambda k: k / 1000),
    st.floats(1e-9, 1 - 1e-9, exclude_min=True, exclude_max=True),
)
# few distinct values, so ties are common
score_values = st.one_of(st.sampled_from([0.0, 0.5, 1.0, 2.0]), st.floats(0, 1e6))


@given(st.integers(1, 10**6), levels)
def test_property_order_rank_is_exact_ceil(n, alpha):
    expected = exact_rank(n, alpha)
    assert _order_rank(n, alpha) == expected
    # a repeat, and the same level as a numpy scalar, hit the cache and agree
    assert _order_rank(n, alpha) == expected
    assert _order_rank(np.int64(n), np.float64(alpha)) == expected


def test_order_rank_on_integer_boundaries():
    # the float products 10 * (1 - 0.7) and 25 * (1 - 0.72) overshoot 3 and 7
    assert _order_rank(9, 0.7) == 3
    assert _order_rank(24, 0.72) == 7
    assert _order_rank(19, 0.05) == 19


@st.composite
def score_matrices(draw):
    n = draw(st.integers(1, 30))
    m = draw(st.integers(1, 5))
    return draw(arrays(float, (n, m), elements=score_values))


def pooled(scores):
    """One group id per row of ``scores``: the class-agnostic fit."""
    return np.zeros(len(scores), dtype=int)


@given(score_matrices(), levels)
def test_property_pooled_quantiles_match_order_statistic_oracle(scores, alpha):
    q, counts = group_quantiles(scores, alpha, pooled(scores), 1)
    assert q.shape == (1, scores.shape[1]) and counts.tolist() == [len(scores)]
    expected = [reference.conformal_quantile(scores[:, c], alpha) for c in range(scores.shape[1])]
    assert q[0].tolist() == expected
    assert [conformal_quantile(scores[:, c], alpha) for c in range(scores.shape[1])] == expected


@given(score_matrices(), levels, st.data())
def test_property_nan_raises_in_both_forms(scores, alpha, data):
    i = data.draw(st.integers(0, scores.shape[0] - 1))
    c = data.draw(st.integers(0, scores.shape[1] - 1))
    scores[i, c] = math.nan
    with pytest.raises(DataError):
        group_quantiles(scores, alpha, pooled(scores), 1)
    with pytest.raises(DataError):
        conformal_quantile(scores[:, c], alpha)


@st.composite
def grouped_scores(draw):
    """Scores with a group id per row; every group in [0, g) has a row."""
    g = draw(st.integers(1, 4))
    extra = draw(st.lists(st.integers(0, g - 1), max_size=25))
    labels = np.array(draw(st.permutations(list(range(g)) + extra)), dtype=int)
    m = draw(st.integers(1, 4))
    return draw(arrays(float, (len(labels), m), elements=score_values)), labels, g


@given(grouped_scores(), levels)
def test_property_group_quantiles_are_conformal_quantiles_per_group(grouped, alpha):
    scores, labels, g = grouped
    q, counts = group_quantiles(scores, alpha, labels, g)
    assert q.shape == (g, scores.shape[1])
    assert counts.tolist() == np.bincount(labels, minlength=g).tolist()
    for k in range(g):
        rows = scores[labels == k]
        assert q[k].tolist() == [reference.conformal_quantile(rows[:, c], alpha) for c in range(scores.shape[1])]


def test_group_quantiles_names_the_first_empty_group():
    scores = np.ones((4, 4))
    with pytest.raises(MissingClass, match="class 1 has no calibration records; a class-wise fit needs every class represented"):
        group_quantiles(scores, 0.1, [0, 2, 0, 2], 4)


@pytest.mark.parametrize("labels", [[0, 1, 2, 0], [0, 1, -1, 0]])
def test_group_quantiles_rejects_ids_outside_the_groups(labels):
    # fit_quantiles_from_scores once left rows with an id >= n_classes out of every group
    with pytest.raises(InvalidClass, match=r"group ids must lie in \[0, 2\)"):
        group_quantiles(np.ones((4, 4)), 0.1, labels, 2)


@st.composite
def masked_samples(draw):
    """Tied scores, random group ids (some groups may have no row) and a (B, n) mask.

    With ``cover`` every sample holds one row of each group that has rows,
    so the fits succeed unless a group has no row at all; without it
    samples often miss a group.
    """
    n = draw(st.integers(1, 30))
    g = draw(st.integers(1, 4))
    labels = np.array(draw(st.lists(st.integers(0, g - 1), min_size=n, max_size=n)), dtype=int)
    m = draw(st.integers(1, 4))
    scores = draw(arrays(float, (n, m), elements=score_values))
    mask = draw(arrays(bool, (draw(st.integers(1, 5)), n)))
    if draw(st.booleans()):  # cover
        for k in np.unique(labels):
            mask[:, np.flatnonzero(labels == k)[0]] = True
    return scores, labels, g, mask


@given(masked_samples(), levels)
def test_property_masked_group_quantiles_are_each_samples_group_quantiles(sample, alpha):
    scores, labels, g, mask = sample
    presorted = presort_groups(scores, labels, g)
    empty = [(b, k) for b, row in enumerate(mask) for k in range(g) if not (labels[row] == k).any()]
    if empty:
        # the earliest sample's first empty group is named
        with pytest.raises(MissingClass, match=f"^class {empty[0][1]} has no calibration records"):
            masked_group_quantiles(presorted.values, presorted.bounds, presorted.picked(mask), alpha)
        return
    q, counts = masked_group_quantiles(presorted.values, presorted.bounds, presorted.picked(mask), alpha)
    assert q.shape == (len(mask), g, scores.shape[1])
    for b, row in enumerate(mask):
        expected_q, expected_counts = group_quantiles(scores[row], alpha, labels[row], g)
        assert q[b].tolist() == expected_q.tolist()
        assert counts[b].tolist() == expected_counts.tolist()
        for k in range(g):  # and the order-statistic oracle on each group's rows agrees
            rows = scores[row][labels[row] == k]
            assert q[b, k].tolist() == [reference.conformal_quantile(rows[:, c], alpha) for c in range(scores.shape[1])]


def test_masked_group_quantiles_ignore_nan_in_rows_no_sample_holds():
    scores = np.array([[1.0], [math.nan], [2.0], [3.0]])
    presorted = presort_groups(scores, [0, 0, 1, 1], 2)
    picked = presorted.picked([[True, False, True, True]])
    q, counts = masked_group_quantiles(presorted.values, presorted.bounds, picked, 0.5)
    assert q.tolist() == [[[1.0], [3.0]]]
    assert counts.tolist() == [[1, 2]]
    picked = presorted.picked([[True, False, True, True], [True, True, True, False]])
    with pytest.raises(DataError):
        masked_group_quantiles(presorted.values, presorted.bounds, picked, 0.5)


def test_masked_group_quantiles_reject_malformed_picks():
    presorted = presort_groups(np.array([[1.0, 4.0], [2.0, 3.0], [3.0, 2.0], [4.0, 1.0]]), [0, 0, 1, 1], 2)
    for shape in ((2, 4), (1, 4, 2), (1, 2, 3)):
        with pytest.raises(OutOfRange, match=r"picked must be a \(B, 2, 4\) array"):
            masked_group_quantiles(presorted.values, presorted.bounds, np.ones(shape, dtype=bool), 0.5)
    # column 1 picks one entry of group 0 where column 0 picks two
    picked = np.array([[[True, True, True, True], [True, False, True, True]]])
    with pytest.raises(OutOfRange, match="every column of a sample must pick the same number"):
        masked_group_quantiles(presorted.values, presorted.bounds, picked, 0.5)


@st.composite
def probability_batches(draw):
    n = draw(st.integers(1, 12))
    k = draw(st.integers(1, 6))
    raw = draw(arrays(float, (n, k), elements=st.one_of(st.just(1.0), st.floats(0.0, 1.0))))
    raw[:, 0] += 1e-3  # keep every row's mass positive
    return raw / raw.sum(axis=1, keepdims=True)


raps_configs = st.builds(
    RAPSConfig,
    penalty_a=st.one_of(st.just(0.0), st.floats(0.0, 0.5)),
    threshold_b=st.integers(0, 4),
    allow_empty=st.booleans(),
    penalty_at_inference=st.booleans(),
)
thresholds = st.one_of(st.just(0.0), st.just(math.inf), st.floats(0.0, 3.0))


@given(probability_batches(), raps_configs, thresholds, thresholds)
def test_property_set_size_is_monotone_in_qhat(probs, config, q1, q2):
    lo, hi = sorted((q1, q2))
    order, totals = set_totals(probs, config)
    member_lo, sizes_lo = sets_from_totals(order, totals, lo, config)
    member_hi, sizes_hi = sets_from_totals(order, totals, hi, config)
    assert np.all(sizes_lo <= sizes_hi)
    assert np.all(member_lo <= member_hi)  # the smaller set is nested in the larger
    assert np.array_equal(member_lo.sum(axis=1), sizes_lo)
    if not config.allow_empty:
        assert np.all(sizes_lo >= 1)
    composed, composed_sizes = prediction_set_matrix(probs, hi, config)
    assert np.array_equal(composed, member_hi) and np.array_equal(composed_sizes, sizes_hi)
