import math

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy import stats

from confdet.core import BoundingBox, contains_xyxy
from confdet.errors import LengthMismatch, OutOfRange, TooFewPairs
from confdet.metrics import (
    box_interval_scores,
    coverage_events,
    iou_xyxy,
    paired_t_test,
    recovery_counts,
    two_sided_t_pvalue,
)
from confdet.regression import corner_intervals, outer_inner_boxes

from conftest import make_record
import reference

# Some test names keep the one-record functions their worked examples were
# written for (`corner_coverage_event`, `iou`, `interval_score` and
# `recovery_rate`); each now runs the same numbers through the array kernel.


# ---------------------------------------------------------------- coverage


def covered(gt, intervals):
    """Each corner's coverage and the box event, for one box and four ``(low, high)`` pairs."""
    lows, highs = np.array(intervals, dtype=float).T
    hits, event = coverage_events(gt.as_array(), lows, highs)
    return tuple(hits.tolist()), bool(event)


def test_corner_coverage_event_partial_miss():
    gt = BoundingBox(1.0, 1.0, 9.0, 9.0)
    intervals = [(0.0, 2.0), (0.0, 2.0), (8.0, 10.0), (0.0, 8.0)]
    hits, event = covered(gt, intervals)
    assert hits == (True, True, True, False)
    assert event is False


def test_corner_coverage_event_all_covered():
    gt = BoundingBox(1.0, 1.0, 9.0, 9.0)
    intervals = [(0.0, 2.0), (0.0, 2.0), (8.0, 10.0), (8.0, 10.0)]
    hits, event = covered(gt, intervals)
    assert hits == (True, True, True, True)
    assert event is True


def test_corner_coverage_event_bounds_inclusive():
    gt = BoundingBox(0.0, 0.0, 10.0, 10.0)
    intervals = [(0.0, 5.0), (-1.0, 0.0), (10.0, 12.0), (3.0, 10.0)]
    _, event = covered(gt, intervals)
    assert event is True


def test_corner_coverage_event_infinite_interval_covers():
    gt = BoundingBox(0.0, 0.0, 10.0, 10.0)
    intervals = [(-math.inf, math.inf)] * 4
    hits, event = covered(gt, intervals)
    assert event is True


def test_corner_coverage_event_accepts_conformal_box():
    # the corner intervals of a conformal box: pred +- 2 * sigma
    lows, highs = corner_intervals(np.array([10.0, 10.0, 20.0, 20.0]), np.full(4, 2.0), sigma=np.ones(4))
    _, inside = covered(BoundingBox(9.0, 9.0, 21.0, 21.0), list(zip(lows, highs)))
    assert inside is True
    _, outside = covered(BoundingBox(7.0, 9.0, 21.0, 21.0), list(zip(lows, highs)))
    assert outside is False


def test_coverage_events_matches_scalar():
    rng = np.random.default_rng(6)
    gt = rng.uniform(0, 100, size=(40, 4))
    lows = gt - rng.uniform(0, 5, size=(40, 4))
    highs = gt + rng.uniform(-2, 5, size=(40, 4))
    highs = np.maximum(highs, lows)
    corner_hits, box_hits = coverage_events(gt, lows, highs)
    for i in range(40):
        hits, event = reference.corner_coverage_event(
            BoundingBox(*gt[i]), list(zip(lows[i], highs[i]))
        )
        assert tuple(corner_hits[i]) == hits
        assert bool(box_hits[i]) is event


# ---------------------------------------------------------------- iou


def test_iou_identical_boxes():
    box = np.array([3.0, 4.0, 10.0, 12.0])
    assert iou_xyxy(box, box) == pytest.approx(1.0)


def test_iou_worked_example():
    assert iou_xyxy([0.0, 0.0, 2.0, 2.0], [1.0, 1.0, 3.0, 3.0]) == pytest.approx(1.0 / 7.0)


def test_iou_disjoint_boxes():
    assert iou_xyxy([0.0, 0.0, 1.0, 1.0], [5.0, 5.0, 6.0, 6.0]) == 0.0


def test_iou_zero_area_box():
    a = [0.0, 0.0, 0.0, 0.0]
    assert iou_xyxy(a, [0.0, 0.0, 1.0, 1.0]) == 0.0
    assert iou_xyxy(a, a) == 0.0


def test_iou_symmetric():
    rng = np.random.default_rng(7)
    for _ in range(50):
        x = rng.uniform(0, 50, size=(2, 2))
        y = rng.uniform(0, 50, size=(2, 2))
        a = [min(x[0]), min(x[1]), max(x[0]), max(x[1])]
        b = [min(y[0]), min(y[1]), max(y[0]), max(y[1])]
        assert iou_xyxy(a, b) == pytest.approx(iou_xyxy(b, a), rel=1e-12)


def test_iou_xyxy_broadcasts():
    a = np.array([[0.0, 0.0, 2.0, 2.0], [0.0, 0.0, 1.0, 1.0]])
    b = np.array([1.0, 1.0, 3.0, 3.0])
    assert_allclose(iou_xyxy(a, b), [1.0 / 7.0, 0.0])


# ---------------------------------------------------------------- interval score


def test_interval_score_covered_is_width():
    assert box_interval_scores([0.0], [10.0], [5.0], 0.2) == pytest.approx(10.0)


def test_interval_score_penalizes_miss_below():
    # width 10 plus (2 / 0.2) * 4
    assert box_interval_scores([0.0], [10.0], [-4.0], 0.2) == pytest.approx(50.0)


def test_interval_score_penalizes_miss_above():
    assert box_interval_scores([0.0], [10.0], [12.0], 0.2) == pytest.approx(30.0)


def test_interval_score_validation():
    for alpha in (0.0, 1.0):
        with pytest.raises(OutOfRange):
            box_interval_scores([0.0], [1.0], [0.5], alpha)


def test_box_interval_scores_sum_corners():
    lows = np.array([[0.0, 0.0, 0.0, 0.0]])
    highs = np.array([[10.0, 10.0, 10.0, 10.0]])
    gt = np.array([[5.0, -4.0, 12.0, 10.0]])
    expected = sum(
        reference.interval_score(lo, hi, v, 0.2)
        for lo, hi, v in zip(lows[0], highs[0], gt[0])
    )
    assert_allclose(box_interval_scores(lows, highs, gt, 0.2), [expected])
    assert expected == pytest.approx(10.0 + 50.0 + 30.0 + 10.0)


def test_interval_score_is_proper():
    # the central interval of the true distribution wins on average
    rng = np.random.default_rng(8)
    alpha = 0.1
    samples = rng.normal(size=(20_000, 1))
    z = float(stats.norm.ppf(1.0 - alpha / 2.0))
    scores = {
        factor: np.mean(box_interval_scores(np.full_like(samples, -factor * z), np.full_like(samples, factor * z), samples, alpha))
        for factor in (0.7, 1.0, 1.4)
    }
    assert scores[1.0] < scores[0.7]
    assert scores[1.0] < scores[1.4]


# ---------------------------------------------------------------- recovery


def recovery(records, sigma, quantiles, iou_threshold):
    """Recovery rate and count below the threshold, for one set of corner quantiles per record."""
    pred = np.array([r.pred_box.as_array() for r in records])
    gt = np.array([r.gt_box.as_array() for r in records])
    outer, _, _ = outer_inner_boxes(*corner_intervals(pred, np.array(quantiles, dtype=float), np.array(sigma, dtype=float)))
    return recovery_counts(iou_xyxy(pred, gt), contains_xyxy(outer, gt), iou_threshold), outer


def test_recovery_rate_worked_example():
    # two badly localized predictions; the wide box rescues only one
    far = make_record(pred=(200.0, 200.0, 300.0, 300.0), image_id="far-1")
    far2 = make_record(pred=(200.0, 200.0, 300.0, 300.0), image_id="far-2")
    near = make_record(pred=(1.0, 1.0, 101.0, 101.0), image_id="near")
    quantiles = [(250.0,) * 4, (5.0,) * 4, (2.0,) * 4]  # wide, tight, small
    (rate, n_below), outer = recovery([far, far2, near], [(1.0,) * 4] * 3, quantiles, iou_threshold=0.5)
    assert contains_xyxy(outer[0], far.gt_box.as_array())
    assert not contains_xyxy(outer[1], far2.gt_box.as_array())
    assert rate == pytest.approx(0.5)
    assert n_below == 2


def test_recovery_rate_none_when_no_record_below_threshold():
    (rate, n_below), _ = recovery([make_record()], [(1.0,) * 4], [(1.0,) * 4], iou_threshold=0.5)
    assert rate is None
    assert n_below == 0


def test_recovery_rate_validation():
    for iou_threshold in (0.0, 1.5):
        with pytest.raises(OutOfRange):
            recovery_counts(np.ones(1), np.ones(1, dtype=bool), iou_threshold)


# ---------------------------------------------------------------- t-test


def test_paired_t_test_identical_samples():
    t, p = paired_t_test([1.0, 2.0, 3.0], [1.0, 2.0, 3.0])
    assert t == 0.0
    assert p == 1.0


def test_paired_t_test_constant_nonzero_difference():
    t, p = paired_t_test([2.0, 3.0, 4.0], [1.0, 2.0, 3.0])
    assert t == math.inf
    assert p == 0.0
    t, p = paired_t_test([0.0, 1.0, 2.0], [1.0, 2.0, 3.0])
    assert t == -math.inf
    assert p == 0.0


def test_paired_t_test_worked_example():
    # differences 1, 2, 3: mean 2, sd 1, t = 2 * sqrt(3)
    t, p = paired_t_test([1.0, 2.0, 3.0], [0.0, 0.0, 0.0])
    assert t == pytest.approx(2.0 * math.sqrt(3.0), rel=1e-12)
    assert p == pytest.approx(1.0 - math.sqrt(6.0 / 7.0), rel=1e-10)


def test_paired_t_test_matches_scipy():
    rng = np.random.default_rng(9)
    for _ in range(25):
        n = int(rng.integers(3, 40))
        a = rng.normal(size=n)
        b = rng.normal(size=n)
        t, p = paired_t_test(a, b)
        ref = stats.ttest_rel(a, b)
        assert t == pytest.approx(ref.statistic, rel=1e-10)
        assert p == pytest.approx(ref.pvalue, rel=1e-10)


def test_paired_t_test_validation():
    with pytest.raises(LengthMismatch):
        paired_t_test([1.0, 2.0], [1.0, 2.0, 3.0])
    with pytest.raises(LengthMismatch):
        paired_t_test(np.zeros((2, 2)), np.zeros((2, 2)))
    with pytest.raises(TooFewPairs):
        paired_t_test([1.0], [2.0])


def test_two_sided_t_pvalue_edge_cases():
    assert two_sided_t_pvalue(math.inf, 5) == 0.0
    assert two_sided_t_pvalue(0.0, 5) == pytest.approx(1.0)
    assert two_sided_t_pvalue(2.5, 7) == pytest.approx(two_sided_t_pvalue(-2.5, 7))
    with pytest.raises(OutOfRange):
        two_sided_t_pvalue(1.0, 0)
