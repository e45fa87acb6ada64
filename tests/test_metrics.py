import math

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy import stats

from confdet.core import BoundingBox
from confdet.errors import LengthMismatch, OutOfRange, TooFewPairs
from confdet.metrics import (
    box_interval_scores,
    corner_coverage_event,
    coverage_events,
    interval_score,
    iou,
    iou_xyxy,
    paired_t_test,
    recovery_rate,
    two_sided_t_pvalue,
)
from confdet.regression import build_conformal_box

from conftest import make_record
import reference


# ---------------------------------------------------------------- coverage


def test_corner_coverage_event_partial_miss():
    gt = BoundingBox(1.0, 1.0, 9.0, 9.0)
    intervals = [(0.0, 2.0), (0.0, 2.0), (8.0, 10.0), (0.0, 8.0)]
    hits, event = corner_coverage_event(gt, intervals)
    assert hits == (True, True, True, False)
    assert event is False


def test_corner_coverage_event_all_covered():
    gt = BoundingBox(1.0, 1.0, 9.0, 9.0)
    intervals = [(0.0, 2.0), (0.0, 2.0), (8.0, 10.0), (8.0, 10.0)]
    hits, event = corner_coverage_event(gt, intervals)
    assert hits == (True, True, True, True)
    assert event is True


def test_corner_coverage_event_bounds_inclusive():
    gt = BoundingBox(0.0, 0.0, 10.0, 10.0)
    intervals = [(0.0, 5.0), (-1.0, 0.0), (10.0, 12.0), (3.0, 10.0)]
    _, event = corner_coverage_event(gt, intervals)
    assert event is True


def test_corner_coverage_event_infinite_interval_covers():
    gt = BoundingBox(0.0, 0.0, 10.0, 10.0)
    intervals = [(-math.inf, math.inf)] * 4
    hits, event = corner_coverage_event(gt, intervals)
    assert event is True


def test_corner_coverage_event_accepts_conformal_box():
    box = build_conformal_box(
        BoundingBox(10.0, 10.0, 20.0, 20.0), (1.0, 1.0, 1.0, 1.0), (2.0, 2.0, 2.0, 2.0)
    )
    _, inside = corner_coverage_event(BoundingBox(9.0, 9.0, 21.0, 21.0), box)
    assert inside is True
    _, outside = corner_coverage_event(BoundingBox(7.0, 9.0, 21.0, 21.0), box)
    assert outside is False


def test_corner_coverage_event_rejects_inverted_interval():
    with pytest.raises(OutOfRange):
        corner_coverage_event(
            BoundingBox(0.0, 0.0, 1.0, 1.0),
            [(0.0, 1.0), (1.0, 0.0), (0.0, 1.0), (0.0, 1.0)],
        )


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
    box = BoundingBox(3.0, 4.0, 10.0, 12.0)
    assert iou(box, box) == pytest.approx(1.0)


def test_iou_worked_example():
    a = BoundingBox(0.0, 0.0, 2.0, 2.0)
    b = BoundingBox(1.0, 1.0, 3.0, 3.0)
    assert iou(a, b) == pytest.approx(1.0 / 7.0)


def test_iou_disjoint_boxes():
    a = BoundingBox(0.0, 0.0, 1.0, 1.0)
    b = BoundingBox(5.0, 5.0, 6.0, 6.0)
    assert iou(a, b) == 0.0


def test_iou_zero_area_box():
    a = BoundingBox(0.0, 0.0, 0.0, 0.0)
    b = BoundingBox(0.0, 0.0, 1.0, 1.0)
    assert iou(a, b) == 0.0
    assert iou(a, a) == 0.0


def test_iou_symmetric():
    rng = np.random.default_rng(7)
    for _ in range(50):
        x = rng.uniform(0, 50, size=(2, 2))
        y = rng.uniform(0, 50, size=(2, 2))
        a = BoundingBox(min(x[0]), min(x[1]), max(x[0]), max(x[1]))
        b = BoundingBox(min(y[0]), min(y[1]), max(y[0]), max(y[1]))
        assert iou(a, b) == pytest.approx(iou(b, a), rel=1e-12)


def test_iou_xyxy_broadcasts():
    a = np.array([[0.0, 0.0, 2.0, 2.0], [0.0, 0.0, 1.0, 1.0]])
    b = np.array([1.0, 1.0, 3.0, 3.0])
    assert_allclose(iou_xyxy(a, b), [1.0 / 7.0, 0.0])


# ---------------------------------------------------------------- interval score


def test_interval_score_covered_is_width():
    assert interval_score(0.0, 10.0, 5.0, 0.2) == pytest.approx(10.0)


def test_interval_score_penalizes_miss_below():
    # width 10 plus (2 / 0.2) * 4
    assert interval_score(0.0, 10.0, -4.0, 0.2) == pytest.approx(50.0)


def test_interval_score_penalizes_miss_above():
    assert interval_score(0.0, 10.0, 12.0, 0.2) == pytest.approx(30.0)


def test_interval_score_validation():
    with pytest.raises(OutOfRange):
        interval_score(0.0, 1.0, 0.5, 0.0)
    with pytest.raises(OutOfRange):
        interval_score(1.0, 0.0, 0.5, 0.1)


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
    samples = rng.normal(size=20_000)
    z = float(stats.norm.ppf(1.0 - alpha / 2.0))
    scores = {
        factor: np.mean(
            [interval_score(-factor * z, factor * z, s, alpha) for s in samples]
        )
        for factor in (0.7, 1.0, 1.4)
    }
    assert scores[1.0] < scores[0.7]
    assert scores[1.0] < scores[1.4]


# ---------------------------------------------------------------- recovery


def test_recovery_rate_worked_example():
    # two badly localized predictions; the wide box rescues only one
    far = make_record(pred=(200.0, 200.0, 300.0, 300.0), image_id="far-1")
    far2 = make_record(pred=(200.0, 200.0, 300.0, 300.0), image_id="far-2")
    near = make_record(pred=(1.0, 1.0, 101.0, 101.0), image_id="near")
    records = [far, far2, near]
    wide = build_conformal_box(
        far.pred_box, (1.0,) * 4, (250.0, 250.0, 250.0, 250.0)
    )
    tight = build_conformal_box(far2.pred_box, (1.0,) * 4, (5.0, 5.0, 5.0, 5.0))
    small = build_conformal_box(near.pred_box, (1.0,) * 4, (2.0, 2.0, 2.0, 2.0))
    assert wide.outer.contains(far.gt_box)
    assert not tight.outer.contains(far2.gt_box)
    rate = recovery_rate(records, [wide, tight, small], iou_threshold=0.5)
    assert rate == pytest.approx(0.5)


def test_recovery_rate_none_when_no_record_below_threshold():
    rec = make_record()
    box = build_conformal_box(rec.pred_box, (1.0,) * 4, (1.0,) * 4)
    assert recovery_rate([rec], [box], iou_threshold=0.5) is None


def test_recovery_rate_validation():
    rec = make_record()
    box = build_conformal_box(rec.pred_box, (1.0,) * 4, (1.0,) * 4)
    with pytest.raises(LengthMismatch):
        recovery_rate([rec], [box, box], iou_threshold=0.5)
    with pytest.raises(OutOfRange):
        recovery_rate([rec], [box], iou_threshold=0.0)
    with pytest.raises(OutOfRange):
        recovery_rate([rec], [box], iou_threshold=1.5)


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
