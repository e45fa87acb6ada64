import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from confdet.core import AGNOSTIC, BoundingBox
from confdet.errors import (
    DataError,
    EmptyCalibration,
    MissingClass,
    NonPositiveSigma,
    OutOfRange,
)
from confdet.regression import (
    bonferroni_corner_alpha,
    build_conformal_box,
    conformal_quantile,
    corner_intervals,
    fit_class_agnostic,
    fit_class_wise,
    outer_inner_boxes,
    residual_scores,
    score_scaled,
    score_unscaled,
)

from conftest import make_record
import reference


def oracle_quantile(scores, alpha):
    """k-th order statistic with k = ceil((n+1)(1-alpha)), or inf."""
    s = sorted(scores)
    k = math.ceil((len(s) + 1) * (1.0 - alpha))
    return s[k - 1] if k <= len(s) else math.inf


# ---------------------------------------------------------------- scores


def test_score_unscaled_zero_for_perfect_prediction():
    box = BoundingBox(0.0, 0.0, 10.0, 10.0)
    assert_allclose(score_unscaled(box, box), [0.0, 0.0, 0.0, 0.0])


def test_score_unscaled_per_corner_differences():
    pred = BoundingBox(0.0, 0.0, 10.0, 10.0)
    gt = BoundingBox(1.0, 0.0, 8.0, 13.0)
    assert_allclose(score_unscaled(pred, gt), [1.0, 0.0, 2.0, 3.0])


def test_score_unscaled_sign_irrelevant():
    pred = BoundingBox(5.0, 5.0, 5.0, 5.0)
    gt = BoundingBox(0.0, 0.0, 0.0, 0.0)
    assert_allclose(score_unscaled(pred, gt), [5.0, 5.0, 5.0, 5.0])
    assert_allclose(score_unscaled(gt, pred), [5.0, 5.0, 5.0, 5.0])


def test_score_scaled_elementwise_division():
    pred = BoundingBox(2.0, 2.0, 2.0, 2.0)
    gt = BoundingBox(0.0, 0.0, 0.0, 0.0)
    assert_allclose(score_scaled(pred, gt, [2.0, 4.0, 1.0, 8.0]), [1.0, 0.5, 2.0, 0.25])
    assert_allclose(score_scaled(pred, gt, [1.0, 1.0, 1.0, 1.0]), [2.0, 2.0, 2.0, 2.0])
    assert_allclose(score_scaled(pred, pred, [3.0, 3.0, 3.0, 3.0]), [0.0, 0.0, 0.0, 0.0])


def test_score_scaled_rejects_nonpositive_sigma():
    box = BoundingBox(0.0, 0.0, 1.0, 1.0)
    with pytest.raises(NonPositiveSigma):
        score_scaled(box, box, [1.0, 0.0, 1.0, 1.0])
    with pytest.raises(NonPositiveSigma):
        score_scaled(box, box, [1.0, -1.0, 1.0, 1.0])


def test_residual_scores_matches_record_level():
    rng = np.random.default_rng(3)
    pred = rng.normal(size=(10, 4))
    gt = rng.normal(size=(10, 4))
    sigma = rng.uniform(0.5, 2.0, size=(10, 4))
    batch = residual_scores(pred, gt, sigma)
    for i in range(10):
        single = reference.score_scaled(BoundingBox(*pred[i]), BoundingBox(*gt[i]), sigma[i])
        assert_allclose(batch[i], single)


# ---------------------------------------------------------------- quantile


def test_conformal_quantile_worked_examples():
    assert conformal_quantile(range(1, 10), 0.5) == 5.0
    assert conformal_quantile([1, 2, 3, 4], 0.1) == math.inf
    assert conformal_quantile([7], 0.6) == 7.0


def test_conformal_quantile_matches_oracle_on_random_vectors():
    rng = np.random.default_rng(11)
    for _ in range(300):
        n = int(rng.integers(1, 25))
        scores = rng.uniform(0, 10, size=n)
        alpha = float(rng.uniform(0.01, 0.99))
        assert conformal_quantile(scores, alpha) == oracle_quantile(scores, alpha)


def test_conformal_quantile_monotone_in_alpha():
    rng = np.random.default_rng(12)
    scores = rng.exponential(size=40)
    alphas = np.linspace(0.01, 0.9, 25)
    values = [conformal_quantile(scores, a) for a in alphas]
    assert all(v1 >= v2 for v1, v2 in zip(values, values[1:]))


def test_conformal_quantile_input_validation():
    with pytest.raises(EmptyCalibration):
        conformal_quantile([], 0.1)
    with pytest.raises(OutOfRange):
        conformal_quantile([1.0], 0.0)
    with pytest.raises(OutOfRange):
        conformal_quantile([1.0], 1.0)


@pytest.mark.parametrize("n_nan", [1, 2])
def test_conformal_quantile_rejects_nan(n_nan):
    # NaN sorts last, so it used to shift the order statistic silently
    scores = [1.0, 2.0] + [math.nan] * n_nan + [3.0] * 30
    with pytest.raises(DataError):
        conformal_quantile(scores, 0.1)


def test_corner_intervals_rejects_nan():
    pred = np.array([[0.0, 0.0, 10.0, 10.0], [math.nan, 0.0, 10.0, 10.0]])
    with pytest.raises(DataError):
        corner_intervals(pred, np.ones(4))
    with pytest.raises(DataError):
        corner_intervals(pred, np.ones(4), sigma=np.ones((2, 4)))
    with pytest.raises(OutOfRange):
        corner_intervals(pred[:1], np.array([math.nan, 1.0, 1.0, 1.0]))


def test_bonferroni_corner_alpha():
    assert bonferroni_corner_alpha(0.1) == 0.025
    assert bonferroni_corner_alpha(0.4) == pytest.approx(0.1)
    assert bonferroni_corner_alpha(0.0004) == pytest.approx(0.0001)
    with pytest.raises(OutOfRange):
        bonferroni_corner_alpha(0.0)
    with pytest.raises(OutOfRange):
        bonferroni_corner_alpha(1.0)


# ---------------------------------------------------------------- fitting


def records_with_corner0_scores(values):
    """Records whose corner-0 unscaled score equals the given values, rest 0."""
    return [
        make_record(pred=(v, 0.0, 100.0 + v, 100.0), gt=(0.0, 0.0, 100.0 + v, 100.0))
        for v in values
    ]


def test_fit_class_agnostic_reduces_to_quantile():
    table = fit_class_agnostic(records_with_corner0_scores(range(1, 10)), 0.5)
    assert table.scope == "class_agnostic"
    assert table.corners(AGNOSTIC)[0] == 5.0
    assert table.n_per_group[AGNOSTIC] == 9
    assert table.level[AGNOSTIC] == pytest.approx(5 / 9)


def test_fit_class_agnostic_perfect_predictions():
    # 19 zero scores support alpha = 0.1: the order statistic is 18 of 19
    records = [make_record() for _ in range(19)]
    table = fit_class_agnostic(records, 0.1)
    assert_allclose(table.corners(AGNOSTIC), [0.0, 0.0, 0.0, 0.0])


def test_fit_class_agnostic_vacuous_with_few_records():
    table = fit_class_agnostic([make_record() for _ in range(4)], 0.025)
    assert np.all(np.isinf(table.corners(AGNOSTIC)))
    assert table.level[AGNOSTIC] > 1.0


def test_fit_class_agnostic_empty():
    with pytest.raises(EmptyCalibration):
        fit_class_agnostic([], 0.1)


def two_class_records():
    recs = []
    for v in range(1, 10):
        recs.append(
            make_record(
                pred=(float(v), 0.0, 100.0 + v, 100.0),
                gt=(0.0, 0.0, 100.0 + v, 100.0),
                gt_class=0,
                class_probs=(1.0, 0.0),
            )
        )
        recs.append(
            make_record(
                pred=(float(v), 0.0, 100.0 + v, 100.0),
                gt=(0.0, 0.0, 100.0 + v, 100.0),
                gt_class=1,
                class_probs=(0.0, 1.0),
            )
        )
    return recs


def test_fit_class_wise_per_class_quantiles():
    table = fit_class_wise(two_class_records(), 0.5, min_per_class=5)
    assert table.scope == "class_wise"
    assert table.corners(0)[0] == 5.0
    assert table.corners(1)[0] == 5.0
    assert table.n_per_group == {0: 9, 1: 9}
    assert table.flagged == ()


def test_fit_class_wise_single_class_equals_agnostic():
    records = records_with_corner0_scores(range(1, 10))
    wise = fit_class_wise(records, 0.5, min_per_class=1)
    agnostic = fit_class_agnostic(records, 0.5)
    assert tuple(wise.corners(0)) == tuple(agnostic.corners(AGNOSTIC))


def test_fit_class_wise_flags_small_classes():
    # 45 records support alpha = 0.025 (order statistic 45 of 45); 3 do not
    records = [
        make_record(gt_class=0, class_probs=(1.0, 0.0)) for _ in range(45)
    ] + [
        make_record(gt_class=1, class_probs=(0.0, 1.0)) for _ in range(3)
    ]
    table = fit_class_wise(records, 0.025, min_per_class=20)
    assert table.flagged == (1,)
    assert table.n_per_group[1] == 3
    assert np.all(np.isinf(table.corners(1)))
    assert np.all(np.isfinite(table.corners(0)))


def test_fit_class_wise_missing_class():
    records = [
        make_record(class_probs=(1.0, 0.0), gt_class=0),
        make_record(class_probs=(1.0, 0.0), gt_class=0),
    ]
    with pytest.raises(MissingClass):
        fit_class_wise(records, 0.5)


# ---------------------------------------------------------------- boxes


def test_build_conformal_box_zero_quantiles():
    pred = BoundingBox(10.0, 10.0, 20.0, 20.0)
    box = build_conformal_box(pred, None, [0.0, 0.0, 0.0, 0.0])
    assert box.outer == pred
    assert box.inner == pred


def test_build_conformal_box_worked_example():
    pred = BoundingBox(10.0, 10.0, 20.0, 20.0)
    box = build_conformal_box(pred, None, [1.0, 2.0, 3.0, 4.0])
    assert box.corner_interval(0) == (9.0, 11.0)
    assert box.corner_interval(1) == (8.0, 12.0)
    assert box.corner_interval(2) == (17.0, 23.0)
    assert box.corner_interval(3) == (16.0, 24.0)
    assert box.outer == BoundingBox(9.0, 8.0, 23.0, 24.0)
    assert box.inner == BoundingBox(11.0, 12.0, 17.0, 16.0)


def test_build_conformal_box_inverted_inner_is_none():
    pred = BoundingBox(10.0, 10.0, 12.0, 12.0)
    box = build_conformal_box(pred, None, [5.0, 5.0, 5.0, 5.0])
    # x intervals [5,15] and [7,17]: the inner low side (15) passes the
    # inner high side (7), so no inner rectangle exists
    assert box.inner is None
    assert box.outer == BoundingBox(5.0, 5.0, 17.0, 17.0)


def test_build_conformal_box_scaled_widths():
    pred = BoundingBox(0.0, 0.0, 10.0, 10.0)
    box = build_conformal_box(pred, [2.0, 1.0, 0.5, 4.0], [1.0, 1.0, 1.0, 1.0])
    assert box.corner_interval(0) == (-2.0, 2.0)
    assert box.corner_interval(3) == (6.0, 14.0)


def test_build_conformal_box_outer_contains_pred():
    rng = np.random.default_rng(5)
    for _ in range(50):
        x0, y0 = rng.uniform(0, 100, size=2)
        w, h = rng.uniform(1, 50, size=2)
        pred = BoundingBox(x0, y0, x0 + w, y0 + h)
        q = rng.uniform(0, 10, size=4)
        box = build_conformal_box(pred, None, q)
        assert box.outer.contains(pred)
        if box.inner is not None:
            assert box.outer.contains(box.inner)


def test_vacuous_quantile_clamps_to_image_bounds():
    pred = BoundingBox(10.0, 10.0, 20.0, 20.0)
    box = build_conformal_box(pred, None, [math.inf, 0.0, 0.0, 0.0])
    assert box.corner_interval(0) == (0.0, 10000.0)
    assert box.corner_interval(1) == (10.0, 10.0)

    bounds = BoundingBox(0.0, 0.0, 640.0, 480.0)
    box = build_conformal_box(pred, None, [math.inf, math.inf, math.inf, math.inf], image_bounds=bounds)
    assert box.outer == BoundingBox(0.0, 0.0, 640.0, 480.0)


def test_corner_intervals_rejects_negative_quantiles():
    with pytest.raises(OutOfRange):
        corner_intervals(np.zeros(4), np.array([-1.0, 0.0, 0.0, 0.0]))


def test_corner_intervals_no_clipping_of_finite_intervals():
    # finite intervals may extend past the image; only +inf is clamped
    lows, highs = corner_intervals(
        np.array([5.0, 5.0, 6.0, 6.0]),
        np.array([50.0, 50.0, 50.0, 50.0]),
        image_bounds=BoundingBox(0.0, 0.0, 10.0, 10.0),
    )
    assert lows[0] == -45.0
    assert highs[0] == 55.0


def test_outer_inner_boxes_batch_shapes():
    rng = np.random.default_rng(8)
    lows = rng.normal(size=(7, 4))
    highs = lows + rng.uniform(0, 2, size=(7, 4))
    outer, inner, inner_ok = outer_inner_boxes(lows, highs)
    assert outer.shape == (7, 4)
    assert inner.shape == (7, 4)
    assert inner_ok.shape == (7,)
    # outer low sides never exceed inner low sides
    assert np.all(outer[:, 0] <= inner[:, 0])
    assert np.all(outer[:, 1] <= inner[:, 1])


def test_scaling_invariance_of_scaled_boxes():
    # multiplying every sigma by one constant leaves scaled boxes unchanged
    rng = np.random.default_rng(21)
    pred = rng.normal(size=(60, 4))
    gt = pred + rng.normal(size=(60, 4))
    sigma = rng.uniform(0.5, 3.0, size=(60, 4))
    test_pred = rng.normal(size=(10, 4))
    test_sigma = rng.uniform(0.5, 3.0, size=(10, 4))

    reference = None
    for factor in (1.0, 3.7):
        scores = residual_scores(pred, gt, sigma * factor)
        q = np.array([conformal_quantile(scores[:, c], 0.1) for c in range(4)])
        lows, highs = corner_intervals(test_pred, q, sigma=test_sigma * factor)
        if reference is None:
            reference = (lows, highs)
        else:
            assert_allclose(lows, reference[0], rtol=1e-12)
            assert_allclose(highs, reference[1], rtol=1e-12)
