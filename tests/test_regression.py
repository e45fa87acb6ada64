import math

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from confdet.core import AGNOSTIC, BoundingBox, contains_xyxy
from confdet.errors import (
    DataError,
    EmptyCalibration,
    MissingClass,
    NonPositiveSigma,
    OutOfRange,
)
from confdet.regression import (
    bonferroni_corner_alpha,
    conformal_quantile,
    corner_intervals,
    fit_quantiles_from_scores,
    outer_inner_boxes,
    residual_scores,
)

import reference

# Some test names keep the one-record functions their worked examples were
# written for (`score_*`, `fit_class_*` and `build_conformal_box`); each now
# runs the same numbers through the array kernel.


# ---------------------------------------------------------------- scores


def test_score_unscaled_zero_for_perfect_prediction():
    box = [[0.0, 0.0, 10.0, 10.0]]
    assert_allclose(residual_scores(box, box), [[0.0, 0.0, 0.0, 0.0]])


def test_score_unscaled_per_corner_differences():
    pred = [[0.0, 0.0, 10.0, 10.0]]
    gt = [[1.0, 0.0, 8.0, 13.0]]
    assert_allclose(residual_scores(pred, gt), [[1.0, 0.0, 2.0, 3.0]])


def test_score_unscaled_sign_irrelevant():
    pred = [[5.0, 5.0, 5.0, 5.0]]
    gt = [[0.0, 0.0, 0.0, 0.0]]
    assert_allclose(residual_scores(pred, gt), [[5.0, 5.0, 5.0, 5.0]])
    assert_allclose(residual_scores(gt, pred), [[5.0, 5.0, 5.0, 5.0]])


def test_score_scaled_elementwise_division():
    pred = [[2.0, 2.0, 2.0, 2.0]]
    gt = [[0.0, 0.0, 0.0, 0.0]]
    assert_allclose(residual_scores(pred, gt, [[2.0, 4.0, 1.0, 8.0]]), [[1.0, 0.5, 2.0, 0.25]])
    assert_allclose(residual_scores(pred, gt, [[1.0, 1.0, 1.0, 1.0]]), [[2.0, 2.0, 2.0, 2.0]])
    assert_allclose(residual_scores(pred, pred, [[3.0, 3.0, 3.0, 3.0]]), [[0.0, 0.0, 0.0, 0.0]])


def test_score_scaled_rejects_nonpositive_sigma():
    box = [[0.0, 0.0, 1.0, 1.0]]
    with pytest.raises(NonPositiveSigma):
        residual_scores(box, box, [[1.0, 0.0, 1.0, 1.0]])
    with pytest.raises(NonPositiveSigma):
        residual_scores(box, box, [[1.0, -1.0, 1.0, 1.0]])


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
        assert conformal_quantile(scores, alpha) == reference.conformal_quantile(scores, alpha)


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


@pytest.mark.parametrize("bad", [0.0, math.nan])
def test_corner_intervals_rejects_nonpositive_sigma(bad):
    with pytest.raises(NonPositiveSigma):
        corner_intervals(np.zeros((1, 4)), np.ones(4), sigma=[[1.0, bad, 1.0, 1.0]])


def test_fit_quantiles_from_scores_needs_four_columns():
    with pytest.raises(OutOfRange, match=r"scores must have shape \(n, 4\), got \(5, 3\)"):
        fit_quantiles_from_scores(np.zeros((5, 3)), 0.1)


def test_bonferroni_corner_alpha():
    assert bonferroni_corner_alpha(0.1) == 0.025
    assert bonferroni_corner_alpha(0.4) == pytest.approx(0.1)
    assert bonferroni_corner_alpha(0.0004) == pytest.approx(0.0001)
    with pytest.raises(OutOfRange):
        bonferroni_corner_alpha(0.0)
    with pytest.raises(OutOfRange):
        bonferroni_corner_alpha(1.0)


# ---------------------------------------------------------------- fitting


def corner0_scores(values):
    """Unscaled scores of boxes whose corner 0 misses by the given values, the rest by 0."""
    pred = np.array([(v, 0.0, 100.0 + v, 100.0) for v in values], dtype=float).reshape(-1, 4)
    gt = np.array([(0.0, 0.0, 100.0 + v, 100.0) for v in values], dtype=float).reshape(-1, 4)
    return residual_scores(pred, gt)


def test_fit_class_agnostic_reduces_to_quantile():
    table = fit_quantiles_from_scores(corner0_scores(range(1, 10)), 0.5)
    assert table.scope == "class_agnostic"
    assert table.corners(AGNOSTIC)[0] == 5.0
    assert table.n_per_group[AGNOSTIC] == 9
    assert table.level[AGNOSTIC] == pytest.approx(5 / 9)


def test_fit_class_agnostic_perfect_predictions():
    # 19 zero scores support alpha = 0.1: the order statistic is 18 of 19
    table = fit_quantiles_from_scores(np.zeros((19, 4)), 0.1)
    assert_allclose(table.corners(AGNOSTIC), [0.0, 0.0, 0.0, 0.0])


def test_fit_class_agnostic_vacuous_with_few_records():
    table = fit_quantiles_from_scores(np.zeros((4, 4)), 0.025)
    assert np.all(np.isinf(table.corners(AGNOSTIC)))
    assert table.level[AGNOSTIC] > 1.0


def test_fit_class_agnostic_empty():
    with pytest.raises(EmptyCalibration):
        fit_quantiles_from_scores(np.empty((0, 4)), 0.1)


def test_fit_class_wise_per_class_quantiles():
    # classes 0 and 1 alternate over corner-0 scores 1, 1, 2, 2, ..., 9, 9
    scores = corner0_scores(np.repeat(np.arange(1.0, 10.0), 2))
    table = fit_quantiles_from_scores(scores, 0.5, groups=np.tile([0, 1], 9), n_classes=2, min_per_class=5)
    assert table.scope == "class_wise"
    assert table.corners(0)[0] == 5.0
    assert table.corners(1)[0] == 5.0
    assert table.n_per_group == {0: 9, 1: 9}
    assert table.flagged == ()


def test_fit_class_wise_single_class_equals_agnostic():
    scores = corner0_scores(range(1, 10))
    wise = fit_quantiles_from_scores(scores, 0.5, groups=np.zeros(9, dtype=int), n_classes=1, min_per_class=1)
    agnostic = fit_quantiles_from_scores(scores, 0.5)
    assert tuple(wise.corners(0)) == tuple(agnostic.corners(AGNOSTIC))


def test_fit_class_wise_flags_small_classes():
    # 45 records support alpha = 0.025 (order statistic 45 of 45); 3 do not
    groups = np.array([0] * 45 + [1] * 3)
    table = fit_quantiles_from_scores(np.zeros((48, 4)), 0.025, groups=groups, n_classes=2, min_per_class=20)
    assert table.flagged == (1,)
    assert table.n_per_group[1] == 3
    assert np.all(np.isinf(table.corners(1)))
    assert np.all(np.isfinite(table.corners(0)))


def test_fit_class_wise_missing_class():
    with pytest.raises(MissingClass):
        fit_quantiles_from_scores(np.zeros((2, 4)), 0.5, groups=[0, 0], n_classes=2)


# ---------------------------------------------------------------- boxes


def conformal_box(pred, sigma, quantiles, image_bounds=None):
    """Interval bounds, outer box, inner box and whether the inner box exists, for one prediction."""
    sigma = None if sigma is None else np.asarray(sigma, dtype=float)
    lows, highs = corner_intervals(np.asarray(pred, dtype=float), np.asarray(quantiles, dtype=float), sigma, image_bounds)
    return (lows, highs, *outer_inner_boxes(lows, highs))


def test_build_conformal_box_zero_quantiles():
    pred = [10.0, 10.0, 20.0, 20.0]
    _, _, outer, inner, inner_ok = conformal_box(pred, None, [0.0, 0.0, 0.0, 0.0])
    assert_array_equal(outer, pred)
    assert inner_ok
    assert_array_equal(inner, pred)


def test_build_conformal_box_worked_example():
    lows, highs, outer, inner, inner_ok = conformal_box([10.0, 10.0, 20.0, 20.0], None, [1.0, 2.0, 3.0, 4.0])
    assert_array_equal(lows, [9.0, 8.0, 17.0, 16.0])
    assert_array_equal(highs, [11.0, 12.0, 23.0, 24.0])
    assert_array_equal(outer, [9.0, 8.0, 23.0, 24.0])
    assert inner_ok
    assert_array_equal(inner, [11.0, 12.0, 17.0, 16.0])


def test_build_conformal_box_inverted_inner_is_none():
    _, _, outer, _, inner_ok = conformal_box([10.0, 10.0, 12.0, 12.0], None, [5.0, 5.0, 5.0, 5.0])
    # x intervals [5,15] and [7,17]: the inner low side (15) passes the
    # inner high side (7), so no inner rectangle exists
    assert not inner_ok
    assert_array_equal(outer, [5.0, 5.0, 17.0, 17.0])


def test_build_conformal_box_scaled_widths():
    lows, highs, *_ = conformal_box([0.0, 0.0, 10.0, 10.0], [2.0, 1.0, 0.5, 4.0], [1.0, 1.0, 1.0, 1.0])
    assert (lows[0], highs[0]) == (-2.0, 2.0)
    assert (lows[3], highs[3]) == (6.0, 14.0)


def test_build_conformal_box_outer_contains_pred():
    rng = np.random.default_rng(5)
    for _ in range(50):
        x0, y0 = rng.uniform(0, 100, size=2)
        w, h = rng.uniform(1, 50, size=2)
        pred = np.array([x0, y0, x0 + w, y0 + h])
        q = rng.uniform(0, 10, size=4)
        _, _, outer, inner, inner_ok = conformal_box(pred, None, q)
        assert contains_xyxy(outer, pred)
        if inner_ok:
            assert contains_xyxy(outer, inner)


def test_vacuous_quantile_clamps_to_image_bounds():
    pred = [10.0, 10.0, 20.0, 20.0]
    lows, highs, *_ = conformal_box(pred, None, [math.inf, 0.0, 0.0, 0.0])
    assert (lows[0], highs[0]) == (0.0, 10000.0)
    assert (lows[1], highs[1]) == (10.0, 10.0)

    bounds = BoundingBox(0.0, 0.0, 640.0, 480.0)
    _, _, outer, _, _ = conformal_box(pred, None, [math.inf, math.inf, math.inf, math.inf], image_bounds=bounds)
    assert_array_equal(outer, [0.0, 0.0, 640.0, 480.0])


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
