import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from confdet.classification import (
    class_order,
    classification_quantile,
    prediction_set_matrix,
    set_totals,
    sets_from_totals,
    true_class_scores,
)
from confdet.core import RAPSConfig
from confdet.errors import EmptyCalibration, InvalidClass, OutOfRange

import reference

# Some test names keep the one-record functions their worked examples were
# written for (`aps_score`, `raps_score` and `build_prediction_set`); each now
# runs the same numbers through the array kernel.

APS = RAPSConfig(penalty_a=0.0, threshold_b=0)


def random_probs(rng, k):
    raw = rng.dirichlet(np.ones(k) * 0.7)
    return raw


def score(class_probs, true_class, config=None):
    """The score of one record's true class: adaptive, or regularized under ``config``."""
    return float(true_class_scores([class_probs], [true_class], config)[0])


def label_set(class_probs, qhat, config):
    """The classes in one record's prediction set, in descending probability."""
    member, sizes = prediction_set_matrix([class_probs], qhat, config)
    classes = tuple(class_order(class_probs)[: sizes[0]].tolist())
    assert set(classes) == set(np.flatnonzero(member[0]).tolist())
    return classes


# ---------------------------------------------------------------- scores


def test_aps_score_one_hot():
    assert score([1.0, 0.0, 0.0], 0) == 1.0


def test_aps_score_rank_two():
    assert score([0.6, 0.3, 0.1], 1) == pytest.approx(0.9)


def test_aps_score_worst_rank_is_full_sum():
    assert score([0.6, 0.3, 0.1], 2) == pytest.approx(1.0)


def test_aps_score_invalid_class():
    with pytest.raises(InvalidClass):
        score([0.5, 0.5], 2)
    with pytest.raises(InvalidClass):
        score([0.5, 0.5], -1)


def test_raps_score_zero_penalty_equals_aps():
    rng = np.random.default_rng(1)
    cfg = RAPSConfig(penalty_a=0.0, threshold_b=3)
    for _ in range(100):
        k = int(rng.integers(2, 8))
        p = random_probs(rng, k)
        c = int(rng.integers(k))
        assert score(p, c, cfg) == score(p, c)


def test_raps_score_penalty_beyond_threshold():
    cfg = RAPSConfig(penalty_a=0.1, threshold_b=1)
    assert score([0.6, 0.3, 0.1], 2, cfg) == pytest.approx(1.2)
    assert score([0.6, 0.3, 0.1], 0, cfg) == pytest.approx(0.6)


def test_probability_ties_break_by_ascending_class_id():
    # classes 1 and 2 tie; rank order must be 0, 1, 2
    assert score([0.5, 0.25, 0.25], 1) == pytest.approx(0.75)
    assert score([0.5, 0.25, 0.25], 2) == pytest.approx(1.0)


def test_true_class_scores_matches_scalar():
    rng = np.random.default_rng(2)
    cfg = RAPSConfig(penalty_a=0.05, threshold_b=2)
    probs = np.stack([random_probs(rng, 6) for _ in range(40)])
    labels = rng.integers(0, 6, size=40)
    batch = true_class_scores(probs, labels, cfg)
    for i in range(40):
        assert batch[i] == pytest.approx(reference.raps_score(probs[i], int(labels[i]), cfg))
    plain = true_class_scores(probs, labels, None)
    for i in range(40):
        assert plain[i] == pytest.approx(reference.aps_score(probs[i], int(labels[i])))


def test_true_class_scores_rejects_bad_labels():
    with pytest.raises(InvalidClass):
        true_class_scores(np.ones((2, 3)) / 3, np.array([0, 3]))


@pytest.mark.parametrize("labels", [[0], [0, 1], [0, 1, 0, 1], [[0], [1], [0]], 0])
def test_true_class_scores_rejects_label_count_mismatch(labels):
    # one label once broadcast over all rows and scored [0.9, 1.0, 0.5]
    probs = [[0.9, 0.1], [0.2, 0.8], [0.5, 0.5]]
    with pytest.raises(InvalidClass, match="one entry per row"):
        true_class_scores(probs, labels)


# ---------------------------------------------------------------- quantile


def test_classification_quantile_worked_examples():
    scores = [0.1 * k for k in range(1, 10)]
    assert classification_quantile(scores, 0.5) == pytest.approx(0.5)
    assert classification_quantile([0.1, 0.2, 0.3, 0.4], 0.01) == math.inf
    assert classification_quantile([0.7, 0.7, 0.7], 0.5) == pytest.approx(0.7)
    with pytest.raises(EmptyCalibration):
        classification_quantile([], 0.1)


# ---------------------------------------------------------------- sets


def test_build_prediction_set_crossing_rule():
    s = label_set([0.6, 0.3, 0.1], 0.7, APS)
    assert s == (0, 1)


def test_build_prediction_set_zero_qhat_keeps_top_class():
    assert label_set([0.2, 0.5, 0.3], 0.0, APS) == (1,)


def test_build_prediction_set_infinite_qhat_returns_all():
    s = label_set([0.2, 0.5, 0.3], math.inf, APS)
    assert set(s) == {0, 1, 2}
    assert s[0] == 1  # still ordered by descending probability


def test_build_prediction_set_allow_empty():
    cfg = RAPSConfig(penalty_a=0.0, threshold_b=0, allow_empty=True)
    assert label_set([0.6, 0.3, 0.1], 0.5, cfg) == ()
    assert label_set([0.6, 0.3, 0.1], 0.6, cfg) == (0,)
    assert label_set([0.6, 0.3, 0.1], 0.95, cfg) == (0, 1)


def test_build_prediction_set_rejects_negative_qhat():
    with pytest.raises(OutOfRange):
        label_set([1.0], -0.1, APS)


def test_set_size_monotone_in_qhat():
    rng = np.random.default_rng(7)
    for allow_empty in (False, True):
        cfg = RAPSConfig(penalty_a=0.02, threshold_b=2, allow_empty=allow_empty)
        for _ in range(60):
            p = random_probs(rng, int(rng.integers(2, 9)))
            q1, q2 = sorted(rng.uniform(0.0, 1.3, size=2))
            s1 = label_set(p, float(q1), cfg)
            s2 = label_set(p, float(q2), cfg)
            assert set(s1) <= set(s2)


def test_without_empty_is_superset_of_with_empty():
    rng = np.random.default_rng(8)
    for _ in range(60):
        p = random_probs(rng, 5)
        qhat = float(rng.uniform(0.0, 1.1))
        strict = label_set(p, qhat, RAPSConfig(penalty_a=0.01, threshold_b=2, allow_empty=True))
        forced = label_set(p, qhat, RAPSConfig(penalty_a=0.01, threshold_b=2, allow_empty=False))
        assert set(strict) <= set(forced)
        assert len(forced) >= 1


def test_prediction_set_matrix_matches_scalar():
    rng = np.random.default_rng(9)
    probs = np.stack([random_probs(rng, 6) for _ in range(30)])
    for cfg in (
        RAPSConfig(penalty_a=0.0, threshold_b=0),
        RAPSConfig(penalty_a=0.1, threshold_b=1),
        RAPSConfig(penalty_a=0.1, threshold_b=1, allow_empty=True),
        RAPSConfig(penalty_a=0.1, threshold_b=1, penalty_at_inference=False),
    ):
        for qhat in (0.0, 0.4, 0.8, 1.05, math.inf):
            member, sizes = prediction_set_matrix(probs, qhat, cfg)
            for i in range(30):
                s = reference.build_prediction_set(probs[i], qhat, cfg)
                assert sizes[i] == len(s)
                assert set(np.flatnonzero(member[i])) == set(s)


@pytest.mark.parametrize("allow_empty", [False, True])
def test_sets_from_totals_takes_one_threshold_per_batch_entry(allow_empty):
    rng = np.random.default_rng(10)
    cfg = RAPSConfig(penalty_a=0.1, threshold_b=1, allow_empty=allow_empty)
    qhats = np.array([0.0, math.inf, 0.4, 1.05, 0.0])
    order, totals = set_totals(np.stack([random_probs(rng, 6) for _ in range(5 * 20)]), cfg)
    order, totals = order.reshape(5, 20, 6), totals.reshape(5, 20, 6)
    member, sizes = sets_from_totals(order, totals, qhats, cfg)
    assert member.shape == (5, 20, 6) and sizes.shape == (5, 20)
    for b, qhat in enumerate(qhats.tolist()):
        one_member, one_sizes = sets_from_totals(order[b], totals[b], qhat, cfg)
        assert np.array_equal(member[b], one_member)
        assert np.array_equal(sizes[b], one_sizes)
    with pytest.raises(OutOfRange):
        sets_from_totals(order, totals, np.array([0.1, -1.0, 0.2, 0.3, 0.4]), cfg)


def test_penalty_at_inference_flag_changes_totals():
    # with the penalty in the running total, deep classes cross sooner
    cfg_sym = RAPSConfig(penalty_a=0.5, threshold_b=1, penalty_at_inference=True)
    cfg_cal = RAPSConfig(penalty_a=0.5, threshold_b=1, penalty_at_inference=False)
    p = [0.4, 0.3, 0.2, 0.1]
    qhat = 0.95
    sym = label_set(p, qhat, cfg_sym)
    cal = label_set(p, qhat, cfg_cal)
    assert len(sym) < len(cal)


def test_aps_coverage_matches_quantile_membership():
    # score <= qhat exactly when the true class is in the allow_empty set
    rng = np.random.default_rng(10)
    cfg = RAPSConfig(penalty_a=0.05, threshold_b=2, allow_empty=True)
    for _ in range(200):
        p = random_probs(rng, 5)
        c = int(rng.integers(5))
        qhat = float(rng.uniform(0, 1.2))
        member = c in label_set(p, qhat, cfg)
        assert member == (score(p, c, cfg) <= qhat)


@pytest.mark.parametrize("label", [1.7, 1.0, True, np.float64(1.0)])
def test_non_integer_labels_are_rejected_not_truncated(label):
    # these labels once scored class 1, without a word
    with pytest.raises(InvalidClass):
        true_class_scores([[0.6, 0.3, 0.1]], [label])
