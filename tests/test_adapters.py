"""Each array kernel agrees with its scalar oracle, one record at a time.

The oracles in ``reference.py`` are per-record loops, written out
independently of the kernels.  Each case here feeds one record (or one
list of records) to a kernel as a one-row batch and compares the result
with the oracle's.  Adaptive scores may differ in the last bits, because
the kernel takes a cumulative sum where the loop summed a prefix; every
other kernel must agree exactly.  ``validate_record``, one of the two
record-level functions left, is checked here too.
"""

import math

import numpy as np
import pytest

import reference
from confdet.calibration import _normalize
from confdet.classification import class_order, prediction_set_matrix, true_class_scores
from confdet.core import BoundingBox, DetectionRecord, RAPSConfig, contains_xyxy, validate_columns, validate_record
from confdet.metrics import box_interval_scores, coverage_events, iou_xyxy, recovery_counts
from confdet.regression import corner_intervals, outer_inner_boxes, residual_scores

N_CASES = 400


def random_box(rng):
    x0, y0 = rng.uniform(-50, 500, size=2)
    w, h = rng.uniform(0, 200, size=2)
    return BoundingBox(x0, y0, x0 + (0.0 if rng.random() < 0.1 else w), y0 + h)


def random_record(rng):
    gt = random_box(rng)
    pred = BoundingBox(*(gt.as_array() + rng.normal(0, 30, size=4)))
    return DetectionRecord("r", pred, gt, 0, (1.0,), tuple(rng.uniform(0.1, 5.0, size=4)))


def test_class_adapters_match_oracles():
    rng = np.random.default_rng(31)
    for _ in range(N_CASES):
        k = int(rng.integers(1, 10))
        p = rng.dirichlet(np.ones(k) * rng.choice([0.2, 3.0]))
        if rng.random() < 0.3:
            p = np.round(p, 1) / np.round(p, 1).sum()  # probability ties
        c = int(rng.integers(k))
        cfg = RAPSConfig(
            penalty_a=float(rng.choice([0.0, 0.3])),
            threshold_b=int(rng.integers(0, 4)),
            allow_empty=bool(rng.random() < 0.5),
            penalty_at_inference=bool(rng.random() < 0.7),
        )
        aps, raps = (float(true_class_scores(p[None, :], [c], config)[0]) for config in (None, cfg))
        assert aps == pytest.approx(reference.aps_score(p, c), rel=1e-15, abs=1e-15)
        assert raps == pytest.approx(reference.raps_score(p, c, cfg), rel=1e-15, abs=1e-15)
        qhat = float(rng.choice([0.0, rng.uniform(0, 1.5), math.inf]))
        member, sizes = prediction_set_matrix(p[None, :], qhat, cfg)
        expected = reference.build_prediction_set(p, qhat, cfg)
        assert tuple(class_order(p)[: sizes[0]].tolist()) == expected
        assert np.flatnonzero(member[0]).tolist() == sorted(expected)


def test_box_adapters_match_oracles():
    rng = np.random.default_rng(32)
    for _ in range(N_CASES):
        rec = random_record(rng)
        pred, gt = rec.pred_box, rec.gt_box
        p, g, sigma = pred.as_array()[None, :], gt.as_array()[None, :], np.array([rec.sigma])
        assert np.array_equal(residual_scores(p, g)[0], reference.score_unscaled(pred, gt))
        assert np.array_equal(residual_scores(p, g, sigma)[0], reference.score_scaled(pred, gt, rec.sigma))
        lows, highs = corner_intervals(p, rng.uniform(0, 30, size=4), sigma)
        pairs = np.stack([gt.as_array() - rng.uniform(-3, 5, size=4), gt.as_array() + rng.uniform(3, 5, size=4)])
        for low, high in ((lows[0], highs[0]), pairs):
            hits, event = coverage_events(g, low, high)
            assert (tuple(hits[0].tolist()), bool(event[0])) == reference.corner_coverage_event(gt, zip(low, high))
        low, high = sorted(rng.uniform(-10, 10, size=2))
        args = (low, high, float(rng.uniform(-20, 20)), float(rng.uniform(0.001, 0.5)))
        assert float(box_interval_scores(*([v] for v in args[:3]), args[3])) == reference.interval_score(*args)
        expected = [reference.normalize_sigma(rec, corner) for corner in range(4)]
        usable, _, x = _normalize(p, sigma)
        assert usable.tolist() == [None not in expected]
        if usable[0]:
            assert x[0].tolist() == expected


def test_recovery_rate_matches_oracle():
    rng = np.random.default_rng(33)
    for _ in range(N_CASES // 4):
        records = [random_record(rng) for _ in range(int(rng.integers(0, 25)))]
        pred = np.array([r.pred_box.as_array() for r in records]).reshape(-1, 4)
        gt = np.array([r.gt_box.as_array() for r in records]).reshape(-1, 4)
        quantiles = np.array([rng.uniform(0, 80, size=4) for _ in records]).reshape(-1, 4)
        outer, _, _ = outer_inner_boxes(*corner_intervals(pred, quantiles))
        threshold = float(rng.uniform(0.01, 1.0))
        rate, _ = recovery_counts(iou_xyxy(pred, gt), contains_xyxy(outer, gt), threshold)
        assert rate == reference.recovery_rate(records, [BoundingBox(*o) for o in outer.tolist()], threshold)


def odd_record(rng, k, n_sigma=4):
    """A record that breaks a few data rules at random, for the validation oracle."""
    odd = [1.0, 0.0, -1.0, math.nan, math.inf, -math.inf]
    values = rng.choice(odd, size=8 + n_sigma, p=[0.7, 0.1, 0.05, 0.05, 0.05, 0.05])
    corners = rng.uniform(0, 100, size=8) * values[:8]
    if k and rng.random() < 0.7:
        probs = rng.dirichlet(np.ones(k))
    else:  # no -inf: math.fsum raises on inf - inf, where the oracle would fail
        probs = rng.uniform(0, 1, size=k) * rng.choice(odd[:5], size=k, p=[0.7, 0.1, 0.1, 0.05, 0.05])
    probs[:1] += float(rng.choice([0.0, 1e-6, -1e-6, 1.000001e-6, 0.5]))
    label = [0, 1, k, -1, 1.0, True, "1", None, 10**30, np.int64(1)][int(rng.integers(10))]
    return DetectionRecord(
        "r",
        BoundingBox(*corners[:4]),
        BoundingBox(*corners[4:]),
        label,
        tuple(probs),
        tuple(rng.uniform(0.1, 5, size=n_sigma) * values[8:]),
    )


def test_validation_matches_oracle():
    rng = np.random.default_rng(34)
    for _ in range(N_CASES // 4):
        k = int(rng.integers(1, 5))
        records = [odd_record(rng, k) for _ in range(int(rng.integers(1, 20)))]
        found = validate_columns(
            [r.pred_box.as_array() for r in records],
            [r.gt_box.as_array() for r in records],
            [r.sigma for r in records],
            [r.gt_class for r in records],
            [r.class_probs for r in records],
        )
        expected = [reference.validate_record(r) for r in records]
        assert found == {i: problems for i, problems in enumerate(expected) if problems}
        for rec in records + [odd_record(rng, int(rng.integers(0, 3)), int(rng.integers(0, 6)))]:
            assert validate_record(rec) == reference.validate_record(rec)
