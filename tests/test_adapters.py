"""Each record-level function agrees with its scalar oracle.

The record-level API is one-row adapters over the array kernels; the
oracles in ``reference.py`` are the per-record loops those adapters
replaced.  Adaptive scores may differ in the last bits, because the
kernel takes a cumulative sum where the loop summed a prefix; every other
adapter must agree exactly.
"""

import math

import numpy as np
import pytest

import reference
from confdet.calibration import normalize_sigma
from confdet.classification import aps_score, build_prediction_set, raps_score
from confdet.core import BoundingBox, DetectionRecord, RAPSConfig, validate_columns, validate_record
from confdet.errors import DegenerateBox
from confdet.metrics import corner_coverage_event, interval_score, recovery_rate
from confdet.regression import build_conformal_box, score_scaled, score_unscaled

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
        assert aps_score(p, c) == pytest.approx(reference.aps_score(p, c), rel=1e-15, abs=1e-15)
        assert raps_score(p, c, cfg) == pytest.approx(reference.raps_score(p, c, cfg), rel=1e-15, abs=1e-15)
        qhat = float(rng.choice([0.0, rng.uniform(0, 1.5), math.inf]))
        assert build_prediction_set(p, qhat, cfg) == reference.build_prediction_set(p, qhat, cfg)


def test_box_adapters_match_oracles():
    rng = np.random.default_rng(32)
    for _ in range(N_CASES):
        rec = random_record(rng)
        pred, gt = rec.pred_box, rec.gt_box
        assert np.array_equal(score_unscaled(pred, gt), reference.score_unscaled(pred, gt))
        assert np.array_equal(score_scaled(pred, gt, rec.sigma), reference.score_scaled(pred, gt, rec.sigma))
        box = build_conformal_box(pred, rec.sigma, rng.uniform(0, 30, size=4))
        pairs = list(zip(gt.as_array() - rng.uniform(-3, 5, size=4), gt.as_array() + rng.uniform(3, 5, size=4)))
        for intervals in (box, pairs):
            assert corner_coverage_event(gt, intervals) == reference.corner_coverage_event(gt, intervals)
        low, high = sorted(rng.uniform(-10, 10, size=2))
        args = (low, high, float(rng.uniform(-20, 20)), float(rng.uniform(0.001, 0.5)))
        assert interval_score(*args) == reference.interval_score(*args)
        for corner in range(4):
            try:
                expected = reference.normalize_sigma(rec, corner)
            except DegenerateBox:
                with pytest.raises(DegenerateBox):
                    normalize_sigma(rec, corner)
            else:
                assert normalize_sigma(rec, corner) == expected


def test_recovery_rate_matches_oracle():
    rng = np.random.default_rng(33)
    for _ in range(N_CASES // 4):
        records = [random_record(rng) for _ in range(int(rng.integers(0, 25)))]
        boxes = [build_conformal_box(r.pred_box, None, rng.uniform(0, 80, size=4)) for r in records]
        threshold = float(rng.uniform(0.01, 1.0))
        assert recovery_rate(records, boxes, threshold) == reference.recovery_rate(records, boxes, threshold)


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
