"""Scalar reference implementations of the record-level rules.

The library states each rule once, as an array kernel, and its
record-level functions are one-row adapters over those kernels.  These
per-record loops are the independent oracles the kernels and adapters
are checked against; keep them written out, one record at a time.
"""

import math

import numpy as np

from confdet.calibration import DIMENSION_EPS
from confdet.classification import class_order
from confdet.core import ConformalBox, PredictionSet
from confdet.errors import DegenerateBox, InvalidClass, NonPositiveSigma, OutOfRange
from confdet.metrics import iou


def score_unscaled(pred_box, gt_box):
    return np.abs(pred_box.as_array() - gt_box.as_array())


def score_scaled(pred_box, gt_box, sigma):
    s = np.asarray(sigma, dtype=float)
    if s.shape != (4,):
        raise NonPositiveSigma(f"sigma must have 4 entries, got shape {s.shape}")
    if not np.all(np.isfinite(s) & (s > 0)):
        raise NonPositiveSigma(f"sigma entries must be > 0, got {sigma!r}")
    return np.abs(pred_box.as_array() - gt_box.as_array()) / s


def _check_class(class_probs, true_class):
    k = len(class_probs)
    if isinstance(true_class, bool) or not isinstance(true_class, (int, np.integer)):
        raise InvalidClass(f"true_class must be an integer, got {true_class!r}")
    if not 0 <= true_class < k:
        raise InvalidClass(f"true_class {true_class} outside [0, {k})")


def aps_score(class_probs, true_class):
    _check_class(class_probs, true_class)
    p = np.asarray(class_probs, dtype=float)
    order = class_order(p)
    rank = int(np.nonzero(order == true_class)[0][0])  # 0-based
    return float(p[order[: rank + 1]].sum())


def raps_score(class_probs, true_class, config):
    base = aps_score(class_probs, true_class)
    p = np.asarray(class_probs, dtype=float)
    rank = int(np.nonzero(class_order(p) == true_class)[0][0]) + 1
    return base + config.penalty_a * max(0, rank - config.threshold_b)


def build_prediction_set(class_probs, qhat, config):
    p = np.asarray(class_probs, dtype=float)
    if p.ndim != 1 or p.size == 0:
        raise OutOfRange("class_probs must be a non-empty vector")
    if math.isnan(qhat) or qhat < 0:
        raise OutOfRange(f"qhat must be >= 0, got {qhat!r}")
    order = class_order(p)
    if math.isinf(qhat):
        return PredictionSet(classes=tuple(int(c) for c in order), qhat_class=qhat)
    totals = np.cumsum(p[order])
    if config.penalty_a > 0 and config.penalty_at_inference:
        totals = totals + config.penalty_a * np.maximum(0, np.arange(1, p.size + 1) - config.threshold_b)
    if config.allow_empty:
        size = int(np.count_nonzero(totals <= qhat))
    elif qhat > 0:
        # the running total before admitting rank r is totals[r-2], zero for r=1
        size = min(1 + int(np.count_nonzero(totals[:-1] < qhat)), p.size)
    else:
        size = 1  # a zero threshold admits nothing; keep the top class
    return PredictionSet(classes=tuple(int(c) for c in order[:size]), qhat_class=float(qhat))


def corner_coverage_event(gt_box, corner_intervals):
    if isinstance(corner_intervals, ConformalBox):
        corner_intervals = zip(corner_intervals.lows, corner_intervals.highs)
    pairs = [(float(lo), float(hi)) for lo, hi in corner_intervals]
    if any(lo > hi for lo, hi in pairs):
        raise OutOfRange("corner intervals must satisfy low <= high")
    hits = tuple(bool(lo <= c <= hi) for c, (lo, hi) in zip(gt_box.as_array(), pairs))
    return hits, all(hits)


def interval_score(low, high, value, alpha):
    if not 0.0 < alpha < 1.0:
        raise OutOfRange(f"alpha must lie in (0, 1), got {alpha!r}")
    if low > high:
        raise OutOfRange("interval must satisfy low <= high")
    return float((high - low) + 2.0 / alpha * max(low - value, 0.0) + 2.0 / alpha * max(value - high, 0.0))


def recovery_rate(records, boxes, iou_threshold):
    if not 0.0 < iou_threshold <= 1.0:
        raise OutOfRange(f"iou_threshold must lie in (0, 1], got {iou_threshold!r}")
    low_iou = [(rec, box) for rec, box in zip(records, boxes) if iou(rec.pred_box, rec.gt_box) < iou_threshold]
    if not low_iou:
        return None
    recovered = 0
    for rec, box in low_iou:
        o, g = box.outer, rec.gt_box
        recovered += o.x0 <= g.x0 and o.y0 <= g.y0 and g.x1 <= o.x1 and g.y1 <= o.y1
    return recovered / len(low_iou)


def normalize_sigma(record, corner):
    dim = record.pred_box.width if corner in (0, 2) else record.pred_box.height
    if dim <= DIMENSION_EPS:
        raise DegenerateBox(f"predicted box dimension {dim!r} too small to normalize corner {corner}")
    return float(record.sigma[corner]) / dim
