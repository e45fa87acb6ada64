"""Evaluation metrics for conformalized detections.

Coverage is the joint event that every ground-truth corner falls inside
its interval (bounds inclusive).  Sharpness is measured two ways: the IoU
between the ground truth and the outer conformal box, and the interval
score, a proper scoring rule that charges the interval width plus
``2 / alpha`` times the violation distance for corners that escape.  The
box-level interval score is the sum over the four corners and the
reported per-run value is the sum over the evaluated records.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from .core import BoundingBox, ConformalBox, contains_xyxy
from .errors import LengthMismatch, OutOfRange, TooFewPairs

__all__ = [
    "METRICS",
    "MetricRow",
    "corner_coverage_event",
    "coverage_events",
    "iou",
    "iou_xyxy",
    "interval_score",
    "box_interval_scores",
    "recovery_rate",
    "recovery_counts",
    "paired_t_test",
    "two_sided_t_pvalue",
]


@dataclass(frozen=True)
class MetricRow:
    """Metrics of one experiment run (or one class within a run).

    ``coverage`` is the fraction of records whose box event held,
    ``mean_iou`` the average IoU against the outer box, and
    ``interval_score`` the total (summed) box interval score over the
    evaluated records.  The last three fields apply to regimes that also
    predict label sets and stay None elsewhere.
    """

    coverage: float
    mean_iou: float
    interval_score: float
    n_eval: int
    mean_set_size: float | None = None
    class_coverage: float | None = None
    joint_coverage: float | None = None


#: Names of the reported metrics in report column order: every
#: :class:`MetricRow` field but the ``n_eval`` count.
METRICS = tuple(f.name for f in fields(MetricRow) if f.name != "n_eval")


def corner_coverage_event(gt_box: BoundingBox, corner_intervals) -> tuple[tuple[bool, bool, bool, bool], bool]:
    """Coverage of each corner plus the box-level conjunction.

    ``corner_intervals`` is a sequence of four ``(low, high)`` pairs in
    corner order, or a :class:`~confdet.core.ConformalBox`.  Bounds are
    inclusive, and infinite bounds are allowed (a vacuous interval covers
    trivially).
    """
    if isinstance(corner_intervals, ConformalBox):
        corner_intervals = zip(corner_intervals.lows, corner_intervals.highs)
    lows, highs = np.array(list(corner_intervals), dtype=float).T
    if np.any(lows > highs):
        raise OutOfRange("corner intervals must satisfy low <= high")
    corner_hits, box_hit = coverage_events(gt_box.as_array(), lows, highs)
    return tuple(corner_hits.tolist()), bool(box_hit)


def coverage_events(gt: np.ndarray, lows: np.ndarray, highs: np.ndarray):
    """Vectorized corner and box coverage for ``(n, 4)`` arrays.

    Returns ``(corner_hits, box_hits)`` of shapes ``(n, 4)`` and ``(n,)``.
    """
    gt = np.asarray(gt, dtype=float)
    corner_hits = (np.asarray(lows) <= gt) & (gt <= np.asarray(highs))
    return corner_hits, corner_hits.all(axis=-1)


def iou_xyxy(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Intersection over union of corner-format boxes, broadcasting."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    ix = np.minimum(a[..., 2], b[..., 2]) - np.maximum(a[..., 0], b[..., 0])
    iy = np.minimum(a[..., 3], b[..., 3]) - np.maximum(a[..., 1], b[..., 1])
    inter = np.clip(ix, 0.0, None) * np.clip(iy, 0.0, None)
    area_a = np.clip(a[..., 2] - a[..., 0], 0.0, None) * np.clip(a[..., 3] - a[..., 1], 0.0, None)
    area_b = np.clip(b[..., 2] - b[..., 0], 0.0, None) * np.clip(b[..., 3] - b[..., 1], 0.0, None)
    union = area_a + area_b - inter
    return np.where(union > 0, inter / np.where(union > 0, union, 1.0), 0.0)


def iou(a: BoundingBox, b: BoundingBox) -> float:
    """Intersection over union of two boxes, zero when the union is empty."""
    return float(iou_xyxy(a.as_array(), b.as_array()))


def interval_score(low: float, high: float, value: float, alpha: float) -> float:
    """Interval score at level ``alpha`` for one interval and observation.

    ``(high - low) + (2 / alpha) * (low - value)_+ + (2 / alpha) * (value - high)_+``.
    Lower is better; the score is proper, so the expected-score minimizer
    is the central ``1 - alpha`` interval of the predictive distribution.
    """
    if low > high:
        raise OutOfRange("interval must satisfy low <= high")
    return float(box_interval_scores([low], [high], [value], alpha))


def box_interval_scores(lows: np.ndarray, highs: np.ndarray, gt: np.ndarray, alpha: float) -> np.ndarray:
    """Box-level interval score (sum over four corners), vectorized.

    ``alpha`` is the per-corner miscoverage level that was used to fit
    the intervals.
    """
    if not 0.0 < alpha < 1.0:
        raise OutOfRange(f"alpha must lie in (0, 1), got {alpha!r}")
    lows = np.asarray(lows, dtype=float)
    highs = np.asarray(highs, dtype=float)
    gt = np.asarray(gt, dtype=float)
    per_corner = (
        (highs - lows)
        + 2.0 / alpha * np.clip(lows - gt, 0.0, None)
        + 2.0 / alpha * np.clip(gt - highs, 0.0, None)
    )
    return per_corner.sum(axis=-1)


def recovery_rate(records, boxes, iou_threshold: float) -> float | None:
    """Fraction of badly localized predictions rescued by the outer box.

    Among records whose predicted box has IoU below ``iou_threshold``
    with the ground truth, the rate counts those whose ground truth lies
    fully inside the outer conformal box (bounds inclusive).  Returns
    None when no record falls below the threshold.
    """
    records = list(records)
    boxes = list(boxes)
    if len(records) != len(boxes):
        raise LengthMismatch(f"{len(records)} records vs {len(boxes)} boxes")
    pred = np.array([r.pred_box.as_array() for r in records]).reshape(-1, 4)
    gt = np.array([r.gt_box.as_array() for r in records]).reshape(-1, 4)
    outer = np.array([b.outer.as_array() for b in boxes]).reshape(-1, 4)
    rate, _ = recovery_counts(iou_xyxy(pred, gt), contains_xyxy(outer, gt), iou_threshold)
    return rate


def recovery_counts(pred_iou: np.ndarray, contained: np.ndarray, iou_threshold: float) -> tuple[float | None, int]:
    """Recovery rate and the number of records below ``iou_threshold``.

    ``pred_iou`` holds each record's IoU between prediction and ground
    truth and ``contained`` whether its outer box holds the ground truth.
    The rate is None when no record falls below the threshold.
    """
    if not 0.0 < iou_threshold <= 1.0:
        raise OutOfRange(f"iou_threshold must lie in (0, 1], got {iou_threshold!r}")
    below = np.asarray(pred_iou) < iou_threshold
    n_below = int(below.sum())
    return (float(np.asarray(contained)[below].mean()) if n_below else None), n_below


def two_sided_t_pvalue(t: float, df: int) -> float:
    """Two-sided p-value of a t statistic via the regularized incomplete beta.

    ``P(|T_df| >= |t|) = I_{df / (df + t^2)}(df / 2, 1 / 2)``.
    """
    if df < 1:
        raise OutOfRange(f"df must be >= 1, got {df!r}")
    if math.isinf(t):
        return 0.0
    from scipy import special  # only `confdet compare` needs scipy; importing it costs ~0.2 s

    return float(special.betainc(df / 2.0, 0.5, df / (df + float(t) ** 2)))


def paired_t_test(a, b) -> tuple[float, float]:
    """Two-sided paired t-test on matched samples.

    Returns ``(t, p)`` where ``t`` is the statistic of the differences
    ``a - b`` and ``p`` the two-sided p-value with ``n - 1`` degrees of
    freedom.  Degenerate cases are exact: when every difference is equal,
    ``p`` is 1.0 for a zero mean difference (t is 0) and 0.0 otherwise
    (t is signed infinity).

    Raises
    ------
    LengthMismatch
        If the samples differ in length.
    TooFewPairs
        If fewer than two pairs are supplied.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != b.shape or a.ndim != 1:
        raise LengthMismatch(f"paired samples must be 1-D and equal length, got {a.shape} vs {b.shape}")
    n = a.size
    if n < 2:
        raise TooFewPairs(f"paired_t_test needs >= 2 pairs, got {n}")
    d = a - b
    mean = float(d.mean())
    sd = float(d.std(ddof=1))
    if sd == 0.0:
        if mean == 0.0:
            return 0.0, 1.0
        return math.copysign(math.inf, mean), 0.0
    t = mean / (sd / math.sqrt(n))
    return t, two_sided_t_pvalue(t, n - 1)
