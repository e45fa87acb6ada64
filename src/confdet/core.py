"""Core data types for conformalized object detection.

Every box is an axis-aligned corner pair in pixel coordinates and every
length-4 vector in the package (sigma, scores, quantiles, intervals)
follows the fixed corner order ``(x0, y0, x1, y1)``.  All types are
frozen and safe to share across worker processes.  All but
:class:`Dataset` compare by value; a dataset holds numpy columns and
compares by identity, so compare its columns or ``records`` instead.

Construction never validates: a ``DetectionRecord`` built from garbage is
still a value. :func:`validate_columns` reports every violation instead so
that loaders can decide whether to reject a line or abort.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import Iterable, Iterator, Mapping

import numpy as np

from .errors import InvalidClass, LengthMismatch, OutOfRange, ValidationError

#: Index of the group key used by class-agnostic quantile tables.
AGNOSTIC = "agnostic"

#: Absolute tolerance for the class-probability sum check.
PROB_SUM_TOL = 1e-6

SCOPE_CLASS_AGNOSTIC = "class_agnostic"
SCOPE_CLASS_WISE = "class_wise"


@dataclass(frozen=True)
class BoundingBox:
    """Axis-aligned box given by its top-left and bottom-right corners.

    The intended invariants are ``x0 <= x1`` and ``y0 <= y1``; degenerate
    (zero width or height) boxes are legal.  Violations are reported by
    :func:`validate_columns`, not enforced here.
    """

    x0: float
    y0: float
    x1: float
    y1: float

    @property
    def width(self) -> float:
        return self.x1 - self.x0

    @property
    def height(self) -> float:
        return self.y1 - self.y0

    def as_array(self) -> np.ndarray:
        return np.array([self.x0, self.y0, self.x1, self.y1], dtype=float)

    def is_image_extent(self) -> bool:
        """True when the box can bound an image: finite, ``x0 < x1`` and ``y0 < y1``."""
        return bool(np.isfinite(self.as_array()).all()) and self.x0 < self.x1 and self.y0 < self.y1


def contains_xyxy(outer: np.ndarray, inner: np.ndarray) -> np.ndarray:
    """True where box ``inner`` lies fully inside ``outer`` (bounds inclusive), broadcasting."""
    outer = np.asarray(outer, dtype=float)
    inner = np.asarray(inner, dtype=float)
    return (outer[..., :2] <= inner[..., :2]).all(axis=-1) & (inner[..., 2:] <= outer[..., 2:]).all(axis=-1)


#: Clamp target for vacuous (infinite) intervals when no image size is known.
DEFAULT_IMAGE_BOUNDS = BoundingBox(0.0, 0.0, 10000.0, 10000.0)


@dataclass(frozen=True)
class DetectionRecord:
    """One matched prediction/ground-truth pair from a detector.

    Parameters
    ----------
    image_id : str
        Opaque identifier of the source image.
    pred_box, gt_box : BoundingBox
        Predicted and ground-truth boxes.  Matching predictions to ground
        truths is the caller's problem; records arrive already paired.
    gt_class : int
        Ground-truth class id in ``[0, K)``.
    class_probs : tuple of float
        Per-class probability vector of length ``K`` (sums to one).
    sigma : tuple of float
        Predicted corner standard deviations, order ``(x0, y0, x1, y1)``,
        all strictly positive.
    """

    image_id: str
    pred_box: BoundingBox
    gt_box: BoundingBox
    gt_class: int
    class_probs: tuple[float, ...]
    sigma: tuple[float, float, float, float]


def _exact_sum(values) -> float:
    try:
        return math.fsum(values)
    except (OverflowError, ValueError):  # inf - inf, or an intermediate overflow
        return sum(values)


def _is_integer(value) -> bool:
    # labels and integer settings: exact, as bool is an int subclass and a float or string is not converted
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _label_array(labels, n: int) -> np.ndarray:
    """``labels`` as an ``(n,)`` integer array; a bool, float or string label is rejected, not truncated."""
    labels = np.asarray(labels)
    if labels.shape != (n,):
        raise InvalidClass(f"labels must have one entry per row, got shape {labels.shape} for {n} rows")
    if labels.dtype.kind not in "iu":
        raise InvalidClass(f"labels must be integers, got dtype {labels.dtype}")
    return labels


def validate_columns(pred, gt, sigma, gt_class, probs) -> dict[int, list[str]]:
    """Check rows of columns against the data contract.

    ``pred`` and ``gt`` are ``(n, 4)`` corner arrays, ``sigma`` is
    ``(n, m)`` and ``probs`` ``(n, K)``.  ``gt_class`` holds the ``n``
    labels as given, so a float, bool or string label is reported rather
    than converted.  Returns a dict that maps the index of each row that
    breaks a rule, in ascending order, to one message per broken rule;
    valid rows are absent.  For columns of these shapes the check is total:
    it inspects every rule and never raises, so loaders can report all
    problems on a line at once.
    """
    pred, gt, sigma, probs = (np.asarray(a, dtype=float) for a in (pred, gt, sigma, probs))
    n, k = probs.shape
    # (mask over rows, message) in message order; a callable message takes the row index
    rules = []
    for name, box in (("pred_box", pred), ("gt_box", gt)):
        finite = np.isfinite(box).all(axis=1)
        rules += [
            (~finite, f"{name} has non-finite coordinates"),
            (finite & (box[:, 0] > box[:, 2]), f"{name}: x0 > x1"),
            (finite & (box[:, 1] > box[:, 3]), f"{name}: y0 > y1"),
        ]
    if sigma.shape[1] != 4:
        rules.append((np.ones(n, dtype=bool), f"sigma has {sigma.shape[1]} entries, expected 4"))
    else:
        rules += [(~(np.isfinite(s) & (s > 0)), f"sigma[{i}] not > 0") for i, s in enumerate(sigma.T)]
    if k == 0:
        rules.append((np.ones(n, dtype=bool), "class_probs is empty"))
    else:
        negative = [~(np.isfinite(p) & (p >= 0)) for p in probs.T]
        rules += [(mask, f"class_probs[{i}] not >= 0") for i, mask in enumerate(negative)]
        # For finite p >= 0 with exact sum S, a summed row lies within (k - 1) u S
        # of S in any order of addition, u = eps / 2 (Higham, Accuracy and Stability
        # of Numerical Algorithms, 2002, eq. 4.4), and fsum within u S: the two
        # differ by at most about k u S, a quarter of the margin 4 k eps * total.
        # A row inside the tolerance by the margin passes by fsum too.  The other
        # rows (near the bound, failing, negative or non-finite) take the exact
        # sum, which is also what their message prints
        with np.errstate(over="ignore", invalid="ignore"):  # inf and nan rows take the exact sum
            total = probs.sum(axis=1)
        margin = 4 * k * np.finfo(float).eps * total
        clear = ~np.logical_or.reduce(negative) & (np.abs(total - 1.0) < PROB_SUM_TOL - margin)
        exact = np.flatnonzero(~clear)
        total[exact] = [_exact_sum(row) for row in probs[exact].tolist()]
        rules.append((
            ~(np.abs(total - 1.0) <= PROB_SUM_TOL),
            lambda r: f"class_probs sum {total[r]:.8g} differs from 1 by more than {PROB_SUM_TOL:g}",
        ))
        labels = np.fromiter(gt_class, dtype=object, count=n)
        if set(map(type, labels)) <= {int}:  # as parsed from JSON
            is_label = np.ones(n, dtype=bool)
        else:
            is_label = np.fromiter(map(_is_integer, labels), dtype=bool, count=n)
        in_range = is_label.copy()
        in_range[is_label] = (labels[is_label] >= 0) & (labels[is_label] < k)
        rules += [
            (~is_label, lambda r: f"gt_class {labels[r]!r} is not an integer"),
            (is_label & ~in_range, lambda r: f"gt_class {labels[r]} outside [0, {k})"),
        ]
    bad = np.zeros(n, dtype=bool)
    for mask, _ in rules:
        bad |= mask
    return {
        int(r): [message(r) if callable(message) else message for mask, message in rules if mask[r]]
        for r in np.flatnonzero(bad)
    }


def validate_record(record: DetectionRecord) -> list[str]:
    """Check one record against the data contract: :func:`validate_columns` on one row.

    Returns a list with one message per violated rule, empty for a valid
    record.
    """
    return validate_columns(
        [record.pred_box.as_array()],
        [record.gt_box.as_array()],
        [list(record.sigma)],
        [record.gt_class],
        [list(record.class_probs)],
    ).get(0, [])


@dataclass(frozen=True)
class MiscoverageConfig:
    """Target miscoverage levels.

    ``alpha_corner`` is the per-corner miscoverage of the box intervals,
    so the nominal box-level guarantee is ``1 - 4 * alpha_corner`` and the
    value must stay below 0.25.  ``alpha_class`` is the miscoverage of the
    label prediction sets.
    """

    alpha_corner: float
    alpha_class: float = 0.01

    def __post_init__(self):
        if not 0.0 < self.alpha_corner < 0.25:
            raise OutOfRange(
                f"alpha_corner must lie in (0, 0.25), got {self.alpha_corner!r}"
            )
        if not 0.0 < self.alpha_class < 1.0:
            raise OutOfRange(
                f"alpha_class must lie in (0, 1), got {self.alpha_class!r}"
            )

    @property
    def alpha_bbox(self) -> float:
        """Box-level miscoverage budget implied by the per-corner level."""
        return 4.0 * self.alpha_corner


@dataclass(frozen=True)
class RAPSConfig:
    """Settings for regularized adaptive prediction sets.

    ``penalty_a`` is the per-rank regularization weight and ``threshold_b``
    the rank past which it applies; ``penalty_a = 0`` recovers plain
    adaptive sets.  ``allow_empty`` selects the set rule: when False the
    assembly includes the class that crosses the threshold (and falls back
    to the top class if even that yields nothing), when True it keeps only
    classes whose running total stays within the threshold and may return
    an empty set.  ``penalty_at_inference`` keeps the rank penalty in the
    running total at assembly time, symmetric with scoring; set it to
    False to regularize calibration scores only.
    """

    penalty_a: float = 0.01
    threshold_b: int = 5
    allow_empty: bool = False
    penalty_at_inference: bool = True

    def __post_init__(self):
        if not (math.isfinite(self.penalty_a) and self.penalty_a >= 0):
            raise OutOfRange(f"penalty_a must be >= 0, got {self.penalty_a!r}")
        if not (_is_integer(self.threshold_b) and self.threshold_b >= 0):
            raise OutOfRange(f"threshold_b must be an integer >= 0, got {self.threshold_b!r}")


@dataclass(frozen=True)
class QuantileTable:
    """Fitted conformal quantiles, one 4-vector of corners per group.

    ``scope`` is either :data:`SCOPE_CLASS_AGNOSTIC` (single group keyed
    :data:`AGNOSTIC`) or :data:`SCOPE_CLASS_WISE` (one group per class id).
    ``level`` records the realized order-statistic level
    ``ceil((n + 1) (1 - alpha)) / n`` per group; values above 1 mark
    vacuous (infinite) quantiles.  ``flagged`` lists groups whose
    calibration count fell below the configured minimum.
    """

    scope: str
    quantiles: Mapping[object, tuple[float, float, float, float]]
    level: Mapping[object, float]
    n_per_group: Mapping[object, int]
    alpha_corner: float
    flagged: tuple = ()

    def corners(self, group) -> np.ndarray:
        """Corner quantiles for one group as a length-4 array."""
        return np.array(self.quantiles[group], dtype=float)

    def by_class(self, n_classes: int) -> np.ndarray:
        """Stack class-wise corner quantiles into a ``(K, 4)`` array."""
        if self.scope != SCOPE_CLASS_WISE:
            raise KeyError("by_class is only defined for class-wise tables")
        return np.stack([self.corners(k) for k in range(n_classes)])


@dataclass(frozen=True)
class CalibrationMap:
    """Monotone step function from a weighted isotonic fit.

    ``breakpoints`` are strictly ascending block boundaries and ``values``
    the non-decreasing fitted block values.  Evaluation is left-constant:
    an input maps to the value of the greatest breakpoint not above it,
    with flat extrapolation on both sides.  ``scope_key`` names what the
    map calibrates: the string ``"global"`` or a ``(class_id, corner)``
    pair.
    """

    breakpoints: tuple[float, ...]
    values: tuple[float, ...]
    scope_key: object = "global"


@dataclass(frozen=True, eq=False)
class Dataset:
    """Matched detections held column by column, one row per record.

    ``image_ids`` is an object array of strings; ``pred``, ``gt`` and
    ``sigma`` are ``(n, 4)`` float arrays in corner order; ``gt_class``
    is an ``(n,)`` int array and ``probs`` the ``(n, K)`` class
    probabilities.  Indexing or iterating yields the rows as
    :class:`DetectionRecord` values, built on demand.  Columns that differ
    in row count raise :class:`LengthMismatch`.
    """

    image_ids: np.ndarray
    pred: np.ndarray
    gt: np.ndarray
    sigma: np.ndarray
    gt_class: np.ndarray
    probs: np.ndarray

    def __post_init__(self):
        rows = {f.name: len(getattr(self, f.name)) for f in fields(self)}
        if len(set(rows.values())) > 1:
            raise LengthMismatch(f"dataset columns differ in row count: {rows}")

    @property
    def n_classes(self) -> int:
        return self.probs.shape[1]

    def __len__(self) -> int:
        return self.pred.shape[0]

    def __getitem__(self, i) -> DetectionRecord:
        return DetectionRecord(
            image_id=self.image_ids[i],
            pred_box=BoundingBox(*self.pred[i].tolist()),
            gt_box=BoundingBox(*self.gt[i].tolist()),
            gt_class=int(self.gt_class[i]),
            class_probs=tuple(self.probs[i].tolist()),
            sigma=tuple(self.sigma[i].tolist()),
        )

    def __iter__(self) -> Iterator[DetectionRecord]:
        return (self[i] for i in range(len(self)))

    @property
    def records(self) -> tuple[DetectionRecord, ...]:
        """Every row as a record; costs one object per row, so stream instead."""
        return tuple(self)

    def take(self, idx) -> "Dataset":
        """The rows at ``idx`` (indices or a mask), in that order."""
        return Dataset(**{f.name: getattr(self, f.name)[idx] for f in fields(self)})

    @classmethod
    def from_records(cls, records: Iterable[DetectionRecord]) -> "Dataset":
        """Build a dataset from records, inferring the class count.

        Raises
        ------
        ValidationError
            If an ``image_id`` is not a string, or on any record
            :func:`records_to_arrays` rejects.
        """
        recs = list(records)
        if not recs:
            raise ValidationError("cannot build a dataset from zero records")
        pred, gt, sigma, gt_class, probs = records_to_arrays(recs)
        for i, rec in enumerate(recs):
            if not isinstance(rec.image_id, str):
                raise ValidationError("image_id must be a string", line=i + 1)
        image_ids = np.array([rec.image_id for rec in recs], dtype=object)
        return cls(image_ids, pred, gt, sigma, gt_class, probs)


def records_to_arrays(records: Iterable[DetectionRecord]):
    """Unpack records into dense arrays for vectorized work.

    Returns ``(pred, gt, sigma, gt_class, class_probs)`` with shapes
    ``(n, 4)``, ``(n, 4)``, ``(n, 4)``, ``(n,)`` and ``(n, K)``.

    Raises
    ------
    ValidationError
        If a ``gt_class`` is not an integer (bools and floats included), a
        ``class_probs`` length differs from the first record's, or a
        ``sigma`` does not have 4 entries, with the 1-based record number
        as its line.
    """
    recs = list(records)
    n_classes = len(recs[0].class_probs) if recs else 0
    for i, rec in enumerate(recs):
        if not _is_integer(rec.gt_class):
            problem = f"gt_class {rec.gt_class!r} is not an integer"
        elif len(rec.class_probs) != n_classes:
            problem = f"class_probs length {len(rec.class_probs)} differs from {n_classes} inferred from the first record"
        elif len(rec.sigma) != 4:
            problem = f"sigma has {len(rec.sigma)} entries, expected 4"
        else:
            continue
        raise ValidationError(problem, line=i + 1)
    pred = np.array([[r.pred_box.x0, r.pred_box.y0, r.pred_box.x1, r.pred_box.y1] for r in recs], dtype=float)
    gt = np.array([[r.gt_box.x0, r.gt_box.y0, r.gt_box.x1, r.gt_box.y1] for r in recs], dtype=float)
    sigma = np.array([r.sigma for r in recs], dtype=float)
    gt_class = np.array([r.gt_class for r in recs], dtype=int)
    probs = np.array([r.class_probs for r in recs], dtype=float)
    return pred, gt, sigma, gt_class, probs
