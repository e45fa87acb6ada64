"""Scalar reference implementations of the record-level rules.

The library states each rule once, as an array kernel over columns.
These per-record loops are the independent oracles the kernels are
checked against; keep them written out, one record at a time.  The
same holds for dataset files: ``load_dataset`` here parses, builds and
validates one record per line, and the writers call ``json.dumps`` once
per line, where the library works over columns.
"""

import json
import math
from decimal import Decimal

import numpy as np

from confdet.calibration import DIMENSION_EPS, SCOPE_RAW, SIGMA_FLOOR
from confdet.classification import class_order
from confdet.core import PROB_SUM_TOL, BoundingBox, Dataset, DetectionRecord
from confdet.errors import (
    EmptyFile,
    InvalidClass,
    NonPositiveSigma,
    OutOfRange,
    ParseError,
    ValidationError,
)
from confdet.io import RECORD_FIELDS, LoadReport


def exact_rank(n: int, alpha: float) -> int:
    """ceil((n + 1)(1 - alpha)) in integers, alpha at its shortest round-trip decimal."""
    num, den = Decimal(repr(float(alpha))).as_integer_ratio()
    return -((-(n + 1) * (den - num)) // den)


def conformal_quantile(scores, alpha):
    """The exact_rank-th smallest score, inf when that rank exceeds the count."""
    s = sorted(float(v) for v in scores)
    rank = exact_rank(len(s), alpha)
    return s[rank - 1] if rank <= len(s) else math.inf


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
    """The classes of the set, in descending probability."""
    p = np.asarray(class_probs, dtype=float)
    if p.ndim != 1 or p.size == 0:
        raise OutOfRange("class_probs must be a non-empty vector")
    if math.isnan(qhat) or qhat < 0:
        raise OutOfRange(f"qhat must be >= 0, got {qhat!r}")
    order = class_order(p)
    if math.isinf(qhat):
        return tuple(int(c) for c in order)
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
    return tuple(int(c) for c in order[:size])


def corner_coverage_event(gt_box, corner_intervals):
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


def iou(a, b):
    inter = max(min(a.x1, b.x1) - max(a.x0, b.x0), 0.0) * max(min(a.y1, b.y1) - max(a.y0, b.y0), 0.0)
    union = max(a.width, 0.0) * max(a.height, 0.0) + max(b.width, 0.0) * max(b.height, 0.0) - inter
    return inter / union if union > 0 else 0.0


def recovery_rate(records, outer_boxes, iou_threshold):
    if not 0.0 < iou_threshold <= 1.0:
        raise OutOfRange(f"iou_threshold must lie in (0, 1], got {iou_threshold!r}")
    low_iou = [(rec, o) for rec, o in zip(records, outer_boxes) if iou(rec.pred_box, rec.gt_box) < iou_threshold]
    if not low_iou:
        return None
    recovered = 0
    for rec, o in low_iou:
        g = rec.gt_box
        recovered += o.x0 <= g.x0 and o.y0 <= g.y0 and g.x1 <= o.x1 and g.y1 <= o.y1
    return recovered / len(low_iou)


def normalize_sigma(record, corner):
    """Sigma over the corner's predicted-box dimension, None where that dimension is degenerate."""
    dim = record.pred_box.width if corner in (0, 2) else record.pred_box.height
    if dim <= DIMENSION_EPS:
        return None
    return float(record.sigma[corner]) / dim


def calibrated_sigma(calibrator, record):
    """One record's recalibrated sigma, corner by corner.

    Each corner's sigma is normalized by its predicted-box dimension, mapped
    by the record's class map for that corner or else the global map (the
    value of the last breakpoint at or below it, found by a linear scan, or
    the first value below them all), denormalized and floored.  A raw
    calibrator or a degenerate box keeps the raw sigma.
    """
    box = record.pred_box
    if calibrator.scope == SCOPE_RAW or box.width <= DIMENSION_EPS or box.height <= DIMENSION_EPS:
        return tuple(float(s) for s in record.sigma)
    out = []
    for corner in range(4):
        cmap = (calibrator.maps or {}).get((record.gt_class, corner), calibrator.global_map)
        x = normalize_sigma(record, corner)
        value = cmap.values[0]
        for bp, v in zip(cmap.breakpoints, cmap.values):
            if bp > x:
                break
            value = v
        dim = box.width if corner in (0, 2) else box.height
        out.append(max(value * dim, SIGMA_FLOOR))
    return tuple(out)


def validate_record(record):
    problems = []
    for name, box in (("pred_box", record.pred_box), ("gt_box", record.gt_box)):
        if not all(math.isfinite(v) for v in (box.x0, box.y0, box.x1, box.y1)):
            problems.append(f"{name} has non-finite coordinates")
            continue
        if box.x0 > box.x1:
            problems.append(f"{name}: x0 > x1")
        if box.y0 > box.y1:
            problems.append(f"{name}: y0 > y1")

    sigma = tuple(record.sigma)
    if len(sigma) != 4:
        problems.append(f"sigma has {len(sigma)} entries, expected 4")
    else:
        for i, s in enumerate(sigma):
            if not (math.isfinite(s) and s > 0):
                problems.append(f"sigma[{i}] not > 0")

    probs = tuple(record.class_probs)
    if len(probs) == 0:
        problems.append("class_probs is empty")
    else:
        for i, p in enumerate(probs):
            if not (math.isfinite(p) and p >= 0):
                problems.append(f"class_probs[{i}] not >= 0")
        total = math.fsum(probs)
        if not abs(total - 1.0) <= PROB_SUM_TOL:
            problems.append(f"class_probs sum {total:.8g} differs from 1 by more than {PROB_SUM_TOL:g}")
        if not (isinstance(record.gt_class, (int, np.integer)) and not isinstance(record.gt_class, bool)):
            problems.append(f"gt_class {record.gt_class!r} is not an integer")
        elif not 0 <= record.gt_class < len(probs):
            problems.append(f"gt_class {record.gt_class} outside [0, {len(probs)})")
    return problems


def _parse_line(line, lineno, n_classes):
    try:
        doc = json.loads(line)
    except json.JSONDecodeError as exc:
        raise ParseError(lineno, f"invalid JSON ({exc.msg})") from exc
    if not isinstance(doc, dict):
        raise ValidationError("record line must be a JSON object", line=lineno)
    missing = [f for f in RECORD_FIELDS if f not in doc]
    if missing:
        raise ValidationError(f"missing fields: {', '.join(missing)}", line=lineno)
    for name in ("pred_box", "gt_box", "sigma"):
        value = doc[name]
        if not (isinstance(value, list) and len(value) == 4):
            raise ValidationError(f"{name} must be a list of 4 numbers", line=lineno)
    if not isinstance(doc["class_probs"], list) or not doc["class_probs"]:
        raise ValidationError("class_probs must be a non-empty list", line=lineno)
    for name in ("pred_box", "gt_box", "sigma", "class_probs"):
        if not {int, float}.issuperset(map(type, doc[name])):
            raise ValidationError(f"{name} must hold JSON numbers only", line=lineno)
    if not isinstance(doc["image_id"], str):
        raise ValidationError("image_id must be a string", line=lineno)
    try:
        record = DetectionRecord(
            image_id=doc["image_id"],
            pred_box=BoundingBox(*map(float, doc["pred_box"])),
            gt_box=BoundingBox(*map(float, doc["gt_box"])),
            gt_class=doc["gt_class"],
            class_probs=tuple(map(float, doc["class_probs"])),
            sigma=tuple(map(float, doc["sigma"])),
        )
    except OverflowError as exc:
        raise ValidationError(f"malformed field value ({exc})", line=lineno) from exc
    if n_classes is not None and len(record.class_probs) != n_classes:
        raise ValidationError(
            f"class_probs length {len(record.class_probs)} differs from {n_classes} seen earlier in the file",
            line=lineno,
        )
    problems = validate_record(record)
    if problems:
        raise ValidationError("; ".join(problems), line=lineno)
    return record


def load_dataset(path, strict=False):
    """The per-line loader: parse, build a record and validate it, one line at a time."""
    records, rejected, messages = [], [], []
    n_classes = None
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip(" \t\n\r"):  # blank: JSON whitespace only
                continue
            try:
                record = _parse_line(line, lineno, n_classes)
            except (ParseError, ValidationError) as exc:
                if strict:
                    raise
                rejected.append(lineno)
                messages.append(str(exc))
                continue
            if n_classes is None:
                n_classes = len(record.class_probs)
            records.append(record)
    if not records:
        raise EmptyFile(f"{path}: no usable records")
    return Dataset.from_records(records), LoadReport(
        n_loaded=len(records), rejected_lines=tuple(rejected), messages=tuple(messages)
    )


def record_to_dict(record):
    return {
        "image_id": record.image_id,
        "pred_box": list(record.pred_box.as_array()),
        "gt_box": list(record.gt_box.as_array()),
        "gt_class": record.gt_class,
        "class_probs": list(record.class_probs),
        "sigma": list(record.sigma),
    }


def save_dataset(dataset, path):
    with open(path, "w", encoding="utf-8") as fh:
        for record in dataset:
            fh.write(json.dumps(record_to_dict(record), sort_keys=True))
            fh.write("\n")


def save_oracle_info(info, path):
    with open(path, "w", encoding="utf-8") as fh:
        for i, (true_scale, base_scale) in enumerate(zip(info.true_scales, info.base_scales)):
            fh.write(
                json.dumps({"index": i, "true_scale": float(true_scale), "base_scale": float(base_scale)}, sort_keys=True)
            )
            fh.write("\n")
