"""File formats: JSONL datasets, JSON/CSV reports, oracle side channels.

Datasets are JSON Lines, one record per line::

    {"image_id": "frame-000123", "pred_box": [x0, y0, x1, y1],
     "gt_box": [x0, y0, x1, y1], "gt_class": 2,
     "class_probs": [0.1, 0.7, 0.2], "sigma": [s_x0, s_y0, s_x1, s_y1]}

Detections must already be matched to ground truths; converting COCO or
KITTI style annotation pairs into this shape is a few lines of caller
code.  Reports are emitted deterministically (sorted keys, reals rendered
with 6 significant digits) so byte-identical output means identical
results.
"""

from __future__ import annotations

import csv
import io as _stdio
import json
import logging
import math
from dataclasses import asdict, dataclass

import numpy as np

from .core import BoundingBox, Dataset, DetectionRecord, validate_record
from .errors import EmptyFile, MalformedFile, OutOfRange, ParseError, ValidationError
from .metrics import METRICS, MetricRow
from .pipeline import RunReport, RunResult

logger = logging.getLogger(__name__)

RECORD_FIELDS = ("image_id", "pred_box", "gt_box", "gt_class", "class_probs", "sigma")

REPORT_FORMATS = ("json", "csv")

CSV_COLUMNS = ("run", "seed", *METRICS, "n_eval")


@dataclass(frozen=True)
class LoadReport:
    """Outcome of loading a dataset file."""

    n_loaded: int
    rejected_lines: tuple[int, ...]
    messages: tuple[str, ...]


def _parse_line(line: str, lineno: int, n_classes: int | None) -> DetectionRecord:
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
        # exact types: bool is an int subclass, and float() would parse a string
        if not {int, float}.issuperset(map(type, doc[name])):
            raise ValidationError(f"{name} must hold JSON numbers only", line=lineno)
    if not isinstance(doc["image_id"], str):
        raise ValidationError("image_id must be a string", line=lineno)
    try:
        record = DetectionRecord(
            image_id=doc["image_id"],
            pred_box=BoundingBox(*map(float, doc["pred_box"])),
            gt_box=BoundingBox(*map(float, doc["gt_box"])),
            gt_class=doc["gt_class"],  # validate_record rejects a non-integer
            class_probs=tuple(map(float, doc["class_probs"])),
            sigma=tuple(map(float, doc["sigma"])),
        )
    except OverflowError as exc:  # an integer literal beyond the float range
        raise ValidationError(f"malformed field value ({exc})", line=lineno) from exc
    if n_classes is not None and len(record.class_probs) != n_classes:
        raise ValidationError(
            f"class_probs length {len(record.class_probs)} differs from {n_classes} "
            "seen earlier in the file",
            line=lineno,
        )
    problems = validate_record(record)
    if problems:
        raise ValidationError("; ".join(problems), line=lineno)
    return record


def load_dataset(path, strict: bool = False) -> tuple[Dataset, LoadReport]:
    """Load and validate a JSONL dataset.

    In the default lenient mode invalid lines are skipped and collected
    in the returned :class:`LoadReport`; with ``strict=True`` the first
    bad line aborts the load.  Blank lines are ignored.

    Raises
    ------
    EmptyFile
        If the file contains no usable records.
    ParseError, ValidationError
        In strict mode, for the first offending line.
    """
    records: list[DetectionRecord] = []
    rejected: list[int] = []
    messages: list[str] = []
    n_classes: int | None = None
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
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
    if rejected:
        logger.warning("%s: rejected %d line(s): %s", path, len(rejected), rejected[:20])
    return Dataset.from_records(records), LoadReport(
        n_loaded=len(records),
        rejected_lines=tuple(rejected),
        messages=tuple(messages),
    )


def record_to_dict(record: DetectionRecord) -> dict:
    return {
        "image_id": record.image_id,
        "pred_box": list(record.pred_box.as_array()),
        "gt_box": list(record.gt_box.as_array()),
        "gt_class": record.gt_class,
        "class_probs": list(record.class_probs),
        "sigma": list(record.sigma),
    }


def save_dataset(dataset: Dataset, path) -> None:
    """Write a dataset as JSONL (full float precision, round-trip exact)."""
    with open(path, "w", encoding="utf-8") as fh:
        for record in dataset:
            fh.write(json.dumps(record_to_dict(record), sort_keys=True))
            fh.write("\n")


def save_oracle_info(info, path) -> None:
    """Write the generator's side channel as JSONL, one line per record."""
    with open(path, "w", encoding="utf-8") as fh:
        for i, (true_scale, base_scale) in enumerate(zip(info.true_scales, info.base_scales)):
            fh.write(
                json.dumps(
                    {"index": i, "true_scale": float(true_scale), "base_scale": float(base_scale)},
                    sort_keys=True,
                )
            )
            fh.write("\n")


def _sig6(x: float) -> float:
    if not math.isfinite(x):
        return x
    return float(f"{x:.6g}")


def _round_floats(obj):
    """Recursively round floats to 6 significant digits for emission."""
    if isinstance(obj, bool):
        return obj
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        return _sig6(float(obj))
    if isinstance(obj, dict):
        return {k: _round_floats(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_round_floats(v) for v in obj]
    return obj


def report_to_dict(report: RunReport) -> dict:
    """JSON-ready representation of a report (floats rounded)."""
    doc = {
        "regime": report.regime,
        "config": report.config,
        "per_run": [
            {
                "run": r.run_index,
                "seed": list(r.seed),
                "metrics": asdict(r.metrics),
                "quantiles": r.quantile_summary,
                "warnings": list(r.warnings),
            }
            for r in report.per_run
        ],
        "aggregate": report.aggregate,
        "significance": report.significance,
    }
    return _round_floats(doc)


def _csv_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return f"{_sig6(value):.6g}"
    return str(value)


def csv_text(columns, rows) -> str:
    """CSV text: a header of ``columns``, then one line per row.

    Floats are written with 6 significant digits and None as an empty cell.
    """
    buf = _stdio.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(columns)
    writer.writerows([_csv_cell(v) for v in row] for row in rows)
    return buf.getvalue()


def report_to_csv(report: RunReport) -> str:
    """CSV rendering: one row per run plus one aggregate row."""
    rows = [
        [r.run_index, "-".join(map(str, r.seed)), *(getattr(r.metrics, m) for m in METRICS), r.metrics.n_eval]
        for r in report.per_run
    ]
    agg = report.aggregate
    means = (agg.get(m, {}).get("mean") for m in METRICS)
    rows.append(["aggregate", "", *means, agg.get("n_eval_total", "")])
    return csv_text(CSV_COLUMNS, rows)


def emit_report(report: RunReport, format: str = "json", path=None) -> str:
    """Serialize a report deterministically; write to ``path`` if given.

    Returns the serialized text.  Identical reports always serialize to
    identical bytes, so diffing two files answers "same results?".
    """
    if format not in REPORT_FORMATS:
        raise OutOfRange(f"format must be one of {REPORT_FORMATS}, got {format!r}")
    if format == "json":
        text = json.dumps(report_to_dict(report), sort_keys=True, indent=2) + "\n"
    else:
        text = report_to_csv(report)
    if path is not None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    return text


def _run_result(entry: dict) -> RunResult:
    """One ``per_run`` entry of a report; seeds must be integers, metrics numbers or null."""
    seed, metrics = tuple(entry["seed"]), MetricRow(**entry["metrics"])
    # exact types, as in _parse_line: bool is an int subclass, and int() would parse a string
    if not {int}.issuperset(map(type, seed)):
        raise TypeError(f"seed {list(seed)!r} does not hold integers")
    if not {int, float, type(None)}.issuperset(map(type, vars(metrics).values())):
        raise TypeError(f"metrics {vars(metrics)!r} are not all numbers or null")
    return RunResult(
        run_index=int(entry["run"]),
        seed=seed,
        metrics=metrics,
        quantile_summary=entry.get("quantiles", {}),
        warnings=tuple(entry.get("warnings", ())),
    )


def load_report(path) -> RunReport:
    """Load a JSON report written by :func:`emit_report`.

    Raises :class:`MalformedFile` if the file is not JSON or not such a report.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
        per_run = tuple(_run_result(entry) for entry in doc["per_run"])
        return RunReport(
            regime=doc["regime"],
            config=doc.get("config", {}),
            per_run=per_run,
            aggregate=doc.get("aggregate", {}),
            significance=doc.get("significance"),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise MalformedFile(f"{path}: not a confdet report ({type(exc).__name__}: {exc})") from exc
