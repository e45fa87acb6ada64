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
from array import array
from dataclasses import asdict, dataclass
from json.encoder import encode_basestring_ascii

import numpy as np

from .core import Dataset, validate_columns
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


def _read_line(line: str, lineno: int) -> dict:
    """The record on one line, after the checks that need the raw JSON document."""
    try:
        line.encode("utf-8")  # the file is decoded with surrogateescape
    except UnicodeEncodeError as exc:
        raise ParseError(lineno, "invalid UTF-8") from exc
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
    return doc


class _Rows:
    """The lines that passed :func:`_read_line`, held as compact columns.

    Numbers go to ``array`` buffers, not lists of floats, and lines may
    differ in their number of classes until :meth:`verdicts` applies the
    file's class count.
    """

    def __init__(self):
        self.corners = array("d")  # pred_box, gt_box, sigma: 12 values per row
        self.probs = array("d")  # class_probs of every row, concatenated
        self.widths = array("q")  # number of class_probs per row
        self.lines = array("q")
        self.labels: list = []  # gt_class as parsed, checked by validate_columns
        self.image_ids: list[str] = []

    def append(self, doc: dict, lineno: int) -> None:
        n_corners, n_probs = len(self.corners), len(self.probs)
        try:
            for name in ("pred_box", "gt_box", "sigma"):
                self.corners.extend(doc[name])
            self.probs.extend(doc["class_probs"])
        except OverflowError as exc:  # an integer literal beyond the float range
            del self.corners[n_corners:], self.probs[n_probs:]
            raise ValidationError(f"malformed field value ({exc})", line=lineno) from exc
        self.widths.append(len(doc["class_probs"]))
        self.lines.append(lineno)
        self.labels.append(doc["gt_class"])
        self.image_ids.append(doc["image_id"])

    def _columns(self, rows, k: int):
        corners = np.frombuffer(self.corners, dtype=float).reshape(-1, 12)[rows]
        starts = np.cumsum(self.widths, dtype=np.int64) - self.widths
        probs = np.frombuffer(self.probs, dtype=float)[starts[rows, None] + np.arange(k)]
        return corners[:, 0:4], corners[:, 4:8], corners[:, 8:12], probs

    def verdicts(self) -> tuple[dict[int, str], int | None]:
        """The rule each bad row breaks, by row, and the file's class count.

        The class count is that of the first valid row. A row before it is
        judged on its own; a later row with another count breaks only that
        count.
        """
        widths = np.frombuffer(self.widths, dtype=np.int64)
        problems: dict[int, list[str]] = {}
        for k in np.unique(widths).tolist():  # once on a well-formed file
            rows = np.flatnonzero(widths == k)
            pred, gt, sigma, probs = self._columns(rows, k)
            found = validate_columns(pred, gt, sigma, [self.labels[r] for r in rows], probs)
            problems.update((int(rows[i]), messages) for i, messages in found.items())
        first = next((r for r in range(len(widths)) if r not in problems), None)
        if first is None:
            return {r: "; ".join(m) for r, m in problems.items()}, None
        n_classes = int(widths[first])
        bad = {r: "; ".join(m) for r, m in problems.items() if r < first or widths[r] == n_classes}
        for r in np.flatnonzero(widths != n_classes).tolist():
            if r > first:
                bad[r] = f"class_probs length {widths[r]} differs from {n_classes} seen earlier in the file"
        return bad, n_classes

    def raise_first(self, bad: dict[int, str]) -> None:
        if bad:
            r = min(bad)
            raise ValidationError(bad[r], line=self.lines[r])

    def dataset(self, bad: dict[int, str], n_classes: int) -> Dataset:
        rows = np.setdiff1d(np.arange(len(self.widths)), list(bad))
        pred, gt, sigma, probs = self._columns(rows, n_classes)
        return Dataset(
            image_ids=np.array(self.image_ids, dtype=object)[rows],
            pred=np.ascontiguousarray(pred),
            gt=np.ascontiguousarray(gt),
            sigma=np.ascontiguousarray(sigma),
            gt_class=np.array([self.labels[r] for r in rows], dtype=int),
            probs=probs,
        )


def load_dataset(path, strict: bool = False) -> tuple[Dataset, LoadReport]:
    """Load and validate a UTF-8 JSONL dataset.

    In the default lenient mode invalid lines are skipped and collected
    in the returned :class:`LoadReport`; with ``strict=True`` the first
    bad line aborts the load.  Blank lines are ignored.  A line that is
    not valid UTF-8 is invalid.  The data rules are checked once over the
    loaded columns (:func:`~confdet.core.validate_columns`).

    Raises
    ------
    EmptyFile
        If the file contains no usable records.
    ParseError, ValidationError
        In strict mode, for the first offending line.
    """
    rows = _Rows()
    rejected: list[tuple[int, str]] = []
    with open(path, "r", encoding="utf-8", errors="surrogateescape") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                rows.append(_read_line(line, lineno), lineno)
            except (ParseError, ValidationError) as exc:
                if strict:
                    rows.raise_first(rows.verdicts()[0])  # an earlier line may break a data rule
                    raise
                rejected.append((lineno, str(exc)))
    bad, n_classes = rows.verdicts()
    if strict:
        rows.raise_first(bad)
    if n_classes is None:
        raise EmptyFile(f"{path}: no usable records")
    rejected += [(rows.lines[r], str(ValidationError(rule, line=rows.lines[r]))) for r, rule in bad.items()]
    rejected.sort()
    if rejected:
        lines = [lineno for lineno, _ in rejected]
        logger.warning("%s: rejected %d line(s): %s", path, len(lines), lines[:20])
    dataset = rows.dataset(bad, n_classes)
    return dataset, LoadReport(
        n_loaded=len(dataset),
        rejected_lines=tuple(lineno for lineno, _ in rejected),
        messages=tuple(message for _, message in rejected),
    )


#: Rows formatted per write; bounds the Python objects that ``tolist()`` makes.
_WRITE_CHUNK = 4096


def _json_values(block: np.ndarray) -> list[str]:
    """JSON text of each entry of a float block: numbers for 1-D, lists for 2-D."""
    # str() writes a float, or a list of floats, as JSON does unless it is
    # nan or infinite, which JSON writes as NaN and Infinity
    return list(map(str if np.isfinite(block).all() else json.dumps, block.tolist()))


def save_dataset(dataset: Dataset, path) -> None:
    """Write a dataset as JSONL (full float precision, round-trip exact)."""
    with open(path, "w", encoding="utf-8") as fh:
        for start in range(0, len(dataset), _WRITE_CHUNK):
            part = slice(start, start + _WRITE_CHUNK)
            rows = zip(
                _json_values(dataset.probs[part]),
                _json_values(dataset.gt[part]),
                dataset.gt_class[part].tolist(),
                map(encode_basestring_ascii, dataset.image_ids[part].tolist()),
                _json_values(dataset.pred[part]),
                _json_values(dataset.sigma[part]),
            )
            # keys in sorted order, as json.dumps(..., sort_keys=True) writes them
            fh.writelines(
                f'{{"class_probs": {c}, "gt_box": {g}, "gt_class": {k}, "image_id": {i}, "pred_box": {p}, "sigma": {s}}}\n'
                for c, g, k, i, p, s in rows
            )


def save_oracle_info(info, path) -> None:
    """Write the generator's side channel as JSONL, one line per record."""
    true_scales = np.asarray(info.true_scales, dtype=float)
    base_scales = np.asarray(info.base_scales, dtype=float)
    with open(path, "w", encoding="utf-8") as fh:
        for start in range(0, len(true_scales), _WRITE_CHUNK):
            part = slice(start, start + _WRITE_CHUNK)
            rows = zip(_json_values(base_scales[part]), range(start, len(true_scales)), _json_values(true_scales[part]))
            fh.writelines(f'{{"base_scale": {b}, "index": {i}, "true_scale": {t}}}\n' for b, i, t in rows)


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
    # exact types, as in _read_line: bool is an int subclass, and int() would parse a string
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
