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

:func:`save_dataset` and :func:`save_oracle_info` write each line as the
bytes of ``json.dumps(record, sort_keys=True)``: floats at full precision,
so a file loads back bit for bit, and a non-finite float as the ``NaN``,
``Infinity`` or ``-Infinity`` that ``json.dumps`` writes.

:func:`load_dataset` keeps what it loads from a regular file in a cache,
and rebuilds a later load of the same bytes from that entry instead of
parsing them again.  The first load of some bytes leaves an empty entry,
the second stores its result, and every later one reads it, so a file
loaded once pays only for the digest.  An entry is
``$CONFDET_CACHE_DIR/<code digest>/<file digest>``: a BLAKE2b digest of
the file's bytes, in a directory named by a digest of the code that
decides a load's result (the source of ``io.py``, ``core.py`` and
``errors.py`` and the Python and numpy versions), so an entry written
under other rules is never read.  Making a code digest's directory
removes those of other digests.  ``CONFDET_CACHE_DIR`` defaults to
``$XDG_CACHE_HOME/confdet`` or else ``~/.cache/confdet``; an empty value
turns the cache off, and a file that is not a regular file (a FIFO, say)
bypasses it.  An entry is one line of JSON text (image ids, rejected
lines and their messages), the raw bytes of the numeric columns and a
checksum; nothing is pickled.  It is about 0.6 times the size of its
file and safe to delete at any time.  A load returns the same dataset and
report, and logs the same warning, whether the cache is cold, warm or
off; any fault in the cache falls back to parsing.
"""

from __future__ import annotations

import contextlib
import csv
import functools
import io as _stdio
import json
import logging
import math
import os
import stat
import sys
import zlib
from array import array
from collections import defaultdict
from dataclasses import dataclass, fields, is_dataclass
from json.encoder import encode_basestring_ascii

import numpy as np

from .core import Dataset, validate_columns
from .errors import DataError, EmptyFile, LengthMismatch, MalformedFile, OutOfRange, ParseError, ValidationError
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


#: The whitespace ``json.loads`` skips around a value; a line of nothing else is blank.
_JSON_SPACE = " \t\n\r"

#: The C scan under ``json.loads``: ``(value, end)`` for the JSON value that
#: starts at an index.  Where ``json.loads`` would say "Expecting value" it
#: raises ``StopIteration``; it raises ``json.JSONDecodeError`` for other
#: syntax errors and ``RecursionError`` for a value nested too deeply.
_scan = json.JSONDecoder().scan_once

#: What a line that breaks a rule can raise on the fast path of :func:`_read_line`
#: (``UnicodeEncodeError`` and ``json.JSONDecodeError`` are ``ValueError``\ s).
_HAND_OVER = (ValueError, TypeError, KeyError, OverflowError, RecursionError, StopIteration)


def _read_line(line: str, lineno: int) -> tuple[array, object, str]:
    """The numbers, ``gt_class`` and image id on one line, after the checks that need the raw JSON.

    The whole line is tried at once: one scan and one pass of checks that
    accept exactly what :func:`_checked_line` accepts.  A line that fails
    them goes to :func:`_checked_line`, which runs the checks in order and
    names the first rule the line breaks.
    """
    try:
        line.encode("utf-8")  # the file is decoded with surrogateescape
        text = line.strip(_JSON_SPACE)
        doc, end = _scan(text, 0)
        p, g, s, c = doc["pred_box"], doc["gt_box"], doc["sigma"], doc["class_probs"]
        label, image_id = doc["gt_class"], doc["image_id"]
        if (
            end == len(text)
            and type(p) is list
            and len(p) == 4
            and type(g) is list
            and len(g) == 4
            and type(s) is list
            and len(s) == 4
            and type(c) is list
            and c
            and type(image_id) is str
        ):
            values = p + g + s + c
            # array("d") raises TypeError on a JSON string, null, list or object, and
            # OverflowError on an int beyond the float range, but takes true and false;
            # so the exact type check runs only where a boolean literal may be
            if ("true" not in text and "false" not in text) or {int, float}.issuperset(map(type, values)):
                return array("d", values), label, image_id
    except _HAND_OVER:
        pass
    return _checked_line(line, lineno)


def _checked_line(line: str, lineno: int) -> tuple[array, object, str]:
    """:func:`_read_line` by ordered checks: raises for the first rule the line breaks."""
    try:
        line.encode("utf-8")
    except UnicodeEncodeError as exc:
        raise ParseError(lineno, "invalid UTF-8") from exc
    try:
        doc = json.loads(line)
    except json.JSONDecodeError as exc:
        raise ParseError(lineno, f"invalid JSON ({exc.msg})") from exc
    except RecursionError as exc:
        raise ParseError(lineno, "invalid JSON (nested too deeply)") from exc
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
        values = array("d", doc["pred_box"] + doc["gt_box"] + doc["sigma"] + doc["class_probs"])
    except OverflowError as exc:  # an integer literal beyond the float range
        raise ValidationError(f"malformed field value ({exc})", line=lineno) from exc
    return values, doc["gt_class"], doc["image_id"]


class _Rows:
    """The lines of one class count that passed :func:`_read_line`, as compact columns."""

    def __init__(self):
        self.values = array("d")  # pred_box, gt_box, sigma, class_probs: 12 + K values per row
        self.lines = array("q")
        self.labels: list = []  # gt_class as parsed, checked by validate_columns
        self.image_ids: list[str] = []

    def problems(self) -> dict[int, str]:
        """The data rules each bad row breaks, joined into one message, by row."""
        values = np.frombuffer(self.values).reshape(len(self.lines), -1)
        found = validate_columns(values[:, 0:4], values[:, 4:8], values[:, 8:12], self.labels, values[:, 12:])
        return {r: "; ".join(messages) for r, messages in found.items()}

    def dataset(self, bad) -> Dataset:
        """The rows not in ``bad``."""
        rows = np.ones(len(self.lines), dtype=bool)
        rows[list(bad)] = False
        values = np.frombuffer(self.values).reshape(len(self.lines), -1)
        return Dataset(
            image_ids=np.array(self.image_ids, dtype=object)[rows],
            pred=values[rows, 0:4],
            gt=values[rows, 4:8],
            sigma=values[rows, 8:12],
            gt_class=np.fromiter(self.labels, dtype=object, count=len(self.labels))[rows].astype(int),
            probs=values[rows, 12:],
        )


def load_dataset(path, strict: bool = False) -> tuple[Dataset, LoadReport]:
    """Load and validate a UTF-8 JSONL dataset.

    In the default lenient mode invalid lines are skipped and collected
    in the returned :class:`LoadReport`; with ``strict=True`` the first
    bad line aborts the load.  Blank lines, those that hold nothing but
    JSON whitespace (space, tab, newline, carriage return), are ignored;
    a line of other whitespace is invalid JSON.  A line that is not valid
    UTF-8 is invalid.  The data rules are checked once over the loaded
    columns of each class count (:func:`~confdet.core.validate_columns`).
    The file's class count is that of its first valid line.  A regular
    file's result is cached by content (see the module docstring).

    Raises
    ------
    EmptyFile
        If the file contains no usable records.
    ParseError, ValidationError
        In strict mode, for the first offending line.
    """
    entry, seen, loaded = _cache_read(path, strict)
    if loaded is None and seen:
        # a repeated load: digest the bytes the parse reads, and store its result under them
        with open(path, "rb", buffering=0) as raw:
            reader = _Digesting(raw)
            with _stdio.TextIOWrapper(_stdio.BufferedReader(reader), encoding="utf-8", errors="surrogateescape") as fh:
                loaded = _parse(fh, path, strict)
        if reader.digest.hexdigest() == os.path.basename(entry):
            _cache_write(entry, loaded)
    elif loaded is None:
        with open(path, "r", encoding="utf-8", errors="surrogateescape") as fh:
            loaded = _parse(fh, path, strict)
        if entry is not None:
            _cache_write(entry)  # an empty entry: the next load of these bytes stores its result
    lines = loaded[1].rejected_lines
    if lines:
        logger.warning("%s: rejected %d line(s): %s", path, len(lines), list(lines[:20]))
    return loaded


def _parse(fh, path, strict: bool) -> tuple[Dataset, LoadReport]:
    """:func:`load_dataset` of the lines of the text file ``fh``, by parsing them."""
    groups: defaultdict[int, _Rows] = defaultdict(_Rows)  # by class count
    # line number -> the exception in strict mode, else its message: a caught exception's
    # traceback refers back to this frame, which would hold the buffers in a reference cycle
    rejected: dict[int, DataError | str] = {}
    keep = (lambda exc: exc) if strict else str
    for lineno, line in enumerate(fh, start=1):
        if not line.strip(_JSON_SPACE):
            continue
        try:
            values, label, image_id = _read_line(line, lineno)
        except (ParseError, ValidationError) as exc:
            rejected[lineno] = keep(exc)
            if strict:
                break  # an earlier line may still break a data rule
            continue
        rows = groups[len(values) - 12]
        rows.values += values
        rows.lines.append(lineno)
        rows.labels.append(label)
        rows.image_ids.append(image_id)
    problems = {k: rows.problems() for k, rows in groups.items()}  # once on a well-formed file
    first, n_classes = math.inf, None
    for k, rows in groups.items():
        line = next((line for r, line in enumerate(rows.lines) if r not in problems[k]), math.inf)
        if line < first:
            first, n_classes = line, k
    for k, rows in groups.items():
        # a line before the first valid one is judged on its own; a later
        # line with another class count breaks only that count
        for r in problems[k] if k == n_classes else range(len(rows.lines)):
            line = rows.lines[r]
            if k == n_classes or line < first:
                rule = problems[k][r]
            else:
                rule = f"class_probs length {k} differs from {n_classes} seen earlier in the file"
            rejected[line] = keep(ValidationError(rule, line=line))
    if strict and rejected:
        raise rejected[min(rejected)]
    if n_classes is None:
        raise EmptyFile(f"{path}: no usable records")
    lines = sorted(rejected)
    dataset = groups[n_classes].dataset(problems[n_classes])
    return dataset, LoadReport(
        n_loaded=len(dataset),
        rejected_lines=tuple(lines),
        messages=tuple(rejected[line] for line in lines),
    )


class _Digesting(_stdio.RawIOBase):
    """A binary reader that digests each byte it reads from ``raw``; the hex digest names the bytes' cache entry."""

    def __init__(self, raw):
        self.raw, self.digest = raw, _blake2b(digest_size=20)

    def readable(self) -> bool:
        return True

    def readinto(self, buffer) -> int:
        n = self.raw.readinto(buffer)
        with memoryview(buffer) as view:
            self.digest.update(view[:n])
        return n


def _blake2b(data: bytes = b"", **params):
    """``hashlib.blake2b``, imported lazily and from where hashlib gets it.

    Importing ``hashlib`` itself maps OpenSSL, which lifts a process's peak
    RSS by about 3 MB.
    """
    try:
        from _blake2 import blake2b
    except ImportError:  # an interpreter without CPython's module
        from hashlib import blake2b
    return blake2b(data, **params)


@functools.lru_cache(maxsize=None)
def _code_digest() -> bytes:
    """A digest of what decides a load's result: the loader's source and the Python and numpy versions."""
    digest = _blake2b(f"{sys.version}\0{np.__version__}\0{sys.byteorder}".encode(), digest_size=16)
    for name in ("io.py", "core.py", "errors.py"):
        with open(os.path.join(os.path.dirname(__file__), name), "rb") as fh:
            digest.update(fh.read())
    return digest.digest()


#: The arrays of a cache entry, in order, by name, dtype and row shape (``None``: the class count).
_ENTRY_COLUMNS = (
    ("pred", np.float64, (4,)),
    ("gt", np.float64, (4,)),
    ("sigma", np.float64, (4,)),
    ("gt_class", np.int64, ()),
    ("probs", np.float64, (None,)),
)


def _cache_read(path, strict: bool):
    """``(entry, seen, loaded)``: the cache entry named for the bytes of the file ``path``, and what it holds.

    ``entry`` is None when the cache is off, the file is not a regular file
    (reading a FIFO would consume it) or its digest cannot be taken; it is
    ``root/<code digest>/<file digest>``.  ``seen`` says that the entry
    exists, so these bytes were loaded before.  ``loaded`` is the
    ``(dataset, report)`` the entry holds, or None when it holds none (it is
    empty or does not read back), or in strict mode when it records rejected
    lines, so that the parse raises what it raises.  Never raises.
    """
    try:
        root = os.environ.get("CONFDET_CACHE_DIR")
        if root is None:
            root = os.path.join(os.environ.get("XDG_CACHE_HOME") or os.path.expanduser("~/.cache"), "confdet")
        if not root or not stat.S_ISREG(os.stat(os.fspath(path)).st_mode):  # not a file descriptor either
            return None, False, None
        with open(path, "rb", buffering=0) as raw:
            hashed, chunk = _Digesting(raw), bytearray(1 << 16)
            while hashed.readinto(chunk):
                pass
        entry = os.path.join(root, _code_digest().hex(), hashed.digest.hexdigest())
    except (OSError, TypeError, ValueError):  # the cache never fails a load: a bad path fails in the parse
        return None, False, None
    try:
        with open(entry, "rb") as fh:
            line = fh.readline()
            head = json.loads(line) if line else None  # an empty entry marks a first load
            if head is None or (strict and head["rejected_lines"]):
                return entry, True, None
            # read whole and copied out: freeing a block this large raises glibc's mmap threshold,
            # as freeing the parse's buffers does; reading straight into the columns left it at
            # 128 KB, so that two_step_runs mapped each larger temporary afresh and ran 0.04 s slower
            payload = fh.read()
        with memoryview(payload) as view:
            if zlib.adler32(view[:-4], zlib.adler32(line)).to_bytes(4, "little") != payload[-4:]:
                return entry, True, None
        image_ids, n_classes, columns, offset = head["image_ids"], head["n_classes"], [], 0
        for _, dtype, row in _ENTRY_COLUMNS:
            shape = (len(image_ids), *(n_classes if d is None else d for d in row))
            columns.append(np.frombuffer(payload, dtype, math.prod(shape), offset).reshape(shape).copy())
            offset += columns[-1].nbytes
        if offset + 4 != len(payload):
            return entry, True, None
        dataset = Dataset(np.array(image_ids, dtype=object), *columns)
        report = LoadReport(len(dataset), tuple(head["rejected_lines"]), tuple(head["messages"]))
        return entry, True, (dataset, report)
    except FileNotFoundError:
        return entry, False, None
    except Exception as exc:  # an entry that does not read back: parse instead, and store again
        logger.debug("load cache entry %s not read: %s", entry, repr(exc))  # not exc: its traceback holds the frame
        return entry, True, None


def _cache_write(entry: str, loaded: tuple[Dataset, LoadReport] | None = None) -> None:
    """Store ``loaded``, a load's result, as ``entry``; with None, make ``entry`` empty if it does not exist.

    An entry is written atomically (a temporary file, then a rename).
    Making the directory of the code digest removes those of other digests,
    whose entries can never be read again.  Never raises.
    """
    import re
    import shutil
    import tempfile

    tmp = None
    try:
        folder = os.path.dirname(entry)
        root = os.path.dirname(folder)
        os.makedirs(root, mode=0o700, exist_ok=True)
        with contextlib.suppress(FileExistsError):
            os.mkdir(folder, mode=0o700)
            for name in os.listdir(root):
                if name != os.path.basename(folder) and re.fullmatch("[0-9a-f]{32}", name):
                    shutil.rmtree(os.path.join(root, name), ignore_errors=True)
        if loaded is None:
            with contextlib.suppress(FileExistsError):
                os.close(os.open(entry, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o600))
            return
        fd, tmp = tempfile.mkstemp(dir=folder, prefix=".", suffix=".tmp")
        with open(fd, "wb") as fh:
            check = zlib.adler32(b"")
            for piece in _entry_pieces(*loaded):
                fh.write(piece)
                check = zlib.adler32(piece, check)
            fh.write(check.to_bytes(4, "little"))  # a checksum of all before it
        os.replace(tmp, entry)
    except Exception as exc:
        logger.debug("load cache entry %s not written: %s", entry, repr(exc))
        if tmp is not None:
            with contextlib.suppress(OSError):
                os.unlink(tmp)


def _entry_pieces(dataset: Dataset, report: LoadReport):
    """The bytes of a cache entry, in pieces: a line of JSON text, then the raw bytes of each column.

    The text is ASCII, so every string round-trips, a NUL or lone surrogate
    included.  Its image ids are formatted a chunk at a time, so that no
    piece holds all of them.
    """
    head = {"messages": list(report.messages), "n_classes": dataset.n_classes, "rejected_lines": list(report.rejected_lines)}
    yield json.dumps(head)[:-1].encode("ascii") + b', "image_ids": ['
    ids = dataset.image_ids
    for start in range(0, len(ids), _WRITE_CHUNK):
        yield (b", " if start else b"") + json.dumps(ids[start : start + _WRITE_CHUNK].tolist())[1:-1].encode("ascii")
    yield b"]}\n"
    for name, dtype, _ in _ENTRY_COLUMNS:
        yield np.ascontiguousarray(getattr(dataset, name), dtype=dtype).data.cast("B")


#: Rows formatted per write; bounds a chunk's object array of cells and its formatted text.
_WRITE_CHUNK = 4096


def _put_floats(cells: np.ndarray, block: np.ndarray) -> None:
    """Assign a float block to a view of the cells, non-finite values as the JSON text of them."""
    # a finite float's str is its repr, which is its JSON text; nan and
    # infinities go in as the NaN and Infinity that json.dumps writes
    cells[...] = block
    bad = ~np.isfinite(block)
    if bad.any():
        cells[bad] = list(map(json.dumps, block[bad].tolist()))


def _same_bits(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Where ``a`` and ``b`` hold the same float bit for bit (``-0.0`` differs from ``0.0``, NaN equals itself)."""
    return a.view(np.int64) == b.view(np.int64)


def _format_once(cells: np.ndarray, rows) -> None:
    """Put the text of each row's first cell in all of that row's cells."""
    cells[rows] = np.array(list(map(str, cells[rows, 0])), dtype=object)[:, None]


def save_dataset(dataset: Dataset, path) -> None:
    """Write a dataset as JSONL (full float precision, round-trip exact)."""
    probs, gt, pred, sigma = (np.asarray(b, dtype=float) for b in (dataset.probs, dataset.gt, dataset.pred, dataset.sigma))
    k = probs.shape[1]
    # keys in sorted order, as json.dumps(..., sort_keys=True) writes them
    line = (
        f'{{"class_probs": [{", ".join(["%s"] * k)}], "gt_box": [%s, %s, %s, %s], "gt_class": %s, '
        '"image_id": %s, "pred_box": [%s, %s, %s, %s], "sigma": [%s, %s, %s, %s]}\n'
    )
    with open(path, "w", encoding="utf-8") as fh:
        for start in range(0, len(dataset), _WRITE_CHUNK):
            part = slice(start, start + _WRITE_CHUNK)
            s = sigma[part]
            cells = np.empty((len(s), k + 14), dtype=object)
            _put_floats(cells[:, :k], probs[part])
            _put_floats(cells[:, k : k + 4], gt[part])
            cells[:, k + 4] = dataset.gt_class[part].tolist()
            cells[:, k + 5] = list(map(encode_basestring_ascii, dataset.image_ids[part].tolist()))
            _put_floats(cells[:, k + 6 : k + 10], pred[part])
            _put_floats(cells[:, k + 10 :], s)
            _format_once(cells[:, k + 10 :], _same_bits(s, s[:, :1]).all(axis=1))
            fh.write(line * len(s) % tuple(cells.ravel().tolist()))


def save_oracle_info(info, path) -> None:
    """Write the generator's side channel as JSONL, one line per record.

    Raises :class:`LengthMismatch`, before the file is opened, unless the
    scales are 1-D arrays of one length.
    """
    base_scales = np.asarray(info.base_scales, dtype=float)
    true_scales = np.asarray(info.true_scales, dtype=float)
    if base_scales.ndim != 1 or base_scales.shape != true_scales.shape:
        raise LengthMismatch(
            f"oracle scales must be 1-D arrays of one length, got shapes {base_scales.shape} and {true_scales.shape}"
        )
    with open(path, "w", encoding="utf-8") as fh:
        for start in range(0, len(true_scales), _WRITE_CHUNK):
            base, true = base_scales[start : start + _WRITE_CHUNK], true_scales[start : start + _WRITE_CHUNK]
            cells = np.empty((len(base), 3), dtype=object)
            _put_floats(cells[:, 0], base)
            cells[:, 1] = range(start, start + len(base))
            _put_floats(cells[:, 2], true)
            if _same_bits(base, true).all():
                _format_once(cells[:, ::2], slice(None))
            fh.write('{"base_scale": %s, "index": %s, "true_scale": %s}\n' * len(base) % tuple(cells.ravel().tolist()))


def _sig6(x: float) -> float:
    return float(f"{x:.6g}")  # inf and nan pass through as "inf" and "nan"


def _round_floats(obj):
    """JSON-ready copy of ``obj``: floats rounded to 6 significant digits, a dataclass as a dict of its fields."""
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
    if is_dataclass(obj):
        return {f.name: _round_floats(getattr(obj, f.name)) for f in fields(obj)}
    return obj


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
        [r.run, "-".join(map(str, r.seed)), *(getattr(r.metrics, m) for m in METRICS), r.metrics.n_eval]
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
        text = json.dumps(_round_floats(report), sort_keys=True, indent=2) + "\n"
    else:
        text = report_to_csv(report)
    if path is not None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    return text


def _run_result(entry: dict) -> RunResult:
    """One ``per_run`` entry: integer run and seeds, metrics numbers or null, quantiles an object, warnings strings."""
    run, seed, quantiles, warnings = entry["run"], tuple(entry["seed"]), entry.get("quantiles", {}), entry.get("warnings", [])
    metrics = MetricRow(**entry["metrics"])
    # exact types, as in _read_line: bool is an int subclass, and int() would parse a string
    if type(run) is not int:
        raise TypeError(f"run {run!r} is not an integer")
    if not {int}.issuperset(map(type, seed)):
        raise TypeError(f"seed {list(seed)!r} does not hold integers")
    if not {int, float, type(None)}.issuperset(map(type, vars(metrics).values())):
        raise TypeError(f"metrics {vars(metrics)!r} are not all numbers or null")
    if type(quantiles) is not dict:
        raise TypeError(f"quantiles {quantiles!r} are not an object")
    if type(warnings) is not list or not {str}.issuperset(map(type, warnings)):
        raise TypeError(f"warnings {warnings!r} are not a list of strings")
    return RunResult(run=run, seed=seed, metrics=metrics, quantiles=quantiles, warnings=tuple(warnings))


def load_report(path) -> RunReport:
    """Load a JSON report written by :func:`emit_report`.

    Raises :class:`MalformedFile` if the file is not JSON or not such a report.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
        per_run = tuple(_run_result(entry) for entry in doc["per_run"])
        regime, config, aggregate = doc["regime"], doc.get("config", {}), doc.get("aggregate", {})
        if type(regime) is not str or type(config) is not dict or type(aggregate) is not dict:
            raise TypeError("regime must be a string, config and aggregate objects")
        return RunReport(regime=regime, config=config, per_run=per_run, aggregate=aggregate)
    except (KeyError, TypeError, ValueError, RecursionError) as exc:  # RecursionError: JSON nested too deeply
        raise MalformedFile(f"{path}: not a confdet report ({type(exc).__name__}: {exc})") from exc
