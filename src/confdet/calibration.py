"""Isotonic recalibration of predicted corner sigmas.

Detectors trained with loss attenuation emit a sigma per corner, but the
raw values are usually miscalibrated in scale or shape.  This module fits
a monotone map from normalized sigma to normalized absolute residual
(pool-adjacent-violators on the calibration split) and replaces each
sigma by the map's value.  Normalization divides x-corner quantities by
the predicted box width and y-corner ones by its height, so one map can
serve boxes of very different sizes.
"""

from __future__ import annotations

import json
import logging
from dataclasses import dataclass

import numpy as np

from .core import X_CORNERS, CalibrationMap, DetectionRecord, records_to_arrays
from .errors import DegenerateBox, EmptyFit, MalformedFile, OutOfRange

logger = logging.getLogger(__name__)

#: Box dimensions at or below this are too degenerate to normalize by.
DIMENSION_EPS = 1e-6

#: Calibrated sigmas are floored here to stay strictly positive.
SIGMA_FLOOR = 1e-9

#: Minimum number of records for a dedicated per-class map.
MIN_CLASS_FIT = 2

SCOPE_RAW = "raw"
SCOPE_GLOBAL = "global_relative"
SCOPE_PER_CLASS = "per_coordinate_per_class_relative"
SCOPES = (SCOPE_RAW, SCOPE_GLOBAL, SCOPE_PER_CLASS)


def isotonic_fit(x, y, w=None, scope_key="global") -> CalibrationMap:
    """Weighted least-squares monotone fit of ``y`` on ``x`` (pool adjacent violators).

    ``x``, ``y`` and the positive weights ``w`` (all one by default) are
    flattened.  Duplicate x values are merged into one point, since a
    function of x must give them a single value.  Each pass pools every
    strictly decreasing run of adjacent blocks at once, which about halves
    the block count on real data; once a pass pools fewer than a quarter of
    the blocks, the sequential block stack finishes, so that inputs pooling
    one block per pass stay linear.  Returns a map with strictly ascending
    breakpoints (each pooled block's left edge) and non-decreasing values.
    """
    x = np.asarray(x, dtype=float).ravel()
    y = np.asarray(y, dtype=float).ravel()
    w = np.ones_like(x) if w is None else np.asarray(w, dtype=float).ravel()
    if x.size == 0:
        raise EmptyFit("isotonic_fit needs at least one point")
    if not x.size == y.size == w.size:
        raise OutOfRange(f"isotonic_fit sizes differ: x {x.size}, y {y.size}, w {w.size}")
    if not (np.isfinite(x).all() and np.isfinite(y).all() and np.isfinite(w).all() and (w > 0).all()):
        raise OutOfRange("isotonic_fit needs finite x and y, and finite weights > 0")
    order = np.argsort(x, kind="stable")
    x, y, w = x[order], y[order], w[order]
    # blocks: index into x of the first point, sum of w * y, sum of w
    start = np.flatnonzero(np.concatenate(([True], x[1:] != x[:-1])))
    wy = np.add.reduceat(w * y, start)
    w = np.add.reduceat(w, start)
    while len(start) > 1:
        mean = wy / w
        head = np.flatnonzero(np.concatenate(([True], ~(mean[:-1] > mean[1:]))))
        if len(head) == len(start):
            break
        stalled = len(head) > 0.75 * len(start)
        start, wy, w = start[head], np.add.reduceat(wy, head), np.add.reduceat(w, head)
        if stalled:
            start, wy, w = _stack_pool(start, wy, w)
            break
    return CalibrationMap(tuple(x[start].tolist()), tuple((wy / w).tolist()), scope_key)


def _stack_pool(start, wy, w):
    """Finish pooling with the classic block stack, linear in the block count."""
    stack: list[tuple[int, float, float]] = []
    for i, sy, sw in zip(start.tolist(), wy.tolist(), w.tolist()):
        while stack and stack[-1][1] / stack[-1][2] > sy / sw:
            i, prev_y, prev_w = stack.pop()
            sy, sw = prev_y + sy, prev_w + sw
        stack.append((i, sy, sw))
    return tuple(np.array(col) for col in zip(*stack))


def pava_fit(pairs, scope_key="global") -> CalibrationMap:
    """:func:`isotonic_fit` on an iterable of ``(x, y, w)`` pairs."""
    triples = [(x, y, w) for x, y, w in pairs]  # unpacking rejects anything but triples
    x, y, w = np.array(triples, dtype=float).reshape(-1, 3).T
    return isotonic_fit(x, y, w, scope_key=scope_key)


def evaluate_map(cmap: CalibrationMap, x):
    """Evaluate the step function, scalar or array in, same shape out.

    Left-constant steps: the value of the greatest breakpoint at or below
    ``x``, the first value below the first breakpoint, the last value
    above the last.
    """
    bp = np.asarray(cmap.breakpoints, dtype=float)
    vals = np.asarray(cmap.values, dtype=float)
    idx = np.clip(np.searchsorted(bp, np.asarray(x, dtype=float), side="right") - 1, 0, len(bp) - 1)
    out = vals[idx]
    return float(out) if np.isscalar(x) or np.ndim(x) == 0 else out


def _normalize(pred: np.ndarray, sigma):
    """Rows whose predicted box is wider and taller than ``DIMENSION_EPS``, their
    per-corner dimension (width for x corners, height for y) and sigma over it."""
    width = pred[:, 2] - pred[:, 0]
    height = pred[:, 3] - pred[:, 1]
    usable = (width > DIMENSION_EPS) & (height > DIMENSION_EPS)
    dims = np.stack([width, height, width, height], axis=-1)[usable]
    return usable, dims, np.asarray(sigma, dtype=float)[usable] / dims


def normalize_sigma(record: DetectionRecord, corner: int) -> float:
    """Sigma of one corner divided by the matching predicted-box dimension.

    Raises
    ------
    DegenerateBox
        If the relevant dimension is at or below ``DIMENSION_EPS``.
    """
    if corner not in range(4):
        raise OutOfRange(f"corner must be in 0..3, got {corner!r}")
    dim = record.pred_box.width if corner in X_CORNERS else record.pred_box.height
    if dim <= DIMENSION_EPS:
        raise DegenerateBox(
            f"predicted box dimension {dim!r} too small to normalize corner {corner}"
        )
    return float(record.sigma[corner]) / dim


@dataclass(frozen=True)
class SigmaCalibrator:
    """Fitted sigma-recalibration maps.

    ``scope`` is one of :data:`SCOPE_RAW` (identity), :data:`SCOPE_GLOBAL`
    (one map pooled over all corners), or :data:`SCOPE_PER_CLASS` (one map
    per ``(class, corner)``, falling back to the global map where a class
    had too few records).  ``n_excluded`` counts records skipped during
    fitting because their predicted box was degenerate.
    """

    scope: str
    global_map: CalibrationMap | None = None
    maps: dict | None = None
    fallback_keys: tuple = ()
    n_excluded: int = 0


def fit_calibrator(
    records,
    scope: str = SCOPE_GLOBAL,
    min_class_fit: int = MIN_CLASS_FIT,
) -> SigmaCalibrator:
    """Fit sigma-recalibration maps from matched records.

    The regression target is the normalized absolute corner residual,
    the input the normalized sigma; isotonic regression then estimates
    the monotone link between claimed and realized uncertainty.  Records
    with a degenerate predicted box are excluded from fitting (counted
    and logged).  For the per-class scope, any class with fewer than
    ``min_class_fit`` usable records falls back to the global map.
    """
    pred, gt, sigma, gt_class, _ = records_to_arrays(records)
    return fit_calibrator_arrays(pred, gt, sigma, gt_class, scope, min_class_fit)


def fit_calibrator_arrays(
    pred: np.ndarray,
    gt: np.ndarray,
    sigma: np.ndarray,
    gt_class: np.ndarray,
    scope: str = SCOPE_GLOBAL,
    min_class_fit: int = MIN_CLASS_FIT,
) -> SigmaCalibrator:
    """Array-level twin of :func:`fit_calibrator` for ``(n, 4)`` inputs."""
    if scope not in SCOPES:
        raise OutOfRange(f"unknown calibration scope {scope!r}")
    if scope == SCOPE_RAW:
        return SigmaCalibrator(scope=SCOPE_RAW)

    pred = np.asarray(pred, dtype=float)
    gt = np.asarray(gt, dtype=float)
    if pred.shape[0] == 0:
        raise EmptyFit("fit_calibrator needs at least one record")
    usable, dims, x = _normalize(pred, sigma)
    n_excluded = int((~usable).sum())
    if n_excluded:
        logger.warning(
            "fit_calibrator: excluded %d record(s) with degenerate predicted boxes",
            n_excluded,
        )
    if not usable.any():
        raise EmptyFit("no records with non-degenerate predicted boxes")

    y = np.abs(pred[usable] - gt[usable]) / dims
    cls = np.asarray(gt_class, dtype=int)[usable]

    global_map = isotonic_fit(x, y, scope_key="global")
    if scope == SCOPE_GLOBAL:
        return SigmaCalibrator(scope=scope, global_map=global_map, maps={}, n_excluded=n_excluded)

    maps: dict = {}
    fallback = []
    for k in np.unique(cls):
        sel = cls == k
        if int(sel.sum()) < min_class_fit:
            fallback.append(int(k))
            continue
        for corner in range(4):
            maps[(int(k), corner)] = isotonic_fit(x[sel, corner], y[sel, corner], scope_key=(int(k), corner))
    if fallback:
        logger.warning(
            "fit_calibrator: classes %s have fewer than %d usable records; "
            "using the global map for them",
            fallback,
            min_class_fit,
        )
    return SigmaCalibrator(
        scope=scope,
        global_map=global_map,
        maps=maps,
        fallback_keys=tuple(fallback),
        n_excluded=n_excluded,
    )


def calibrated_sigma_array(
    calibrator: SigmaCalibrator,
    pred: np.ndarray,
    sigma: np.ndarray,
    gt_class: np.ndarray,
) -> np.ndarray:
    """Vectorized sigma recalibration for ``(n, 4)`` arrays.

    Records with a degenerate predicted box keep their raw sigma (the
    normalization is undefined there); everything else is normalized,
    mapped, denormalized, and floored at ``SIGMA_FLOOR``.
    """
    sigma = np.asarray(sigma, dtype=float)
    if calibrator.scope == SCOPE_RAW:
        return sigma.copy()
    usable, dims, x = _normalize(np.asarray(pred, dtype=float), sigma)
    if not usable.all():
        logger.debug(
            "calibrated_sigma_array: %d record(s) with degenerate boxes keep raw sigma",
            int((~usable).sum()),
        )
    out = sigma.copy()
    if not usable.any():
        return out
    if calibrator.scope == SCOPE_GLOBAL:
        mapped = evaluate_map(calibrator.global_map, x)
    else:
        mapped = _evaluate_per_class(calibrator, np.asarray(gt_class, dtype=int)[usable], x)
    out[usable] = np.maximum(mapped * dims, SIGMA_FLOOR)
    return out


def _evaluate_per_class(calibrator: SigmaCalibrator, cls: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Each ``x[i, corner]`` through the map of ``(cls[i], corner)``, else the global map.

    One stable sort on the code ``4 * class + corner`` gives each map a
    contiguous run of inputs, searched once on that map's breakpoints.
    """
    code = (4 * cls[:, None] + np.arange(4)).ravel()
    order = np.argsort(code, kind="stable")
    flat = x.ravel()
    mapped = np.empty(x.size)
    for run in np.split(order, np.flatnonzero(np.diff(code[order])) + 1):
        cmap = calibrator.maps.get(divmod(int(code[run[0]]), 4), calibrator.global_map)
        mapped[run] = evaluate_map(cmap, flat[run])
    return mapped.reshape(x.shape)


def apply_calibrated_sigma(calibrator: SigmaCalibrator, record: DetectionRecord) -> tuple[float, float, float, float]:
    """Recalibrated sigma vector for a single record."""
    pred, _, sigma, gt_class, _ = records_to_arrays([record])
    out = calibrated_sigma_array(calibrator, pred, sigma, gt_class)
    return tuple(float(v) for v in out[0])


def _map_to_dict(cmap: CalibrationMap) -> dict:
    return {"breakpoints": list(cmap.breakpoints), "values": list(cmap.values)}


def _map_from_dict(d: dict, scope_key) -> CalibrationMap:
    """A map read from a file, checked to be a non-decreasing step function."""
    bp = np.asarray(d["breakpoints"], dtype=float)
    values = np.asarray(d["values"], dtype=float)
    if bp.ndim != 1 or bp.shape != values.shape or bp.size == 0:
        problem = "needs non-empty breakpoints and values of equal length"
    elif not (np.isfinite(bp).all() and np.isfinite(values).all()):
        problem = "has non-finite entries"
    elif (np.diff(bp) <= 0).any():
        problem = "has breakpoints that are not strictly ascending"
    elif (np.diff(values) < 0).any():
        problem = "has decreasing values"
    else:
        return CalibrationMap(tuple(bp.tolist()), tuple(values.tolist()), scope_key)
    raise MalformedFile(f"calibration map {scope_key} {problem}")


def save_calibrator(calibrator: SigmaCalibrator, path) -> None:
    """Serialize a calibrator to a JSON file."""
    doc = {
        "scope": calibrator.scope,
        "global": None if calibrator.global_map is None else _map_to_dict(calibrator.global_map),
        "maps": [
            {"class": key[0], "corner": key[1], **_map_to_dict(cmap)}
            for key, cmap in sorted((calibrator.maps or {}).items())
        ],
        "fallback_classes": list(calibrator.fallback_keys),
        "n_excluded": calibrator.n_excluded,
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_calibrator(path) -> SigmaCalibrator:
    """Load a calibrator previously written by :func:`save_calibrator`.

    Raises :class:`MalformedFile` if the file is not such a calibrator, or
    if a map is not a step function with strictly ascending breakpoints and
    finite, non-decreasing values.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
        if doc["scope"] not in SCOPES:
            raise MalformedFile(f"unknown scope {doc['scope']!r}")
        if doc["scope"] != SCOPE_RAW and doc.get("global") is None:
            raise MalformedFile(f"scope {doc['scope']} needs a global map")
        maps = {}
        for entry in doc.get("maps", []):
            key = (int(entry["class"]), int(entry["corner"]))
            maps[key] = _map_from_dict(entry, key)
        return SigmaCalibrator(
            scope=doc["scope"],
            global_map=None if doc.get("global") is None else _map_from_dict(doc["global"], "global"),
            maps=maps,
            fallback_keys=tuple(int(k) for k in doc.get("fallback_classes", [])),
            n_excluded=int(doc.get("n_excluded", 0)),
        )
    except (KeyError, TypeError, ValueError, MalformedFile) as exc:
        raise MalformedFile(f"{path}: not a sigma calibrator: {exc}") from exc
