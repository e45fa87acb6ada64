"""Isotonic recalibration of predicted corner sigmas.

Detectors trained with loss attenuation emit a sigma per corner, but the
raw values are usually miscalibrated in scale or shape.  This module fits
a monotone map from normalized sigma to normalized absolute residual
(pool-adjacent-violators on the calibration split) and replaces each
sigma by the map's value.  Normalization divides x-corner quantities by
the predicted box width and y-corner ones by its height, so one map can
serve boxes of very different sizes.

Every fit goes through one presorted kernel.  :func:`sigma_plan`
normalizes a table once and stably sorts the points of each map, the
global one and one per ``(class, corner)``; :func:`recalibrate` fits the
maps on any subset of the rows from that order, with no sort, and looks
every row up by the rank of its x.  A resplit experiment builds one plan
and fits it in every run; :func:`fit_calibrator_arrays` is the plan
fitted on all its rows, and :func:`calibrated_sigma_array` the lookup
for a saved calibrator.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .core import CalibrationMap, DetectionRecord, records_to_arrays
from .errors import EmptyFit, MalformedFile, OutOfRange

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
    x = x[order]
    start, values = _pool(x, y[order], w[order])
    return CalibrationMap(tuple(x[start].tolist()), tuple(values.tolist()), scope_key)


def _pool(x, y, w):
    """Pool adjacent violators over points sorted by ``x``: each block's first index and value."""
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
    return start, wy / w


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
    per-corner dimensions (the width for x corners, the height for y) and sigma over them."""
    dims = (pred[:, 2:] - pred[:, :2])[:, [0, 1, 0, 1]]
    usable = (dims[:, 0] > DIMENSION_EPS) & (dims[:, 1] > DIMENSION_EPS)
    dims = dims[usable]
    return usable, dims, np.asarray(sigma, dtype=float)[usable] / dims


@dataclass(frozen=True)
class SigmaCalibrator:
    """Fitted sigma-recalibration maps.

    ``scope`` is one of :data:`SCOPE_RAW` (identity), :data:`SCOPE_GLOBAL`
    (one map pooled over all corners), or :data:`SCOPE_PER_CLASS` (one map
    per ``(class, corner)``, falling back to the global map where a class
    had too few records, listed in ``fallback_keys``); the global scope is
    the per-class one with no class maps.  ``n_excluded`` counts records
    skipped during fitting because their predicted box was degenerate.
    """

    scope: str
    global_map: CalibrationMap | None = None
    maps: dict | None = None
    fallback_keys: tuple = ()
    n_excluded: int = 0


def fit_calibrator_arrays(
    pred, gt, sigma, gt_class, scope: str = SCOPE_GLOBAL, min_class_fit: int = MIN_CLASS_FIT
) -> SigmaCalibrator:
    """Fit sigma-recalibration maps on ``(n, 4)`` inputs: their :func:`sigma_plan`, fitted on every row.

    The map runs from normalized sigma to normalized absolute corner
    residual.  Rows with a degenerate predicted box are left out of the
    fit and counted in ``n_excluded``; at the per-class scope a class with
    fewer than ``min_class_fit`` usable rows falls back to the global map.
    """
    if scope not in SCOPES:
        raise OutOfRange(f"unknown calibration scope {scope!r}")
    if scope == SCOPE_RAW:
        return SigmaCalibrator(scope=SCOPE_RAW)
    plan = sigma_plan(pred, gt, sigma, gt_class, scope, min_class_fit)
    n_excluded, fallback, fits = _fit(plan, np.ones(len(plan.usable), dtype=bool))
    maps = {m.key: CalibrationMap(tuple(bp.tolist()), tuple(values.tolist()), m.key) for m, _, bp, values in fits}
    global_map = maps.pop("global")
    return SigmaCalibrator(scope, global_map, maps, fallback, n_excluded)


class _SortedMap(NamedTuple):
    """The points one map may be fitted on, in stable order of x: each one's
    ``row * 4 + corner`` in the plan, x, y, and rank among the distinct x."""

    key: object
    group: int  # the class index of a class map, -1 for the global map
    flat: np.ndarray
    x: np.ndarray
    y: np.ndarray
    ids: np.ndarray


def _sorted_map(key, group: int, flat, x, y) -> _SortedMap:
    order = np.argsort(x, kind="stable")
    x = x[order]
    ids = np.cumsum(np.concatenate(([False], x[1:] != x[:-1])))[: len(x)]
    return _SortedMap(key, group, flat[order], x, y[order], ids)


@dataclass(frozen=True, eq=False)
class SigmaPlan:
    """What every sigma-recalibration fit over rows of one table shares: ``dims`` and
    ``finite`` (x and y finite in every corner) of the ``usable`` rows, each row's class
    index into ``classes``, and the points of the global and each ``(class, corner)`` map."""

    scope: str
    min_class_fit: int
    sigma: np.ndarray
    usable: np.ndarray
    dims: np.ndarray
    finite: np.ndarray
    cls: np.ndarray
    classes: np.ndarray
    maps: tuple


def sigma_plan(pred, gt, sigma, gt_class, scope: str = SCOPE_GLOBAL, min_class_fit: int = MIN_CLASS_FIT) -> SigmaPlan:
    """Normalize ``(n, 4)`` rows and sort every map's points once, for :func:`recalibrate`.

    A subset of a stable sort is the stable sort of the subset, so a fit
    over any rows takes its points from the plan in the order
    :func:`isotonic_fit` would sort them in.
    """
    if scope not in (SCOPE_GLOBAL, SCOPE_PER_CLASS):
        raise OutOfRange(f"calibration scope {scope!r} fits no maps")
    pred = np.asarray(pred, dtype=float)
    if len(pred) == 0:
        raise EmptyFit("a sigma-recalibration fit needs at least one record")
    sigma = np.asarray(sigma, dtype=float)
    usable, dims, x = _normalize(pred, sigma)
    y = np.abs(pred[usable] - np.asarray(gt, dtype=float)[usable]) / dims
    finite = np.zeros(len(usable), dtype=bool)
    finite[usable] = np.isfinite(x).all(axis=1) & np.isfinite(y).all(axis=1)
    classes, cls = np.unique(np.asarray(gt_class, dtype=int), return_inverse=True)
    flat = np.flatnonzero(usable)[:, None] * 4 + np.arange(4)
    maps = [_sorted_map("global", -1, flat.ravel(), x.ravel(), y.ravel())]
    for k in range(len(classes)) if scope == SCOPE_PER_CLASS else ():
        sel = cls[usable] == k
        if sel.sum() >= max(min_class_fit, 1):
            maps += [_sorted_map((int(classes[k]), c), k, flat[sel, c], x[sel, c], y[sel, c]) for c in range(4)]
    return SigmaPlan(scope, min_class_fit, sigma, usable, dims, finite, cls, classes, tuple(maps))


def _fit(plan: SigmaPlan, fit_mask: np.ndarray, lookup: bool = False):
    """``n_excluded``, the fallback classes and, for each map fitted on the
    rows of ``fit_mask``, ``(map, ids of its breakpoints, breakpoints, values)``.

    With ``lookup`` the global map is fitted only if some usable plan row's
    class gets no class map of its own here, the one case where a lookup of
    the plan rows reads it.
    """
    if not fit_mask.any():
        raise EmptyFit("a sigma-recalibration fit needs at least one record")
    fit = fit_mask & plan.usable
    if not fit.any():
        raise EmptyFit("no records with non-degenerate predicted boxes")
    if not plan.finite[fit].all():
        raise OutOfRange("isotonic_fit needs finite x and y, and finite weights > 0")
    counts = np.bincount(plan.cls[fit], minlength=len(plan.classes))
    small = (counts > 0) & (counts < plan.min_class_fit)
    fallback = tuple(plan.classes[small].tolist()) if plan.scope == SCOPE_PER_CLASS else ()
    fitted = counts >= max(plan.min_class_fit, 1)  # a class fitted here has maps in the plan
    need_global = not (lookup and plan.scope == SCOPE_PER_CLASS and fitted[plan.cls[plan.usable]].all())
    fits = []
    for m in plan.maps:
        if need_global if m.group < 0 else fitted[m.group]:
            sel = fit[m.flat // 4]
            x = m.x[sel]
            start, values = _pool(x, m.y[sel], np.ones(len(x)))
            fits.append((m, m.ids[sel][start], x[start], values))
    return int(fit_mask.sum() - fit.sum()), fallback, fits


def recalibrate(plan: SigmaPlan, fit_mask: np.ndarray) -> tuple[np.ndarray, int, tuple]:
    """Fit the maps on the rows of ``fit_mask`` and recalibrate the sigma of every plan row.

    Returns the ``(n, 4)`` sigma as :func:`calibrated_sigma_array` gives it,
    ``n_excluded`` and the fallback classes.  A map is evaluated by rank:
    its breakpoints at or below an x are the breakpoint ids up to x's id.
    At the per-class scope the global map is fitted only when some usable
    row's class falls back to it (too few fit rows, or no map in the plan);
    otherwise the class maps cover every usable row.
    """
    n_excluded, fallback, fits = _fit(plan, np.asarray(fit_mask, dtype=bool), lookup=True)
    mapped = np.empty(plan.sigma.size)
    for m, bp_ids, _, values in fits:  # global (if fitted) first, then class maps overwrite their rows
        flags = np.zeros(m.ids[-1] + 1, dtype=np.intp)
        flags[bp_ids] = 1
        mapped[m.flat] = values[np.maximum(np.cumsum(flags)[m.ids] - 1, 0)]
    out = plan.sigma.copy()
    out[plan.usable] = np.maximum(mapped.reshape(-1, 4)[plan.usable] * plan.dims, SIGMA_FLOOR)
    return out, n_excluded, fallback


def calibrated_sigma_array(calibrator: SigmaCalibrator, pred, sigma, gt_class) -> np.ndarray:
    """Vectorized sigma recalibration for ``(n, 4)`` arrays, the lookup for a saved calibrator.

    Records with a degenerate predicted box keep their raw sigma (the
    normalization is undefined there); everything else is normalized,
    mapped, denormalized, and floored at ``SIGMA_FLOOR``.
    """
    sigma = np.asarray(sigma, dtype=float)
    if calibrator.scope == SCOPE_RAW:
        return sigma.copy()
    usable, dims, x = _normalize(np.asarray(pred, dtype=float), sigma)
    cls = np.asarray(gt_class, dtype=int)[usable]
    # one search of the global map for every entry; each class map then
    # overwrites its own class's column
    mapped = evaluate_map(calibrator.global_map, x)
    rows: dict = {}
    for (k, corner), cmap in (calibrator.maps or {}).items():
        if k not in rows:
            rows[k] = np.flatnonzero(cls == k)
        mapped[rows[k], corner] = evaluate_map(cmap, x[rows[k], corner])
    out = sigma.copy()
    out[usable] = np.maximum(mapped * dims, SIGMA_FLOOR)
    return out


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
    except (KeyError, TypeError, ValueError, RecursionError, MalformedFile) as exc:  # RecursionError: JSON nested too deeply
        raise MalformedFile(f"{path}: not a sigma calibrator: {exc}") from exc
