"""Isotonic recalibration of predicted corner sigmas.

Detectors trained with loss attenuation emit a sigma per corner, but the
raw values are usually miscalibrated in scale or shape.  This module fits
a monotone map from normalized sigma to normalized absolute residual
(pool-adjacent-violators on the calibration split) and replaces each
sigma by the map's value.  Normalization divides x-corner quantities by
the predicted box width and y-corner ones by its height, so one map can
serve boxes of very different sizes.

Every fit goes through one kernel, :func:`_pool`, which pools the maps
it is given together in whole-array passes.  A block's value comes from
running sums over its map, so a map gets the same bits alone or in a
batch; a pass budget per map hands the rare input that pools one block
per pass to a block stack; and the values are non-decreasing by
construction, within a stated rounding bound of the exact fit.
:func:`isotonic_fit` is the one-map case.  :func:`sigma_plan` normalizes
a table once and lays the points of every map out back to back, each
map's stably sorted by x: one per ``(class, corner)`` and, when a fit
needs it, the global one.  :func:`recalibrate` fits every map of a run on
any subset of the rows in one call of the kernel, with no sort, and
looks every row up as :func:`evaluate_map` does.  A resplit experiment
builds one plan and fits it in every run; :func:`fit_calibrator_arrays`
is the plan fitted on all its rows, and :func:`calibrated_sigma_array`
the lookup for a saved calibrator.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .core import CalibrationMap, _label_array
from .errors import DataError, EmptyFit, InvalidClass, MalformedFile, OutOfRange

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
    function of x must give them a single value.  This is the one-map case
    of the kernel that fits every map of a recalibrated run (:func:`_pool`,
    which states how blocks pool and how close their values are to exact).
    Returns a map with strictly ascending breakpoints (each pooled block's
    left edge) and non-decreasing values.
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
    x, y, w, maps = x[order], y[order], w[order], np.array([0, x.size])
    if (w == 1).all():
        sums, weights = _running_sums(y, maps), None
    else:
        sums, weights = _running_sums(w * y, maps, compensated=True), _running_sums(w, maps, compensated=True)
    first, values, _ = _pool(sums, weights, _run_starts(x), maps)
    return CalibrationMap(tuple(x[first].tolist()), tuple(values.tolist()), scope_key)


def _pool(sums, weights, runs, maps):
    """Pool adjacent violators in several maps at once.

    The maps' points lie back to back, each map's in ascending order of x:
    ``maps`` is the index of each map's first point followed by the point
    count, ``runs`` the index of the first point of each run of tied x
    (each map's first point included), and ``sums`` and ``weights`` are the
    :func:`_running_sums` of ``w * y`` and of the weights ``w`` (None for
    unit weights).  Returns the index of each pooled block's first point,
    its value and, as ``maps`` does for points, the index of each map's
    first block.

    The tied runs are the first blocks.  Each pass pools every strictly
    decreasing run of adjacent blocks of a map at once, which about halves
    the block count on real data.  A map that starts with ``k`` blocks has
    ``2 * k.bit_length()`` passes; if it still has a decreasing pair then,
    the sequential block stack finishes it, so inputs that pool one block
    per pass stay linear.

    A block's value is ``(S[end] - S[start]) / (W[end] - W[start])``, with
    ``S`` and ``W`` the running sums of ``w * y`` and ``w`` over its map from
    0, and every pooling decision compares those values.  So the values are
    non-decreasing by construction, and a map's bits depend on its own
    points only: fitted alone or in a batch, it gives the same breakpoints
    and values.  With unit weights ``W`` counts points, and a running sum
    of ``n`` terms is within ``n * eps * sum(|y|)`` of exact (``eps`` =
    2**-53; Higham, *Accuracy and Stability of Numerical Algorithms*,
    §4.2), so a block's value is within ``2 * n * eps * sum(|y|) / count``
    of its exact mean, plus ``eps`` relative, with ``n`` and the sum taken
    over the block's map and ``count`` its points.  Other weights carry
    each running sum's rounding errors in a second running sum (two-sum),
    so a block's sums are within ``eps`` of their own size, plus
    ``n**2 * eps**2`` times the map's sums.  PAVA's solution is unique
    (Best & Chakravarti, *Math. Programming* 47, 1990), so only this
    rounding can set the fit apart from another, by pooling or splitting
    neighbours whose values lie within it.
    """
    n_maps = len(maps) - 1
    slots = maps + np.arange(n_maps + 1)  # map j's running sums fill slots[j] to slots[j + 1] - 1
    n_runs = np.diff(np.searchsorted(runs, maps))
    # a block is known by its last slot: map j's points [a, b) end at slot b + j
    ends = np.append(runs[1:], maps[-1]) + np.repeat(np.arange(n_maps), n_runs)
    budget = 2 * np.frexp(n_runs)[1]  # frexp's exponent is the bit length
    passes, fewest = 0, budget.min()
    while True:
        firsts = np.searchsorted(ends, slots, side="right")  # each map's first block, then the block count
        mean = _means(sums, weights, ends, slots, firsts)
        pool = np.zeros(len(ends), dtype=bool)
        np.greater(mean[:-1], mean[1:], out=pool[:-1])
        pool[firsts[1:] - 1] = False  # a map's last block has no right neighbour in its map
        passes += 1
        live = pool if passes <= fewest else pool & np.repeat(budget >= passes, np.diff(firsts))
        if not live.any():
            break
        ends = ends.take(np.flatnonzero(~live))
    if pool.any():  # maps out of passes
        ends = _stack_pool(ends, sums, weights, slots, firsts, pool)
        firsts = np.searchsorted(ends, slots, side="right")
        mean = _means(sums, weights, ends, slots, firsts)
    starts = _block_starts(ends, slots, firsts) - np.repeat(np.arange(n_maps), np.diff(firsts))
    return starts, mean, firsts


def _running_sums(v, maps, compensated: bool = False) -> tuple:
    """Running sums of ``v`` over each map from a leading 0 (map ``j``'s fill
    slots ``maps[j] + j`` to ``maps[j + 1] + j``) and, if ``compensated``,
    running sums of their rounding errors."""
    terms = np.insert(v, maps[:-1], 0.0)
    starts = (maps + np.arange(len(maps))).tolist()
    out = (_cumsum(terms.copy() if compensated else terms, starts),)
    if compensated:  # Knuth's two-sum: each addition's error, exactly
        total, prev, term = out[0][1:], out[0][:-1], terms[1:]
        added = total - prev
        err = np.concatenate(([0.0], (prev - (total - added)) + (term - added)))
        err[starts[:-1]] = 0.0
        out += (_cumsum(err, starts),)
    return out


def _cumsum(a, starts):
    """``a`` summed in place from each of ``starts`` to the next, in one call per run of equal spans."""
    at = starts[0]
    for size, spans in itertools.groupby(np.diff(starts).tolist()):
        rows = a[at : at + size * len(list(spans))].reshape(-1, size)
        np.cumsum(rows, axis=1, out=rows)  # each row on its own, as a 1-d sum of it would be
        at += rows.size
    return a


def _block_starts(ends, slots, firsts):
    """The slot each block starts at: the previous block's end, or its map's first slot."""
    starts = np.empty_like(ends)
    starts[1:] = ends[:-1]
    starts[firsts[:-1]] = slots[:-1]
    return starts


def _spans(sums, starts, ends):
    """The total of each block from its running sums."""
    total = sums[0].take(ends)
    total -= sums[0].take(starts)
    return total if len(sums) == 1 else total + (sums[1].take(ends) - sums[1].take(starts))


def _means(sums, weights, ends, slots, firsts):
    """The value of each block, as :func:`_pool` defines it."""
    starts = _block_starts(ends, slots, firsts)
    mean = _spans(sums, starts, ends)
    mean /= ends - starts if weights is None else _spans(weights, starts, ends)
    return mean


def _stack_pool(ends, sums, weights, slots, firsts, pool):
    """Finish the maps that still ``pool`` with the classic block stack, linear in their block count."""
    parts, done = [], 0
    for j in np.unique(np.searchsorted(firsts, np.flatnonzero(pool), side="right") - 1).tolist():
        parts += [ends[done : firsts[j]], _stack(ends[firsts[j] : firsts[j + 1]], slots[j], sums, weights)]
        done = firsts[j + 1]
    return np.concatenate(parts + [ends[done:]])


def _stack(ends, start, sums, weights):
    """One map's blocks, from slot ``start``, pooled by the block stack in the arithmetic of :func:`_means`."""
    stop = int(ends[-1]) + 1
    s = [a[start:stop].tolist() for a in sums]
    wt = None if weights is None else [a[start:stop].tolist() for a in weights]

    def span(arrs, a, b):
        return arrs[0][b] - arrs[0][a] if len(arrs) == 1 else (arrs[0][b] - arrs[0][a]) + (arrs[1][b] - arrs[1][a])

    def mean(a, b):
        return span(s, a, b) / (b - a if wt is None else span(wt, a, b))

    stack_start, stack_end, stack_mean = [], [], []
    a = 0
    for b in (ends - start).tolist():
        first, m = a, mean(a, b)
        while stack_mean and stack_mean[-1] > m:
            stack_end.pop(), stack_mean.pop()
            first = stack_start.pop()
            m = mean(first, b)
        stack_start.append(first), stack_end.append(b), stack_mean.append(m)
        a = b
    return np.array(stack_end) + start


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
    idx = np.searchsorted(np.asarray(cmap.breakpoints, dtype=float), np.asarray(x, dtype=float), side="right") - 1
    out = np.asarray(cmap.values, dtype=float)[np.clip(idx, 0, len(cmap.breakpoints) - 1)]
    return float(out) if np.isscalar(x) or np.ndim(x) == 0 else out


def _normalize(pred: np.ndarray, sigma):
    """Rows whose predicted box is wider and taller than ``DIMENSION_EPS``, and
    each row's per-corner side (the width for x corners, the height for y)
    and sigma over it; the side is 0 and the sigma over it NaN in the other rows."""
    dims = (pred[:, 2:] - pred[:, :2])[:, [0, 1, 0, 1]]
    usable = (dims[:, 0] > DIMENSION_EPS) & (dims[:, 1] > DIMENSION_EPS)
    dims[~usable] = 0.0
    return usable, dims, _over(sigma, dims, usable)


def _over(a, dims, usable):
    """``a`` over ``dims`` in the usable rows, NaN in the others; an overflow
    is an infinite entry, which a fit rejects by row and corner."""
    out = np.full(dims.shape, np.nan)
    with np.errstate(over="ignore"):
        return np.divide(a, dims, out=out, where=usable[:, None])


def _denormalize(mapped, usable, dims, sigma):
    """Mapped values times the box sides, floored at ``SIGMA_FLOOR``; rows that are not usable keep their raw sigma."""
    out = mapped * dims
    np.maximum(out, SIGMA_FLOOR, out=out)
    raw = np.flatnonzero(~usable)
    out[raw] = sigma[raw]
    return out


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


def fit_calibrator_arrays(pred, gt, sigma, gt_class, scope: str = SCOPE_GLOBAL) -> SigmaCalibrator:
    """Fit sigma-recalibration maps on ``(n, 4)`` inputs: their :func:`sigma_plan`, fitted on every row.

    The map runs from normalized sigma to normalized absolute corner
    residual.  Rows with a degenerate predicted box are left out of the
    fit and counted in ``n_excluded``; at the per-class scope a class with
    fewer than ``MIN_CLASS_FIT`` usable rows falls back to the global map.
    """
    if scope not in SCOPES:
        raise OutOfRange(f"unknown calibration scope {scope!r}")
    if scope == SCOPE_RAW:
        return SigmaCalibrator(scope=SCOPE_RAW)
    plan = sigma_plan(pred, gt, sigma, gt_class, scope)
    n_excluded, fallback, fits = _fit(plan, np.ones(len(plan.usable), dtype=bool))
    maps = {m.key: CalibrationMap(tuple(bp.tolist()), tuple(values.tolist()), m.key) for m, bp, values in fits}
    global_map = maps.pop("global")
    return SigmaCalibrator(scope, global_map, maps, fallback, n_excluded)


class _Map(NamedTuple):
    """One map of a :class:`SigmaPlan`: its key, its class index (-1 for the
    global map) and its points' slice of the plan's layout."""

    key: object
    group: int
    start: int
    stop: int


@dataclass(eq=False)
class SigmaPlan:
    """What every sigma-recalibration fit over rows of one table shares.

    ``dims`` holds each row's box side per corner (the width for x corners,
    the height for y; zero in rows that are not ``usable``), ``finite``
    whether a usable row's x and y are finite in every corner and ``cls``
    its class index into ``classes``; ``x`` and ``y`` hold each row's
    normalized sigma and residual at ``row * 4 + corner`` (NaN in unusable
    rows).  The layout lists each map's points back to back, each map's
    sorted by x (stable, so ties stay in row order): ``flat`` is each
    point's ``row * 4 + corner``, ``tie_start`` the layout position of the
    first point of its run of tied x, and ``maps`` each map's slice.  The
    global map comes first when present; it joins the layout only when a
    fit first needs it (:func:`_with_global`).
    """

    scope: str
    sigma: np.ndarray
    usable: np.ndarray
    dims: np.ndarray
    finite: np.ndarray
    cls: np.ndarray
    classes: np.ndarray
    x: np.ndarray
    y: np.ndarray
    maps: tuple
    flat: np.ndarray
    tie_start: np.ndarray


def sigma_plan(pred, gt, sigma, gt_class, scope: str = SCOPE_GLOBAL) -> SigmaPlan:
    """Normalize ``(n, 4)`` rows and sort every map's points once, for :func:`recalibrate`.

    A subset of a stable sort is the stable sort of the subset, so a fit
    over any rows takes its points from the plan in the order
    :func:`isotonic_fit` would sort them in.  Each corner's class maps come
    from one stable sort of its points by class, then x; the global map's
    points are sorted when a fit first needs them.  At the per-class scope a
    negative class id raises :class:`InvalidClass`.
    """
    if scope not in (SCOPE_GLOBAL, SCOPE_PER_CLASS):
        raise OutOfRange(f"calibration scope {scope!r} fits no maps")
    pred = np.asarray(pred, dtype=float)
    if len(pred) == 0:
        raise EmptyFit("a sigma-recalibration fit needs at least one record")
    sigma = np.asarray(sigma, dtype=float)
    usable, dims, x = _normalize(pred, sigma)
    y = _over(np.abs(pred - np.asarray(gt, dtype=float)), dims, usable)
    finite = np.isfinite(x).all(axis=1) & np.isfinite(y).all(axis=1)
    classes, cls = np.unique(_label_array(gt_class, len(pred)), return_inverse=True)
    if scope == SCOPE_PER_CLASS and classes[0] < 0:  # load_calibrator reads class map keys >= 0 only
        raise InvalidClass(f"per-class maps need class ids >= 0, got {int(classes[0])}")
    x, y = x.ravel(), y.ravel()
    maps, flat = _class_layout(usable, cls, classes, x) if scope == SCOPE_PER_CLASS else ((), np.empty(0, dtype=np.intp))
    return SigmaPlan(scope, sigma, usable, dims, finite, cls, classes, x, y, maps, flat, _tie_starts(x.take(flat), maps))


def _class_layout(usable, cls, classes, x):
    """The ``maps`` and ``flat`` of the class maps, class by class, each
    class's four corner maps back to back (equal sizes, so one call sums
    them): each corner's points, sorted by class then x, go to position
    ``4 * start + corner * size + i`` of their class's maps."""
    counts = np.bincount(cls[usable], minlength=len(classes))
    groups = np.flatnonzero(counts >= MIN_CLASS_FIT)
    rows = np.flatnonzero(usable & (counts >= MIN_CLASS_FIT)[cls])
    sizes = counts[groups]
    starts = np.cumsum(sizes) - sizes
    at = np.repeat(3 * starts, sizes) + np.arange(len(rows))
    step = np.repeat(sizes, sizes)
    flat = np.empty(4 * len(rows), dtype=np.intp)
    for c in range(4):
        flat[at + c * step] = rows[np.lexsort((x[rows * 4 + c], cls[rows]))] * 4 + c
    maps = tuple(
        _Map((int(classes[k]), c), k, 4 * start + c * size, 4 * start + (c + 1) * size)
        for k, size, start in zip(groups.tolist(), sizes.tolist(), starts.tolist())
        for c in range(4)
    )
    return maps, flat


def _tie_starts(x, maps) -> np.ndarray:
    """For points sorted by ``x`` within each map, the position of the first point of each one's run of tied x."""
    tied = np.zeros(len(x), dtype=bool)
    tied[1:] = x[1:] == x[:-1]
    tied[[m.start for m in maps if m.stop > m.start]] = False
    start = np.arange(len(x))
    start[tied] = 0
    return np.maximum.accumulate(start, out=start)


def _with_global(plan: SigmaPlan) -> int:
    """The global map's point count, after putting the map, over every usable
    row's corners, at the head of the plan's layout if it is not there yet."""
    if plan.maps and plan.maps[0].group < 0:
        return plan.maps[0].stop
    flat = np.flatnonzero(np.repeat(plan.usable, 4))
    flat = flat.take(np.argsort(plan.x.take(flat), kind="stable"))
    n = len(flat)
    plan.maps = (_Map("global", -1, 0, n),) + tuple(m._replace(start=m.start + n, stop=m.stop + n) for m in plan.maps)
    plan.tie_start = np.concatenate([_tie_starts(plan.x.take(flat), plan.maps[:1]), plan.tie_start + n])
    plan.flat = np.concatenate([flat, plan.flat])
    return n


def _run_starts(keys) -> np.ndarray:
    """The index of the first of each run of equal ``keys``."""
    return np.flatnonzero(np.concatenate(([True], keys[1:] != keys[:-1])))


def _fit_blocks(plan: SigmaPlan, fit_mask: np.ndarray, lookup: bool):
    """``n_excluded``, the fallback classes, the maps fitted on the rows of
    ``fit_mask``, the layout position where the tied run of each point
    fitted starts and, for those points, :func:`_pool`'s blocks.

    With ``lookup`` the global map is fitted only if some usable plan row's
    class gets no class map of its own here, the one case where a lookup of
    the plan rows reads it.
    """
    if not fit_mask.any():
        raise EmptyFit("a sigma-recalibration fit needs at least one record")
    fit = fit_mask & plan.usable
    if not fit.any():
        raise EmptyFit("no records with non-degenerate predicted boxes")
    bad = fit & ~plan.finite
    if bad.any():
        row = int(np.flatnonzero(bad)[0])
        x, y = plan.x[row * 4 : row * 4 + 4], plan.y[row * 4 : row * 4 + 4]
        corner = int(np.flatnonzero(~(np.isfinite(x) & np.isfinite(y)))[0])
        raise DataError(
            f"record {row} (counting from 0) corner {corner}: sigma or residual over the box side is not finite "
            f"(normalized sigma {x[corner]}, residual {y[corner]})"
        )
    counts = np.bincount(plan.cls, weights=fit, minlength=len(plan.classes)).astype(int)
    fitted = counts >= MIN_CLASS_FIT  # a class fitted here has maps in the plan
    fallback = tuple(plan.classes[(counts > 0) & ~fitted].tolist()) if plan.scope == SCOPE_PER_CLASS else ()
    need_global = not (lookup and plan.scope == SCOPE_PER_CLASS and fitted[plan.cls[plan.usable]].all())
    n_global = _with_global(plan) if need_global else plan.maps[0].stop if plan.maps[0].group < 0 else 0
    maps = [m for m in plan.maps if (need_global if m.group < 0 else fitted[m.group])]
    sizes = [4 * np.count_nonzero(fit) if m.group < 0 else int(counts[m.group]) for m in maps]
    bounds = np.cumsum([0] + sizes)
    tie, sums = _fit_points(plan, fit & fitted[plan.cls], fit if need_global else None, n_global, bounds)
    return int(np.count_nonzero(fit_mask) - np.count_nonzero(fit)), fallback, maps, tie, _pool(sums, None, _run_starts(tie), bounds)


def _fit_points(plan: SigmaPlan, class_rows, global_rows, n_global: int, maps):
    """For the points fitted, in layout order, the position where each one's
    run of tied x starts, and the :func:`_running_sums` of their y over ``maps``.

    The class maps fit the points of ``class_rows``, and the global map (the
    first ``n_global`` points of the layout) those of ``global_rows`` if given.
    """
    idx = np.flatnonzero(np.repeat(class_rows, 4).take(plan.flat[n_global:]))
    if n_global:
        idx += n_global
    if global_rows is not None:
        idx = np.concatenate([np.flatnonzero(np.repeat(global_rows, 4).take(plan.flat[:n_global])), idx])
    return plan.tie_start.take(idx), _running_sums(plan.y.take(plan.flat.take(idx)), maps)


def _fit(plan: SigmaPlan, fit_mask: np.ndarray, lookup: bool = False):
    """``n_excluded``, the fallback classes and, for each map fitted on the
    rows of ``fit_mask``, ``(map, breakpoints, values)``; ``lookup`` as in :func:`_fit_blocks`."""
    n_excluded, fallback, maps, tie, (first, values, block_maps) = _fit_blocks(plan, fit_mask, lookup)
    breakpoints = plan.x.take(plan.flat.take(tie.take(first)))
    edges = block_maps.tolist()
    return n_excluded, fallback, [(m, breakpoints[a:b], values[a:b]) for m, a, b in zip(maps, edges, edges[1:])]


def recalibrate(plan: SigmaPlan, fit_mask: np.ndarray) -> tuple[np.ndarray, int, tuple]:
    """Fit the maps on the rows of ``fit_mask`` and recalibrate the sigma of every plan row.

    Returns the ``(n, 4)`` sigma as :func:`calibrated_sigma_array` gives it,
    ``n_excluded`` and the fallback classes.  Each fitted map is evaluated
    at the x of every plan row it covers, fit or not, as :func:`evaluate_map`
    would evaluate it: in the layout, each block's value fills the
    positions from the first point tied with its first point (a map's first
    block from the map's first point) to the next block's, so each point
    reads the value of the greatest breakpoint at or below its x.  At the
    per-class scope the global map is fitted only when some usable row's
    class falls back to it (too few fit rows, or no map in the plan);
    otherwise the class maps cover every usable row.
    """
    n_excluded, fallback, maps, tie, (first, values, block_maps) = _fit_blocks(plan, np.asarray(fit_mask, dtype=bool), lookup=True)
    at = tie.take(first)
    at[block_maps[:-1]] = [m.start for m in maps]
    at[0] = 0  # the points ahead of the first map fitted are in no map fitted, and never read
    looked_up = np.repeat(values, np.diff(np.append(at, len(plan.flat))))
    mapped = np.zeros(plan.x.size)
    for m in maps:  # global (if fitted) first, then class maps overwrite their rows
        mapped[plan.flat[m.start : m.stop]] = looked_up[m.start : m.stop]
    return _denormalize(mapped.reshape(-1, 4), plan.usable, plan.dims, plan.sigma), n_excluded, fallback


def calibrated_sigma_array(calibrator: SigmaCalibrator, pred, sigma, gt_class) -> np.ndarray:
    """Vectorized sigma recalibration for ``(n, 4)`` arrays, the lookup for a saved calibrator.

    Records with a degenerate predicted box keep their raw sigma (the
    normalization is undefined there); everything else is normalized,
    mapped, denormalized, and floored at ``SIGMA_FLOOR``.  ``gt_class`` holds
    one integer per row; a class with no map of its own takes the global map.
    """
    sigma = np.asarray(sigma, dtype=float)
    labels = _label_array(gt_class, len(sigma))
    if calibrator.scope == SCOPE_RAW:
        return sigma.copy()
    usable, dims, x = _normalize(np.asarray(pred, dtype=float), sigma)
    # one search of the global map for every entry; each class map then
    # overwrites its own class's column
    mapped = evaluate_map(calibrator.global_map, x)
    rows: dict = {}
    for (k, corner), cmap in (calibrator.maps or {}).items():
        if k not in rows:
            rows[k] = np.flatnonzero(labels == k)
        mapped[rows[k], corner] = evaluate_map(cmap, x[rows[k], corner])
    return _denormalize(mapped, usable, dims, sigma)


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


def _non_negative_int(value, name: str, stop: float = float("inf")) -> int:
    """``value`` if it is a JSON integer in ``[0, stop)``; a float, bool or string is not."""
    if type(value) is not int or not 0 <= value < stop:
        raise MalformedFile(f"{name} must be an integer in [0, {stop}), got {value!r}")
    return value


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

    Raises :class:`MalformedFile` if the file is not such a calibrator: a
    class, corner, fallback class or ``n_excluded`` that is not an integer
    >= 0 (a corner below 4), a repeated ``(class, corner)`` map, or a map
    that is not a step function with strictly ascending breakpoints and
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
            key = (_non_negative_int(entry["class"], "class"), _non_negative_int(entry["corner"], "corner", 4))
            if key in maps:
                raise MalformedFile(f"repeated calibration map {key}")
            maps[key] = _map_from_dict(entry, key)
        return SigmaCalibrator(
            scope=doc["scope"],
            global_map=None if doc.get("global") is None else _map_from_dict(doc["global"], "global"),
            maps=maps,
            fallback_keys=tuple(_non_negative_int(k, "fallback class") for k in doc.get("fallback_classes", [])),
            n_excluded=_non_negative_int(doc.get("n_excluded", 0), "n_excluded"),
        )
    except (KeyError, TypeError, ValueError, RecursionError, MalformedFile) as exc:  # RecursionError: JSON nested too deeply
        raise MalformedFile(f"{path}: not a sigma calibrator: {exc}") from exc
