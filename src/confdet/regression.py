"""Split conformal prediction for box corners.

The residual of each corner is conformalized independently: a
nonconformity score per corner, a finite-sample quantile of the
calibration scores, and a symmetric interval around the prediction.  The
four intervals give an outer and an inner box (:func:`outer_inner_boxes`).
Everything here is distribution-free; the only randomness assumption is
exchangeability between calibration and test records.
"""

from __future__ import annotations

import functools
import math
from decimal import Decimal
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from .core import (
    AGNOSTIC,
    DEFAULT_IMAGE_BOUNDS,
    SCOPE_CLASS_AGNOSTIC,
    SCOPE_CLASS_WISE,
    BoundingBox,
    QuantileTable,
)
from .errors import DataError, EmptyCalibration, InvalidClass, MissingClass, NonPositiveSigma, OutOfRange

#: Default number of calibration records per class below which a
#: class-wise fit flags the class as unreliable (it still fits).
MIN_PER_CLASS = 20


def residual_scores(pred: np.ndarray, gt: np.ndarray, sigma: np.ndarray | None = None) -> np.ndarray:
    """Vectorized corner scores for ``(n, 4)`` coordinate arrays.

    With ``sigma=None`` this is the unscaled score, otherwise the scaled
    one: residuals divided by a per-corner uncertainty, so that a single
    quantile gives locally adaptive interval widths.
    """
    resid = np.abs(np.asarray(pred, dtype=float) - np.asarray(gt, dtype=float))
    if sigma is None:
        return resid
    s = np.asarray(sigma, dtype=float)
    if not np.all(np.isfinite(s) & (s > 0)):
        raise NonPositiveSigma("all sigma entries must be > 0 for scaled scores")
    return resid / s


def conformal_quantile(scores, alpha: float) -> float:
    """Finite-sample calibration quantile of a score sample.

    Returns the ``ceil((n + 1) * (1 - alpha))``-th smallest score, which
    inflates the empirical ``1 - alpha`` quantile just enough to account
    for the test point.  When that rank exceeds ``n`` (calibration set too
    small for the requested level) the quantile is ``+inf`` and downstream
    intervals become vacuous.  The rank is computed in exact arithmetic
    with ``alpha`` read at its shortest round-trip decimal, so typed
    levels like 0.3 sit on the integer boundaries they describe.

    Parameters
    ----------
    scores : array-like
        Calibration scores, any order, ties allowed.
    alpha : float
        Miscoverage level in ``(0, 1)``.

    Returns
    -------
    float
        The calibrated quantile, possibly ``+inf``.
    """
    s = np.asarray(scores, dtype=float).ravel()
    return float(column_quantiles(s[:, None], alpha)[0])


def column_quantiles(scores, alpha: float) -> np.ndarray:
    """:func:`conformal_quantile` of each column of an ``(n, m)`` score matrix.

    All ``m`` order statistics come from one partition along the rows.
    Returns an ``(m,)`` array, ``+inf`` everywhere when the rank exceeds
    ``n``.
    """
    if not 0.0 < alpha < 1.0:
        raise OutOfRange(f"alpha must lie in (0, 1), got {alpha!r}")
    s = np.asarray(scores, dtype=float)
    if s.ndim != 2:
        raise OutOfRange(f"scores must be an (n, m) matrix, got shape {s.shape}")
    n = s.shape[0]
    if n == 0:
        raise EmptyCalibration("conformal_quantile needs at least one score")
    if np.isnan(s).any():  # NaN sorts last, so it would silently shift the rank
        raise DataError("conformal_quantile got NaN scores")
    rank = _order_rank(n, alpha)
    if rank > n:
        return np.full(s.shape[1], math.inf)
    return np.partition(s, rank - 1, axis=0)[rank - 1]


def bonferroni_corner_alpha(alpha_bbox: float) -> float:
    """Per-corner miscoverage that guarantees box-level ``1 - alpha_bbox``.

    Splitting the budget evenly over the four corners needs no assumption
    on the dependence between corner residuals (union bound).
    """
    if not 0.0 < alpha_bbox < 1.0:
        raise OutOfRange(f"alpha_bbox must lie in (0, 1), got {alpha_bbox!r}")
    return alpha_bbox / 4.0


@functools.lru_cache(maxsize=4096)
def _order_rank(n: int, alpha: float) -> int:
    # alpha is taken at its shortest round-trip decimal and the ceil is
    # exact: the float product grazes integers at levels like 0.7 with
    # n = 9, where ceil(10 * 0.3) must be 3, not 4.  Memoised: every run
    # of an experiment asks for the same few (n, alpha) pairs
    exact = Fraction(Decimal(repr(float(alpha))))
    return math.ceil((n + 1) * (1 - exact))


class GroupSort(NamedTuple):
    """An ``(n, m)`` score matrix presorted for :func:`masked_group_quantiles`.

    Rows ``bounds[g]:bounds[g + 1]`` of ``values`` hold group ``g``, each
    column ascending within every group, and ``order[i, c]`` is the score
    row that sorted entry ``(i, c)`` came from.
    """

    values: np.ndarray
    order: np.ndarray
    bounds: np.ndarray

    def picked(self, mask) -> np.ndarray:
        """The ``(B, m, n)`` sorted entries that each row of a ``(B, n)`` row mask holds."""
        return np.take(np.asarray(mask, dtype=bool), self.order.T, axis=1)


def _grouped(scores, groups, n_groups: int):
    """The rows of ``scores`` group by group (stable), the row each came from, and the group bounds."""
    groups = np.asarray(groups, dtype=int)
    if groups.size and not (groups.min() >= 0 and groups.max() < n_groups):
        raise InvalidClass(f"group ids must lie in [0, {n_groups})")
    by_group = np.argsort(groups, kind="stable")
    bounds = np.concatenate(([0], np.cumsum(np.bincount(groups, minlength=n_groups))))
    return np.take(np.asarray(scores, dtype=float), by_group, axis=0), by_group, bounds


def presort_groups(scores, groups, n_groups: int) -> GroupSort:
    """Sort each column of an ``(n, m)`` score matrix within each group's rows.

    ``groups`` holds the group id of each row, in ``[0, n_groups)``.

    Raises
    ------
    InvalidClass
        If a group id lies outside ``[0, n_groups)``.
    """
    values, by_group, bounds = _grouped(scores, groups, n_groups)
    order = np.empty(values.shape, dtype=np.intp)
    # sorted in place one group's column at a time, so the temporaries are one column of one group
    for lo, hi in zip(bounds[:-1].tolist(), bounds[1:].tolist()):
        for column, rows in zip(values[lo:hi].T, order[lo:hi].T):
            ranks = np.argsort(column)
            column[:] = column[ranks]
            rows[:] = by_group[lo:hi][ranks]
    return GroupSort(values, order, bounds)


def masked_group_quantiles(values, bounds, picked, alpha: float) -> tuple[np.ndarray, np.ndarray]:
    """:func:`column_quantiles` of each group's picked entries, for a batch of samples.

    ``values`` and ``bounds`` are presorted as in :class:`GroupSort`, and
    sample ``b`` holds sorted entry ``values[i, c]`` where ``picked[b, c, i]``;
    every column of a sample must hold the same number of entries of each
    group, as when the entries are rows (:meth:`GroupSort.picked`).  The
    rank-th picked entry of a group is found by counting picked entries
    along the sorted order, so every order statistic of every sample comes
    from the one sort.  Returns the ``(B, G, m)`` quantiles, ``+inf``
    where the rank exceeds the group's count, and the ``(B, G)`` counts.

    Raises
    ------
    MissingClass
        If a sample picks no entry of some group; the earliest such
        sample's first empty group is named.
    DataError
        If a picked score is NaN.
    """
    if not 0.0 < alpha < 1.0:
        raise OutOfRange(f"alpha must lie in (0, 1), got {alpha!r}")
    values = np.asarray(values, dtype=float)
    picked = np.asarray(picked, dtype=bool)
    n, m = values.shape
    if picked.ndim != 3 or picked.shape[1:] != (m, n):
        raise OutOfRange(f"picked must be a (B, {m}, {n}) array, got shape {picked.shape}")
    n_samples, width = picked.shape[0], n + 1
    count_type = np.int32 if n_samples * m * width < 2**31 else np.int64
    before = np.zeros((n_samples, m, width), dtype=count_type)  # picked entries before each sorted position
    before[:, :, 1:] = np.cumsum(picked, axis=2, dtype=count_type)
    at_bounds = before[:, :, bounds]
    per_column = np.diff(at_bounds, axis=2)
    counts = per_column[:, 0]
    if (per_column != counts[:, None]).any():
        raise OutOfRange("every column of a sample must pick the same number of entries of each group")
    empty = np.argwhere(counts == 0)
    if len(empty):
        raise MissingClass(
            f"class {empty[0, 1]} has no calibration records; a class-wise fit "
            "needs every class represented"
        )
    nan = np.isnan(values.T)
    if nan.any() and picked[:, nan].any():  # NaN sorts last, so it would silently shift the rank
        raise DataError("conformal_quantile got NaN scores")
    rank = np.array([_order_rank(c, alpha) for c in counts.ravel().tolist()]).reshape(counts.shape)
    # one search over every (sample, column) row: row r's counts, shifted by
    # r * width, all lie above row r - 1's
    shift = (np.arange(n_samples * m, dtype=count_type) * width).reshape(n_samples, m, 1)
    target = at_bounds[:, :, :-1] + shift + rank[:, None, :].astype(count_type)
    found = np.searchsorted((before + shift).ravel(), target.ravel()).reshape(target.shape)
    pos = np.clip(found - shift - 1, 0, n - 1)  # the first position holding `target` picked entries
    q = values[pos, np.arange(m)[:, None]]  # (B, m, G)
    return np.where(rank[:, None, :] > counts[:, None, :], math.inf, q).transpose(0, 2, 1), counts


def group_quantiles(scores, alpha: float, groups, n_groups: int) -> tuple[np.ndarray, np.ndarray]:
    """:func:`column_quantiles` of each group's rows of an ``(n, m)`` score matrix.

    ``groups`` holds the group id of each row, in ``[0, n_groups)``.
    Returns the ``(n_groups, m)`` quantiles and the ``(n_groups,)`` row
    counts.  A pooled fit is the one-group case: all ids zero.  This is the
    one-sample adapter of :func:`masked_group_quantiles`, picking every row.

    Raises
    ------
    InvalidClass
        If a group id lies outside ``[0, n_groups)``.
    MissingClass
        If a group has no rows; the first empty group is named.
    """
    grouped, _, bounds = _grouped(scores, groups, n_groups)
    for lo, hi in zip(bounds[:-1].tolist(), bounds[1:].tolist()):
        grouped[lo:hi].sort(axis=0)
    q, counts = masked_group_quantiles(grouped, bounds, np.ones((1,) + grouped.shape[::-1], dtype=bool), alpha)
    return q[0], counts[0]


def fit_quantiles_from_scores(
    scores: np.ndarray,
    alpha_corner: float,
    groups: np.ndarray | None = None,
    n_classes: int | None = None,
    min_per_class: int = MIN_PER_CLASS,
) -> QuantileTable:
    """Fit a quantile table directly from a ``(n, 4)`` score matrix.

    ``groups=None`` fits one class-agnostic group keyed ``AGNOSTIC`` and
    flags nothing; otherwise ``groups`` holds the class id of each row,
    every id in ``[0, n_classes)`` must be present, and classes with fewer
    than ``min_per_class`` rows are fitted anyway and listed in ``flagged``.
    """
    scores = np.asarray(scores, dtype=float)
    if scores.ndim != 2 or scores.shape[1] != 4:
        raise OutOfRange(f"scores must have shape (n, 4), got {scores.shape}")
    if scores.shape[0] == 0:
        raise EmptyCalibration("no calibration scores")

    pooled = groups is None
    groups = np.zeros(len(scores), dtype=int) if pooled else np.asarray(groups, dtype=int)
    if pooled or n_classes is None:  # pooled: one group, whatever n_classes says
        n_classes = int(groups.max()) + 1
    q, counts = group_quantiles(scores, alpha_corner, groups, n_classes)
    keys = [AGNOSTIC] if pooled else range(n_classes)
    return QuantileTable(
        scope=SCOPE_CLASS_AGNOSTIC if pooled else SCOPE_CLASS_WISE,
        quantiles={key: tuple(row) for key, row in zip(keys, q.tolist())},
        level={key: _order_rank(n, alpha_corner) / n for key, n in zip(keys, counts.tolist())},
        n_per_group=dict(zip(keys, counts.tolist())),
        alpha_corner=alpha_corner,
        flagged=() if pooled else tuple(np.flatnonzero(counts < min_per_class).tolist()),
    )


def corner_intervals(
    pred: np.ndarray,
    quantiles: np.ndarray,
    sigma: np.ndarray | None = None,
    image_bounds: BoundingBox | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Per-corner intervals ``pred +- q * sigma`` with vacuous clamping.

    Broadcasts over leading dimensions, so ``pred`` may be one corner
    vector ``(4,)`` or a batch ``(n, 4)``.  Corners whose quantile is
    ``+inf`` get the full image extent on their axis (``image_bounds``,
    defaulting to :data:`~confdet.core.DEFAULT_IMAGE_BOUNDS`) so that
    downstream geometry stays finite.  Finite intervals are not clipped,
    which keeps coverage statements exact.

    Returns
    -------
    (lows, highs) : pair of ndarray
        Interval bounds, same shape as the broadcast inputs.
    """
    pred = np.asarray(pred, dtype=float)
    q = np.asarray(quantiles, dtype=float)
    if not np.isfinite(pred).all():
        raise DataError("predicted corners must be finite")
    if not np.all(q >= 0):
        raise OutOfRange("corner quantiles must be >= 0")
    if sigma is None:
        half = np.broadcast_to(q, np.broadcast_shapes(pred.shape, q.shape)).copy()
    else:
        s = np.asarray(sigma, dtype=float)
        if not np.all(np.isfinite(s) & (s > 0)):
            raise NonPositiveSigma("all sigma entries must be > 0")
        half = q * s
    bounds = DEFAULT_IMAGE_BOUNDS if image_bounds is None else image_bounds
    axis_lo = np.array([bounds.x0, bounds.y0, bounds.x0, bounds.y0])
    axis_hi = np.array([bounds.x1, bounds.y1, bounds.x1, bounds.y1])
    vacuous = np.isinf(half)
    lows = np.where(vacuous, axis_lo, pred - half)
    highs = np.where(vacuous, axis_hi, pred + half)
    return lows, highs


def outer_inner_boxes(lows: np.ndarray, highs: np.ndarray):
    """Assemble outer and inner box corners from interval bounds.

    The outer box takes the extreme interval ends per axis (smallest low,
    largest high); the inner box takes the opposite extremes and is marked
    invalid where it inverts.

    Returns
    -------
    outer : ndarray, shape (..., 4)
    inner : ndarray, shape (..., 4)
        Meaningful only where ``inner_ok`` is True.
    inner_ok : ndarray of bool, shape (...)
    """
    l0, l1, l2, l3 = (lows[..., i] for i in range(4))
    h0, h1, h2, h3 = (highs[..., i] for i in range(4))
    outer = np.stack(
        [np.minimum(l0, l2), np.minimum(l1, l3), np.maximum(h0, h2), np.maximum(h1, h3)],
        axis=-1,
    )
    inner = np.stack(
        [np.minimum(h0, h2), np.minimum(h1, h3), np.maximum(l0, l2), np.maximum(l1, l3)],
        axis=-1,
    )
    inner_ok = (inner[..., 0] <= inner[..., 2]) & (inner[..., 1] <= inner[..., 3])
    return outer, inner, inner_ok
