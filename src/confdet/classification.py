"""Conformal prediction sets for the class label.

Scores follow the adaptive family: the score of a class is the total
probability mass of all classes ranked at or above it, optionally plus a
rank penalty that discourages deep sets (the regularized variant).  A
conformal quantile of the calibration scores then thresholds the running
total at assembly time.  Everything is deterministic: no tie-breaking or
set-membership randomization, ties in probability are broken by ascending
class id.
"""

from __future__ import annotations

import numpy as np

from .core import RAPSConfig
from .errors import InvalidClass, OutOfRange
from .regression import conformal_quantile

__all__ = [
    "true_class_scores",
    "classification_quantile",
    "prediction_set_matrix",
    "set_totals",
    "sets_from_totals",
]


def class_order(class_probs: np.ndarray) -> np.ndarray:
    """Class ids sorted by descending probability, ties by ascending id."""
    p = np.asarray(class_probs, dtype=float)
    return np.argsort(-p, axis=-1, kind="stable")


def true_class_scores(probs: np.ndarray, labels: np.ndarray, config: RAPSConfig | None = None) -> np.ndarray:
    """Vectorized scores of the true class for an ``(n, K)`` batch.

    ``config=None`` gives plain adaptive scores: the probability mass from
    the top class down to the true one, inclusive.  A config adds
    ``penalty_a * max(0, rank - threshold_b)`` for the 1-based rank of the
    true class, so deep tail classes become expensive.  The labels
    must be ``n`` integers in ``[0, K)``; bool and float labels are
    rejected, not truncated.
    """
    p = np.asarray(probs, dtype=float)
    labels = np.asarray(labels)
    n, k = p.shape
    if labels.shape != (n,):
        raise InvalidClass(f"labels must have one entry per row, got shape {labels.shape} for {n} rows")
    if labels.dtype.kind not in "iu":
        raise InvalidClass(f"labels must be integers, got dtype {labels.dtype}")
    if np.any((labels < 0) | (labels >= k)):
        raise InvalidClass("labels must lie in [0, K)")
    order = class_order(p)
    sorted_p = np.take_along_axis(p, order, axis=1)
    csum = np.cumsum(sorted_p, axis=1)
    ranks = np.empty((n, k), dtype=int)
    np.put_along_axis(ranks, order, np.arange(k)[None, :], axis=1)
    rank_true = ranks[np.arange(n), labels]  # 0-based
    scores = csum[np.arange(n), rank_true]
    if config is not None and config.penalty_a > 0:
        scores = scores + config.penalty_a * np.maximum(0, rank_true + 1 - config.threshold_b)
    return scores


def classification_quantile(scores, alpha: float) -> float:
    """Conformal quantile of classification scores.

    Same order statistic as the regression quantile: the
    ``ceil((n + 1) (1 - alpha))``-th smallest score, ``+inf`` when the
    calibration set is too small for the level.
    """
    return conformal_quantile(scores, alpha)


def prediction_set_matrix(probs: np.ndarray, qhat: float, config: RAPSConfig):
    """Vectorized set assembly for an ``(n, K)`` probability batch.

    With ``allow_empty=False`` a set holds the classes, in descending
    probability, while the running total stays below ``qhat``, plus the
    class that crosses it; a ``qhat`` of zero keeps the top class.  With
    ``allow_empty=True`` it holds exactly the classes whose running total
    is within ``qhat``, possibly none: the rule whose coverage matches the
    calibration guarantee, where the crossing rule is slightly
    conservative.  A ``qhat`` of ``+inf`` keeps every class.  The
    composition of :func:`set_totals` and :func:`sets_from_totals`;
    callers that threshold the same batch at many ``qhat`` call the two
    halves themselves.

    Returns
    -------
    member : ndarray of bool, shape (n, K)
        ``member[i, c]`` is True when class ``c`` is in record ``i``'s set.
    sizes : ndarray of int, shape (n,)
    """
    return sets_from_totals(*set_totals(probs, config), qhat, config)


def set_totals(probs: np.ndarray, config: RAPSConfig):
    """Class order and running totals of an ``(n, K)`` probability batch.

    Returns ``(order, totals)``, both ``(n, K)``: ``order[i]`` ranks the
    classes of record ``i`` by :func:`class_order`, and ``totals[i, j]`` is
    the probability mass of its top ``j + 1`` classes, plus the rank
    penalty when ``config.penalty_at_inference`` is set.
    """
    p = np.asarray(probs, dtype=float)
    k_total = p.shape[1]
    order = class_order(p)
    totals = np.cumsum(np.take_along_axis(p, order, axis=1), axis=1)
    if config.penalty_a > 0 and config.penalty_at_inference:
        totals = totals + config.penalty_a * np.maximum(0, np.arange(1, k_total + 1) - config.threshold_b)
    return order, totals


def sets_from_totals(order: np.ndarray, totals: np.ndarray, qhat, config: RAPSConfig):
    """Set membership and sizes for a threshold ``qhat`` over :func:`set_totals`.

    Returns ``(member, sizes)`` as :func:`prediction_set_matrix` does.
    ``order`` and ``totals`` may carry leading batch axes ``(B, n, K)``;
    ``qhat`` is then one threshold per batch entry, shape ``(B,)``.
    """
    q = np.asarray(qhat, dtype=float)
    if np.isnan(q).any() or (q < 0).any():
        raise OutOfRange(f"qhat must be >= 0, got {qhat!r}")
    k_total = totals.shape[-1]
    q = q[..., None, None]  # against the (..., n, K) totals
    if config.allow_empty:
        sizes = (totals <= q).sum(axis=-1)
    else:  # a threshold of zero still keeps the top class
        crossed = np.minimum(1 + (totals[..., :-1] < q).sum(axis=-1), k_total)
        sizes = np.where(q[..., 0] > 0, crossed, 1)
    sizes = np.where(np.isinf(q[..., 0]), k_total, sizes)  # vacuous calibration: every class
    in_prefix = np.arange(k_total) < sizes[..., None]
    member = np.zeros(totals.shape, dtype=bool)
    np.put_along_axis(member, order, in_prefix, axis=-1)
    return member, sizes.astype(int)
