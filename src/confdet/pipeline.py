"""Seeded multi-run experiments over a detection dataset.

One experiment repeats the same recipe ``n_runs`` times: split the data
into calibration and evaluation parts, optionally recalibrate sigma on
the calibration part, fit conformal quantiles there, build boxes (and
prediction sets) for the evaluation part, and score them.  Every run
draws its randomness from a generator seeded by ``(master_seed, run
index)``, so reports are reproducible bit for bit regardless of how many
worker processes execute the runs or how they are batched, and two
experiments with the same master seed are paired run by run for
significance testing.

Runs are computed in blocks and chunks.  Each worker process takes one
contiguous block of runs and walks it in chunks of as many runs as a
fixed element budget allows.  A chunk of ``B`` runs is a set of ``(B,
...)`` arrays: a ``(B, n)`` calibration mask, ``(B, n_eval)`` evaluation
rows (every stratum's calibration count depends only on its size, so the
shapes are rectangular), ``(B, G, 4)`` quantiles, and metrics reduced
run by run along the contiguous last axis, so each run's float sums are
those of a one-run array.

The regimes are data.  Each run fits the corner quantiles once, pooled
for ``class_agnostic`` and per class otherwise; the ``_REGIME_QUANTILES``
table then says how those quantiles reach each evaluation box and
whether a label set is predicted, and one scorer turns the result into
a :class:`MetricRow` for every regime.

What no split changes is computed once per experiment: each source's
strata and their calibration counts; the corner residual scores of the
calibration source sorted within each quantile group, or, when sigma is
recalibrated, the sorted points of every calibration map
(:func:`calibration.sigma_plan`); and for ``two_step`` the RAPS
true-class scores of the calibration source, sorted, and the class order
and running totals of the evaluation source.  A chunk reads every order
statistic of every run off these sorts through its mask
(:func:`regression.masked_group_quantiles`); only a recalibrated run
sorts the scores it fits on.
"""

from __future__ import annotations

import math
from dataclasses import asdict, astuple, dataclass
from typing import NamedTuple

import numpy as np

from . import calibration as _cal
from .classification import (
    set_totals,
    sets_from_totals,
    true_class_scores,
)
from .core import (
    BoundingBox,
    Dataset,
    MiscoverageConfig,
    RAPSConfig,
    contains_xyxy,
)
from .errors import (
    EmptyCalibration,
    EmptySetConfig,
    OutOfRange,
    SeedMismatch,
    StratificationImpossible,
)
from .metrics import (
    METRICS,
    MetricRow,
    box_interval_scores,
    coverage_events,
    iou_xyxy,
    paired_t_test,
    recovery_counts,
)
from .regression import (
    MIN_PER_CLASS,
    GroupSort,
    corner_intervals,
    group_quantiles,
    masked_group_quantiles,
    outer_inner_boxes,
    presort_groups,
    residual_scores,
)

REGIME_CLASS_AGNOSTIC = "class_agnostic"
REGIME_CLASS_WISE = "class_wise"
REGIME_TWO_STEP = "two_step"
REGIME_NAIVE_WORST_CASE = "naive_worst_case"
REGIMES = (
    REGIME_CLASS_AGNOSTIC,
    REGIME_CLASS_WISE,
    REGIME_TWO_STEP,
    REGIME_NAIVE_WORST_CASE,
)

SCALINGS = ("unscaled", "scaled")


@dataclass(frozen=True)
class RunConfig:
    """Settings for one experiment.

    ``regime`` selects how class information enters the box intervals:
    pooled quantiles (``class_agnostic``), per ground-truth class
    (``class_wise``), worst case over a conformal prediction set
    (``two_step``), or worst case over all classes
    (``naive_worst_case``).  ``stratified=None`` resolves to True for the
    class-aware regimes and False otherwise.
    A ``calibration_scope`` other than ``raw`` recalibrates sigma, so it
    needs ``scaling="scaled"``.
    ``calibrator_fit_fraction`` carves a disjoint part out of the
    calibration split for sigma recalibration; by default the calibrator
    and the quantiles share the full calibration split.
    """

    miscoverage: MiscoverageConfig
    n_runs: int = 100
    calib_fraction: float = 0.8
    scaling: str = "unscaled"
    calibration_scope: str = _cal.SCOPE_RAW
    regime: str = REGIME_CLASS_AGNOSTIC
    raps: RAPSConfig = RAPSConfig()
    master_seed: int = 0
    image_bounds: BoundingBox | None = None
    min_per_class: int = MIN_PER_CLASS
    stratified: bool | None = None
    calibrator_fit_fraction: float | None = None

    def __post_init__(self):
        if self.n_runs < 1:
            raise OutOfRange(f"n_runs must be >= 1, got {self.n_runs}")
        if not 0.0 < self.calib_fraction < 1.0:
            raise OutOfRange(f"calib_fraction must lie in (0, 1), got {self.calib_fraction}")
        if self.scaling not in SCALINGS:
            raise OutOfRange(f"scaling must be one of {SCALINGS}, got {self.scaling!r}")
        if self.calibration_scope not in _cal.SCOPES:
            raise OutOfRange(
                f"calibration_scope must be one of {_cal.SCOPES}, got {self.calibration_scope!r}"
            )
        if self.scaling == "unscaled" and self.calibration_scope != _cal.SCOPE_RAW:
            raise OutOfRange(
                f"calibration_scope {self.calibration_scope!r} needs scaling='scaled'; unscaled scores ignore sigma"
            )
        if self.regime not in REGIMES:
            raise OutOfRange(f"regime must be one of {REGIMES}, got {self.regime!r}")
        if self.master_seed < 0:
            raise OutOfRange(f"master_seed must be >= 0, got {self.master_seed}")
        if self.image_bounds is not None and not self.image_bounds.is_image_extent():
            raise OutOfRange(f"image_bounds must be finite with x0 < x1 and y0 < y1, got {self.image_bounds}")
        if self.min_per_class < 0:
            raise OutOfRange(f"min_per_class must be >= 0, got {self.min_per_class}")
        if self.calibrator_fit_fraction is not None and not 0.0 < self.calibrator_fit_fraction < 1.0:
            raise OutOfRange(
                f"calibrator_fit_fraction must lie in (0, 1), got {self.calibrator_fit_fraction}"
            )

    @property
    def by_class(self) -> bool:
        """Whether the regime fits its corner quantiles per ground-truth class."""
        return self.regime != REGIME_CLASS_AGNOSTIC

    @property
    def resolved_stratified(self) -> bool:
        return self.by_class if self.stratified is None else self.stratified


@dataclass(frozen=True)
class DatasetSplit:
    """Index split of a dataset into calibration and evaluation parts."""

    calib_idx: np.ndarray
    eval_idx: np.ndarray
    missing_eval_classes: tuple[int, ...] = ()


@dataclass(frozen=True)
class RunResult:
    """Outcome of a single run: metrics plus provenance; the fields are a ``per_run`` entry's keys."""

    run: int
    seed: tuple[int, int]
    metrics: MetricRow
    quantiles: dict
    warnings: tuple[str, ...] = ()


@dataclass(frozen=True)
class RunReport:
    """Per-run results plus aggregate statistics for one experiment; the fields are the report's keys."""

    regime: str
    config: dict
    per_run: tuple[RunResult, ...]
    aggregate: dict


def _round_half_up(x: float) -> int:
    return int(math.floor(x + 0.5))


def _split_sizes(n: int, fraction: float) -> int:
    """Calibration size for ``n`` records: rounded, clipped to [1, n-1] when possible."""
    n_cal = _round_half_up(n * fraction)
    return min(max(n_cal, 1), max(n - 1, 1))  # for one record both bounds are 1


class _Strata(NamedTuple):
    """What every split of one dataset draws from: the rows of each stratum
    in turn (its slots), each stratum's size, the first slot of each slot's
    stratum, a flag on the first ``n_cal`` slots of each stratum, and the
    strata whose rows all go to calibration."""

    rows: np.ndarray
    sizes: tuple[int, ...]
    starts: np.ndarray
    cal_slots: np.ndarray
    missing_eval: tuple[int, ...]


def _strata(dataset: Dataset, calib_fraction: float, stratified: bool) -> _Strata:
    n = len(dataset)
    if n == 0:
        raise EmptyCalibration("cannot split an empty dataset")
    # unstratified is the one stratum arange(n): arange(n)[rng.permutation(n)] is rng.permutation(n)
    members = [np.arange(n)]
    if stratified:
        members = [np.flatnonzero(dataset.gt_class == k) for k in range(dataset.n_classes)]
    for k, rows in enumerate(members):
        if rows.size == 0:
            raise StratificationImpossible(
                f"class {k} has no records; a stratified split cannot represent it"
            )
    sizes = [rows.size for rows in members]
    n_cal = [_split_sizes(size, calib_fraction) for size in sizes]
    starts = np.repeat(np.cumsum([0] + sizes[:-1]), sizes)
    return _Strata(
        rows=np.concatenate(members),
        sizes=tuple(sizes),
        starts=starts,
        cal_slots=np.arange(len(starts)) - starts < np.repeat(n_cal, sizes),
        missing_eval=tuple(k for k, (size, c) in enumerate(zip(sizes, n_cal)) if stratified and c == size),
    )


def _draw_splits(strata: _Strata, n: int, seeds) -> tuple[np.ndarray, np.ndarray]:
    """One split per seed: the ``(B, n)`` calibration mask and the ``(B, n_eval)`` sorted evaluation rows.

    Each stratum's rows are permuted by the seed's generator, stratum by
    stratum; the first ``n_cal`` of each go to calibration.
    """
    slots = np.empty((len(seeds), len(strata.rows)), dtype=np.intp)
    for b, seed in enumerate(seeds):
        rng = np.random.default_rng(seed)
        slots[b] = np.concatenate([rng.permutation(size) for size in strata.sizes])
    rows = strata.rows[slots + strata.starts]
    cal = np.zeros((len(seeds), n), dtype=bool)
    cal.ravel()[(rows + n * np.arange(len(seeds))[:, None])[:, strata.cal_slots]] = True
    return cal, np.sort(rows[:, ~strata.cal_slots], axis=1)


def random_split(
    dataset: Dataset,
    calib_fraction: float,
    seed,
    stratified: bool = False,
) -> DatasetSplit:
    """Deterministic, exhaustive, disjoint calibration/evaluation split.

    With ``stratified=True`` each class is split at ``calib_fraction``
    separately and every class keeps at least one calibration record;
    classes whose few records all land in calibration are flagged as
    missing from evaluation rather than dropped.

    Raises
    ------
    StratificationImpossible
        If some class id in ``[0, K)`` has no records at all.
    """
    if not 0.0 < calib_fraction < 1.0:
        raise OutOfRange(f"calib_fraction must lie in (0, 1), got {calib_fraction}")
    strata = _strata(dataset, calib_fraction, stratified)
    cal, ev = _draw_splits(strata, len(dataset), [seed])
    return DatasetSplit(calib_idx=np.flatnonzero(cal[0]), eval_idx=ev[0], missing_eval_classes=strata.missing_eval)


@dataclass(frozen=True, eq=False)
class _Context:
    """An experiment's inputs plus the arrays that no split changes.

    Each array is indexed by the rows of its source, and is None where
    the regime does not use it: ``strata``/``eval_strata`` are what the
    splits of ``data`` and of the evaluation source draw from, ``groups``
    the quantile group of each row of ``data``; ``presorted`` holds the
    corner scores of ``data`` sorted within each group when sigma is not
    recalibrated, ``sigma_plan`` the calibration plan of ``data``
    (followed by ``eval_data``'s rows) when it is; ``class_scores`` holds
    the RAPS true-class scores of ``data``, sorted, and
    ``set_order``/``set_totals`` the class order and running totals of the
    evaluation source.
    """

    data: Dataset
    config: RunConfig
    eval_data: Dataset | None
    strata: _Strata
    eval_strata: _Strata
    groups: np.ndarray
    n_groups: int
    presorted: GroupSort | None = None
    sigma_plan: _cal.SigmaPlan | None = None
    class_scores: GroupSort | None = None
    set_order: np.ndarray | None = None
    set_totals: np.ndarray | None = None

    @property
    def eval_source(self) -> Dataset:
        return self.data if self.eval_data is None else self.eval_data


def _context(data: Dataset, cfg: RunConfig, eval_data: Dataset | None) -> _Context:
    """Score and sort once per experiment what every run would otherwise redo."""
    if cfg.by_class:
        groups, n_groups = data.gt_class, data.n_classes
    else:  # a pooled fit is the one-group case, and is never flagged
        groups, n_groups = np.zeros(len(data), dtype=int), 1
    arrays = {}
    if cfg.calibration_scope == _cal.SCOPE_RAW:  # always so when unscaled
        sigma = data.sigma if cfg.scaling == "scaled" else None
        arrays["presorted"] = presort_groups(residual_scores(data.pred, data.gt, sigma), groups, n_groups)
    else:  # transfer mode looks the evaluation rows up after the calibration rows
        rows = (data,) if eval_data is None else (data, eval_data)
        columns = [np.concatenate([getattr(d, c) for d in rows]) for c in ("pred", "gt", "sigma", "gt_class")]
        arrays["sigma_plan"] = _cal.sigma_plan(*columns, scope=cfg.calibration_scope)
    if cfg.regime == REGIME_TWO_STEP:
        scores = true_class_scores(data.probs, data.gt_class, cfg.raps)
        arrays["class_scores"] = presort_groups(scores[:, None], np.zeros(len(data), dtype=int), 1)
        eval_probs = (data if eval_data is None else eval_data).probs
        arrays["set_order"], arrays["set_totals"] = set_totals(eval_probs, cfg.raps)
    stratified = cfg.resolved_stratified
    strata = _strata(data, cfg.calib_fraction, stratified)
    eval_strata = strata if eval_data is None else _strata(eval_data, cfg.calib_fraction, stratified)
    return _Context(data, cfg, eval_data, strata, eval_strata, groups, n_groups, **arrays)


#: Elements of the largest per-run temporaries that one chunk of runs may
#: hold, which bounds a worker's memory: a run counts its ``(n, 4)``
#: calibration masks over the sorted scores and its ``(n_eval, 4, K)``
#: label-set lookups.
_CHUNK_ELEMENTS = 200_000


def _run_elements(ctx: _Context) -> int:
    n_eval = int((~ctx.eval_strata.cal_slots).sum())
    return 4 * (len(ctx.data) + n_eval * ctx.data.n_classes)


def _masked_quantiles(presorted: GroupSort, mask: np.ndarray, alpha: float):
    """The ``(B, G, m)`` quantiles and ``(B, G)`` counts of the rows of each run's ``(B, n)`` mask."""
    return masked_group_quantiles(presorted.values, presorted.bounds, presorted.picked(mask), alpha)


def _recalibrated(ctx: _Context, cal: np.ndarray, ev_rows: np.ndarray, runs: range):
    """Sigma recalibration and quantile fit of each run, on the experiment's ``sigma_plan``.

    Returns the ``(B, n)`` mask of the rows the quantiles are fitted on,
    the ``(B, G, 4)`` quantiles and ``(B, G)`` counts, the ``(B, n_eval, 4)``
    sigma of the evaluation rows, and each run's warnings.  With a
    disjoint calibrator fit fraction the quantile rows are a subset of the
    calibration rows.
    """
    cfg, data = ctx.config, ctx.data
    n_plan = len(ctx.sigma_plan.usable)
    ev_offset = 0 if ctx.eval_data is None else len(data)
    quant = cal.copy()
    fits, sig_ev, warnings = [], [], []
    for b, run_index in enumerate(runs):
        fit = np.zeros(n_plan, dtype=bool)
        fit[: len(data)] = cal[b]
        if cfg.calibrator_fit_fraction is not None and cal[b].sum() >= 2:
            cal_idx = np.flatnonzero(cal[b])
            perm = np.random.default_rng((cfg.master_seed, run_index, 7)).permutation(len(cal_idx))
            n_fit = _split_sizes(len(cal_idx), cfg.calibrator_fit_fraction)
            fit[cal_idx[perm[n_fit:]]] = False
            quant[b, cal_idx[perm[:n_fit]]] = False
        sigma, n_excluded, fallback = _cal.recalibrate(ctx.sigma_plan, fit)
        run_warnings = []
        if n_excluded:
            run_warnings.append(f"calibrator skipped {n_excluded} degenerate box(es)")
        if fallback:
            run_warnings.append("calibrator fell back to the global map for classes " + ",".join(str(k) for k in fallback))
        rows = np.flatnonzero(quant[b])
        pred, gt, sig = (np.take(a, rows, axis=0) for a in (data.pred, data.gt, sigma))
        fits.append(group_quantiles(residual_scores(pred, gt, sig), cfg.miscoverage.alpha_corner, ctx.groups[rows], ctx.n_groups))
        sig_ev.append(np.take(sigma, ev_offset + ev_rows[b], axis=0))
        warnings.append(run_warnings)
    q, counts = (np.stack(parts) for parts in zip(*fits))
    return quant, q, counts, np.stack(sig_ev), warnings


def _worst_in_set(q: np.ndarray, member: np.ndarray) -> np.ndarray:
    """Per run, evaluation box and corner, the largest quantile over the classes in its set.

    ``q`` is ``(B, K, 4)`` and ``member`` ``(B, n_eval, K)``.  In the
    classes ordered by descending quantile, the first member of a box's
    set holds the maximum: one argmax per corner over a boolean gather.
    """
    by_q = np.argsort(-q, axis=1, kind="stable").transpose(0, 2, 1)  # (B, 4, K)
    q_desc = np.take_along_axis(q.transpose(0, 2, 1), by_q, axis=2)
    worst = np.empty(member.shape[:2] + (4,))
    for b in range(len(q)):
        first = member[b][:, by_q[b]].argmax(axis=2)  # (n_eval, 4)
        worst[b] = q_desc[b, np.arange(4), first]
    return worst


def _two_step(q: np.ndarray, ctx: _Context, quant: np.ndarray, ev_rows: np.ndarray):
    cfg = ctx.config
    qhat, _ = _masked_quantiles(ctx.class_scores, quant, cfg.miscoverage.alpha_class)
    order, totals = (np.take(a, ev_rows, axis=0) for a in (ctx.set_order, ctx.set_totals))
    member, _ = sets_from_totals(order, totals, qhat[:, 0, 0], cfg.raps)
    return _worst_in_set(q, member), member


# How each regime turns the fitted quantiles into per-evaluation-box
# quantiles, plus the (B, n_eval, K) label-set membership for the regimes
# that predict sets.  ``q`` is the (B, G, 4) table of each run's fitted
# groups, one pooled row for class_agnostic and one row per class
# otherwise; ``quant`` is the (B, n) mask of the rows of ``ctx.data`` the
# quantiles were fitted on and ``ev_rows`` the (B, n_eval) evaluation rows
# of ``ctx.eval_source``.
_REGIME_QUANTILES = {
    REGIME_CLASS_AGNOSTIC: lambda q, ctx, quant, ev_rows: (q, None),
    REGIME_CLASS_WISE: lambda q, ctx, quant, ev_rows: (
        q[np.arange(len(q))[:, None], ctx.eval_source.gt_class[ev_rows]],
        None,
    ),
    REGIME_TWO_STEP: _two_step,
    REGIME_NAIVE_WORST_CASE: lambda q, ctx, quant, ev_rows: (
        q.max(axis=1, keepdims=True),
        np.ones(ev_rows.shape + (q.shape[1],), dtype=bool),
    ),
}


def _score(cfg: RunConfig, ev: dict, sig_ev, q_eval: np.ndarray, member) -> list[MetricRow]:
    """Metrics of each run of a chunk; the set metrics only when ``member`` is given.

    Every per-run figure is a reduction along the contiguous last axis, so
    it sums in the order a one-run array would.
    """
    n_runs, n_eval = ev["gt_class"].shape
    sets = {}
    if n_eval == 0:
        # vacuous-evaluation convention: nothing to miss, nothing to score
        if member is not None:
            sets = dict(mean_set_size=0.0, class_coverage=1.0, joint_coverage=1.0)
        return [MetricRow(coverage=1.0, mean_iou=0.0, interval_score=0.0, n_eval=0, **sets)] * n_runs
    lows, highs = corner_intervals(ev["pred"], q_eval, sigma=sig_ev, image_bounds=cfg.image_bounds)
    _, box_hits = coverage_events(ev["gt"], lows, highs)
    outer, _, _ = outer_inner_boxes(lows, highs)
    columns = dict(
        coverage=box_hits.mean(axis=-1),
        mean_iou=iou_xyxy(ev["gt"], outer).mean(axis=-1),
        interval_score=box_interval_scores(lows, highs, ev["gt"], cfg.miscoverage.alpha_corner).sum(axis=-1),
    )
    if member is not None:
        class_hits = np.take_along_axis(member, ev["gt_class"][..., None], axis=-1)[..., 0]
        columns.update(
            mean_set_size=member.sum(axis=-1).mean(axis=-1),
            class_coverage=class_hits.mean(axis=-1),
            joint_coverage=(class_hits & box_hits).mean(axis=-1),
        )
    values = {name: column.tolist() for name, column in columns.items()}
    return [MetricRow(n_eval=n_eval, **{name: v[b] for name, v in values.items()}) for b in range(n_runs)]


def _run_chunk(ctx: _Context, runs: range) -> list[RunResult]:
    """The runs of one chunk, computed together as ``(B, ...)`` arrays."""
    cfg = ctx.config
    master = cfg.master_seed
    if ctx.eval_data is None:
        cal, ev_rows = _draw_splits(ctx.strata, len(ctx.data), [(master, i) for i in runs])
    else:
        cal, _ = _draw_splits(ctx.strata, len(ctx.data), [(master, i, 0) for i in runs])
        _, ev_rows = _draw_splits(ctx.eval_strata, len(ctx.eval_data), [(master, i, 1) for i in runs])
    source = ctx.eval_source
    # np.take gathers rows several times faster than fancy indexing
    ev = {name: np.take(getattr(source, name), ev_rows, axis=0) for name in ("pred", "gt", "gt_class")}

    if ctx.presorted is not None:
        quant = cal
        q, counts = _masked_quantiles(ctx.presorted, cal, cfg.miscoverage.alpha_corner)
        sig_ev = np.take(source.sigma, ev_rows, axis=0) if cfg.scaling == "scaled" else None
        sigma_warnings = [[] for _ in runs]
    else:
        quant, q, counts, sig_ev, sigma_warnings = _recalibrated(ctx, cal, ev_rows, runs)

    q_eval, member = _REGIME_QUANTILES[cfg.regime](q, ctx, quant, ev_rows)
    metrics = _score(cfg, ev, sig_ev, q_eval, member)

    missing = ctx.eval_strata.missing_eval
    fixed = ["classes absent from evaluation: " + ",".join(str(k) for k in missing)] if missing else []
    below = counts < cfg.min_per_class if cfg.by_class else np.zeros(counts.shape, dtype=bool)
    n_vacuous = np.isinf(q).sum(axis=(1, 2)).tolist()
    q_min, q_max = q.min(axis=(1, 2)).tolist(), q.max(axis=(1, 2)).tolist()
    results = []
    for b, run in enumerate(runs):
        warnings = fixed + sigma_warnings[b]
        if below[b].any():
            warnings.append("classes below min_per_class: " + ",".join(str(k) for k in np.flatnonzero(below[b])))
        results.append(RunResult(
            run=run,
            seed=(master, run),
            metrics=metrics[b],
            quantiles={"n_groups": ctx.n_groups, "n_vacuous": n_vacuous[b], "min": q_min[b], "max": q_max[b]},
            warnings=tuple(warnings),
        ))
    return results


def _run_block(ctx: _Context, runs: range) -> list[RunResult]:
    """The runs of a contiguous block, in chunks of as many runs as the element budget allows."""
    size = max(1, _CHUNK_ELEMENTS // _run_elements(ctx))
    return [r for lo in range(runs.start, runs.stop, size) for r in _run_chunk(ctx, range(lo, min(lo + size, runs.stop)))]


_WORKER_CTX: _Context | None = None


def _init_worker(ctx: _Context) -> None:
    global _WORKER_CTX
    _WORKER_CTX = ctx


def _worker_block(runs: range) -> list[RunResult]:
    assert _WORKER_CTX is not None
    return _run_block(_WORKER_CTX, runs)


def _aggregate(results: list[RunResult], cfg: RunConfig) -> dict:
    n = len(results)

    def stats(values: list[float]) -> dict:
        arr = np.asarray(values, dtype=float)
        mean = float(arr.mean())
        sd = float(arr.std(ddof=1)) if n > 1 else 0.0
        return {"mean": mean, "std": sd}

    agg: dict = {}
    for name in METRICS:
        values = [getattr(r.metrics, name) for r in results]
        if all(v is not None for v in values):
            agg[name] = stats(values)
    agg["n_eval_total"] = int(sum(r.metrics.n_eval for r in results))

    nominal = 1.0 - cfg.miscoverage.alpha_bbox
    se = agg["coverage"]["std"] / math.sqrt(n) if n > 1 else 0.0
    agg["nominal_box_coverage"] = nominal
    agg["coverage_mc_se"] = se
    agg["coverage_below_nominal"] = bool(agg["coverage"]["mean"] < nominal - 3.0 * se)
    if "joint_coverage" in agg:
        nominal_joint = (1.0 - cfg.miscoverage.alpha_class) * nominal
        se_j = agg["joint_coverage"]["std"] / math.sqrt(n) if n > 1 else 0.0
        agg["nominal_class_coverage"] = 1.0 - cfg.miscoverage.alpha_class
        agg["nominal_joint_coverage"] = nominal_joint
        agg["joint_below_nominal"] = bool(
            agg["joint_coverage"]["mean"] < nominal_joint - 3.0 * se_j
        )
    return agg


def _config_echo(cfg: RunConfig, transfer: bool) -> dict:
    """Every :class:`RunConfig` field, with ``miscoverage`` flattened and ``stratified`` resolved."""
    echo = asdict(cfg)
    echo.update(echo.pop("miscoverage"))
    echo.update(
        stratified=cfg.resolved_stratified,
        image_bounds=None if cfg.image_bounds is None else list(astuple(cfg.image_bounds)),
        transfer_evaluation=transfer,
    )
    return echo


def run_experiment(
    dataset: Dataset,
    config: RunConfig,
    eval_dataset: Dataset | None = None,
    workers: int = 1,
) -> RunReport:
    """Execute all runs of an experiment and assemble the report.

    ``eval_dataset`` switches to transfer mode: calibration records come
    from ``dataset`` and evaluation records from ``eval_dataset`` (each
    run subsamples both), which is how a domain-shift study is expressed.
    ``workers`` only parallelizes execution; results are assembled in run
    order and are identical for any worker count.
    """
    if len(dataset) == 0:
        raise EmptyCalibration("run_experiment needs a non-empty dataset")
    if config.regime == REGIME_TWO_STEP and config.raps.allow_empty:
        raise EmptySetConfig("two_step needs non-empty prediction sets; set allow_empty=False")
    if eval_dataset is not None and eval_dataset.n_classes != dataset.n_classes:
        raise SeedMismatch(
            f"evaluation dataset has {eval_dataset.n_classes} classes, expected {dataset.n_classes}"
        )
    ctx = _context(dataset, config, eval_dataset)
    n_runs, n_workers = config.n_runs, min(workers, config.n_runs)
    if n_workers > 1:  # one contiguous block of runs per worker
        from concurrent.futures import ProcessPoolExecutor  # deferred: it loads multiprocessing

        blocks = [range(j * n_runs // n_workers, (j + 1) * n_runs // n_workers) for j in range(n_workers)]
        with ProcessPoolExecutor(max_workers=n_workers, initializer=_init_worker, initargs=(ctx,)) as pool:
            results = [r for block in pool.map(_worker_block, blocks) for r in block]
    else:
        results = _run_block(ctx, range(n_runs))
    return RunReport(
        regime=config.regime,
        config=_config_echo(config, transfer=eval_dataset is not None),
        per_run=tuple(results),
        aggregate=_aggregate(results, config),
    )


def recovery_sweep(
    dataset: Dataset,
    alphas,
    thresholds,
    calib_fraction: float = 0.8,
    seed: int = 0,
    image_bounds: BoundingBox | None = None,
) -> list[dict]:
    """Recovery rates over an IoU-threshold grid, per scaling and alpha.

    One deterministic split per call: class-agnostic quantiles are fitted
    on the calibration part and, for each evaluation record whose
    predicted box has IoU below a threshold, the ground truth counts as
    recovered when it lies fully inside the outer conformal box.  Returns
    one row dict per ``(scaling, alpha, threshold)``; the rate is None
    when no record falls below the threshold.
    """
    if image_bounds is not None and not image_bounds.is_image_extent():
        raise OutOfRange(f"image_bounds must be finite with x0 < x1 and y0 < y1, got {image_bounds}")
    if seed < 0:
        raise OutOfRange(f"seed must be >= 0, got {seed}")
    split = random_split(dataset, calib_fraction, seed, stratified=False)
    cal = dataset.take(split.calib_idx)
    ev = dataset.take(split.eval_idx)
    pred_iou = iou_xyxy(ev.pred, ev.gt)
    rows = []
    for scaling in SCALINGS:
        sig_cal = cal.sigma if scaling == "scaled" else None
        sig_ev = ev.sigma if scaling == "scaled" else None
        scores = residual_scores(cal.pred, cal.gt, sig_cal)
        for alpha in alphas:
            q = group_quantiles(scores, alpha, np.zeros(len(scores), dtype=int), 1)[0][0]  # one group
            lows, highs = corner_intervals(ev.pred, q, sigma=sig_ev, image_bounds=image_bounds)
            outer, _, _ = outer_inner_boxes(lows, highs)
            contained = contains_xyxy(outer, ev.gt)
            for thr in thresholds:
                rate, n_below = recovery_counts(pred_iou, contained, thr)
                rows.append(
                    {
                        "scaling": scaling,
                        "alpha_corner": float(alpha),
                        "iou_threshold": float(thr),
                        "recovery_rate": rate,
                        "n_below": n_below,
                    }
                )
    return rows


def compare_reports(report_a: RunReport, report_b: RunReport) -> dict:
    """Paired significance tests between two experiments, run by run.

    Both reports must come from identical split sequences (same number of
    runs and identical per-run seeds), otherwise pairing would be
    meaningless and SeedMismatch is raised.  Each shared metric gets a
    two-sided paired t-test; ``t > 0`` means the first report's mean is
    higher.
    """
    runs_a, runs_b = report_a.per_run, report_b.per_run
    if len(runs_a) != len(runs_b):
        raise SeedMismatch(f"run counts differ: {len(runs_a)} vs {len(runs_b)}")
    seeds_a = [tuple(r.seed) for r in runs_a]
    seeds_b = [tuple(r.seed) for r in runs_b]
    if seeds_a != seeds_b:
        raise SeedMismatch("per-run seeds differ; reports are not paired")

    table: dict = {"n_runs": len(runs_a), "metrics": {}}
    for name in METRICS:
        a = [getattr(r.metrics, name) for r in runs_a]
        b = [getattr(r.metrics, name) for r in runs_b]
        if any(v is None for v in a) or any(v is None for v in b):
            continue
        t, p = paired_t_test(a, b)
        table["metrics"][name] = {
            "mean_a": float(np.mean(a)),
            "mean_b": float(np.mean(b)),
            "t": t,
            "p": p,
            "significant_5pct": bool(p < 0.05),
            "significant_1pct": bool(p < 0.01),
        }
    return table
