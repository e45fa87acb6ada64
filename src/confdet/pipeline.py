"""Seeded multi-run experiments over a detection dataset.

One experiment repeats the same recipe ``n_runs`` times: split the data
into calibration and evaluation parts, optionally recalibrate sigma on
the calibration part, fit conformal quantiles there, build boxes (and
prediction sets) for the evaluation part, and score them.  Every run
draws its randomness from a generator seeded by ``(master_seed, run
index)``, so reports are reproducible bit for bit regardless of how many
worker processes execute the runs, and two experiments with the same
master seed are paired run by run for significance testing.

The regimes are data.  Each run fits the corner quantiles once, pooled
for ``class_agnostic`` and per class otherwise; the ``_REGIME_QUANTILES``
table then says how those quantiles reach each evaluation box and
whether a label set is predicted, and one scorer turns the result into
a :class:`MetricRow` for every regime.

Scores that depend on one record only are computed once per experiment,
not once per run: the corner residual scores of the calibration source,
or, when sigma is recalibrated, the sorted points of every calibration
map (:func:`calibration.sigma_plan`); and for ``two_step`` the RAPS
true-class scores of the calibration source and the class order and
running totals of the evaluation source.  A run indexes these arrays
with its split and is left with the map fits, the order statistics, the
label sets for its threshold, and the scoring.
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, astuple, dataclass, replace

import numpy as np

from . import calibration as _cal
from .classification import (
    classification_quantile,
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
    column_quantiles,
    corner_intervals,
    group_quantiles,
    outer_inner_boxes,
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
    min_per_class: int = 20
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
    """Outcome of a single run: metrics plus provenance."""

    run_index: int
    seed: tuple[int, int]
    metrics: MetricRow
    quantile_summary: dict
    warnings: tuple[str, ...] = ()


@dataclass(frozen=True)
class RunReport:
    """Per-run results plus aggregate statistics for one experiment."""

    regime: str
    config: dict
    per_run: tuple[RunResult, ...]
    aggregate: dict
    significance: dict | None = None


def _round_half_up(x: float) -> int:
    return int(math.floor(x + 0.5))


def _split_sizes(n: int, fraction: float) -> int:
    """Calibration size for ``n`` records: rounded, clipped to [1, n-1] when possible."""
    n_cal = _round_half_up(n * fraction)
    return min(max(n_cal, 1), max(n - 1, 1))  # for one record both bounds are 1


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
    n = len(dataset)
    if n == 0:
        raise EmptyCalibration("cannot split an empty dataset")
    rng = np.random.default_rng(seed)
    # unstratified is the one stratum arange(n): arange(n)[rng.permutation(n)] is rng.permutation(n)
    strata = [np.arange(n)]
    if stratified:
        strata = [np.flatnonzero(dataset.gt_class == k) for k in range(dataset.n_classes)]
    calib_parts = []
    eval_parts = []
    missing_eval = []
    for k, members in enumerate(strata):
        if members.size == 0:
            raise StratificationImpossible(
                f"class {k} has no records; a stratified split cannot represent it"
            )
        perm = members[rng.permutation(members.size)]
        n_cal = _split_sizes(members.size, calib_fraction)
        calib_parts.append(perm[:n_cal])
        eval_parts.append(perm[n_cal:])
        if stratified and n_cal == members.size:
            missing_eval.append(k)
    return DatasetSplit(
        calib_idx=np.sort(np.concatenate(calib_parts)),
        eval_idx=np.sort(np.concatenate(eval_parts)),
        missing_eval_classes=tuple(missing_eval),
    )


@dataclass(frozen=True, eq=False)
class _Context:
    """An experiment's inputs plus the arrays that no split changes.

    Each array is indexed by the rows of its source, and is None where
    the regime does not use it: ``residuals`` are the corner scores of
    ``data`` when sigma is not recalibrated, ``sigma_plan`` the calibration
    plan of ``data`` (followed by ``eval_data``'s rows) when it is,
    ``class_scores`` the RAPS true-class scores of ``data``, and
    ``set_order``/``set_totals`` the class order and running totals of the
    evaluation source.
    """

    data: Dataset
    config: RunConfig
    eval_data: Dataset | None = None
    residuals: np.ndarray | None = None
    sigma_plan: _cal.SigmaPlan | None = None
    class_scores: np.ndarray | None = None
    set_order: np.ndarray | None = None
    set_totals: np.ndarray | None = None

    @property
    def eval_source(self) -> Dataset:
        return self.data if self.eval_data is None else self.eval_data


def _context(data: Dataset, cfg: RunConfig, eval_data: Dataset | None) -> _Context:
    """Score once per experiment what every run would otherwise rescore."""
    ctx = _Context(data=data, config=cfg, eval_data=eval_data)
    arrays = {}
    if cfg.calibration_scope == _cal.SCOPE_RAW:  # always so when unscaled
        sigma = data.sigma if cfg.scaling == "scaled" else None
        arrays["residuals"] = residual_scores(data.pred, data.gt, sigma)
    else:  # transfer mode looks the evaluation rows up after the calibration rows
        rows = (data,) if eval_data is None else (data, eval_data)
        columns = [np.concatenate([getattr(d, c) for d in rows]) for c in ("pred", "gt", "sigma", "gt_class")]
        arrays["sigma_plan"] = _cal.sigma_plan(*columns, scope=cfg.calibration_scope)
    if cfg.regime == REGIME_TWO_STEP:
        arrays["class_scores"] = true_class_scores(data.probs, data.gt_class, cfg.raps)
        arrays["set_order"], arrays["set_totals"] = set_totals(ctx.eval_source.probs, cfg.raps)
    return replace(ctx, **arrays)


def _calibration_scores(ctx: _Context, cal_idx: np.ndarray, ev_idx: np.ndarray, rng_key) -> tuple:
    """Corner scores to fit quantiles on, after optional sigma recalibration.

    Returns ``(quant_idx, scores, sig_ev, warnings)``: the rows of
    ``ctx.data`` the quantiles are fitted on, their ``(n, 4)`` scores, and
    the sigma of the evaluation rows ``ev_idx`` (None when unscaled).  With
    a disjoint calibrator fit fraction ``quant_idx`` is a subset of
    ``cal_idx``.  Without recalibration the scores are rows of
    ``ctx.residuals``.
    """
    cfg = ctx.config
    warnings: list[str] = []
    if ctx.residuals is not None:
        sig_ev = ctx.eval_source.sigma[ev_idx] if cfg.scaling == "scaled" else None
        return cal_idx, ctx.residuals[cal_idx], sig_ev, warnings

    fit_idx = quant_idx = cal_idx
    if cfg.calibrator_fit_fraction is not None and len(cal_idx) >= 2:
        rng = np.random.default_rng(rng_key)
        perm = rng.permutation(len(cal_idx))
        n_fit = _split_sizes(len(cal_idx), cfg.calibrator_fit_fraction)
        fit_idx = cal_idx[np.sort(perm[:n_fit])]
        quant_idx = cal_idx[np.sort(perm[n_fit:])]
    fit_mask = np.zeros(len(ctx.sigma_plan.usable), dtype=bool)
    fit_mask[fit_idx] = True
    sigma, n_excluded, fallback = _cal.recalibrate(ctx.sigma_plan, fit_mask)
    if n_excluded:
        warnings.append(f"calibrator skipped {n_excluded} degenerate box(es)")
    if fallback:
        warnings.append("calibrator fell back to the global map for classes " + ",".join(str(k) for k in fallback))
    ev_rows = ev_idx if ctx.eval_data is None else len(ctx.data) + ev_idx
    scores = residual_scores(ctx.data.pred[quant_idx], ctx.data.gt[quant_idx], sigma[quant_idx])
    return quant_idx, scores, sigma[ev_rows], warnings


def _quantile_summary(q: np.ndarray) -> dict:
    """Group count, vacuous entries and range of a ``(G, 4)`` quantile table."""
    return {
        "n_groups": len(q),
        "n_vacuous": int(np.isinf(q).sum()),
        "min": float(q.min()),
        "max": float(q.max()),
    }


def _score(cfg: RunConfig, ev: Dataset, sig_ev, q_eval: np.ndarray, member) -> MetricRow:
    """Metrics of one run; the set metrics only when ``member`` is given."""
    if len(ev) == 0:
        # vacuous-evaluation convention: nothing to miss, nothing to score
        sets = {}
        if member is not None:
            sets = dict(mean_set_size=0.0, class_coverage=1.0, joint_coverage=1.0)
        return MetricRow(coverage=1.0, mean_iou=0.0, interval_score=0.0, n_eval=0, **sets)
    lows, highs = corner_intervals(ev.pred, q_eval, sigma=sig_ev, image_bounds=cfg.image_bounds)
    _, box_hits = coverage_events(ev.gt, lows, highs)
    outer, _, _ = outer_inner_boxes(lows, highs)
    iscores = box_interval_scores(lows, highs, ev.gt, cfg.miscoverage.alpha_corner)
    sets = {}
    if member is not None:
        class_hits = member[np.arange(len(ev)), ev.gt_class]
        sets = dict(
            mean_set_size=float(member.sum(axis=1).mean()),
            class_coverage=float(class_hits.mean()),
            joint_coverage=float((class_hits & box_hits).mean()),
        )
    return MetricRow(
        coverage=float(box_hits.mean()),
        mean_iou=float(iou_xyxy(ev.gt, outer).mean()),
        interval_score=float(iscores.sum()),
        n_eval=len(ev),
        **sets,
    )


def _two_step(q: np.ndarray, ctx: _Context, quant_idx: np.ndarray, ev_idx: np.ndarray):
    cfg = ctx.config
    qhat_class = classification_quantile(ctx.class_scores[quant_idx], cfg.miscoverage.alpha_class)
    member, _ = sets_from_totals(ctx.set_order[ev_idx], ctx.set_totals[ev_idx], qhat_class, cfg.raps)
    # worst case over the label set: classes outside it cannot win the max
    return np.where(member[:, :, None], q[None, :, :], -np.inf).max(axis=1), member


# How each regime turns the fitted quantiles into per-evaluation-box
# quantiles, plus the (n_eval, K) label-set membership for the regimes
# that predict sets.  ``q`` is the (G, 4) table of the fitted groups, one
# pooled row for class_agnostic and one row per class otherwise;
# ``quant_idx`` indexes the calibration rows of ``ctx.data`` and ``ev_idx``
# the evaluation rows of ``ctx.eval_source``.
_REGIME_QUANTILES = {
    REGIME_CLASS_AGNOSTIC: lambda q, ctx, quant_idx, ev_idx: (q[0], None),
    REGIME_CLASS_WISE: lambda q, ctx, quant_idx, ev_idx: (q[ctx.eval_source.gt_class[ev_idx]], None),
    REGIME_TWO_STEP: _two_step,
    REGIME_NAIVE_WORST_CASE: lambda q, ctx, quant_idx, ev_idx: (
        q.max(axis=0),
        np.ones((len(ev_idx), len(q)), dtype=bool),
    ),
}


def _run_once(ctx: _Context, run_index: int) -> RunResult:
    cfg = ctx.config
    seed = (cfg.master_seed, run_index)
    warnings: list[str] = []
    stratified = cfg.resolved_stratified

    if ctx.eval_data is None:
        split = random_split(ctx.data, cfg.calib_fraction, seed, stratified)
        cal_idx, ev_idx = split.calib_idx, split.eval_idx
        missing_eval = split.missing_eval_classes
    else:
        split_a = random_split(ctx.data, cfg.calib_fraction, (cfg.master_seed, run_index, 0), stratified)
        split_b = random_split(ctx.eval_data, cfg.calib_fraction, (cfg.master_seed, run_index, 1), stratified)
        cal_idx, ev_idx = split_a.calib_idx, split_b.eval_idx
        missing_eval = split_b.missing_eval_classes
    if missing_eval:
        warnings.append(
            "classes absent from evaluation: " + ",".join(str(k) for k in missing_eval)
        )
    ev = ctx.eval_source.take(ev_idx)

    quant_idx, scores, sig_ev, sigma_warnings = _calibration_scores(
        ctx, cal_idx, ev_idx, (cfg.master_seed, run_index, 7)
    )
    warnings.extend(sigma_warnings)

    if cfg.by_class:
        groups, n_groups = ctx.data.gt_class[quant_idx], ctx.data.n_classes
    else:  # a pooled fit is the one-group case, and is never flagged
        groups, n_groups = np.zeros(len(quant_idx), dtype=int), 1
    q, counts = group_quantiles(scores, cfg.miscoverage.alpha_corner, groups, n_groups)
    flagged = np.flatnonzero(counts < cfg.min_per_class) if cfg.by_class else ()
    if len(flagged):
        warnings.append("classes below min_per_class: " + ",".join(str(k) for k in flagged))
    q_eval, member = _REGIME_QUANTILES[cfg.regime](q, ctx, quant_idx, ev_idx)

    return RunResult(
        run_index=run_index,
        seed=seed,
        metrics=_score(cfg, ev, sig_ev, q_eval, member),
        quantile_summary=_quantile_summary(q),
        warnings=tuple(warnings),
    )


_WORKER_CTX: _Context | None = None


def _init_worker(ctx: _Context) -> None:
    global _WORKER_CTX
    _WORKER_CTX = ctx


def _worker_run(run_index: int) -> RunResult:
    assert _WORKER_CTX is not None
    return _run_once(_WORKER_CTX, run_index)


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
    if workers > 1 and config.n_runs > 1:
        with ProcessPoolExecutor(
            max_workers=min(workers, config.n_runs), initializer=_init_worker, initargs=(ctx,)
        ) as pool:
            results = list(pool.map(_worker_run, range(config.n_runs)))
    else:
        results = [_run_once(ctx, i) for i in range(config.n_runs)]
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
            q = column_quantiles(scores, alpha)
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
