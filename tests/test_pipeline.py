import concurrent.futures
import dataclasses
import logging
import math

import numpy as np
import pytest
from numpy.testing import assert_array_equal

from confdet.core import BoundingBox, Dataset, MiscoverageConfig, RAPSConfig
from confdet.errors import (
    DataError,
    EmptyCalibration,
    EmptySetConfig,
    InvalidClass,
    OutOfRange,
    SeedMismatch,
    StratificationImpossible,
)
from confdet import pipeline
from confdet.oracle import OracleSpec, generate
from confdet.pipeline import (
    REGIMES,
    RunConfig,
    compare_reports,
    random_split,
    recovery_sweep,
    run_experiment,
)

from conftest import make_dataset, make_record


def small_config(**overrides):
    base = dict(
        miscoverage=MiscoverageConfig(alpha_corner=0.025),
        n_runs=3,
        master_seed=17,
    )
    base.update(overrides)
    return RunConfig(**base)


# ---------------------------------------------------------------- splitting


def test_random_split_deterministic_and_exhaustive():
    ds = make_dataset(50, n_classes=3, seed=1)
    a = random_split(ds, 0.8, seed=11)
    b = random_split(ds, 0.8, seed=11)
    assert_array_equal(a.calib_idx, b.calib_idx)
    assert_array_equal(a.eval_idx, b.eval_idx)
    assert len(a.calib_idx) == 40
    assert len(a.eval_idx) == 10
    combined = np.sort(np.concatenate([a.calib_idx, a.eval_idx]))
    assert_array_equal(combined, np.arange(50))
    c = random_split(ds, 0.8, seed=12)
    assert not np.array_equal(a.calib_idx, c.calib_idx)


def test_random_split_rounds_half_up():
    ds = make_dataset(10, seed=2)
    split = random_split(ds, 0.75, seed=0)
    assert len(split.calib_idx) == 8


def test_random_split_keeps_both_sides_nonempty():
    ds = make_dataset(2, seed=3)
    split = random_split(ds, 0.99, seed=0)
    assert len(split.calib_idx) == 1
    assert len(split.eval_idx) == 1


def test_random_split_fraction_validation():
    ds = make_dataset(10, seed=4)
    with pytest.raises(OutOfRange):
        random_split(ds, 0.0, seed=0)
    with pytest.raises(OutOfRange):
        random_split(ds, 1.0, seed=0)


def test_random_split_of_an_empty_dataset_raises():
    with pytest.raises(EmptyCalibration, match="cannot split an empty dataset"):
        random_split(make_dataset(5).take(np.arange(0)), 0.8, seed=0)


def test_stratified_split_balances_classes():
    records = [
        make_record(gt_class=0, class_probs=(1.0, 0.0), image_id=f"a-{i}")
        for i in range(20)
    ]
    records += [
        make_record(gt_class=1, class_probs=(0.0, 1.0), image_id=f"b-{i}")
        for i in range(5)
    ]
    ds = Dataset.from_records(records)
    split = random_split(ds, 0.8, seed=5, stratified=True)
    classes = np.array([r.gt_class for r in records])
    assert np.sum(classes[split.calib_idx] == 0) == 16
    assert np.sum(classes[split.calib_idx] == 1) == 4
    assert np.sum(classes[split.eval_idx] == 1) == 1
    assert split.missing_eval_classes == ()


def test_stratified_split_forces_tiny_class_into_calibration():
    records = [
        make_record(gt_class=0, class_probs=(1.0, 0.0), image_id=f"a-{i}")
        for i in range(10)
    ]
    records.append(make_record(gt_class=1, class_probs=(0.0, 1.0), image_id="solo"))
    ds = Dataset.from_records(records)
    split = random_split(ds, 0.8, seed=6, stratified=True)
    assert split.missing_eval_classes == (1,)
    classes = np.array([r.gt_class for r in records])
    assert np.sum(classes[split.calib_idx] == 1) == 1


def test_stratified_split_requires_every_class():
    records = [
        make_record(gt_class=0, class_probs=(0.6, 0.4), image_id=f"a-{i}")
        for i in range(10)
    ]
    ds = Dataset.from_records(records)
    with pytest.raises(StratificationImpossible):
        random_split(ds, 0.8, seed=7, stratified=True)


# ---------------------------------------------------------------- reports


def test_run_report_shape_and_config_echo():
    ds = make_dataset(200, n_classes=2, seed=8)
    config = small_config()
    report = run_experiment(ds, dataclasses.replace(config, regime="class_agnostic"))
    assert report.regime == "class_agnostic"
    assert len(report.per_run) == 3
    for i, run in enumerate(report.per_run):
        assert run.run == i
        assert run.seed == (17, i)
        assert 0.0 <= run.metrics.coverage <= 1.0
        assert run.metrics.n_eval == 40
        assert run.quantiles["n_groups"] == 1
    assert report.config["alpha_corner"] == 0.025
    assert report.config["regime"] == "class_agnostic"
    assert report.config["stratified"] is False
    assert report.config["transfer_evaluation"] is False
    agg = report.aggregate
    assert set(agg) >= {
        "coverage",
        "mean_iou",
        "interval_score",
        "n_eval_total",
        "nominal_box_coverage",
        "coverage_mc_se",
        "coverage_below_nominal",
    }
    assert agg["nominal_box_coverage"] == pytest.approx(0.9)
    assert agg["n_eval_total"] == 120


def test_run_experiment_reproducible():
    ds = make_dataset(150, n_classes=2, seed=9)
    config = small_config()
    a = run_experiment(ds, config)
    b = run_experiment(ds, config)
    assert a.per_run == b.per_run
    assert a.aggregate == b.aggregate


def test_parallel_workers_match_serial():
    ds = make_dataset(150, n_classes=2, seed=10)
    config = small_config(n_runs=4, regime="class_wise", min_per_class=10)
    serial = run_experiment(ds, config, workers=1)
    parallel = run_experiment(ds, config, workers=2)
    assert serial.per_run == parallel.per_run
    assert serial.aggregate == parallel.aggregate


class _InProcessPool:
    """Stands in for ProcessPoolExecutor: records max_workers, starts no process."""

    max_workers_seen: list = []

    def __init__(self, max_workers, initializer, initargs):
        self.max_workers_seen.append(max_workers)
        initializer(*initargs)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, iterable):
        return map(fn, iterable)


@pytest.mark.parametrize("workers, n_runs, expected", [(64, 2, 2), (2, 5, 2), (3, 3, 3)])
def test_pool_never_has_more_workers_than_runs(monkeypatch, workers, n_runs, expected):
    # a fork-based pool starts every worker at the first submit, used or not
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _InProcessPool)  # imported where it is used
    monkeypatch.setattr(pipeline, "_WORKER_CTX", None)
    monkeypatch.setattr(_InProcessPool, "max_workers_seen", [])
    ds = make_dataset(60, n_classes=2, seed=10)
    config = small_config(n_runs=n_runs)
    pooled = run_experiment(ds, config, workers=workers)
    assert _InProcessPool.max_workers_seen == [expected]
    assert pooled.per_run == run_experiment(ds, config, workers=1).per_run


_SCALED = dict(scaling="scaled")
_RECAL = dict(scaling="scaled", calibration_scope="per_coordinate_per_class_relative", calibrator_fit_fraction=0.5)
CHUNK_VARIANTS = [
    (regime, options, transfer)
    for regime in REGIMES
    for options, transfer in (
        ({}, False),
        (_SCALED, False),
        (_RECAL, False),
        (dict(scaling="scaled", calibration_scope="global_relative"), True),
        (_SCALED, True),
    )
] + [(regime, dict(stratified=False), False) for regime in ("class_wise", "two_step")]


@pytest.mark.parametrize("runs_per_chunk", [1, 2, 7])
def test_per_run_results_do_not_depend_on_the_chunk_size(monkeypatch, runs_per_chunk):
    base = dict(n_records=300, n_classes=3, corner_noise=((2.0, 10.0),) * 3)
    source, _ = generate(OracleSpec(seed=40, **base))
    target, _ = generate(OracleSpec(seed=41, shift=1.0, **base))
    configs = [
        (small_config(n_runs=9, regime=regime, min_per_class=5, **options), target if transfer else None)
        for regime, options, transfer in CHUNK_VARIANTS
    ]
    # the default budget fits all nine runs of these small experiments in one chunk
    default = [run_experiment(source, config, eval_dataset=ev).per_run for config, ev in configs]

    chunks = []
    run_chunk = pipeline._run_chunk
    monkeypatch.setattr(pipeline, "_run_chunk", lambda ctx, runs: chunks.append(len(runs)) or run_chunk(ctx, runs))
    monkeypatch.setattr(pipeline, "_run_elements", lambda ctx: 1000)
    monkeypatch.setattr(pipeline, "_CHUNK_ELEMENTS", 1000 * runs_per_chunk)
    for (config, ev), expected in zip(configs, default):
        chunks.clear()
        assert run_experiment(source, config, eval_dataset=ev).per_run == expected
        assert chunks == [runs_per_chunk] * (9 // runs_per_chunk) + [9 % runs_per_chunk] * (9 % runs_per_chunk > 0)


def test_run_diagnostics_reach_the_report_not_the_log(caplog):
    # class 1 has one record: its calibrator map falls back to the global
    # one and its quantiles are flagged, in every run
    ds = make_dataset(60, n_classes=2, seed=3)
    gt_class = np.zeros(len(ds), dtype=int)
    gt_class[7] = 1
    ds = dataclasses.replace(ds, gt_class=gt_class)
    config = small_config(
        n_runs=2,
        regime="class_wise",
        scaling="scaled",
        calibration_scope="per_coordinate_per_class_relative",
    )
    with caplog.at_level(logging.DEBUG):
        report = run_experiment(ds, config)
    assert [r.name for r in caplog.records if r.name in ("confdet.regression", "confdet.calibration")] == []
    for run in report.per_run:
        assert "calibrator fell back to the global map for classes 1" in run.warnings
        assert "classes below min_per_class: 1" in run.warnings


def test_recalibrated_runs_skip_degenerate_boxes_and_keep_their_raw_sigma(monkeypatch):
    # rows 0-9 have zero-width predicted boxes, so no sigma map can normalize them
    ds = make_dataset(60, seed=5)
    pred = ds.pred.copy()
    pred[:10, 2] = pred[:10, 0]
    ds = dataclasses.replace(ds, pred=pred)
    sigmas = []
    recalibrate = pipeline._cal.recalibrate

    def spy(plan, fit):
        out = recalibrate(plan, fit)
        sigmas.append(out[0])
        return out

    monkeypatch.setattr(pipeline._cal, "recalibrate", spy)
    config = small_config(scaling="scaled", calibration_scope="global_relative")
    report = run_experiment(ds, config)
    for run, sigma in zip(report.per_run, sigmas, strict=True):
        calib = random_split(ds, config.calib_fraction, run.seed).calib_idx
        n_skipped = int((calib < 10).sum())
        assert n_skipped > 0
        assert f"calibrator skipped {n_skipped} degenerate box(es)" in run.warnings
        assert_array_equal(sigma[:10], ds.sigma[:10])
        assert (sigma[10:] != ds.sigma[10:]).any()


def test_run_experiment_rejects_an_empty_dataset():
    with pytest.raises(EmptyCalibration, match="run_experiment needs a non-empty dataset"):
        run_experiment(make_dataset(5).take(np.arange(0)), small_config())


def test_single_class_class_wise_matches_agnostic():
    ds = make_dataset(120, n_classes=1, seed=11)
    config = small_config(min_per_class=5)
    agnostic = run_experiment(ds, dataclasses.replace(config, regime="class_agnostic"))
    wise = run_experiment(ds, dataclasses.replace(config, regime="class_wise"))
    for a, w in zip(agnostic.per_run, wise.per_run):
        assert w.metrics.coverage == a.metrics.coverage
        assert w.metrics.mean_iou == pytest.approx(a.metrics.mean_iou, rel=1e-12)
        assert w.metrics.interval_score == pytest.approx(
            a.metrics.interval_score, rel=1e-12
        )


def test_two_step_with_one_hot_probs_matches_class_wise():
    # a perfect classifier gives singleton sets, so the worst case over
    # the set is just the ground-truth class quantile
    ds = make_dataset(240, n_classes=3, seed=12, one_hot_probs=True)
    config = small_config(min_per_class=5, miscoverage=MiscoverageConfig(alpha_corner=0.05))
    wise = run_experiment(ds, dataclasses.replace(config, regime="class_wise"))
    two_step = run_experiment(ds, dataclasses.replace(config, regime="two_step"))
    for w, t in zip(wise.per_run, two_step.per_run):
        assert t.metrics.mean_set_size == 1.0
        assert t.metrics.class_coverage == 1.0
        assert t.metrics.coverage == w.metrics.coverage
        assert t.metrics.joint_coverage == w.metrics.coverage
        assert t.metrics.interval_score == pytest.approx(
            w.metrics.interval_score, rel=1e-12
        )


def test_naive_worst_case_covers_at_least_class_wise():
    ds = make_dataset(300, n_classes=2, seed=13)
    config = small_config(n_runs=4, min_per_class=10)
    wise = run_experiment(ds, dataclasses.replace(config, regime="class_wise"))
    naive = run_experiment(ds, dataclasses.replace(config, regime="naive_worst_case"))
    for w, nv in zip(wise.per_run, naive.per_run):
        assert nv.metrics.coverage >= w.metrics.coverage
    assert naive.per_run[0].metrics.mean_set_size == 2.0


def test_two_step_rejects_empty_set_rule():
    ds = make_dataset(100, n_classes=2, seed=14)
    config = small_config(raps=RAPSConfig(allow_empty=True), regime="two_step")
    with pytest.raises(EmptySetConfig):
        run_experiment(ds, config)
    with pytest.raises(EmptySetConfig):
        run_experiment(ds, dataclasses.replace(small_config(raps=RAPSConfig(allow_empty=True)), regime="two_step"))


def test_all_eval_records_forced_into_calibration():
    records = [
        make_record(gt_class=k, class_probs=tuple(1.0 if j == k else 0.0 for j in range(3)), image_id=f"r-{k}")
        for k in range(3)
    ]
    ds = Dataset.from_records(records)
    # class_agnostic is left out: its unstratified split keeps one evaluation record
    for regime in ("class_wise", "two_step", "naive_worst_case"):
        config = small_config(n_runs=1, regime=regime, min_per_class=1)
        report = run_experiment(ds, config)
        row = report.per_run[0].metrics
        assert row.n_eval == 0
        assert row.coverage == 1.0
        assert row.interval_score == 0.0
        if regime != "class_wise":
            assert row.mean_set_size == 0.0
            assert row.class_coverage == row.joint_coverage == 1.0


def test_transfer_evaluation_detects_shift():
    base = dict(n_records=1200, n_classes=2, corner_noise=((2.0, 10.0),) * 2)
    source, _ = generate(OracleSpec(seed=30, **base))
    target, _ = generate(OracleSpec(seed=31, shift=2.5, **base))
    config = small_config(n_runs=20, master_seed=2)
    report = run_experiment(source, config, eval_dataset=target)
    assert report.config["transfer_evaluation"] is True
    assert report.aggregate["coverage_below_nominal"] is True
    assert report.aggregate["coverage"]["mean"] < 0.9


def test_transfer_evaluation_requires_matching_classes():
    source = make_dataset(50, n_classes=2, seed=15)
    target = make_dataset(50, n_classes=3, seed=16)
    with pytest.raises(SeedMismatch):
        run_experiment(source, small_config(), eval_dataset=target)


def test_a_disjoint_fit_split_keeps_per_class_recalibration_at_nominal():
    # fitting the per-class sigma maps on the rows that calibrate the quantiles breaks
    # split conformal's rule that the score is fixed apart from its calibration scores
    spec = OracleSpec(n_records=4000, n_classes=5, corner_noise=((2.0, 20.0),) * 5, sigma_bias=("power", 1.5), seed=11)
    dataset, _ = generate(spec)
    config = small_config(
        n_runs=40, master_seed=3, scaling="scaled", calibration_scope="per_coordinate_per_class_relative"
    )
    shared = run_experiment(dataset, config)
    disjoint = run_experiment(dataset, dataclasses.replace(config, calibrator_fit_fraction=0.5))
    assert shared.aggregate["coverage_below_nominal"] is True
    assert disjoint.aggregate["coverage_below_nominal"] is False


def test_run_config_validation():
    mc = MiscoverageConfig(alpha_corner=0.025)
    with pytest.raises(OutOfRange):
        RunConfig(miscoverage=mc, n_runs=0)
    with pytest.raises(OutOfRange):
        RunConfig(miscoverage=mc, calib_fraction=1.0)
    with pytest.raises(OutOfRange):
        RunConfig(miscoverage=mc, scaling="both")
    with pytest.raises(OutOfRange):
        RunConfig(miscoverage=mc, regime="per_image")
    with pytest.raises(OutOfRange):
        RunConfig(miscoverage=mc, calibration_scope="classwise")
    with pytest.raises(OutOfRange):
        RunConfig(miscoverage=mc, calibrator_fit_fraction=0.0)
    with pytest.raises(OutOfRange, match="calibrator_fit_fraction needs a calibration_scope other than 'raw'"):
        RunConfig(miscoverage=mc, scaling="scaled", calibrator_fit_fraction=0.5)
    with pytest.raises(OutOfRange, match="min_per_class must be >= 0, got -1"):
        RunConfig(miscoverage=mc, min_per_class=-1)
    for scope in ("global_relative", "per_coordinate_per_class_relative"):
        # unscaled scores never read sigma, so a recalibration scope would be ignored
        with pytest.raises(OutOfRange, match="needs scaling='scaled'"):
            RunConfig(miscoverage=mc, scaling="unscaled", calibration_scope=scope)
        RunConfig(miscoverage=mc, scaling="scaled", calibration_scope=scope)
    for bounds in (
        (2000.0, 2000.0, 0.0, 0.0),
        (0.0, 0.0, 0.0, 10.0),
        (0.0, 5.0, 10.0, 5.0),
        (0.0, 0.0, math.inf, 10.0),
        (math.nan, 0.0, 10.0, 10.0),
    ):
        with pytest.raises(OutOfRange):
            RunConfig(miscoverage=mc, image_bounds=BoundingBox(*bounds))
    RunConfig(miscoverage=mc, image_bounds=BoundingBox(-10.0, -10.0, 640.0, 480.0))
    for regime in REGIMES:
        cfg = RunConfig(miscoverage=mc, regime=regime)
        assert cfg.resolved_stratified is (regime != "class_agnostic")


@pytest.mark.parametrize(
    "field, value",
    [("n_runs", 2.5), ("n_runs", True), ("master_seed", 1.5), ("master_seed", True), ("min_per_class", 2.5)],
)
def test_integer_settings_take_integers_only(field, value):
    # one integer rule for labels and settings: a float is not truncated, and bool is not an int
    with pytest.raises(OutOfRange, match=f"{field} must be an integer, got {value!r}"):
        small_config(**{field: value})
    assert getattr(small_config(**{field: np.int64(3)}), field) == 3


@pytest.mark.parametrize("workers", [0, -3, 2.5, True])
def test_run_experiment_takes_a_worker_count_of_at_least_one(workers):
    with pytest.raises(OutOfRange, match=f"workers must be an integer >= 1, got {workers!r}"):
        run_experiment(make_dataset(40, seed=23), small_config(), workers=workers)


def test_hand_built_dataset_with_nan_prediction_is_rejected():
    # a Dataset built from columns skips validate_record; the kernels must not
    ds = make_dataset(100, n_classes=2, seed=22)
    pred = ds.pred.copy()
    pred[7, 0] = math.nan
    bad = dataclasses.replace(ds, pred=pred)
    for scaling in ("unscaled", "scaled"):
        with pytest.raises(DataError):
            run_experiment(bad, small_config(n_runs=2, scaling=scaling))


@pytest.mark.parametrize("stratified", [True, False])
def test_hand_built_dataset_with_a_class_outside_the_classes_is_rejected(stratified):
    # a stratified split once left the row out of every run without a word
    ds = make_dataset(120, n_classes=2, seed=1)
    gt_class = ds.gt_class.copy()
    gt_class[5] = 7
    bad = dataclasses.replace(ds, gt_class=gt_class)
    for regime in ("class_wise", "naive_worst_case"):
        with pytest.raises(InvalidClass):
            run_experiment(bad, small_config(regime=regime, stratified=stratified, min_per_class=5))


def test_class_wise_quantile_summary_counts_groups():
    ds = make_dataset(200, n_classes=4, seed=17)
    config = small_config(n_runs=1, regime="class_wise", min_per_class=5)
    report = run_experiment(ds, config)
    assert report.per_run[0].quantiles["n_groups"] == 4


# ---------------------------------------------------------------- comparison


def test_compare_report_with_itself():
    ds = make_dataset(150, n_classes=2, seed=18)
    report = run_experiment(ds, dataclasses.replace(small_config(), regime="class_agnostic"))
    table = compare_reports(report, report)
    assert table["n_runs"] == 3
    for entry in table["metrics"].values():
        assert entry["t"] == 0.0
        assert entry["p"] == 1.0
        assert entry["mean_a"] == entry["mean_b"]
        assert entry["significant_5pct"] is False


def test_compare_reports_antisymmetric():
    ds = make_dataset(300, n_classes=2, seed=19)
    config_a = small_config(n_runs=8)
    config_b = small_config(
        n_runs=8, miscoverage=MiscoverageConfig(alpha_corner=0.1)
    )
    rep_a = run_experiment(ds, dataclasses.replace(config_a, regime="class_agnostic"))
    rep_b = run_experiment(ds, dataclasses.replace(config_b, regime="class_agnostic"))
    ab = compare_reports(rep_a, rep_b)
    ba = compare_reports(rep_b, rep_a)
    for name, entry in ab["metrics"].items():
        mirrored = ba["metrics"][name]
        assert entry["t"] == pytest.approx(-mirrored["t"], rel=1e-12)
        assert entry["p"] == pytest.approx(mirrored["p"], rel=1e-12)
        assert entry["mean_a"] == mirrored["mean_b"]


def test_compare_reports_rejects_unpaired():
    ds = make_dataset(150, n_classes=2, seed=20)
    rep_a = run_experiment(ds, dataclasses.replace(small_config(n_runs=3), regime="class_agnostic"))
    rep_b = run_experiment(ds, dataclasses.replace(small_config(n_runs=4), regime="class_agnostic"))
    with pytest.raises(SeedMismatch):
        compare_reports(rep_a, rep_b)
    rep_c = run_experiment(ds, dataclasses.replace(small_config(n_runs=3, master_seed=99), regime="class_agnostic"))
    with pytest.raises(SeedMismatch):
        compare_reports(rep_a, rep_c)


# ---------------------------------------------------------------- recovery


def test_recovery_sweep_grid_shape():
    ds = make_dataset(400, n_classes=2, noise=40.0, seed=21)
    rows = recovery_sweep(ds, alphas=(0.025, 0.1), thresholds=(0.3, 0.5, 0.7), seed=3)
    assert len(rows) == 2 * 2 * 3
    seen = {(r["scaling"], r["alpha_corner"], r["iou_threshold"]) for r in rows}
    assert len(seen) == 12
    for row in rows:
        assert row["scaling"] in ("unscaled", "scaled")
        assert row["n_below"] >= 0
        if row["recovery_rate"] is not None:
            assert 0.0 <= row["recovery_rate"] <= 1.0
    again = recovery_sweep(ds, alphas=(0.025, 0.1), thresholds=(0.3, 0.5, 0.7), seed=3)
    assert rows == again


@pytest.mark.parametrize("alphas", [(0.3,), (0.025, 0.25), (0.0,), (math.nan,)])
def test_recovery_sweep_takes_the_run_alpha_rule(alphas):
    ds = make_dataset(100, seed=21)
    with pytest.raises(OutOfRange, match=r"alpha_corner must lie in \(0, 0.25\)"):
        recovery_sweep(ds, alphas=alphas, thresholds=(0.5,))


@pytest.mark.parametrize("seed", [True, "3", 1.5])
def test_recovery_sweep_takes_an_integer_seed(seed):
    # a bool would run as seed 0 or 1, and a string would fail the range check with a TypeError
    with pytest.raises(OutOfRange, match=f"seed must be an integer, got {seed!r}"):
        recovery_sweep(make_dataset(100, seed=21), alphas=(0.025,), thresholds=(0.5,), seed=seed)


def test_recovery_sweep_n_below_grows_with_threshold():
    ds = make_dataset(300, noise=30.0, seed=22)
    rows = recovery_sweep(ds, alphas=(0.05,), thresholds=(0.2, 0.5, 0.9), seed=4)
    unscaled = [r for r in rows if r["scaling"] == "unscaled"]
    counts = [r["n_below"] for r in sorted(unscaled, key=lambda r: r["iou_threshold"])]
    assert counts == sorted(counts)


def test_recovery_sweep_vacuous_quantiles_recover_all():
    # 5 calibration records cannot support alpha 0.025, so the outer box
    # clamps to the image bounds and recovers every poor localization
    ds = make_dataset(10, noise=50.0, seed=23)
    rows = recovery_sweep(ds, alphas=(0.025,), thresholds=(0.999,), calib_fraction=0.5, seed=5)
    for row in rows:
        assert row["n_below"] > 0
        assert row["recovery_rate"] == 1.0


def test_recovery_sweep_rejects_inverted_image_bounds():
    # inverted bounds once gave recovery_rate 0.0 on every row, with no error
    ds = make_dataset(200, noise=30.0, seed=24)
    for bounds in ((2000.0, 2000.0, 0.0, 0.0), (0.0, 0.0, float("inf"), 100.0)):
        with pytest.raises(OutOfRange):
            recovery_sweep(ds, alphas=(0.05,), thresholds=(0.5,), image_bounds=BoundingBox(*bounds))
    rows = recovery_sweep(ds, alphas=(0.05,), thresholds=(0.5,), image_bounds=BoundingBox(0.0, 0.0, 2000.0, 2000.0))
    assert len(rows) == 2
