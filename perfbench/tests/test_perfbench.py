"""Tests for the benchmark's own code.

Run from the repository root with ``python -m pytest perfbench/tests``.
"""

from __future__ import annotations

import json
import os
import sys

import pytest

BENCH_DIR = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, BENCH_DIR)
sys.path.insert(0, os.path.join(os.path.dirname(BENCH_DIR), "src"))

import inputs  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
from checks import OutputChecker, report_digest  # noqa: E402

HAND_BUILT = [
    ("cli.main", 0.0, 10.0, -1),
    ("io.load_dataset", 1.0, 4.0, 0),
    ("core.validate_record", 1.5, 2.0, 1),
    ("core.validate_record", 2.5, 3.0, 1),
    ("pipeline.run_experiment", 5.0, 9.0, 0),
    ("regression.fit_quantiles_from_scores", 6.0, 8.0, 4),
    ("regression.conformal_quantile", 6.5, 7.0, 5),
]
HAND_BUILT_WRAPPED = {name for name, *_ in HAND_BUILT}


def test_self_time_is_duration_minus_direct_children():
    assert tracer.self_times(HAND_BUILT) == pytest.approx([3.0, 2.0, 0.5, 0.5, 2.0, 1.5, 0.5])


def test_layer_self_times_partition_the_root_span():
    metrics = tracer.span_metrics(HAND_BUILT, HAND_BUILT_WRAPPED, {})
    assert metrics["cli.self_s"] == pytest.approx(3.0)
    assert metrics["io.self_s"] == pytest.approx(2.0)
    assert metrics["core.self_s"] == pytest.approx(1.0)
    assert metrics["pipeline.self_s"] == pytest.approx(2.0)
    assert metrics["regression.self_s"] == pytest.approx(2.0)
    layer_total = sum(metrics[f"{layer}.self_s"] for layer in ("cli", "io", "core", "pipeline", "regression"))
    assert layer_total == pytest.approx(metrics["cli.main.s"])
    assert metrics["core.validate_record.calls"] == 2
    assert metrics["core.validate_record.s"] == pytest.approx(1.0)
    assert metrics["regression.conformal_quantile.calls"] == 1
    assert metrics["trace.spans"] == len(HAND_BUILT)


def test_nested_calls_of_one_function_are_timed_once():
    spans = [("regression.fit_quantiles_from_scores", 0.0, 5.0, -1), ("regression.fit_quantiles_from_scores", 1.0, 2.0, 0)]
    assert tracer.function_times(spans)["regression.fit_quantiles_from_scores"] == pytest.approx(5.0)


def test_missing_function_leaves_its_metrics_out():
    wrapped = HAND_BUILT_WRAPPED - {"core.validate_record"}
    metrics = tracer.span_metrics(HAND_BUILT, wrapped, {})
    assert "core.validate_record.calls" not in metrics
    assert "core.validate_record.s" not in metrics
    assert "core.records_to_arrays.calls" not in metrics
    assert "calibration.self_s" not in metrics


def test_generator_is_deterministic_per_seed(tmp_path):
    paths = [tmp_path / name for name in ("a.jsonl", "b.jsonl", "c.jsonl")]
    for path, seed in zip(paths, (7, 7, 8)):
        inputs.write_jsonl(str(path), (seed, 0), 400, 3, 0.9, invalid=True)
    assert paths[0].read_bytes() == paths[1].read_bytes()
    assert paths[0].read_bytes() != paths[2].read_bytes()


def test_dataset_cache_is_reused(tmp_path, monkeypatch):
    monkeypatch.setitem(inputs.DATASETS, "two_step", (300, 4, 0.9, 1.0, 1.0, False))
    path = inputs.dataset_path(str(tmp_path), "two_step", 5)
    before = os.stat(path).st_mtime_ns
    assert inputs.dataset_path(str(tmp_path), "two_step", 5) == path
    assert os.stat(path).st_mtime_ns == before


def test_generated_lines_load_except_the_injected_invalid_ones(tmp_path):
    from confdet.io import load_dataset

    path = tmp_path / "d.jsonl"
    inputs.write_jsonl(str(path), (3, 0), 3000, 10, 0.9, invalid=True)
    dataset, report = load_dataset(path)
    assert len(report.rejected_lines) == 3
    assert report.n_loaded == 2997
    assert dataset.n_classes == 10


def _report(path, coverage=0.9, regime="class_agnostic"):
    doc = {
        "config": {"regime": regime},
        "per_run": [{"run": 0, "metrics": {"coverage": coverage}}],
        "aggregate": {"coverage": {"mean": coverage}},
    }
    path.write_text(json.dumps(doc, indent=2))


def test_report_digest_ignores_config_only(tmp_path):
    path = tmp_path / "r.json"
    _report(path)
    base = report_digest(str(path))
    _report(path, regime="changed provenance")
    assert report_digest(str(path)) == base
    _report(path, coverage=0.91)
    assert report_digest(str(path)) != base


def test_checker_rejects_golden_mismatch_and_unreadable_outputs():
    checker = OutputChecker(golden={"report": "abc"})
    assert not checker.check({"report": "abd"})
    assert not checker.check(None)
    assert checker.check({"report": "abc"})


def test_tampered_report_counts_as_failed_operation(tmp_path):
    bench_run = run.Run("simulate_write", seed=12345, workdir=str(tmp_path))

    def operation(report_text):
        outdir = bench_run.new_dir()
        for name in ("data.jsonl", "oracle.jsonl"):
            with open(os.path.join(outdir, name), "w") as fh:
                fh.write("{}\n")
        with open(os.path.join(outdir, "report.csv"), "w") as fh:
            fh.write(report_text)
        return bench_run.record(0, outdir)

    assert operation("run,coverage\n0,0.9\n")
    assert operation("run,coverage\n0,0.9\n")
    assert not operation("run,coverage\n0,0.8\n")
    assert bench_run.record(1, bench_run.new_dir()) is False
    assert (bench_run.attempted, bench_run.failed) == (4, 2)


def test_tracer_wraps_every_importing_namespace(tmp_path):
    import confdet.cli as cli
    import confdet.pipeline as pipeline
    import confdet.regression as regression

    original = regression.residual_scores
    t = tracer.Tracer()
    t.install()
    try:
        assert pipeline.residual_scores is not original
        assert regression.residual_scores is pipeline.residual_scores
        out = tmp_path / "report.json"
        code = cli.main(
            ["simulate", "--records", "300", "--classes", "2", "--noise", "5", "--runs", "3",
             "--seed", "1", "--workers", "1", "--out", str(out)]
        )
    finally:
        t.uninstall()
    assert code == 0
    assert pipeline.residual_scores is original and regression.residual_scores is original
    names = [name for name, *_ in t.spans]
    assert names[0] == "cli.main"
    assert {"oracle.generate", "pipeline.run_experiment", "regression.residual_scores", "io.emit_report"} <= set(names)
    assert all(parent < index for index, (_, _, _, parent) in enumerate(t.spans))
    metrics = tracer.span_metrics(t.spans, t.wrapped, t.counts)
    layer_total = sum(metrics[f"{layer}.self_s"] for layer in tracer.LAYERS)
    assert layer_total == pytest.approx(metrics["cli.main.s"])
    assert metrics["io.bytes_written"] == out.stat().st_size
    assert metrics["calibration.pava_fit.calls"] == 0


def test_tracing_leaves_the_report_unchanged(tmp_path):
    import confdet.cli as cli

    argv = ["simulate", "--records", "400", "--classes", "2", "--noise", "2:20", "--runs", "2",
            "--scaling", "scaled", "--scope", "per_coordinate_per_class_relative", "--seed", "3",
            "--workers", "1", "--out"]
    assert cli.main(argv + [str(tmp_path / "plain.json")]) == 0
    t = tracer.Tracer()
    t.install()
    try:
        assert cli.main(argv + [str(tmp_path / "traced.json")]) == 0
    finally:
        t.uninstall()
    assert (tmp_path / "plain.json").read_bytes() == (tmp_path / "traced.json").read_bytes()
    metrics = tracer.span_metrics(t.spans, t.wrapped, t.counts)
    assert metrics["calibration.pava_fit.calls"] > 0
    assert metrics["calibration.pava_points"] > 0
