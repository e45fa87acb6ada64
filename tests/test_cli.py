import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

import confdet
from confdet.calibration import load_calibrator
from confdet.cli import _parse_bias, _parse_grid, _parse_noise, _resolve_workers, main
from confdet.core import MiscoverageConfig
from confdet.errors import ConfigError
from confdet.io import emit_report, load_dataset, load_report, save_dataset
from confdet.oracle import OracleSpec, generate
from confdet.pipeline import RunConfig, run_experiment

import reference
from conftest import make_dataset


@pytest.fixture()
def data_path(tmp_path):
    path = tmp_path / "data.jsonl"
    save_dataset(make_dataset(120, n_classes=2, seed=40), path)
    return str(path)


def run_args(data_path, out, extra=()):
    return [
        "run",
        "--data",
        data_path,
        "--seed",
        "3",
        "--runs",
        "2",
        "--workers",
        "1",
        "--out",
        out,
        *extra,
    ]


def test_importing_the_cli_leaves_scipy_unloaded():
    # only `compare` needs scipy, and importing it doubles the start-up time;
    # only a run on more than one worker needs the process pool
    src = str(Path(confdet.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    code = "import confdet.cli; import sys; print([m for m in ('scipy', 'concurrent.futures', 'multiprocessing') if m in sys.modules])"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout == "[]\n"


# ---------------------------------------------------------------- parsing helpers


def test_parse_noise_forms():
    assert _parse_noise("5") == (5.0,)
    assert _parse_noise("5,50") == (5.0, 50.0)
    assert _parse_noise("2:20") == ((2.0, 20.0),)
    assert _parse_noise("2:20, 5") == ((2.0, 20.0), 5.0)


def test_parse_bias_forms():
    assert _parse_bias("identity") == ("identity",)
    assert _parse_bias("scale:2.0") == ("scale", 2.0)
    assert _parse_bias("power:0.5") == ("power", 0.5)
    with pytest.raises(Exception):
        _parse_bias("cube:3")


def test_parse_grid_forms():
    assert _parse_grid("0.1:0.3:0.1") == [0.1, 0.2, 0.3]
    assert _parse_grid("0.25,0.5") == [0.25, 0.5]


def test_resolve_workers_priority(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(16)), raising=False)
    monkeypatch.setenv("CONFDET_WORKERS", "3")
    assert _resolve_workers(8) == 3
    monkeypatch.delenv("CONFDET_WORKERS")
    assert _resolve_workers(8) == 8
    with pytest.raises(ConfigError, match="--workers"):
        _resolve_workers(0)
    assert _resolve_workers(None) >= 1


def test_default_workers_are_the_cores_this_process_may_use(monkeypatch):
    monkeypatch.delenv("CONFDET_WORKERS", raising=False)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 64)
    assert _resolve_workers(None) == 1
    monkeypatch.delattr(os, "sched_getaffinity")
    assert _resolve_workers(None) == 64


def test_workers_are_capped_at_the_cores_this_process_may_use(monkeypatch, capsys):
    # 5,000 workers once meant 5,000 processes, each with a copy of the experiment
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    monkeypatch.delenv("CONFDET_WORKERS", raising=False)
    assert _resolve_workers(5000) == 2
    assert capsys.readouterr().err == "confdet: --workers 5000 is more than the 2 cores this process may use; using 2\n"
    monkeypatch.setenv("CONFDET_WORKERS", "5000")
    assert _resolve_workers(None) == 2
    assert "CONFDET_WORKERS 5000 is more than the 2 cores" in capsys.readouterr().err
    monkeypatch.delenv("CONFDET_WORKERS")
    assert _resolve_workers(2) == 2 and capsys.readouterr().err == ""


# ---------------------------------------------------------------- exit codes


def test_usage_error_exits_1(data_path):
    with pytest.raises(SystemExit) as excinfo:
        main(["run", "--data", data_path])  # --seed is required
    assert excinfo.value.code == 1
    with pytest.raises(SystemExit) as excinfo:
        main(["frobnicate"])
    assert excinfo.value.code == 1
    with pytest.raises(SystemExit) as excinfo:
        main(run_args(data_path, "out.json", extra=["--image-bounds", "1,2,3"]))
    assert excinfo.value.code == 1


@pytest.mark.parametrize(
    "option, value",
    [
        ("--noise", "abc"),
        ("--noise", "1:2:3"),
        ("--noise", "1,,2"),
        ("--alpha-corner", "abc"),
        ("--thresholds", "a:b:c"),
        ("--thresholds", "0.1,abc"),
        ("--sigma-bias", "scale:abc"),
        ("--image-bounds", "1,2,a,4"),
    ],
)
def test_malformed_option_names_the_option_not_the_parser(data_path, option, value, capsys):
    # these once printed "invalid _parse_noise value: 'abc'"
    command = ["simulate", "--records", "50"] if option in ("--noise", "--sigma-bias") else ["recovery", "--data", data_path]
    with pytest.raises(SystemExit) as excinfo:
        main(command + ["--seed", "1", option, value])
    assert excinfo.value.code == 1
    err = capsys.readouterr().err
    assert f"argument {option}: expected " in err
    assert "_parse" not in err


@pytest.mark.parametrize("grid", ["0.1:0.9:0", "0.1:0.9:-0.1"])
def test_grid_step_not_positive_exits_1(data_path, grid, capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["recovery", "--data", data_path, "--seed", "1", "--thresholds", grid])
    assert excinfo.value.code == 1
    assert "grid step must be > 0" in capsys.readouterr().err


@pytest.mark.parametrize("grid", ["0.9:0.1:0.1", "0.5:0.499:0.1", "1:-inf:0.5"])
def test_grid_without_points_exits_1(data_path, grid, capsys):
    # stop below start once gave an empty grid and a header-only CSV, exit 0
    with pytest.raises(SystemExit) as excinfo:
        main(["recovery", "--data", data_path, "--seed", "1", "--thresholds", grid])
    assert excinfo.value.code == 1
    assert "has no points" in capsys.readouterr().err
    assert _parse_grid("0.5:0.5:0.1") == [0.5]


@pytest.mark.parametrize("grid", ["0.5:0.9:1e-17", "0.1:0.9:1e-5", "0.1:inf:0.1", "nan:0.9:0.1"])
def test_grid_too_many_points_exits_1(data_path, grid, capsys):
    # 0.5 + 1e-17 == 0.5, so a grid built by adding up steps never reached its end
    with pytest.raises(SystemExit) as excinfo:
        main(["recovery", "--data", data_path, "--seed", "1", "--thresholds", grid])
    assert excinfo.value.code == 1
    assert "at most 10000 points" in capsys.readouterr().err


@pytest.mark.parametrize("thresholds", ["0,2.5,-1", "0:1:0.25", "0.5,1.5", "nan"])
def test_threshold_outside_unit_interval_exits_1(data_path, thresholds, capsys):
    assert main(["recovery", "--data", data_path, "--seed", "1", "--thresholds", thresholds]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1 and "iou_threshold must lie in (0, 1]" in captured.err


@pytest.mark.parametrize(
    "args",
    [
        ["run", "--data", "DATA", "--seed", "-1", "--runs", "2", "--workers", "1"],
        ["simulate", "--records", "100", "--seed", "-2", "--runs", "2", "--workers", "1"],
        ["simulate", "--records", "100", "--seed", "2", "--oracle-seed", "-2", "--runs", "2", "--workers", "1"],
        ["recovery", "--data", "DATA", "--seed", "-3"],
    ],
    ids=["run", "simulate", "simulate-oracle-seed", "recovery"],
)
def test_negative_seed_exits_1(data_path, args, capsys):
    assert main([data_path if a == "DATA" else a for a in args]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1 and "seed must be >= 0" in captured.err


@pytest.mark.parametrize("bounds", ["2000,2000,0,0", "0,0,0,10", "0,0,inf,10", "nan,0,10,10"])
def test_bad_image_bounds_exit_1(tmp_path, bounds, capsys):
    args = ["simulate", "--records", "200", "--classes", "2", "--regime", "class_wise"]
    args += ["--seed", "1", "--runs", "2", "--workers", "1", "--out", str(tmp_path / "r.json")]
    with pytest.raises(SystemExit) as excinfo:
        main(args + ["--image-bounds", bounds])
    assert excinfo.value.code == 1
    assert "x0 < x1 and y0 < y1" in capsys.readouterr().err
    assert not (tmp_path / "r.json").exists()


def test_bad_workers_variable_exits_1(data_path, tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("CONFDET_WORKERS", "abc")
    assert main(run_args(data_path, str(tmp_path / "r.json"))) == 1
    assert "CONFDET_WORKERS" in capsys.readouterr().err


@pytest.mark.parametrize("workers", ["0", "-3"])
def test_workers_below_one_exit_1(data_path, tmp_path, monkeypatch, capsys, workers):
    out = tmp_path / "r.json"
    monkeypatch.delenv("CONFDET_WORKERS", raising=False)
    assert main(run_args(data_path, str(out), extra=["--workers", workers])) == 1
    assert "--workers must be at least 1" in capsys.readouterr().err
    monkeypatch.setenv("CONFDET_WORKERS", workers)
    assert main(run_args(data_path, str(out))) == 1
    assert "CONFDET_WORKERS must be at least 1" in capsys.readouterr().err
    assert not out.exists()


def test_simulate_rejects_bad_workers_before_writing(tmp_path, monkeypatch):
    monkeypatch.delenv("CONFDET_WORKERS", raising=False)
    data = tmp_path / "data.jsonl"
    args = ["simulate", "--records", "200", "--classes", "2", "--seed", "1", "--runs", "2"]
    assert main(args + ["--workers", "0", "--data-out", str(data), "--out", str(tmp_path / "r.json")]) == 1
    assert not data.exists()


def test_config_error_exits_1(data_path, tmp_path):
    out = str(tmp_path / "r.json")
    code = main(run_args(data_path, out, extra=["--alpha-corner", "0.4"]))
    assert code == 1


def test_scope_without_scaling_exits_1(data_path, tmp_path, capsys):
    # the scope was once echoed in the report and otherwise ignored
    out = tmp_path / "r.json"
    assert main(run_args(data_path, str(out), extra=["--scope", "per_coordinate_per_class_relative"])) == 1
    assert "needs scaling='scaled'" in capsys.readouterr().err
    assert not out.exists()


def test_missing_file_exits_2(tmp_path):
    code = main(run_args(str(tmp_path / "nope.jsonl"), str(tmp_path / "r.json")))
    assert code == 2


def test_strict_load_failure_exits_2(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text('{"image_id": "x"}\n', encoding="utf-8")
    code = main(run_args(str(path), str(tmp_path / "r.json"), extra=["--strict"]))
    assert code == 2


@pytest.mark.parametrize("extra", [[], ["--strict"]])
def test_json_nested_too_deeply_exits_2(tmp_path, capsys, extra):
    # json raises RecursionError on it, which once gave exit 3 with a traceback
    path = tmp_path / "deep.jsonl"
    path.write_text("[" * 100_000 + "]" * 100_000 + "\n", encoding="utf-8")
    assert main(run_args(str(path), str(tmp_path / "r.json"), extra=extra)) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "Traceback" not in err


def test_strict_non_integer_gt_class_exits_2(data_path, tmp_path):
    path = tmp_path / "float-class.jsonl"
    lines = Path(data_path).read_text(encoding="utf-8").splitlines()
    doc = json.loads(lines[5])
    doc["gt_class"] = 1.7
    lines[5] = json.dumps(doc)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    code = main(run_args(str(path), str(tmp_path / "r.json"), extra=["--strict"]))
    assert code == 2


def test_undecodable_line_is_rejected_or_exits_2(data_path, tmp_path, capsys):
    # a byte that is not UTF-8 once ended the run with a traceback and exit 3
    path = tmp_path / "latin.jsonl"
    lines = Path(data_path).read_bytes().split(b"\n")
    lines[5] = lines[5].replace(b"img-5", b"img-\xff")
    path.write_bytes(b"\n".join(lines))
    assert main(run_args(str(path), str(tmp_path / "r.json"))) == 0
    code = main(run_args(str(path), str(tmp_path / "r.json"), extra=["--strict"]))
    assert code == 2
    assert "line 6: invalid UTF-8" in capsys.readouterr().err


# ---------------------------------------------------------------- run


def test_run_writes_deterministic_report(data_path, tmp_path):
    out_a = tmp_path / "a.json"
    out_b = tmp_path / "b.json"
    assert main(run_args(data_path, str(out_a))) == 0
    assert main(run_args(data_path, str(out_b))) == 0
    assert out_a.read_bytes() == out_b.read_bytes()
    report = load_report(out_a)
    assert len(report.per_run) == 2
    assert report.config["master_seed"] == 3


def test_run_csv_to_stdout(data_path, capsys):
    code = main(
        [
            "run",
            "--data",
            data_path,
            "--seed",
            "3",
            "--runs",
            "2",
            "--workers",
            "1",
            "--format",
            "csv",
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert out.startswith("run,seed,coverage")
    assert len(out.strip().split("\n")) == 1 + 2 + 1


def test_run_regime_and_scaling_flags(data_path, tmp_path):
    out = tmp_path / "cw.json"
    code = main(
        run_args(
            data_path,
            str(out),
            extra=[
                "--regime",
                "class_wise",
                "--scaling",
                "scaled",
                "--min-per-class",
                "10",
            ],
        )
    )
    assert code == 0
    report = load_report(out)
    assert report.regime == "class_wise"
    assert report.config["scaling"] == "scaled"


_PER_CLASS = ["--scaling", "scaled", "--scope", "per_coordinate_per_class_relative"]


def test_calibrator_fit_frac_gives_the_library_report_bytes(data_path, tmp_path, capsys):
    out = tmp_path / "frac.json"
    assert main(run_args(data_path, str(out), extra=[*_PER_CLASS, "--calibrator-fit-frac", "0.5"])) == 0
    assert capsys.readouterr().err == ""
    config = RunConfig(
        miscoverage=MiscoverageConfig(alpha_corner=0.025),
        n_runs=2,
        scaling="scaled",
        calibration_scope="per_coordinate_per_class_relative",
        master_seed=3,
        calibrator_fit_fraction=0.5,
    )
    report = run_experiment(load_dataset(data_path)[0], config, workers=1)
    assert out.read_text(encoding="utf-8") == emit_report(report, format="json")
    # without the option the maps and the quantiles share every calibration row
    shared = tmp_path / "shared.json"
    assert main(run_args(data_path, str(shared), extra=_PER_CLASS)) == 0
    assert shared.read_bytes() != out.read_bytes()
    assert load_report(shared).config["calibrator_fit_fraction"] is None


@pytest.mark.parametrize("extra", [_PER_CLASS, ["--scaling", "scaled", "--scope", "global_relative"], []])
def test_shared_fit_rows_are_named_on_stderr_once(data_path, tmp_path, capsys, extra):
    assert main(run_args(data_path, str(tmp_path / "r.json"), extra=extra)) == 0
    err = capsys.readouterr().err
    assert err.count("coverage is not guaranteed") == (1 if extra else 0)
    assert ("--calibrator-fit-frac" in err) == bool(extra)


@pytest.mark.parametrize("fraction", ["0", "1", "nan", "-0.5"])
def test_calibrator_fit_frac_outside_the_unit_interval_exits_1(data_path, tmp_path, capsys, fraction):
    out = tmp_path / "r.json"
    assert main(run_args(data_path, str(out), extra=[*_PER_CLASS, "--calibrator-fit-frac", fraction])) == 1
    assert "calibrator_fit_fraction must lie in (0, 1)" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "command",
    [
        ["run", "--seed", "1", "--runs", "2", "--workers", "1", *_PER_CLASS],
        ["run", "--seed", "1", "--runs", "2", "--workers", "1", "--scaling", "scaled", "--scope", "global_relative"],
        ["calibrate-sigma", "--scope", "per_coordinate_per_class_relative"],
        ["calibrate-sigma", "--scope", "global_relative"],
    ],
)
def test_overflowing_normalized_sigma_exits_2_without_a_warning(data_path, tmp_path, capsys, command):
    # a box 2e-6 wide is not degenerate, but sigma 1e308 over it overflows to
    # an infinite x; the loader accepts every record, so the fit must name it
    lines = [json.loads(line) for line in Path(data_path).read_text(encoding="utf-8").splitlines()]
    for doc in lines[1::2]:
        x0, y0, _, y1 = doc["pred_box"]
        doc["pred_box"], doc["sigma"] = [x0, y0, x0 + 2e-6, y1], [1e308, 1.0, 1.0, 1.0]
    path = tmp_path / "overflow.jsonl"
    path.write_text("".join(json.dumps(doc) + "\n" for doc in lines), encoding="utf-8")
    out = tmp_path / "out.json"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main([command[0], "--data", str(path), *command[1:], "--out", str(out)]) == 2
    assert [w.message for w in caught if issubclass(w.category, RuntimeWarning)] == []
    err = capsys.readouterr().err
    assert "corner 0: sigma or residual over the box side is not finite" in err
    assert "Traceback" not in err and not out.exists()


# ---------------------------------------------------------------- simulate


def test_simulate_writes_data_and_report(tmp_path):
    data_out = tmp_path / "sim.jsonl"
    oracle_out = tmp_path / "sim-oracle.jsonl"
    out = tmp_path / "sim.json"
    code = main(
        [
            "simulate",
            "--records",
            "150",
            "--classes",
            "2",
            "--noise",
            "2:20",
            "--accuracy",
            "0.9",
            "--seed",
            "5",
            "--runs",
            "2",
            "--workers",
            "1",
            "--data-out",
            str(data_out),
            "--oracle-out",
            str(oracle_out),
            "--out",
            str(out),
        ]
    )
    assert code == 0
    assert len(data_out.read_text(encoding="utf-8").splitlines()) == 150
    assert len(oracle_out.read_text(encoding="utf-8").splitlines()) == 150
    report = load_report(out)
    assert report.aggregate["n_eval_total"] == 2 * 30


def test_simulate_writes_the_reference_bytes_when_the_oracle_columns_differ(tmp_path):
    # with a shift the true scales differ from the base scales, and a scale
    # bias moves sigma off both, so no column repeats another
    args = ["simulate", "--records", "300", "--classes", "3", "--noise", "2:20", "--shift", "1.3"]
    args += ["--sigma-bias", "scale:2", "--seed", "6", "--runs", "2", "--workers", "1"]
    args += ["--data-out", str(tmp_path / "data.jsonl"), "--oracle-out", str(tmp_path / "oracle.jsonl")]
    assert main([*args, "--out", str(tmp_path / "r.json")]) == 0
    spec = OracleSpec(
        n_records=300, n_classes=3, corner_noise=_parse_noise("2:20") * 3, sigma_bias=_parse_bias("scale:2"), shift=1.3, seed=6
    )
    dataset, info = generate(spec)
    assert (info.true_scales != info.base_scales).all() and (dataset.sigma[:, 0] != info.base_scales).all()
    reference.save_dataset(dataset, tmp_path / "ref-data.jsonl")
    reference.save_oracle_info(info, tmp_path / "ref-oracle.jsonl")
    for name in ("data", "oracle"):
        assert (tmp_path / f"{name}.jsonl").read_bytes() == (tmp_path / f"ref-{name}.jsonl").read_bytes()


def test_simulate_bad_spec_exits_1(tmp_path):
    code = main(
        [
            "simulate",
            "--records",
            "10",
            "--noise",
            "0",
            "--seed",
            "1",
            "--runs",
            "1",
            "--workers",
            "1",
            "--out",
            str(tmp_path / "r.json"),
        ]
    )
    assert code == 1


@pytest.mark.parametrize("extra", [["--noise", "inf"], ["--shift", "inf"], ["--sigma-bias", "scale:inf"]])
def test_simulate_non_finite_spec_exits_1(tmp_path, extra):
    # these once exited 3 (OverflowError in the generator) or 2 (invalid generated records)
    out = tmp_path / "r.json"
    args = ["simulate", "--records", "200", "--runs", "2", "--seed", "1", "--workers", "1", "--out", str(out)]
    assert main(args + extra) == 1
    assert not out.exists()


# ---------------------------------------------------------------- compare


def test_compare_identical_reports(data_path, tmp_path, capsys):
    out_a = str(tmp_path / "a.json")
    out_b = str(tmp_path / "b.json")
    main(run_args(data_path, out_a))
    main(run_args(data_path, out_b))
    code = main(["compare", out_a, out_b])
    assert code == 0
    table = json.loads(capsys.readouterr().out)
    assert table["n_runs"] == 2
    assert table["metrics"]["coverage"]["p"] == 1.0


def test_compare_unpaired_reports_exits_2(data_path, tmp_path, capsys):
    out_a = str(tmp_path / "a.json")
    out_c = str(tmp_path / "c.json")
    main(run_args(data_path, out_a))
    args = run_args(data_path, out_c)
    args[args.index("--seed") + 1] = "9"
    main(args)
    assert main(["compare", out_a, out_c]) == 2


def _renamed_metric(text: str) -> str:
    doc = json.loads(text)
    metrics = doc["per_run"][0]["metrics"]
    metrics["cover"] = metrics.pop("coverage")
    return json.dumps(doc)


def _string_metric(text: str) -> str:
    doc = json.loads(text)
    doc["per_run"][0]["metrics"]["coverage"] = "x"
    return json.dumps(doc)


def _seed_holding(value):
    def edit(text: str) -> str:
        doc = json.loads(text)
        doc["per_run"][0]["seed"][1] = value
        return json.dumps(doc)

    return edit


def _run_entry_holding(key: str, value):
    def edit(text: str) -> str:
        doc = json.loads(text)
        doc["per_run"][0][key] = value
        return json.dumps(doc)

    return edit


@pytest.mark.parametrize(
    "make_text",
    [
        lambda report: '{"a": 1}',
        lambda report: "nope",
        lambda report: "[1,2]",
        _renamed_metric,
        _string_metric,
        _seed_holding(1.5),
        _seed_holding(True),
        lambda report: "[" * 100_000 + "]" * 100_000,
        _run_entry_holding("run", "1"),
        _run_entry_holding("run", 2.7),
        _run_entry_holding("run", True),
        _run_entry_holding("warnings", "abc"),
        _run_entry_holding("warnings", [1]),
        _run_entry_holding("quantiles", "abc"),
        lambda report: json.dumps({**json.loads(report), "aggregate": []}),
        lambda report: json.dumps({**json.loads(report), "regime": 3}),
    ],
    ids=[
        "no-per-run", "not-json", "list", "renamed-metric", "string-metric", "float-seed", "bool-seed", "nested-too-deeply",
        "string-run", "float-run", "bool-run", "string-warnings", "number-warning", "string-quantiles", "list-aggregate",
        "number-regime",
    ],
)
def test_compare_on_a_non_report_exits_2(data_path, tmp_path, capsys, make_text):
    good = tmp_path / "good.json"
    assert main(run_args(data_path, str(good))) == 0
    bad = tmp_path / "bad.json"
    bad.write_text(make_text(good.read_text(encoding="utf-8")), encoding="utf-8")
    capsys.readouterr()
    assert main(["compare", str(good), str(bad)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert str(bad) in err and "Traceback" not in err


# ---------------------------------------------------------------- calibrate-sigma


def test_calibrate_sigma_writes_maps(data_path, tmp_path):
    out = tmp_path / "maps.json"
    code = main(["calibrate-sigma", "--data", data_path, "--out", str(out)])
    assert code == 0
    calibrator = load_calibrator(out)
    assert calibrator.scope == "global_relative"
    assert calibrator.global_map is not None


# ---------------------------------------------------------------- recovery


def test_recovery_writes_csv(tmp_path):
    path = tmp_path / "noisy.jsonl"
    save_dataset(make_dataset(200, noise=40.0, seed=41), path)
    out = tmp_path / "rec.csv"
    code = main(
        [
            "recovery",
            "--data",
            str(path),
            "--seed",
            "2",
            "--alpha-corner",
            "0.025,0.1",
            "--thresholds",
            "0.3:0.7:0.2",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    lines = out.read_text(encoding="utf-8").strip().split("\n")
    assert lines[0] == "scaling,alpha_corner,iou_threshold,recovery_rate,n_below"
    assert len(lines) == 1 + 2 * 2 * 3
