import hashlib
import json
import math

import pytest

from confdet.core import MiscoverageConfig
from confdet.errors import EmptyFile, OutOfRange, ParseError, ValidationError
from confdet.io import (
    CSV_COLUMNS,
    emit_report,
    load_dataset,
    load_report,
    record_to_dict,
    save_dataset,
    save_oracle_info,
)
from confdet.oracle import OracleSpec, generate
from confdet.pipeline import RunConfig, run_experiment

from conftest import make_dataset


def good_line(image_id="img-0"):
    return json.dumps(
        {
            "image_id": image_id,
            "pred_box": [0.0, 0.0, 10.0, 10.0],
            "gt_box": [1.0, 1.0, 9.0, 9.0],
            "gt_class": 0,
            "class_probs": [0.75, 0.25],
            "sigma": [1.0, 1.0, 1.0, 1.0],
        }
    )


def small_report(tmp_dataset=None, n_runs=3, n=120):
    ds = tmp_dataset if tmp_dataset is not None else make_dataset(n, n_classes=2, seed=31)
    config = RunConfig(
        miscoverage=MiscoverageConfig(alpha_corner=0.05), n_runs=n_runs, master_seed=17
    )
    return run_experiment(ds, config)


# ---------------------------------------------------------------- datasets


def test_dataset_round_trip_is_bit_exact(tmp_path):
    ds = make_dataset(60, n_classes=3, seed=30)
    path = tmp_path / "data.jsonl"
    save_dataset(ds, path)
    loaded, report = load_dataset(path)
    assert report.n_loaded == 60
    assert report.rejected_lines == ()
    assert loaded.n_classes == 3
    assert loaded.records == ds.records


def test_generated_dataset_loads_clean(tmp_path):
    spec = OracleSpec(
        n_records=300,
        n_classes=3,
        corner_noise=((2.0, 20.0),) * 3,
        classifier_accuracy=0.8,
        prob_temperature=2.0,
        seed=32,
    )
    dataset, _ = generate(spec)
    path = tmp_path / "synthetic.jsonl"
    save_dataset(dataset, path)
    loaded, report = load_dataset(path)
    assert report.rejected_lines == ()
    assert loaded.records == dataset.records


def test_load_skips_bad_lines_and_reports_them(tmp_path):
    lines = [
        good_line("ok-1"),
        "{not json",
        json.dumps({"image_id": "x"}),
        good_line("bad-box").replace("[0.0, 0.0, 10.0, 10.0]", "[0.0, 0.0, 10.0]"),
        good_line("bad-probs").replace("[0.75, 0.25]", "[]"),
        good_line("bad-sigma").replace("[1.0, 1.0, 1.0, 1.0]", "[0.0, 1.0, 1.0, 1.0]"),
        good_line("bad-k").replace("[0.75, 0.25]", "[0.5, 0.25, 0.25]"),
        "",
        good_line("ok-2"),
    ]
    path = tmp_path / "mixed.jsonl"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    dataset, report = load_dataset(path)
    assert report.n_loaded == 2
    assert report.rejected_lines == (2, 3, 4, 5, 6, 7)
    assert [r.image_id for r in dataset.records] == ["ok-1", "ok-2"]
    joined = "\n".join(report.messages)
    assert "invalid JSON" in joined
    assert "missing fields" in joined
    assert "pred_box must be a list of 4 numbers" in joined
    assert "class_probs must be a non-empty list" in joined
    assert "sigma[0] not > 0" in joined
    assert "seen earlier in the file" in joined


def test_strict_mode_aborts_on_first_bad_line(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text(good_line() + "\n{oops\n", encoding="utf-8")
    with pytest.raises(ParseError) as excinfo:
        load_dataset(path, strict=True)
    assert excinfo.value.line == 2

    path.write_text(good_line() + "\n" + json.dumps({"image_id": "x"}) + "\n", encoding="utf-8")
    with pytest.raises(ValidationError) as excinfo:
        load_dataset(path, strict=True)
    assert excinfo.value.line == 2


@pytest.mark.parametrize("raw", ["1.7", "true", '"1"'])
def test_non_integer_gt_class_is_rejected_not_coerced(tmp_path, raw):
    bad = good_line("bad-class").replace('"gt_class": 0', f'"gt_class": {raw}')
    path = tmp_path / "classes.jsonl"
    path.write_text(good_line() + "\n" + bad + "\n", encoding="utf-8")
    dataset, report = load_dataset(path)
    assert report.rejected_lines == (2,)
    assert "is not an integer" in report.messages[0]
    assert [r.image_id for r in dataset.records] == ["img-0"]
    with pytest.raises(ValidationError) as excinfo:
        load_dataset(path, strict=True)
    assert excinfo.value.line == 2


@pytest.mark.parametrize(
    "field, value, message",
    [
        ("pred_box", ["0", "0", "10", "10"], "pred_box must hold JSON numbers only"),
        ("pred_box", [True, 0.0, 10.0, 10.0], "pred_box must hold JSON numbers only"),
        ("gt_box", [1.0, 1.0, 9.0, None], "gt_box must hold JSON numbers only"),
        ("class_probs", ["0.75", 0.25], "class_probs must hold JSON numbers only"),
        ("sigma", ["1", 1, 1, 1], "sigma must hold JSON numbers only"),
        ("image_id", None, "image_id must be a string"),
        ("image_id", 7, "image_id must be a string"),
        ("gt_box", [10**400, 1.0, 9.0, 9.0], "malformed field value"),
    ],
)
def test_field_types_are_rejected_not_coerced(tmp_path, field, value, message):
    doc = json.loads(good_line("bad-type"))
    doc[field] = value
    path = tmp_path / "types.jsonl"
    path.write_text(good_line() + "\n" + json.dumps(doc) + "\n", encoding="utf-8")
    dataset, report = load_dataset(path)
    assert report.rejected_lines == (2,)
    assert message in report.messages[0]
    assert [r.image_id for r in dataset.records] == ["img-0"]
    with pytest.raises(ValidationError) as excinfo:
        load_dataset(path, strict=True)
    assert excinfo.value.line == 2


def test_integer_coordinates_load_as_floats(tmp_path):
    doc = json.loads(good_line())
    doc["pred_box"] = [0, 0, 10, 10]
    doc["sigma"] = [1, 1, 1, 1]
    path = tmp_path / "ints.jsonl"
    path.write_text(json.dumps(doc) + "\n", encoding="utf-8")
    dataset, report = load_dataset(path, strict=True)
    assert report.n_loaded == 1
    assert dataset.pred.tolist() == [[0.0, 0.0, 10.0, 10.0]]
    assert dataset.sigma.tolist() == [[1.0, 1.0, 1.0, 1.0]]


def test_save_dataset_bytes_match_recorded_digest(tmp_path):
    # recorded when datasets were still stored as records: the columnar
    # form must write the same bytes (valid for numpy 2.4.6's generator)
    spec = OracleSpec(
        n_records=40,
        n_classes=3,
        corner_noise=((2.0, 20.0), 5.0, (1.0, 3.0)),
        classifier_accuracy=0.8,
        prob_temperature=2.0,
        seed=36,
    )
    path = tmp_path / "synthetic.jsonl"
    save_dataset(generate(spec)[0], path)
    digest = hashlib.sha256(path.read_bytes()).hexdigest()
    assert digest == "fba7315589f48c23f4c403ec63c90f18b8b022be9d4482adfd8b46b8bb0c710e"


def test_empty_or_unusable_file_raises(tmp_path):
    path = tmp_path / "empty.jsonl"
    path.write_text("", encoding="utf-8")
    with pytest.raises(EmptyFile):
        load_dataset(path)
    path.write_text("{bad\n", encoding="utf-8")
    with pytest.raises(EmptyFile):
        load_dataset(path)


def test_record_to_dict_keeps_full_precision():
    ds = make_dataset(1, seed=33)
    doc = record_to_dict(ds.records[0])
    assert doc["pred_box"] == list(ds.records[0].pred_box.as_array())
    assert tuple(doc["sigma"]) == ds.records[0].sigma


def test_save_oracle_info(tmp_path):
    spec = OracleSpec(n_records=5, n_classes=1, corner_noise=((2.0, 8.0),), seed=34)
    _, info = generate(spec)
    path = tmp_path / "oracle.jsonl"
    save_oracle_info(info, path)
    lines = path.read_text(encoding="utf-8").splitlines()
    assert len(lines) == 5
    first = json.loads(lines[0])
    assert first["true_scale"] == pytest.approx(info.true_scales[0])
    assert first["base_scale"] == pytest.approx(info.base_scales[0])


# ---------------------------------------------------------------- reports


def test_emit_json_is_deterministic(tmp_path):
    report = small_report()
    text_a = emit_report(report)
    text_b = emit_report(report)
    assert text_a == text_b
    path = tmp_path / "report.json"
    emit_report(report, path=path)
    assert path.read_text(encoding="utf-8") == text_a
    assert text_a.endswith("\n")


def test_emit_load_emit_round_trip(tmp_path):
    report = small_report()
    path = tmp_path / "report.json"
    text = emit_report(report, path=path)
    loaded = load_report(path)
    assert emit_report(loaded) == text
    assert loaded.regime == report.regime
    assert len(loaded.per_run) == len(report.per_run)
    assert loaded.per_run[0].seed == (17, 0)


def test_emitted_floats_use_six_significant_digits():
    report = small_report()
    doc = json.loads(emit_report(report))
    coverage = doc["per_run"][0]["metrics"]["coverage"]
    assert coverage == float(f"{coverage:.6g}")
    assert doc["per_run"][0]["metrics"]["mean_set_size"] is None


def test_vacuous_quantiles_emit_infinity_token(tmp_path):
    # 5 calibration records cannot support alpha 0.025: quantiles are
    # infinite and the JSON carries them as the Infinity token
    ds = make_dataset(6, seed=35)
    config = RunConfig(
        miscoverage=MiscoverageConfig(alpha_corner=0.025), n_runs=1, master_seed=3
    )
    report = run_experiment(ds, config)
    assert report.per_run[0].quantile_summary["n_vacuous"] == 4
    text = emit_report(report)
    assert "Infinity" in text
    path = tmp_path / "inf.json"
    emit_report(report, path=path)
    loaded = load_report(path)
    assert loaded.per_run[0].quantile_summary["max"] == math.inf


def test_csv_layout():
    report = small_report(n_runs=3)
    text = emit_report(report, format="csv")
    lines = text.strip().split("\n")
    assert lines[0] == ",".join(CSV_COLUMNS)
    assert len(lines) == 1 + 3 + 1
    first = lines[1].split(",")
    assert first[0] == "0"
    assert first[1] == "17-0"
    assert first[5] == ""  # mean_set_size stays empty for box-only regimes
    assert lines[-1].startswith("aggregate,")


def test_emit_rejects_unknown_format():
    report = small_report(n_runs=1, n=40)
    with pytest.raises(OutOfRange):
        emit_report(report, format="yaml")
