import gc
import hashlib
import json
import logging
import math
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import reference
from confdet.core import PROB_SUM_TOL, Dataset, MiscoverageConfig
from confdet.errors import EmptyFile, LengthMismatch, MalformedFile, OutOfRange, ParseError, ValidationError
from confdet.io import (
    _WRITE_CHUNK,
    CSV_COLUMNS,
    emit_report,
    load_dataset,
    load_report,
    save_dataset,
    save_oracle_info,
)
from confdet.oracle import OracleInfo, OracleSpec, generate
from confdet.pipeline import RunConfig, RunReport, RunResult, run_experiment

from conftest import make_dataset
from reference import record_to_dict


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


def test_rejected_lines_are_logged(tmp_path, caplog):
    path = tmp_path / "mixed.jsonl"
    path.write_text(good_line() + "\n{oops\n" + good_line() + "\n", encoding="utf-8")
    with caplog.at_level(logging.WARNING, logger="confdet.io"):
        load_dataset(path)
    assert f"{path}: rejected 1 line(s): [2]" in caplog.text


@pytest.mark.parametrize("space", ["\x0c", "\xa0", "\x0b", "\x1f", "\u2003", " \x0c\t"])
def test_a_line_of_whitespace_json_does_not_skip_is_invalid_json(tmp_path, space):
    # such a line was skipped as blank because str.strip() removes it, though json.loads rejects it
    path = tmp_path / "spaces.jsonl"
    path.write_text("\n".join([good_line("ok-1"), space, " \t", good_line("ok-2")]) + "\n", encoding="utf-8")
    dataset, report = load_dataset(path)
    assert report.rejected_lines == (2,)
    assert report.messages[0].startswith("line 2: invalid JSON")
    assert [r.image_id for r in dataset.records] == ["ok-1", "ok-2"]
    with pytest.raises(ParseError) as excinfo:
        load_dataset(path, strict=True)
    assert excinfo.value.line == 2


@pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"])
def test_undecodable_line_is_a_parse_error(tmp_path, newline):
    # a byte that is not UTF-8 once raised UnicodeDecodeError out of the loader
    lines = [good_line(f"ok-{i}").encode() for i in range(5)]
    lines += [good_line("bad").encode().replace(b"bad", b"b\xffd")]
    lines += [good_line("ok-6").encode()]
    path = tmp_path / "latin.jsonl"
    path.write_bytes(newline.encode().join(lines) + newline.encode())
    dataset, report = load_dataset(path)
    assert report.rejected_lines == (6,)
    assert report.messages == ("line 6: invalid UTF-8",)
    assert [r.image_id for r in dataset.records] == ["ok-0", "ok-1", "ok-2", "ok-3", "ok-4", "ok-6"]
    with pytest.raises(ParseError) as excinfo:
        load_dataset(path, strict=True)
    assert excinfo.value.line == 6


@pytest.mark.parametrize("probs", [[1e400, -1e400], [1e308, 1e308]])
def test_probability_sum_that_fsum_cannot_take_is_rejected(tmp_path, probs):
    # math.fsum raises on inf - inf and on an intermediate overflow; the
    # loader once let that escape as a traceback
    doc = json.loads(good_line("bad-sum"))
    doc["class_probs"] = probs
    path = tmp_path / "sums.jsonl"
    path.write_text(good_line() + "\n" + json.dumps(doc) + "\n", encoding="utf-8")
    dataset, report = load_dataset(path)
    assert report.rejected_lines == (2,)
    assert "class_probs sum" in report.messages[0]
    assert [r.image_id for r in dataset.records] == ["img-0"]
    with pytest.raises(ValidationError) as excinfo:
        load_dataset(path, strict=True)
    assert excinfo.value.line == 2


#: A value that json.loads cannot take: it raises RecursionError, not JSONDecodeError.
NESTED_TOO_DEEPLY = "[" * 100_000 + "]" * 100_000


def test_a_line_nested_too_deeply_is_a_parse_error(tmp_path):
    # the RecursionError once escaped the loader, and the CLI exited 3 with a traceback
    path = tmp_path / "deep.jsonl"
    path.write_text("\n".join([good_line(), NESTED_TOO_DEEPLY, good_line("img-2")]) + "\n", encoding="utf-8")
    dataset, report = load_dataset(path)
    assert report.rejected_lines == (2,)
    assert report.messages == ("line 2: invalid JSON (nested too deeply)",)
    assert list(dataset.image_ids) == ["img-0", "img-2"]
    with pytest.raises(ParseError) as excinfo:
        load_dataset(path, strict=True)
    assert excinfo.value.line == 2


def test_load_report_rejects_json_nested_too_deeply(tmp_path):
    path = tmp_path / "deep.json"
    path.write_text(NESTED_TOO_DEEPLY, encoding="utf-8")
    with pytest.raises(MalformedFile, match="deep.json"):
        load_report(path)


def _sum_edges():
    """The floats one ulp inside and one ulp outside each edge of the probability-sum tolerance."""
    edges = []
    for edge, away in ((1.0 + PROB_SUM_TOL, math.inf), (1.0 - PROB_SUM_TOL, -math.inf)):
        inside = edge if abs(edge - 1.0) <= PROB_SUM_TOL else math.nextafter(edge, 1.0)
        outside = math.nextafter(inside, away)
        assert abs(inside - 1.0) <= PROB_SUM_TOL < abs(outside - 1.0)
        edges += [inside, outside]
    return edges


def probs_summing_to(rng, k, total):
    """``k`` random probabilities whose exact sum rounds to ``total``."""
    for _ in range(100):
        probs = list(rng.dirichlet(np.ones(k)) * total)
        big = int(np.argmax(probs))  # nudged by its own ulp, at least a quarter of the sum's
        probs[big] += total - math.fsum(probs)
        for _ in range(16):  # the sum may step over the value between two halfway points: draw again
            s = math.fsum(probs)
            if s == total:
                return probs
            probs[big] = math.nextafter(probs[big], math.inf if s < total else -math.inf)
    raise AssertionError(f"no probabilities sum to {total!r}")


def test_probability_sums_one_ulp_from_the_tolerance_match_reference(tmp_path):
    # the loader decides the sum rule from summed rows where the exact sum
    # cannot lie across the tolerance; these rows lie one ulp from it
    rng = np.random.default_rng(40)
    path = tmp_path / "edges.jsonl"
    for k in (1, 2, 3, 7, 12, 30):
        lines = []
        for total in _sum_edges() * 5 + [1.0, 0.5]:
            doc = json.loads(good_line(f"k{k}"))
            doc["class_probs"] = probs_summing_to(rng, k, total)
            lines.append(json.dumps(doc))
        if k >= 4:  # summed in order, these lose the 1 that fsum keeps: the sum is 2, not 1
            doc["class_probs"] = [1e16, 1.0, -1e16, 1.0] + [0.0] * (k - 4)
            lines.append(json.dumps(doc))
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        for strict in (False, True):
            assert _outcome(load_dataset, path, strict) == _outcome(reference.load_dataset, path, strict)


def _fuzzed_doc(rng, k):
    """A record line for the loader equivalence test: valid, or broken by one or two rules.

    Kinds 16 to 23 are lines that parse or nearly parse, where the loader's
    one-scan path must hand over to its ordered checks without changing the
    outcome.
    """
    x0, y0 = rng.uniform(-5, 500, size=2)
    pred = [x0, y0, x0 + rng.uniform(0, 100), y0 + rng.uniform(0, 100)]
    gt = [v + rng.normal(0, 3) for v in pred]
    probs = list(rng.dirichlet(np.ones(k)))
    doc = {
        "image_id": str(rng.choice(["img", "caf\u00e9", "\u65e5\u672c", 'q"\\'])) + str(rng.integers(99)),
        "pred_box": pred,
        "gt_box": gt,
        "gt_class": int(rng.integers(k)),
        "class_probs": probs,
        "sigma": list(rng.uniform(0.5, 5.0, size=4)),
    }
    for _ in range(int(rng.choice([0, 0, 0, 1, 2]))):
        kind = int(rng.integers(24))
        box = doc[str(rng.choice(["pred_box", "gt_box"]))]
        i = int(rng.integers(4))
        if kind == 0:  # non-finite box
            box[i] = float(rng.choice([math.inf, -math.inf, math.nan]))
        elif kind == 1:  # inverted box
            box[i], box[(i + 2) % 4] = box[(i + 2) % 4] + 1.0, box[i]
        elif kind == 2:  # sigma <= 0 or NaN
            doc["sigma"][i] = float(rng.choice([0.0, -1.0, math.nan, math.inf]))
        elif kind == 3:  # a probability sum at 1 +- 1e-6, or just past it
            d = float(rng.choice([1e-6, -1e-6, 1.000001e-6, -1.000001e-6, 0.999999e-6]))
            doc["class_probs"][0] += d
        elif kind == 4:
            doc["gt_class"] = [1.0, True, "1", None, -1, 10**30, k, [0]][int(rng.integers(8))]
        elif kind == 5:  # integer coordinates
            box[:] = [int(v) if isinstance(v, float) and math.isfinite(v) else v for v in box]
        elif kind == 6:
            box[i] = 10**400
            break
        elif kind == 7:
            doc["class_probs"][int(rng.integers(k))] = float(rng.choice([-0.1, math.nan, math.inf]))
        elif kind == 8:  # another class count
            probs = doc["class_probs"]
            doc["class_probs"] = probs[1:] if len(probs) > 1 and rng.random() < 0.5 else probs + [0.0]
            break
        elif kind == 9:
            del doc[str(rng.choice(["sigma", "gt_class", "image_id"]))]
            break
        elif kind == 10:
            doc["sigma"] = doc["sigma"][:3]
            break
        elif kind == 11:
            box[i] = str(rng.choice(["1", "true"])) if rng.random() < 0.5 else None
            break
        elif kind == 12:
            doc["image_id"] = 7
        elif kind == 13:
            doc["class_probs"] = []
            break
        elif kind == 14:
            return "[1, 2]"
        elif kind == 15:
            return "{broken"
        elif kind == 16:
            return "\ufeff" + json.dumps(doc)
        elif kind == 17:  # trailing data after the object
            return json.dumps(doc) + str(rng.choice([" x", "{}", " 0", ",", "]"]))
        elif kind == 18:  # whitespace to str.strip but not to JSON
            pad = str(rng.choice(["\u00a0", "\x0b"]))
            return [pad + json.dumps(doc), json.dumps(doc) + pad, pad + json.dumps(doc) + pad][int(rng.integers(3))]
        elif kind == 19:
            box[i] = bool(rng.integers(2))
        elif kind == 20:
            j = int(rng.integers(k))
            doc["class_probs"][j] = [doc["class_probs"][j]]
            break
        elif kind == 21:  # a top-level number or string
            return str(rng.choice(["3", "-1.5e3", '"a record"']))
        elif kind == 22:  # nested deeply, but within what json.loads parses
            value = 0
            for _ in range(int(rng.integers(50, 400))):
                value = [value]
            doc[str(rng.choice(["extra", "gt_class", "class_probs", "image_id"]))] = value
            break
        else:  # a probability sum one ulp either side of 1 +- PROB_SUM_TOL
            doc["class_probs"] = probs_summing_to(rng, k, float(rng.choice(_sum_edges())))
    return json.dumps(doc)


def _fuzzed_file(rng, path):
    k = int(rng.integers(1, 5))
    lines = [_fuzzed_doc(rng, k) for _ in range(int(rng.integers(1, 30)))]
    if rng.random() < 0.2:
        # a first line with another class count that is invalid anyway
        doc = json.loads(good_line())
        doc["class_probs"] = [0.5] * (k + 1)
        lines.insert(0, json.dumps(doc))
    for _ in range(int(rng.integers(3))):
        lines.insert(int(rng.integers(len(lines) + 1)), str(rng.choice(["", "   ", "\t"])))
    newline = str(rng.choice(["\n", "\r\n", "\r"]))
    path.write_bytes((newline.join(lines) + newline).encode("utf-8"))


def _outcome(load, path, strict):
    try:
        dataset, report = load(path, strict=strict)
    except (EmptyFile, ParseError, ValidationError) as exc:
        return type(exc), getattr(exc, "line", None), str(exc)
    columns = [(getattr(dataset, f.name).dtype, getattr(dataset, f.name).tolist()) for f in fields(dataset)]
    return columns, report


def test_loader_matches_per_line_reference(tmp_path):
    rng = np.random.default_rng(38)
    path = tmp_path / "fuzz.jsonl"
    for _ in range(300):
        _fuzzed_file(rng, path)
        for strict in (False, True):
            expected = _outcome(reference.load_dataset, path, strict)
            assert _outcome(load_dataset, path, strict) == expected, path.read_text(encoding="utf-8")


def test_loader_matches_reference_when_class_counts_vary(tmp_path):
    # counts 1, 2, 3 fill as many values as three rows of 2, so rows must be
    # located by their own offsets, not by reshaping
    def line(probs, sigma0=1.0):
        doc = json.loads(good_line(f"k{len(probs)}"))
        doc.update(class_probs=probs, sigma=[sigma0, 1.0, 1.0, 1.0])
        return json.dumps(doc)

    path = tmp_path / "counts.jsonl"
    path.write_text("\n".join([line([1.0], sigma0=0.0), line([0.25, 0.75]), line([0.2, 0.3, 0.5])]), encoding="utf-8")
    for strict in (False, True):
        assert _outcome(load_dataset, path, strict) == _outcome(reference.load_dataset, path, strict)


def _class_count_doc(rng, k, broken):
    """A line with ``k`` classes that passes the per-line checks; ``broken`` breaks one data rule."""
    doc = json.loads(good_line(f"k{k}"))
    doc.update(class_probs=list(rng.dirichlet(np.ones(k))), gt_class=int(rng.integers(k)))
    rule = int(rng.integers(4)) if broken else None
    if rule == 0:
        doc["sigma"][int(rng.integers(4))] = 0.0
    elif rule == 1:
        doc["gt_class"] = k
    elif rule == 2:
        doc["class_probs"][0] += 0.1
    elif rule == 3:
        doc["pred_box"] = [10.0, 0.0, 0.0, 10.0]
    return json.dumps(doc)


def test_loader_matches_reference_after_an_invalid_prefix(tmp_path):
    # lines of other class counts before the first valid line are judged on
    # their own; after it, the same counts break only the class-count rule
    rng = np.random.default_rng(39)
    path = tmp_path / "prefix.jsonl"
    for _ in range(200):
        k = int(rng.integers(1, 5))
        others = [int(c) for c in rng.choice([c for c in range(1, 6) if c != k], size=int(rng.integers(1, 4)))]
        lines = [_class_count_doc(rng, c, broken=True) for c in others]
        lines += [_class_count_doc(rng, k, broken=False)]
        lines += [_fuzzed_doc(rng, k) for _ in range(int(rng.integers(0, 10)))]
        for _ in range(int(rng.integers(1, 4))):
            c = others[int(rng.integers(len(others)))] if rng.random() < 0.5 else int(rng.integers(1, 6))
            after_first_valid = int(rng.integers(len(others) + 1, len(lines) + 1))
            lines.insert(after_first_valid, _class_count_doc(rng, c, broken=rng.random() < 0.3))
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        for strict in (False, True):
            expected = _outcome(reference.load_dataset, path, strict)
            assert _outcome(load_dataset, path, strict) == expected, path.read_text(encoding="utf-8")


def test_lenient_load_leaves_no_reference_cycle(tmp_path):
    # a kept exception's traceback refers back to the loader's frame, and
    # that cycle held the loader's buffers until the next collection
    path = tmp_path / "mixed.jsonl"
    path.write_text("\n".join([good_line(), "{broken", "[1, 2]", good_line()]) + "\n", encoding="utf-8")
    load_dataset(path)
    gc.collect()
    gc.disable()
    try:
        _, report = load_dataset(path)
        assert report.rejected_lines == (2, 3)
        assert gc.collect() == 0
    finally:
        gc.enable()


def _nonfinite_dataset(rng, n):
    def block(m):
        values = rng.uniform(-10, 500, size=(n, m))
        odd = rng.random((n, m)) < 0.01
        values[odd] = rng.choice([math.nan, math.inf, -math.inf], size=odd.sum())
        return values

    names = ["img", "caf\u00e9", "\u65e5\u672c", 'q"\\']
    ids = np.array([f"{names[i % 4]}-{i}" for i in range(n)], dtype=object)
    return Dataset(ids, block(4), block(4), block(4), rng.integers(0, 3, size=n), block(3))


def _nonfinite_input(n):
    dataset = _nonfinite_dataset(np.random.default_rng(n), n)
    return dataset, OracleInfo(true_scales=dataset.sigma[:, 0], base_scales=dataset.sigma[:, 1])


def _repeated_sigma_input():
    """Sigma rows that each repeat one value, as the generator writes them; some
    rows mix -0.0 with 0.0 and one is NaN, which compare equal or unequal to
    themselves where their text does not.  The oracle's two scales are equal
    bit for bit, as they are without a shift."""
    n = _WRITE_CHUNK + 3
    rng = np.random.default_rng(7)
    dataset = _nonfinite_dataset(rng, n)
    scale = rng.uniform(0.5, 20.0, size=n)
    scale[:4] = [0.1, 1e-300, 12345.678901234567, 2.0 / 3.0]
    sigma = np.repeat(scale[:, None], 4, axis=1)
    sigma[4:8] = [[0.0, -0.0, 0.0, -0.0], [-0.0, -0.0, -0.0, -0.0], [-0.0, 0.0, 0.0, 0.0], [math.nan] * 4]
    sigma[_WRITE_CHUNK - 1 : _WRITE_CHUNK + 1] = [[-0.0, 0.0, -0.0, 0.0], [0.0] * 4]  # across a chunk boundary
    dataset = Dataset(dataset.image_ids, dataset.pred, dataset.gt, sigma, dataset.gt_class, dataset.probs)
    return dataset, OracleInfo(true_scales=sigma[:, 0].copy(), base_scales=sigma[:, 0].copy())


@pytest.mark.parametrize(
    "make_input",
    [pytest.param(lambda n=n: _nonfinite_input(n), id=str(n)) for n in (1, _WRITE_CHUNK, _WRITE_CHUNK + 1)]
    + [pytest.param(_repeated_sigma_input, id="repeated-sigma")],
)
def test_writers_match_per_record_reference(tmp_path, make_input):
    dataset, info = make_input()
    for write, oracle, value in ((save_dataset, reference.save_dataset, dataset), (save_oracle_info, reference.save_oracle_info, info)):
        write(value, tmp_path / "new.jsonl")
        oracle(value, tmp_path / "old.jsonl")
        assert (tmp_path / "new.jsonl").read_bytes() == (tmp_path / "old.jsonl").read_bytes()


#: Floats whose text is easy to get wrong: signed zeros, subnormals, the
#: neighbours of 1e16 and 1e-5 (where repr switches to and from exponent
#: form) and the values JSON writes as NaN and Infinity.
_EDGE_FLOATS = [0.0, -0.0, 5e-324, -2.5e-310, 2.2250738585072014e-308, math.nan, math.inf, -math.inf] + [
    v for edge in (1e16, 1e-5, -1e16) for v in (np.nextafter(edge, -math.inf), edge, np.nextafter(edge, math.inf))
]
_floats = st.one_of(st.sampled_from([float(v) for v in _EDGE_FLOATS]), st.floats())


@st.composite
def _writer_inputs(draw):
    """A dataset and oracle side channel of K = 1..5 classes: sigma rows that
    repeat one value or hold four, and oracle scales that are equal or not."""
    n, k = draw(st.integers(0, 6)), draw(st.integers(1, 5))

    def block(m):
        return draw(hnp.arrays(np.float64, (n, m), elements=_floats))

    row = st.one_of(_floats.map(lambda v: [v] * 4), st.lists(_floats, min_size=4, max_size=4))
    sigma = np.array(draw(st.lists(row, min_size=n, max_size=n)), dtype=float).reshape(n, 4)
    text = st.text(st.one_of(st.sampled_from('"\\\x00\n\x1f\x7f\u00e9\u2028\ud800\U0001f600'), st.characters()), max_size=8)
    ids = np.array(draw(st.lists(text, min_size=n, max_size=n)), dtype=object)
    labels = np.array(draw(st.lists(st.integers(-(2**63), 2**63 - 1), min_size=n, max_size=n)), dtype=np.int64)
    dataset = Dataset(ids, block(4), block(4), sigma, labels, block(k))
    base = block(1)[:, 0]
    true = base.copy() if draw(st.booleans()) else block(1)[:, 0]
    return dataset, OracleInfo(true_scales=true, base_scales=base)


@given(_writer_inputs())
def test_property_writers_match_per_record_reference(tmp_path_factory, drawn):
    path = tmp_path_factory.mktemp("writers")
    dataset, info = drawn
    for write, oracle, value in ((save_dataset, reference.save_dataset, dataset), (save_oracle_info, reference.save_oracle_info, info)):
        write(value, path / "new.jsonl")
        oracle(value, path / "old.jsonl")
        assert (path / "new.jsonl").read_bytes() == (path / "old.jsonl").read_bytes()


@pytest.mark.parametrize("column", ["image_ids", "pred", "gt", "sigma", "gt_class", "probs"])
def test_save_dataset_rejects_columns_of_unequal_length(tmp_path, column):
    # a ragged dataset cannot be built, so the writer never sees one
    dataset = make_dataset(2, n_classes=2, seed=41)
    path = tmp_path / "data.jsonl"
    with pytest.raises(LengthMismatch, match="row count"):
        save_dataset(replace(dataset, **{column: getattr(dataset, column)[:1]}), path)
    assert not path.exists()


@pytest.mark.parametrize(
    "true, base",
    [([1.0, 2.0, 3.0], [1.0]), ([1.0], [1.0, 2.0]), ([[1.0, 2.0], [3.0, 4.0]], [[1.0, 2.0], [3.0, 4.0]]), (1.0, 1.0)],
    ids=["short-base", "short-true", "2-d", "0-d"],
)
def test_save_oracle_info_rejects_scales_that_are_not_one_column(tmp_path, true, base):
    path = tmp_path / "oracle.jsonl"
    with pytest.raises(LengthMismatch, match="1-D arrays of one length"):
        save_oracle_info(OracleInfo(true_scales=true, base_scales=base), path)
    assert not path.exists()


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
    # the writer round-trips floats exactly
    assert [json.loads(line) for line in lines] == [
        {"base_scale": b, "index": i, "true_scale": t}
        for i, (b, t) in enumerate(zip(info.base_scales.tolist(), info.true_scales.tolist()))
    ]
    assert len(lines) == 5


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


def test_report_keys_are_the_fields_of_the_report_types():
    doc = json.loads(emit_report(small_report()))
    assert set(doc) == {f.name for f in fields(RunReport)}
    assert "significance" not in doc
    assert [f.name for f in fields(RunResult)] == ["run", "seed", "metrics", "quantiles", "warnings"]
    for entry in doc["per_run"]:
        assert set(entry) == {f.name for f in fields(RunResult)}


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
    assert report.per_run[0].quantiles["n_vacuous"] == 4
    text = emit_report(report)
    assert "Infinity" in text
    path = tmp_path / "inf.json"
    emit_report(report, path=path)
    loaded = load_report(path)
    assert loaded.per_run[0].quantiles["max"] == math.inf


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
