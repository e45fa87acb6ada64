"""Byte-level guard on the reports of every regime.

Each case runs a small seeded experiment and hashes two texts: the
``per_run`` and ``aggregate`` sections of the JSON report, and the whole
CSV report.  The recorded digests come from the pipeline as it was
before its regimes became a table, so a refactor that changes any
reported byte fails here.  ``config`` is left out of the JSON digest: it
echoes the options, not the results.

The digests hold for numpy 2.4.6 and scipy 1.17.1.  Another version may
round the last bit of a float differently, and would need new digests.
"""

import hashlib
import json
from functools import lru_cache

import pytest

from confdet.cli import main
from confdet.core import MiscoverageConfig
from confdet.io import emit_report, save_dataset
from confdet.oracle import OracleSpec, generate
from confdet.pipeline import REGIMES, RunConfig, run_experiment

_BASE = dict(
    n_records=1500,
    n_classes=4,
    corner_noise=((2.0, 12.0), 4.0, (5.0, 30.0), 8.0),
    sigma_bias=("power", 0.8),
    classifier_accuracy=0.85,
)

VARIANTS = {
    "unscaled": dict(scaling="unscaled"),
    "scaled-raw": dict(scaling="scaled"),
    "scaled-recal": dict(
        scaling="scaled",
        calibration_scope="per_coordinate_per_class_relative",
        calibrator_fit_fraction=0.5,
    ),
}

CASES = [(regime, variant, False) for regime in REGIMES for variant in VARIANTS]
CASES.append(("two_step", "scaled-raw", True))

GOLDEN = {
    "class_agnostic-unscaled": (
        "3bd9c1b22e552f58366cd5284c70544c94eee678cda543309ed0aeb48fdaf6b4",
        "0ca5afa8ed892e6bcd45b42f21add4892d9b958b7bf70ac05ccfad2fef787753",
    ),
    "class_agnostic-scaled-raw": (
        "98473285310c81aa91bafcabcfdf106e4ca1e71aee70127ff5f9208f857afdfa",
        "9803192f2da02ae1561e3511bdaf587f62258c1820b4fcb0db4a10aa27e79b0f",
    ),
    "class_agnostic-scaled-recal": (
        "1308480b53738e680288a5af671596010f6748dc233b8dfb895780f21eeb4b78",
        "43370321a7e0f5bf0c8b72a69f0a9ee2f503d0248aac70a6dfecd868936440a0",
    ),
    "class_wise-unscaled": (
        "5311ad2739879fd5f297bc47a77bb3586decf9d8d245f04f6d9e3fddb384a118",
        "7599448e1050bccacaee785f26bc47eb013197f5fd735461949d2f3017a267fa",
    ),
    "class_wise-scaled-raw": (
        "f451f2e06e8d2249e219871b823bb61cc1073878bda6e849be701fa2e3e99a36",
        "239fa180684c8f07bb109521cd6a63a76916616b919fac1ee3c01347c183e816",
    ),
    "class_wise-scaled-recal": (
        "e5443bfe2a358edcf0e704fb2cf8e2b476a380ebe99caa0baf3e40c86ba8cb71",
        "678a1f08e22eb968854dc5888fd0d3b7c8c33dce4c5b66185960e82c95d2f724",
    ),
    "two_step-unscaled": (
        "975d09a7f54df68efb1226a12f59146621d337c20d2bd45dc17b5db2d1359d7a",
        "7c8ab919d4382e053600fe8a7a3498c93de3e180420c3199aea943007fbd52d8",
    ),
    "two_step-scaled-raw": (
        "5a802788b54e6631d36b43db06808a6ae8b1e17ff0fe09dee702c3a9def1ba0e",
        "94a726185eca721a1ba15c8403ea40e547de872ece69f94a9061c52c1e6a4ff5",
    ),
    "two_step-scaled-recal": (
        "b0abd14c48005c252e45d7aa0d5cb62dd7aa21072c88440ec9f2e7d68300dd49",
        "831d80a78818bc28d7d9af65bed472f75127c9c53a856939332ccb527756f48c",
    ),
    "naive_worst_case-unscaled": (
        "e0615abe918abc0e9a60439be016945941a21f1302454835068b4993bf19df20",
        "1566e3b1e9530cabb7ef2449d50fc0d65060bf5271d33d868fa84517d3dfbc43",
    ),
    "naive_worst_case-scaled-raw": (
        "5a41f940fbfdb6db8fbd99230333e47b78f0b8c9a3f00128050a9608bcd9aaa5",
        "f9a97ad30421e4c708aa2b99290a9d5f11cf19bdf77da390dd865cda4e3c3c6e",
    ),
    "naive_worst_case-scaled-recal": (
        "7c95b2f904e49e88c62de6e617315cf5b068fdcd255c23072b282d323293dd5c",
        "ecfef52b5ebf485ed9a1c59c8d6fa2e475751fa8664e2963ac287d740d8aa1ce",
    ),
    "two_step-scaled-raw-transfer": (
        "52c5f4604ec10cda3263faaf38ef9203957444571ed6567daea947e9230f92c5",
        "81fec706c7e771cee28a0b9a97e732f2d021d017fce25bfbfbe65dcc205b650a",
    ),
}


@lru_cache(maxsize=None)
def _data(seed: int, shift=None):
    return generate(OracleSpec(seed=seed, shift=shift, **_BASE))[0]


def _case_id(case) -> str:
    regime, variant, transfer = case
    return f"{regime}-{variant}" + ("-transfer" if transfer else "")


def report_digests(case) -> tuple[str, str]:
    regime, variant, transfer = case
    config = RunConfig(
        miscoverage=MiscoverageConfig(alpha_corner=0.025, alpha_class=0.05),
        n_runs=5,
        regime=regime,
        master_seed=11,
        min_per_class=20,
        **VARIANTS[variant],
    )
    report = run_experiment(
        _data(3), config, eval_dataset=_data(4, shift=1.5) if transfer else None
    )
    doc = json.loads(emit_report(report, "json"))
    results = json.dumps({k: doc[k] for k in ("per_run", "aggregate")}, sort_keys=True)
    csv_text = emit_report(report, "csv")
    return (
        hashlib.sha256(results.encode()).hexdigest(),
        hashlib.sha256(csv_text.encode()).hexdigest(),
    )


@pytest.mark.parametrize("case", CASES, ids=_case_id)
def test_report_bytes_match_golden(case):
    assert report_digests(case) == GOLDEN[_case_id(case)]


# Whole-text digests: the JSON report including ``config``, and the
# bytes the command line writes, so that the option echo and the CLI
# writers are guarded as well as the results.  They were recorded before
# the metric and option lists were derived from `MetricRow` and `RunConfig`.
WHOLE_JSON = {
    "class_agnostic-unscaled": "df91e687c2df2431001fe293c5f36f23a7de6014494c6e811bc360407d896e48",
    "class_agnostic-scaled-raw": "59acde9a1c526c4c6882f197e0bb5feb12609b9fa57cd66a036ba450954fae1a",
    "class_agnostic-scaled-recal": "05bd12feab38185ffce23034181a16f8db72816919adf00a276651a79a71366b",
    "class_wise-unscaled": "fffbe7bd4b6f3e1f97f968f18b52ddff7f084f3bc0c60117236b03ed77372eb5",
    "class_wise-scaled-raw": "09f5c350f14353acb3186d756639277f19a9d469e2ee07502eeac07988265b13",
    "class_wise-scaled-recal": "248dd1dad69f1631bc63e490bd4b0492a207e6a9bc7ea14266c93450b3680241",
    "two_step-unscaled": "88ce75b9114f8f17923ea74b7be8945c8f87789c6bae10c426110e8d179ad0de",
    "two_step-scaled-raw": "b67609a7e244ac796f5900d5ed84e77da4afecdf2869429e9fd14669dbeba39b",
    "two_step-scaled-recal": "7c00b9c2ff85c53cc20a2a64e02d35bcda3c89c8bf5d19ae518e415bb7ce9225",
    "naive_worst_case-unscaled": "00f3f649d86fb0b4e67e3151d26bdc6508da61a9b258e8d3efb97b8952bac59b",
    "naive_worst_case-scaled-raw": "7bef9a042c50803aaf259e8e708cbca9e6d5cdfbf0ec0f084036006a44ac1d4e",
    "naive_worst_case-scaled-recal": "02805226f557996327eddccfca3edd5eb8575379b22a53ea81ec55724d5a94bf",
    "two_step-scaled-raw-transfer": "a2a6c752d2d43fff0b8f08a5ef499b249841f4ba55ce14d0110f4e75aae088ea",
}

CLI_GOLDEN = {
    "run-csv-stdout": "0ca5afa8ed892e6bcd45b42f21add4892d9b958b7bf70ac05ccfad2fef787753",
    "run-two_step-unscaled-json": "1a32c55b1ab46c4b3990c92bec0e9df3d99266cbc91dbd17287b2b14e31f0998",
    "run-two_step-scaled-json": "a58ef7705f13a5f8270e407dbc23ae5cc2965265b9b7531c4dc9cf8199b57861",
    "compare-json": "83205ca9922b4f07e19b271efd000d81f086c17f2d36f54bf5d3d108b77cdb39",
    "recovery-csv": "b9bb8d3f85ca237767644b315a8a39c78fd4fe1f07f986e85de89ad44fcd66ea",
}


def whole_json_digest(case) -> str:
    regime, variant, transfer = case
    config = RunConfig(
        miscoverage=MiscoverageConfig(alpha_corner=0.025, alpha_class=0.05),
        n_runs=5,
        regime=regime,
        master_seed=11,
        min_per_class=20,
        **VARIANTS[variant],
    )
    report = run_experiment(
        _data(3), config, eval_dataset=_data(4, shift=1.5) if transfer else None
    )
    return hashlib.sha256(emit_report(report, "json").encode()).hexdigest()


@pytest.mark.parametrize("case", CASES, ids=_case_id)
def test_whole_json_report_bytes_match_golden(case):
    assert whole_json_digest(case) == WHOLE_JSON[_case_id(case)]


def cli_digests(tmp_path, capsys) -> dict:
    data = tmp_path / "data.jsonl"
    save_dataset(_data(3), data)
    run = ["run", "--data", str(data), "--seed", "11", "--runs", "5", "--workers", "1"]
    texts = {}

    assert main([*run, "--format", "csv"]) == 0
    texts["run-csv-stdout"] = capsys.readouterr().out

    reports = []
    for scaling in ("unscaled", "scaled"):
        path = tmp_path / f"{scaling}.json"
        assert main([*run, "--regime", "two_step", "--scaling", scaling, "--out", str(path)]) == 0
        reports.append(str(path))
        texts[f"run-two_step-{scaling}-json"] = path.read_text(encoding="utf-8")
    compared = tmp_path / "compare.json"
    assert main(["compare", *reports, "--out", str(compared)]) == 0
    texts["compare-json"] = compared.read_text(encoding="utf-8")
    assert main(["compare", *reports]) == 0
    assert capsys.readouterr().out == texts["compare-json"]

    rec = ["recovery", "--data", str(data), "--seed", "2", "--alpha-corner", "0.025,0.1"]
    assert main([*rec, "--thresholds", "0.01,0.3,0.5,0.7"]) == 0
    texts["recovery-csv"] = capsys.readouterr().out
    return {k: hashlib.sha256(v.encode()).hexdigest() for k, v in texts.items()}


def test_cli_output_bytes_match_golden(tmp_path, capsys):
    assert cli_digests(tmp_path, capsys) == CLI_GOLDEN
