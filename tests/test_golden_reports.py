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

import dataclasses
import hashlib
import json
from functools import lru_cache

import pytest

from confdet.cli import main
from confdet.core import MiscoverageConfig, RAPSConfig
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

_SET_LEVELS = MiscoverageConfig(alpha_corner=0.025, alpha_class=0.15)

VARIANTS = {
    "unscaled": dict(scaling="unscaled"),
    "scaled-raw": dict(scaling="scaled"),
    "scaled-recal": dict(
        scaling="scaled",
        calibration_scope="per_coordinate_per_class_relative",
        calibrator_fit_fraction=0.5,
    ),
    # the maps fitted on the same rows that calibrate the quantiles, as
    # ``confdet run --scope`` does without a fit fraction
    "scaled-recal-full": dict(scaling="scaled", calibration_scope="per_coordinate_per_class_relative"),
    "scaled-global": dict(scaling="scaled", calibration_scope="global_relative"),
    # ragged per-class calibration counts in the by-class regimes
    "unstratified": dict(stratified=False),
    # enough runs to cross the edges of the run blocks and chunks
    "23-runs": dict(scaling="scaled", n_runs=23),
    # on the lone-class data (see ``_data``) every run warns three times
    "lone-class": dict(scaling="scaled", calibration_scope="per_coordinate_per_class_relative"),
    # RAPS settings the default leaves idle: with 4 classes and
    # threshold_b=5 the rank penalty never fires, and at alpha_class=0.05
    # nearly every set holds all classes.  These lower both.
    "raps-no-penalty": dict(miscoverage=_SET_LEVELS, raps=RAPSConfig(penalty_a=0.0, threshold_b=1)),
    "raps-penalty": dict(miscoverage=_SET_LEVELS, raps=RAPSConfig(penalty_a=0.05, threshold_b=1)),
    "raps-calibration-penalty-only": dict(
        miscoverage=_SET_LEVELS,
        raps=RAPSConfig(penalty_a=0.05, threshold_b=1, penalty_at_inference=False),
    ),
}

SCALING_VARIANTS = ("unscaled", "scaled-raw", "scaled-recal")
CASES = [(regime, variant, False) for regime in REGIMES for variant in SCALING_VARIANTS]
CASES += [
    ("two_step", "scaled-raw", True),
    ("two_step", "raps-no-penalty", False),
    ("two_step", "raps-penalty", False),
    ("two_step", "raps-calibration-penalty-only", False),
    ("two_step", "scaled-recal", True),
    ("class_wise", "unscaled", True),
    ("class_agnostic", "scaled-recal-full", False),
    ("class_wise", "scaled-recal-full", False),
    ("two_step", "scaled-recal-full", True),
    ("class_agnostic", "scaled-global", False),
    ("class_wise", "unstratified", False),
    ("two_step", "unstratified", False),
    ("naive_worst_case", "scaled-raw", True),
    ("two_step", "23-runs", False),
    ("two_step", "lone-class", False),
]

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
    ),    # recorded before the split-invariant scores were hoisted out of the
    # run loop, to guard the branches that change touched
    "two_step-raps-no-penalty": (
        "b96af9a2b569d8b8b309dc92d9b75028ec2731b30bcb197622b615ccb507d8fb",
        "ea4a0b5f98ae0853116a476910e0825ff14e8dc2dda1db5da686f9419ef6af1c",
    ),
    "two_step-raps-penalty": (
        "08442df280ec756312d111a63f8cb120879b2dab2ffaeb105d33fdf9da4bd326",
        "19a78f6abb0943f7adf788955e1179601377b7ee85ec267972a580a8382289ed",
    ),
    "two_step-raps-calibration-penalty-only": (
        "d2aa929df11e0ada4bb44460f2c69277e626be4771a838e0e912125f829cc580",
        "c3e88c2e1183d2e33ecb7bfe7e64bf7ba68f4d6ced0280ee212623b623d6a473",
    ),
    "two_step-scaled-recal-transfer": (
        "749c9c65e0796176d8a45f406d3207ad480234109914289c0f6a24de7ce54607",
        "6411d6de7e9868597a130ae678fb02d1165d101721526e79b0834b7329d714bb",
    ),
    "class_wise-unscaled-transfer": (
        "55e3aa8b1950eb92736fc29165532b662adc8d66ac10e056e82e8d3979ad2430",
        "d7206c919cf6bf9956fe93816405a3d48e1745141e39a9d35a3f5f66a90e561d",
    ),
    # recorded before sigma recalibration was fitted from rows presorted
    # once per experiment
    "class_agnostic-scaled-recal-full": (
        "6f9a43f8eca18dc9c330975250fe96d2e3c9053aae0267a51d02d45bcb9dbf8d",
        "2fa02b05c1cbb2c1e25b5898b61432cae3b18948e4ff629b5cbadc26f005f8bf",
    ),
    "class_wise-scaled-recal-full": (
        "d26235d8c225e2bf24ef7ca7ee3e6383b8b7b44a7f956633cadaa540a405723e",
        "000d168115109a1e75461060419fa05e317860d93000daeb828bb7427613e148",
    ),
    "two_step-scaled-recal-full-transfer": (
        "86ba383d38b2a9ba7bdf73f8c0aa2243c0eb048fa88d07160f3806e4509998fb",
        "eb69fcc99eb83c43abef4d9d337e03904db6fbbe76304c1a641fbcd9cb154a82",
    ),
    "class_agnostic-scaled-global": (
        "a3f8d9c184b2c0a74b9cb3b1d9cc90e1a0be11ee94e243b6d27085c0c0d96a3f",
        "ede3a1399c745a2a09b047e431e7fb01ced16cc7849fffe13da96979a1a89f5f",
    ),
    # recorded before the runs were batched into blocks and chunks, to
    # guard ragged groups, the naive transfer path, block edges and warnings
    "class_wise-unstratified": (
        "bce35b1b4cc08ba2631376e53e4e707105924e9ac755eb39f78d685a78fd870b",
        "5739f8788576fc870916886c5d492ca87c1ed1108e0aea3fa3b6904168cb0246",
    ),
    "two_step-unstratified": (
        "4d13ff5de636788471324217b0f93decb95d5863c4d59a816e5b57d2b8bba606",
        "dab17497d7099ba513877eb12ba07e323b4c5bc57969d97bcab7ab674994da4a",
    ),
    "naive_worst_case-scaled-raw-transfer": (
        "8176cbed4bb2566aedec729bd0a49a60b08792dad7e489cf87e3c71ea271893c",
        "0e771429e28183285dad01d741581950d1f537a89bbedabf579241b9fc4c8165",
    ),
    "two_step-23-runs": (
        "7d79bc21c84627e80acdc1f567d832f3d3b9acb870c6ded74caf661daf421b1b",
        "fea4ab2d14a74648f7b2e02491febfe8e3dce4ff9a9e702f7c8dd85ddcaf5705",
    ),
    "two_step-lone-class": (
        "ec2b4a5a8fb0222bb5b473b163acfd9c96f4d2f35e509b728c80e8b5e0a3dc9f",
        "8e7fd4e00cf5a3d551461ccd5222c3b509cf3d07460ca6946124c833ea7d50dc",
    ),
}


@lru_cache(maxsize=None)
def _data(seed: int, shift=None, lone_class: bool = False):
    data = generate(OracleSpec(seed=seed, shift=shift, **_BASE))[0]
    if lone_class:
        # all but one class-3 record become class 0: the lone record always
        # lands in calibration, below min_per_class and below
        # calibration.MIN_CLASS_FIT
        gt_class = data.gt_class.copy()
        gt_class[(gt_class == 3).nonzero()[0][1:]] = 0
        data = dataclasses.replace(data, gt_class=gt_class)
    return data


def _case_id(case) -> str:
    regime, variant, transfer = case
    return f"{regime}-{variant}" + ("-transfer" if transfer else "")


def _report(case, workers: int = 1):
    regime, variant, transfer = case
    options = dict(
        miscoverage=MiscoverageConfig(alpha_corner=0.025, alpha_class=0.05),
        n_runs=5,
        regime=regime,
        master_seed=11,
        min_per_class=20,
    )
    options.update(VARIANTS[variant])
    return run_experiment(
        _data(3, lone_class=variant == "lone-class"),
        RunConfig(**options),
        eval_dataset=_data(4, shift=1.5) if transfer else None,
        workers=workers,
    )


def report_digests(case, workers: int = 1) -> tuple[str, str]:
    report = _report(case, workers)
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


@pytest.mark.parametrize("workers", [1, 3])
def test_report_bytes_match_golden_across_worker_blocks(workers):
    case = ("two_step", "23-runs", False)
    assert report_digests(case, workers) == GOLDEN[_case_id(case)]


def test_lone_class_fires_every_run_warning():
    report = _report(("two_step", "lone-class", False))
    for run in report.per_run:
        assert run.warnings == (
            "classes absent from evaluation: 3",
            "calibrator fell back to the global map for classes 3",
            "classes below min_per_class: 3",
        )


# Whole-text digests: the JSON report including ``config``, and the
# bytes the command line writes, so that the option echo and the CLI
# writers are guarded as well as the results.  They were recorded before
# the metric and option lists were derived from `MetricRow` and `RunConfig`,
# and re-recorded when the always-null `significance` key left the report:
# each new text is the old one with that key deleted, serialized again.
WHOLE_JSON = {
    "class_agnostic-unscaled": "4417a20b4f58d3c70a44a17330487d64962c58b41884c968791d8a6827326db2",
    "class_agnostic-scaled-raw": "f4b732722984431e00a2c1ca46792bf4a4c1f85c6c55b811959fe0e54da0acb0",
    "class_agnostic-scaled-recal": "2996395bec207c292172e7f3d7e1266cf8877f624a979b9b860159a97bfbf8ae",
    "class_wise-unscaled": "e62333929b643699e8da67b984c152ae932f53400897680199ff728ff4072170",
    "class_wise-scaled-raw": "d4ffe0ceadb65bb95389d51452a2e775dd489a06a2a12c98d83ca74d07c4e04c",
    "class_wise-scaled-recal": "77c86b4c77023dea47503e300da76d57543e3312df817db9d57251c933ec1e19",
    "two_step-unscaled": "76007e43e78388d821b00ceb06cc60430fbecb4e3d4c71ff723979c995cf5c75",
    "two_step-scaled-raw": "2ace2237766bb43af208c40e38dd0d54711eb5e65a859bf11de99ea508855ee2",
    "two_step-scaled-recal": "f8b696f4a075ac1770ca1d573744ad0c99c516e638a9a4af4f7c4a2116a4f7e3",
    "naive_worst_case-unscaled": "2addeaf0d94422614eed0d4f4808940dfbfe8320980bf343857270a0b2e104b5",
    "naive_worst_case-scaled-raw": "8e7bc89d359c4a8c93f304854e5e7871943ef3e57db499752ad39492d6beed1b",
    "naive_worst_case-scaled-recal": "f2ef4aaa5fb2da56153f520e9a4d2458a175d8e9fd892ce5ef24769176859a94",
    "two_step-scaled-raw-transfer": "d4597cff848a8a0e15fd286a979e614dcc78ba317aee8f64579532600b1ef33b",
    "two_step-raps-no-penalty": "91b3c7cde7833d0850c0a37ab91eeb4018cf66b084c09ec378dfbe9cc20c0e2f",
    "two_step-raps-penalty": "78935bb976e8e8a076dcb78053bce0554ada1b4656eb53a8e8ce68de691de720",
    "two_step-raps-calibration-penalty-only": "69d249aa6099e71257f0e09de5e37ef8be596c4a2edcc0ecd57b27723d54ae6e",
    "two_step-scaled-recal-transfer": "c1ec34d30fd2e8f7db30cebe997119edfea2976203d4612918028578ef2279f2",
    "class_wise-unscaled-transfer": "5489e5846cffce2cc49af2e1806cc778269ac7238a786671e72376451dfb1b3c",
    "class_agnostic-scaled-recal-full": "142b281533699278eef1e54348ef442b17ee9f3ee70aa0ed352df09191fad948",
    "class_wise-scaled-recal-full": "4f17ddf06b04c1201af1bdd4196732ebc6011899e5ba22b91319a093a6c2f0cf",
    "two_step-scaled-recal-full-transfer": "064ff1f5ba2be7c791780fad239756da2757c3170300bb54a1724965ed19c699",
    "class_agnostic-scaled-global": "9527dd1813f5e24fbfa832bbc46fe13b5b25394716ec7644b19db773f0f59d0e",
    "class_wise-unstratified": "e1cdfd243c77e58b33d5b76758cde7a9f080df82f729a580b83f99189d34b691",
    "two_step-unstratified": "c1025a162bd2171c8e5f833cff26d2ba41ab9011c876aadf3124de9c7ae62f32",
    "naive_worst_case-scaled-raw-transfer": "8417d860398f3097cd5a9bdd3bf30be22e2fa134b7859241186cf1ce987ecebe",
    "two_step-23-runs": "a45692756d482335c7b875d04d21de0863b1a155b03fcb0c0889ed9861e90b72",
    "two_step-lone-class": "c81bc41c2571c22a1cc14acaacd24fe7097103bbc980e4d5e981e4c93f48b2b5",
}

CLI_GOLDEN = {
    "run-csv-stdout": "0ca5afa8ed892e6bcd45b42f21add4892d9b958b7bf70ac05ccfad2fef787753",
    "run-two_step-unscaled-json": "b75bb52a8bb8541eaa1466a428ecc0918b99930702edca6110f331e5e0700448",
    "run-two_step-scaled-json": "d21687d8956ed2997a93dbd85bdec9387ed33948f53da1c1e3f46c432daf060d",
    "compare-json": "83205ca9922b4f07e19b271efd000d81f086c17f2d36f54bf5d3d108b77cdb39",
    "recovery-csv": "b9bb8d3f85ca237767644b315a8a39c78fd4fe1f07f986e85de89ad44fcd66ea",
}


def whole_json_digest(case) -> str:
    return hashlib.sha256(emit_report(_report(case), "json").encode()).hexdigest()


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


# The calibrator files ``confdet calibrate-sigma`` writes, at full precision,
# recorded when block values came to be taken from running sums: against the
# block sums before, no breakpoint moved and no value by more than 1e-13.
CALIBRATOR_GOLDEN = {
    "per_coordinate_per_class_relative": "9039bc644d341c55c1bd683e7f661d5d2f64d5def8992c6a9a8b67041bbdcf9c",
    "global_relative": "a45bc4941a5165ebd2a5f98c188dc55e0ea9d0c90ed1d41e9373ea291dd13726",
}


def calibrator_digests(tmp_path) -> dict:
    data = tmp_path / "data.jsonl"
    save_dataset(_data(3), data)
    digests = {}
    for scope in CALIBRATOR_GOLDEN:
        out = tmp_path / f"{scope}.json"
        assert main(["calibrate-sigma", "--data", str(data), "--scope", scope, "--out", str(out)]) == 0
        digests[scope] = hashlib.sha256(out.read_bytes()).hexdigest()
    return digests


def test_calibrate_sigma_maps_bytes_match_golden(tmp_path):
    assert calibrator_digests(tmp_path) == CALIBRATOR_GOLDEN
