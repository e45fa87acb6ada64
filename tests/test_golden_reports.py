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

from confdet.core import MiscoverageConfig
from confdet.io import emit_report
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
