"""Byte guard on what the demos print.

Each demo runs as a child process on this checkout's ``src/``; the
sha256 of its stdout was recorded with numpy 2.4.6 and scipy 1.17.1.
The demos call only the array kernels and the experiment API, so this
guards those end to end.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

DEMO_STDOUT_SHA256 = {
    "01_marginal_coverage.py": "88febe3cc6ad2579393a4f9ce07be439a1e121ee9e162df3ea283a302bff3ec8",
    "02_sigma_scaling.py": "f5ccbfa26a1c2aa3df1571f0fc284db0ff2da8014460bc98a715ef33ad09f13c",
    "03_class_regimes.py": "ca9fa44ad6cf7ef922385d23b6ffcbed8b899688d7c180f50a798d2a91cb9ace",
    "04_sigma_recalibration.py": "a216f9c75b924cf9da86208c0ffba0b732cc0a050ae6e27f80f43f82368bb2f9",
    "05_shift_and_recovery.py": "cb6469272c3c337a6559a01964f5a76370f0c11298ccd2be188b2d758921bf0b",
}


@pytest.mark.parametrize("demo", sorted(DEMO_STDOUT_SHA256))
def test_demo_stdout_bytes_match_recorded_digest(demo):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    out = subprocess.run(
        [sys.executable, str(ROOT / "demos" / demo)],
        cwd=ROOT, env=env, capture_output=True, check=True, timeout=120,
    ).stdout
    assert hashlib.sha256(out).hexdigest() == DEMO_STDOUT_SHA256[demo]
