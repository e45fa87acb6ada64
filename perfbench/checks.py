"""Output checks: digests of what each CLI invocation wrote.

A JSON report is reduced to its ``per_run`` and ``aggregate`` sections, so
provenance added to ``config`` later does not count as a changed result.
Other outputs (CSV report, generated data, oracle side channel) are
hashed byte for byte.
"""

from __future__ import annotations

import hashlib
import json
import os


def report_digest(path: str) -> str:
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    results = {"per_run": doc["per_run"], "aggregate": doc["aggregate"]}
    return hashlib.sha256(json.dumps(results, sort_keys=True).encode()).hexdigest()


def file_digest(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def output_digests(outdir: str, outputs: dict) -> dict | None:
    """``{name: digest}`` for ``outputs`` (name -> (file name, kind)), None if unreadable."""
    digests = {}
    try:
        for name, (filename, kind) in outputs.items():
            path = os.path.join(outdir, filename)
            digests[name] = report_digest(path) if kind == "report" else file_digest(path)
    except (OSError, ValueError, KeyError, TypeError):
        return None
    return digests


class OutputChecker:
    """Accepts an invocation's outputs when they match the expected digests.

    ``golden`` holds the digests recorded for the default seed (None for
    any other seed).  The first accepted outputs become the reference that
    every later invocation in the same run must repeat exactly.
    """

    def __init__(self, golden: dict | None = None):
        self.golden = golden
        self.reference: dict | None = None

    def check(self, digests: dict | None) -> bool:
        if digests is None:
            return False
        if self.golden is not None and digests != self.golden:
            return False
        if self.reference is None:
            self.reference = digests
            return True
        return digests == self.reference
