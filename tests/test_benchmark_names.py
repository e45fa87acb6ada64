"""Every function the benchmark's tracer names still exists, and its hooks still fit.

``perfbench/tracer.py`` wraps the package's public functions by name and
reads the arguments and results of a few of them.  A traced run in which
such a function is gone, or a hook no longer fits, leaves that function's
metrics out instead of failing, so the loss would show only as a missing
per-layer metric.  This test makes it fail here.  The tracer file is only
read: it is compiled in memory, so nothing is written next to it.
"""

import json
import types
from pathlib import Path

import confdet.cli as cli
from confdet.calibration import SCOPE_PER_CLASS

ROOT = Path(__file__).resolve().parents[1]

#: Per-layer metrics that ``perfbench/run.py`` computes itself rather than the tracer.
COMPUTED_BY_RUNNER = {"pipeline.pool_speedup", "trace.overhead_s"}


def _load_tracer():
    path = ROOT / "perfbench" / "tracer.py"
    module = types.ModuleType("perfbench_tracer")
    module.__file__ = str(path)
    exec(compile(path.read_text(encoding="utf-8"), str(path), "exec"), module.__dict__)
    return module


def test_tracer_finds_every_name_and_hook_it_reports(tmp_path, monkeypatch):
    monkeypatch.delenv("CONFDET_WORKERS", raising=False)
    tracing = _load_tracer()
    tracer = tracing.Tracer()
    data, oracle = tmp_path / "data.jsonl", tmp_path / "oracle.jsonl"
    common = ["--seed", "1", "--runs", "2", "--workers", "1", "--scaling", "scaled"]
    tracer.install()
    try:
        simulate = ["simulate", "--records", "200", "--classes", "2", "--data-out", str(data), "--oracle-out", str(oracle)]
        assert cli.main(simulate + common + ["--out", str(tmp_path / "simulated.json")]) == 0
        run = ["run", "--data", str(data), "--scope", SCOPE_PER_CLASS, "--out", str(tmp_path / "run.json")]
        assert cli.main(run + common) == 0
    finally:
        tracer.uninstall()

    named = set(tracing.TIMED) | set(tracing.CALLED) | set(tracing.COUNTERS)
    assert sorted(named - tracer.wrapped) == []
    assert tracer.broken_counters == set()
    metrics = tracing.span_metrics(tracer.spans, tracer.wrapped, tracer.counts, tracer.broken_counters)
    declared = {m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["per_layer"]}
    assert sorted(declared - COMPUTED_BY_RUNNER - set(metrics)) == []
    # each writer's hook found its `path`, and the loader's its (Dataset, LoadReport)
    written = [data, oracle, tmp_path / "simulated.json", tmp_path / "run.json"]
    assert metrics["io.bytes_written"] == sum(path.stat().st_size for path in written)
    assert (metrics["io.load_dataset.records"], metrics["io.bytes_read"]) == (200, data.stat().st_size)
