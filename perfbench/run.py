"""confdet benchmark: four CLI workloads timed end to end, or traced by layer.

Usage (from the repository root)::

    python3 perfbench/run.py --workload transfer_load --seed 1 --seconds 25 --trace 0

Each operation is one fresh ``python -m confdet ...`` child that imports
the package from ``src/`` of this checkout.  Inputs come from the seeded
generator in ``inputs.py`` and are cached under ``perfbench/.cache``.
Every operation's outputs are checked (``checks.py``); the last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  ``--trace 0`` reports the end-to-end metrics,
``--trace 1`` the per-layer metrics of ``traced_child.py``.  See README.md
for why each workload exists.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import sys
import tempfile
import time
from dataclasses import dataclass
from typing import Callable

import inputs
from checks import OutputChecker, output_digests
from measure import child_env, spawn, summarize
from tracer import span_metrics

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
CACHE_DIR = os.path.join(BENCH_DIR, ".cache")
WORK_DIR = os.path.join(BENCH_DIR, ".work")
GOLDEN_PATH = os.path.join(BENCH_DIR, "golden.json")

#: The seed whose output digests are recorded in golden.json.
DEFAULT_SEED = 1
#: Timed operations and start-up probes per run, even when they overrun ``--seconds``.
MIN_OPS = 3
MIN_PROBES = 5
NPROC = len(os.sched_getaffinity(0))

JSON_REPORT = {"report": ("report.json", "report")}


@dataclass(frozen=True)
class Workload:
    datasets: tuple[str, ...]
    #: (input paths, output dir, seed, workers) -> arguments after ``-m confdet``
    args: Callable[[list, str, int, int], list]
    outputs: dict
    #: whether the end-to-end operations use every core
    pool: bool = False


WORKLOADS = {
    "transfer_load": Workload(
        datasets=("transfer_cal", "transfer_eval"),
        args=lambda d, out, seed, w: [
            "run", "--data", d[0], "--eval-data", d[1], "--scaling", "scaled", "--runs", "20",
            "--seed", str(seed), "--workers", str(w), "--format", "json",
            "--out", os.path.join(out, "report.json"),
        ],
        outputs=JSON_REPORT,
    ),
    "recal_per_class": Workload(
        datasets=("recal",),
        args=lambda d, out, seed, w: [
            "run", "--data", d[0], "--scaling", "scaled", "--scope", "per_coordinate_per_class_relative",
            "--runs", "20", "--seed", str(seed), "--workers", str(w), "--format", "json",
            "--out", os.path.join(out, "report.json"),
        ],
        outputs=JSON_REPORT,
    ),
    "two_step_runs": Workload(
        datasets=("two_step",),
        args=lambda d, out, seed, w: [
            "run", "--data", d[0], "--regime", "two_step", "--scaling", "scaled", "--runs", "400",
            "--seed", str(seed), "--workers", str(w), "--format", "json",
            "--out", os.path.join(out, "report.json"),
        ],
        outputs=JSON_REPORT,
        pool=True,
    ),
    "simulate_write": Workload(
        datasets=(),
        args=lambda d, out, seed, w: [
            "simulate", "--records", "50000", "--classes", "10", "--noise", "2:20", "--accuracy", "0.9",
            "--runs", "5", "--scaling", "scaled", "--seed", str(seed), "--workers", str(w),
            "--data-out", os.path.join(out, "data.jsonl"),
            "--oracle-out", os.path.join(out, "oracle.jsonl"),
            "--format", "csv", "--out", os.path.join(out, "report.csv"),
        ],
        outputs={
            "report": ("report.csv", "file"),
            "data_out": ("data.jsonl", "file"),
            "oracle_out": ("oracle.jsonl", "file"),
        },
    ),
}


class Run:
    """One benchmark run: counts operations and checks their outputs."""

    def __init__(self, name: str, seed: int, workdir: str):
        self.workload = WORKLOADS[name]
        self.seed = seed
        self.workdir = workdir
        self.env = child_env(ROOT)
        self.inputs = [inputs.dataset_path(CACHE_DIR, d, seed) for d in self.workload.datasets]
        golden = None
        if seed == DEFAULT_SEED:
            with open(GOLDEN_PATH, encoding="utf-8") as fh:
                golden = json.load(fh)["digests"][name]
        self.checker = OutputChecker(golden)
        self.attempted = 0
        self.failed = 0
        self._n_dirs = 0

    def new_dir(self) -> str:
        self._n_dirs += 1
        path = os.path.join(self.workdir, f"op{self._n_dirs}")
        os.makedirs(path)
        return path

    def cli_args(self, outdir: str, workers: int) -> list:
        return self.workload.args(self.inputs, outdir, self.seed, workers)

    def record(self, exit_code: int, outdir: str) -> bool:
        """Count one operation; it fails on a non-zero exit or a wrong output."""
        self.attempted += 1
        ok = exit_code == 0 and self.checker.check(output_digests(outdir, self.workload.outputs))
        if not ok:
            self.failed += 1
            print(f"operation {self.attempted} failed (exit code {exit_code}):\n{self.child_stderr()}", file=sys.stderr)
        shutil.rmtree(outdir)
        return ok

    def child_stderr(self) -> str:
        """The last lines the most recent child wrote to its standard error."""
        try:
            with open(os.path.join(self.workdir, "stderr.txt"), encoding="utf-8", errors="replace") as fh:
                return "".join(fh.readlines()[-20:])
        except FileNotFoundError:
            return ""

    def invoke(self, workers: int):
        outdir = self.new_dir()
        sample = spawn(
            ["-m", "confdet", *self.cli_args(outdir, workers)],
            self.env,
            os.path.join(self.workdir, "stdout.txt"),
            os.path.join(self.workdir, "stderr.txt"),
        )
        self.record(sample.exit_code, outdir)
        return sample


def setup_probe(run: Run) -> float:
    """Wall time of a fresh interpreter that imports the CLI and exits."""
    sample = spawn(
        ["-c", "import confdet.cli"],
        run.env,
        os.path.join(run.workdir, "stdout.txt"),
        os.path.join(run.workdir, "stderr.txt"),
    )
    if sample.exit_code != 0:
        raise SystemExit(f"confdet.cli does not import:\n{run.child_stderr()}")
    return sample.wall_s


def end_to_end(run: Run, seconds: float) -> dict:
    """Alternate start-up probes and timed operations until ``seconds`` pass.

    Alternating makes both series sample the same stretch of host noise.
    """
    workers = NPROC if run.workload.pool else 1
    if workers > 1:
        run.invoke(1)  # the one-worker reference that every pooled report must repeat
    setup_probe(run)  # untimed: the first start-up may compile bytecode
    setup, samples, cycles = [], [], []
    deadline = time.perf_counter() + seconds
    while len(samples) < MIN_OPS or time.perf_counter() + statistics.median(cycles) / 2 <= deadline:
        start = time.perf_counter()
        setup.append(setup_probe(run))
        samples.append(run.invoke(workers))
        cycles.append(time.perf_counter() - start)
    while len(setup) < MIN_PROBES:
        setup.append(setup_probe(run))
    series = {
        "total_s": [s.wall_s for s in samples],
        "setup_s": setup,
        "cpu_s": [s.cpu_s for s in samples],
        "peak_rss_mb": [s.peak_rss_mb for s in samples],
    }
    units = {"total_s": "s", "setup_s": "s", "cpu_s": "s", "peak_rss_mb": "MB"}
    for name, values in series.items():
        print(f"{name}: {summarize(values)} {units[name]}")
    return {name: {"value": statistics.median(v), "unit": units[name]} for name, v in series.items()}


#: Per-layer metrics measured in other units than seconds.
PER_LAYER_UNITS = {
    "io.load_dataset.records": "count",
    "io.load_dataset.rejected": "count",
    "io.bytes_read": "bytes",
    "io.bytes_written": "bytes",
    "calibration.pava_points": "count",
    "pipeline.pool_speedup": "ratio",
    "trace.spans": "count",
}


def _unit(metric: str) -> str:
    return "count" if metric.endswith(".calls") else PER_LAYER_UNITS.get(metric, "s")


def traced(run: Run, seconds: float) -> dict:
    """Repeat the traced child until ``seconds`` pass; report per-metric medians."""
    reps = []
    last_wall = 0.0
    deadline = time.perf_counter() + seconds
    while not reps or time.perf_counter() + last_wall <= deadline:
        dirs = {phase: run.new_dir() for phase in ("traced", "plain", "pool")}
        plan = {
            phase: run.cli_args(outdir, NPROC if phase == "pool" else 1) for phase, outdir in dirs.items()
        }
        plan_path = os.path.join(run.workdir, "plan.json")
        result_path = os.path.join(run.workdir, "result.json")
        with open(plan_path, "w", encoding="utf-8") as fh:
            json.dump(plan, fh)
        sample = spawn(
            [os.path.join(BENCH_DIR, "traced_child.py"), plan_path, result_path],
            run.env,
            os.path.join(run.workdir, "stdout.txt"),
            os.path.join(run.workdir, "stderr.txt"),
        )
        if sample.exit_code != 0:
            raise SystemExit(f"traced child exited with {sample.exit_code}:\n{run.child_stderr()}")
        with open(result_path, encoding="utf-8") as fh:
            result = json.load(fh)
        os.remove(result_path)
        phases = result["phases"]
        for phase, outdir in dirs.items():
            run.record(phases[phase]["exit_code"], outdir)
        metrics = span_metrics(
            [tuple(s) for s in result["spans"]], set(result["wrapped"]), result["counts"], set(result["broken_counters"])
        )
        metrics["trace.overhead_s"] = phases["traced"]["wall_s"] - phases["plain"]["wall_s"]
        if phases["plain"]["run_experiment_s"] and phases["pool"]["run_experiment_s"]:
            metrics["pipeline.pool_speedup"] = phases["plain"]["run_experiment_s"] / phases["pool"]["run_experiment_s"]
        last_wall = sample.wall_s
        reps.append(metrics)
    names = sorted(set.intersection(*(set(r) for r in reps)))
    print(f"traced repetitions: {len(reps)}")
    return {name: {"value": statistics.median(r[name] for r in reps), "unit": _unit(name)} for name in names}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "confdet", "cli.py")):
        raise SystemExit(f"no confdet sources under {ROOT}/src")

    os.makedirs(WORK_DIR, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK_DIR)
    try:
        run = Run(args.workload, args.seed, workdir)
        metrics = traced(run, args.seconds) if args.trace else end_to_end(run, args.seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    result = {"correct": run.failed == 0, "attempted": run.attempted, "failed": run.failed, "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
