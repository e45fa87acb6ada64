"""Child process of a traced benchmark run.

Usage: python perfbench/traced_child.py PLAN.json RESULT.json

PLAN holds three argument lists for ``confdet.cli.main``, run in this
order in one process: ``traced`` (tracing on, one worker), ``plain``
(tracing off, one worker) and ``pool`` (tracing off, all cores).  The
traced call goes first, so any first-call cost in the process lands on
it: the tracing overhead is then an upper estimate, and the two untimed
calls that give the pool speed-up start equally warm.  Only
``pipeline.run_experiment`` is timed in the untraced calls, through a
single wrapper in the ``cli`` namespace.
RESULT receives each phase's exit code and times, plus the traced phase's
spans and counters.
"""

from __future__ import annotations

import json
import sys
import time

import confdet.cli as cli
from tracer import Tracer


def _main_exit_code(argv) -> int:
    try:
        return cli.main(argv)
    except SystemExit as exc:  # argparse usage errors
        return exc.code if isinstance(exc.code, int) else 1


def _untraced(argv) -> dict:
    original = getattr(cli, "run_experiment", None)
    times = []

    def timed(*args, **kwargs):
        start = time.perf_counter()
        try:
            return original(*args, **kwargs)
        finally:
            times.append(time.perf_counter() - start)

    if original is not None:
        cli.run_experiment = timed
    try:
        start = time.perf_counter()
        code = _main_exit_code(argv)
        wall = time.perf_counter() - start
    finally:
        if original is not None:
            cli.run_experiment = original
    return {"exit_code": code, "wall_s": wall, "run_experiment_s": sum(times) if times else None}


def _traced(argv, tracer: Tracer) -> dict:
    tracer.install()
    try:
        start = time.perf_counter()
        code = _main_exit_code(argv)
        wall = time.perf_counter() - start
    finally:
        tracer.uninstall()
    return {"exit_code": code, "wall_s": wall}


def main(plan_path: str, result_path: str) -> None:
    with open(plan_path, encoding="utf-8") as fh:
        plan = json.load(fh)
    tracer = Tracer()
    phases = {
        "traced": _traced(plan["traced"], tracer),
        "plain": _untraced(plan["plain"]),
        "pool": _untraced(plan["pool"]),
    }
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(
            {
                "phases": phases,
                "spans": tracer.spans,
                "wrapped": sorted(tracer.wrapped),
                "counts": dict(tracer.counts),
                "broken_counters": sorted(tracer.broken_counters),
            },
            fh,
        )


if __name__ == "__main__":
    main(sys.argv[1], sys.argv[2])
