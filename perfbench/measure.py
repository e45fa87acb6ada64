"""Child processes timed from spawn to exit, with per-child resource usage.

``os.wait4`` returns the usage of the one child it reaps, including the
pool workers that child waited for.  ``getrusage(RUSAGE_CHILDREN)`` would
instead report a high-water ``ru_maxrss`` over every child reaped so far,
so a small workload run after a large one would inherit its peak.
"""

from __future__ import annotations

import os
import statistics
import sys
import time
from dataclasses import dataclass


@dataclass(frozen=True)
class Sample:
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    exit_code: int


def child_env(root: str) -> dict:
    """Environment for a child that imports ``confdet`` from ``root/src``.

    ``CONFDET_WORKERS`` is dropped because it overrides ``--workers``.
    """
    env = dict(os.environ)
    env.pop("CONFDET_WORKERS", None)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def spawn(args: list[str], env: dict, stdout_path: str, stderr_path: str) -> Sample:
    """Run ``python args...`` to completion; stdout and stderr go to files."""
    actions = [
        (os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
        (os.POSIX_SPAWN_OPEN, 1, stdout_path, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644),
        (os.POSIX_SPAWN_OPEN, 2, stderr_path, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644),
    ]
    start = time.perf_counter()
    pid = os.posix_spawn(sys.executable, [sys.executable, *args], env, file_actions=actions)
    _, status, usage = os.wait4(pid, 0)
    wall = time.perf_counter() - start
    return Sample(
        wall_s=wall,
        cpu_s=usage.ru_utime + usage.ru_stime,
        peak_rss_mb=usage.ru_maxrss / 1024.0,  # Linux reports KiB
        exit_code=os.waitstatus_to_exitcode(status),
    )


def tail_percentile(values: list[float]) -> tuple[float, float] | None:
    """Highest of p99/p90/p75 with at least ten samples beyond it, or None."""
    n = len(values)
    for pct in (99, 90, 75):
        if n * (100 - pct) / 100 >= 10:
            return pct, statistics.quantiles(values, n=100, method="inclusive")[pct - 1]
    return None


def summarize(values: list[float]) -> str:
    """Median, sample count and the tail percentile the sample supports."""
    text = f"median {statistics.median(values):.4g} (n={len(values)})"
    tail = tail_percentile(values)
    if tail is not None:
        text += f", p{tail[0]} {tail[1]:.4g}"
    return text
