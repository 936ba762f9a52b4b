"""Shared helpers for the benchmark suite.

Every benchmark runs one paper figure's sweep exactly once (simulations
are minutes-long workloads, not microseconds — ``pedantic`` with a
single round) at the ``smoke`` scale by default.  Set
``REPRO_BENCH_SCALE=small`` (or ``paper``/``scale``) to run the benches
at a bigger scale.

Each bench prints the paper-style series table to stdout (visible with
``pytest -s`` and captured in the bench logs) and asserts the
*qualitative shape* the paper reports — who wins, and in which
direction the curves move.

Perf-tracking benches additionally publish a machine-readable
``BENCH_<name>_<scale>.json`` (wall seconds, events fired, events/sec)
under ``benchmarks/results/`` via :func:`publish_bench` so the
events/sec trajectory is comparable PR-over-PR; CI runs
``bench_micro_engine`` and ``bench_scale`` on every push.
"""

from __future__ import annotations

import json
import os
import resource
import sys
from typing import Optional

SCALE = os.environ.get("REPRO_BENCH_SCALE", "smoke")
SEED = int(os.environ.get("REPRO_BENCH_SEED", "42"))

RESULTS_DIR = os.path.join(os.path.dirname(__file__), "results")


def run_once(benchmark, func, *args, **kwargs):
    """Run ``func`` exactly once under pytest-benchmark timing."""
    return benchmark.pedantic(func, args=args, kwargs=kwargs, rounds=1, iterations=1)


def publish(table, name: str) -> None:
    """Print the series table and persist it under benchmarks/results/."""
    rendered = table.render()
    print()
    print(rendered)
    os.makedirs(RESULTS_DIR, exist_ok=True)
    path = os.path.join(RESULTS_DIR, f"{name}_{SCALE}.txt")
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(rendered + "\n")


def peak_rss_mb() -> float:
    """Peak resident set size of this process so far, in MB.

    ``ru_maxrss`` is kilobytes on Linux and bytes on macOS; monotone
    over the process lifetime, so benches sharing a process see the
    max across everything run so far — comparable PR-over-PR as long
    as the bench file composition is stable.
    """
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if sys.platform == "darwin":  # pragma: no cover - linux CI
        peak //= 1024
    return round(peak / 1024.0, 1)


def publish_bench(
    name: str,
    wall_seconds: float,
    events_fired: Optional[int] = None,
    scale: Optional[str] = None,
    *,
    counters: dict,
    **extra,
) -> dict:
    """Write ``BENCH_<name>_<scale>.json`` with the perf measurements.

    ``events_fired`` may be None for benches that only time wall clock;
    ``events_per_second`` is derived when both numbers are present.
    Every record carries the process peak RSS (MB) and the run's
    ``counters`` (``PerfCounters.snapshot()``), which attribute
    regressions to a subsystem.  Extra keyword fields are stored
    verbatim (e.g. peer counts), so a bench can carry whatever context
    makes its trajectory readable.
    """
    record = {
        "name": name,
        "scale": scale if scale is not None else SCALE,
        "seed": SEED,
        "wall_seconds": round(wall_seconds, 6),
        "events_fired": events_fired,
        "events_per_second": (
            round(events_fired / wall_seconds, 3)
            if events_fired is not None and wall_seconds > 0
            else None
        ),
        "peak_rss_mb": peak_rss_mb(),
        "counters": counters,
    }
    record.update(extra)
    os.makedirs(RESULTS_DIR, exist_ok=True)
    path = os.path.join(RESULTS_DIR, f"BENCH_{name}_{record['scale']}.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"\n[bench] {path}: {record}")
    return record
