#!/usr/bin/env python3
"""Benchmark regression guard: fresh BENCH json vs committed baselines.

CI publishes machine-readable ``BENCH_<name>_<scale>.json`` perf records
under ``benchmarks/results/`` on every push; snapshots deliberately
committed under ``benchmarks/baselines/`` pin the expected trajectory.
This script pairs them by filename and enforces these rules:

* ``events_fired`` must match **exactly**.  The simulator is
  deterministic — same preset, same seed, same event count, on any
  machine.  A drifted count means the run's trajectory changed, which
  is a correctness regression (or an unacknowledged re-baselining),
  never noise.
* ``counters.counts`` must match **exactly** when both records ran
  with counters enabled: per-kind fire counts and subsystem work
  counts are as deterministic as ``events_fired``, so they pin where
  the work went without a clock.  ``counters.timings_seconds`` is wall
  clock and stays unchecked; disabled blocks (the micro benches) are
  skipped.
* ``events_per_second`` must not collapse: a fresh run below
  ``tolerance`` x baseline fails.  Wall-clock numbers move with the
  machine, so the default tolerance is generous (0.5 — flag only a
  >2x slowdown); the committed baseline documents the machine it came
  from, the guard catches order-of-magnitude regressions.
* ``peak_rss_mb`` must not balloon: a fresh run above
  ``rss-tolerance`` x baseline fails.  Peak RSS is far more stable
  across machines than wall clock (same allocations, same arrays), so
  its tolerance is tighter — a breach means the run genuinely holds
  more memory, the exact regression the streaming-retention and
  columnar cores exist to prevent.
* ``build_seconds`` (when both records carry it) must not collapse
  either: the world build is population-bound work guarded at the same
  generous wall-clock ``tolerance`` as events/sec.

Baselines with no fresh counterpart are skipped (not every CI job runs
every bench); a results directory with no overlap at all fails, since
a guard guarding nothing is a misconfiguration.

Usage::

    python scripts/check_bench.py \
        [--results benchmarks/results] [--baselines benchmarks/baselines] \
        [--tolerance 0.5] [--rss-tolerance 1.5]
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import List, Optional, Tuple


def load_records(directory: str) -> dict:
    """``{filename: record}`` for every BENCH json in ``directory``."""
    records = {}
    if not os.path.isdir(directory):
        return records
    for name in sorted(os.listdir(directory)):
        if name.startswith("BENCH_") and name.endswith(".json"):
            with open(os.path.join(directory, name), encoding="utf-8") as handle:
                records[name] = json.load(handle)
    return records


def compare(
    baseline: dict, fresh: dict, tolerance: float, rss_tolerance: float = 1.5
) -> Tuple[bool, List[str]]:
    """(ok, human-readable notes) for one baseline/fresh pair."""
    notes: List[str] = []
    ok = True
    base_events: Optional[int] = baseline.get("events_fired")
    fresh_events: Optional[int] = fresh.get("events_fired")
    if base_events is not None:
        if fresh_events != base_events:
            ok = False
            notes.append(
                f"events_fired {fresh_events} != baseline {base_events} "
                "(trajectory changed — fix the regression or re-baseline "
                "deliberately)"
            )
        else:
            notes.append(f"events_fired {fresh_events} == baseline")
    base_counters = baseline.get("counters") or {}
    fresh_counters = fresh.get("counters") or {}
    if base_counters.get("enabled") and fresh_counters.get("enabled"):
        base_counts = base_counters.get("counts", {})
        fresh_counts = fresh_counters.get("counts", {})
        differing = [
            f"{key} {fresh_counts.get(key)} != baseline {base_counts.get(key)}"
            for key in sorted(set(base_counts) | set(fresh_counts))
            if fresh_counts.get(key) != base_counts.get(key)
        ]
        if differing:
            ok = False
            notes.append("counters.counts differ: " + ", ".join(differing))
        else:
            notes.append(f"counters.counts == baseline ({len(base_counts)} keys)")
    base_rate = baseline.get("events_per_second")
    fresh_rate = fresh.get("events_per_second")
    if base_rate and fresh_rate:
        floor = tolerance * base_rate
        ratio = fresh_rate / base_rate
        if fresh_rate < floor:
            ok = False
            notes.append(
                f"events/sec {fresh_rate:.0f} < {tolerance:.0%} of baseline "
                f"{base_rate:.0f} ({ratio:.2f}x)"
            )
        else:
            notes.append(
                f"events/sec {fresh_rate:.0f} vs baseline {base_rate:.0f} "
                f"({ratio:.2f}x)"
            )
    base_rss = baseline.get("peak_rss_mb")
    fresh_rss = fresh.get("peak_rss_mb")
    if base_rss and fresh_rss:
        ceiling = rss_tolerance * base_rss
        ratio = fresh_rss / base_rss
        if fresh_rss > ceiling:
            ok = False
            notes.append(
                f"peak RSS {fresh_rss:.0f}MB > {rss_tolerance:.2f}x baseline "
                f"{base_rss:.0f}MB ({ratio:.2f}x — the run holds more memory)"
            )
        else:
            notes.append(
                f"peak RSS {fresh_rss:.0f}MB vs baseline {base_rss:.0f}MB "
                f"({ratio:.2f}x)"
            )
    base_build = baseline.get("build_seconds")
    fresh_build = fresh.get("build_seconds")
    if base_build and fresh_build:
        ceiling = base_build / tolerance
        ratio = fresh_build / base_build
        if fresh_build > ceiling:
            ok = False
            notes.append(
                f"build {fresh_build:.1f}s > baseline {base_build:.1f}s / "
                f"{tolerance:.0%} ({ratio:.2f}x slowdown)"
            )
        else:
            notes.append(
                f"build {fresh_build:.1f}s vs baseline {base_build:.1f}s "
                f"({ratio:.2f}x)"
            )
    return ok, notes


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--results", default="benchmarks/results")
    parser.add_argument("--baselines", default="benchmarks/baselines")
    parser.add_argument(
        "--tolerance",
        type=float,
        default=0.5,
        help="minimum fresh/baseline events-per-second ratio (default 0.5)",
    )
    parser.add_argument(
        "--rss-tolerance",
        type=float,
        default=1.5,
        help="maximum fresh/baseline peak-RSS ratio (default 1.5)",
    )
    args = parser.parse_args(argv)
    if not 0.0 < args.tolerance <= 1.0:
        parser.error(f"tolerance must be in (0, 1], got {args.tolerance}")
    if args.rss_tolerance < 1.0:
        parser.error(f"rss-tolerance must be >= 1, got {args.rss_tolerance}")

    baselines = load_records(args.baselines)
    results = load_records(args.results)
    if not baselines:
        print(f"error: no baselines under {args.baselines}", file=sys.stderr)
        return 2

    failures = 0
    compared = 0
    for name, baseline in baselines.items():
        fresh = results.get(name)
        if fresh is None:
            print(f"skip  {name}: no fresh run")
            continue
        compared += 1
        ok, notes = compare(baseline, fresh, args.tolerance, args.rss_tolerance)
        status = "ok   " if ok else "FAIL "
        print(f"{status}{name}: " + "; ".join(notes))
        if not ok:
            failures += 1

    if compared == 0:
        print(
            f"error: no fresh BENCH json under {args.results} matches any "
            f"baseline — guard would check nothing",
            file=sys.stderr,
        )
        return 2
    if failures:
        print(f"{failures}/{compared} benchmark(s) regressed", file=sys.stderr)
        return 1
    print(f"all {compared} benchmark(s) within bounds")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
