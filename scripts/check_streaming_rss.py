#!/usr/bin/env python3
"""Metrics memory guard: RSS must stay flat over the run, with no cycles.

The columnar collector folds each frozen 4096-row chunk into running
aggregates and releases it, so the process footprint after the world is
built should be governed by the *population*, not by how long the run
lasts.  This script proves that
property on a live run: it builds one simulation, runs the engine to a
checkpoint fraction of the configured duration, samples peak RSS, runs
to the end, samples again, and fails if the second sample grew beyond
``--max-growth`` times the first.

The check discriminates at large populations: at the ``huge`` preset
keeping every record row would grow RSS by hundreds of megabytes after
the first checkpoint, while the folds hold the growth to the live
simulation state.  (At small presets a 1000-peer run simply doesn't
record enough rows to move RSS.)  Peak RSS
(``ru_maxrss``) is used rather than instantaneous RSS because it is
monotone — immune to GC timing and allocator release behaviour between
the two samples.

The event loop runs under :func:`repro.simulation.collector_paused`, as
in ``FileSharingSimulation.run``, and before the pause ends the script
also fails if ``gc.collect()`` finds any unreachable object: the
simulator must create no reference cycles, and at the ``huge`` preset
the run covers the widest set of paths CI exercises.

Usage (CI runs the huge preset)::

    PYTHONPATH=src python scripts/check_streaming_rss.py \
        [--preset huge] [--checkpoint 0.25] [--max-growth 1.25] [--seed 42]
"""

from __future__ import annotations

import argparse
import gc
import resource
import sys
from typing import List, Optional


def peak_rss_mb() -> float:
    """Peak resident set size of this process so far, in MB."""
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if sys.platform == "darwin":  # pragma: no cover - linux CI
        peak //= 1024
    return peak / 1024.0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--preset", default="huge")
    parser.add_argument(
        "--checkpoint",
        type=float,
        default=0.25,
        help="fraction of the duration for the first RSS sample (default 0.25)",
    )
    parser.add_argument(
        "--max-growth",
        type=float,
        default=1.25,
        help="maximum peak-RSS ratio between checkpoints (default 1.25)",
    )
    parser.add_argument("--seed", type=int, default=42)
    args = parser.parse_args(argv)
    if not 0.0 < args.checkpoint < 1.0:
        parser.error(f"checkpoint must be in (0, 1), got {args.checkpoint}")
    if args.max_growth < 1.0:
        parser.error(f"max-growth must be >= 1, got {args.max_growth}")

    from repro.experiments.presets import preset
    from repro.simulation import FileSharingSimulation, collector_paused

    config = preset(args.preset, exchange_mechanism="2-5-way", seed=args.seed)
    sim = FileSharingSimulation(config)
    sim.build()
    built_rss = peak_rss_mb()
    print(
        f"built {config.num_peers} peers ({args.preset} preset): "
        f"peak RSS {built_rss:.0f}MB"
    )

    # FileSharingSimulation.run()'s collector policy.  With the
    # collector paused, a cycle created per event would grow for the
    # whole run, so the run must leave nothing for gc.collect() to free.
    checkpoint_time = args.checkpoint * config.duration
    with collector_paused():
        sim.ctx.engine.run(until=checkpoint_time)
        rss_checkpoint = peak_rss_mb()
        sim.ctx.engine.run(until=config.duration)
        rss_final = peak_rss_mb()
        unreachable = gc.collect()

    fired = sim.ctx.engine.events_fired
    growth = rss_final / rss_checkpoint
    print(
        f"{fired} events: peak RSS {rss_checkpoint:.0f}MB at "
        f"{args.checkpoint:.0%} of the run, {rss_final:.0f}MB at 100% "
        f"({growth:.3f}x growth, limit {args.max_growth:.2f}x)"
    )
    if fired == 0:
        print("error: the run fired no events — nothing was measured", file=sys.stderr)
        return 2
    if unreachable:
        print(
            f"FAIL: the run left {unreachable} unreachable objects in "
            "reference cycles — the simulator must create none while the "
            "collector is paused",
            file=sys.stderr,
        )
        return 1
    if growth > args.max_growth:
        print(
            f"FAIL: peak RSS grew {growth:.3f}x between the "
            f"{args.checkpoint:.0%} and 100% checkpoints (limit "
            f"{args.max_growth:.2f}x) — metrics memory is not flat",
            file=sys.stderr,
        )
        return 1
    print(
        "peak RSS growth within bounds — metrics memory is flat; "
        "no reference cycles left by the run"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
