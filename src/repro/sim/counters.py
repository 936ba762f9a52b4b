"""Per-subsystem perf counters: named event and work counts.

The benchmark layer needs to attribute a throughput or RSS regression to
a *subsystem* (engine, IRQ, ring search, collector) instead of staring
at one wall-seconds number.  :class:`PerfCounters` is that attribution
channel: hot paths bump named integer counters, and the bench harness
publishes :meth:`PerfCounters.snapshot` into every ``BENCH_*.json``.
Per-layer wall time comes from outside the program, through the e2e
tracer (``benchmarks/e2e/run.py --trace 1``).

Design constraints:

* **Always on.**  Every run counts, so the counted path is the one
  every test and benchmark runs.
* **No trajectory coupling.**  Counters read no clock and feed
  benchmark artifacts only, never simulation state, RNG, or
  scheduling: counting cannot move a single event.
* **Deterministic publication.**  :meth:`snapshot` sorts keys, so two
  runs of the same build diff cleanly in the JSON artifacts.
"""

from __future__ import annotations

from typing import Dict


class PerfCounters:
    """Named integer counters."""

    __slots__ = ("counts",)

    def __init__(self) -> None:
        #: name -> integer tally.  Public so hot loops can bind the dict
        #: once instead of paying a method call per bump.
        self.counts: Dict[str, int] = {}

    def bump(self, name: str, amount: int = 1) -> None:
        """Add ``amount`` to one named counter."""
        counts = self.counts
        counts[name] = counts.get(name, 0) + amount

    def snapshot(self) -> Dict[str, Dict[str, int]]:
        """JSON-ready view: ``{"counts": ...}`` with sorted keys."""
        return {"counts": {name: self.counts[name] for name in sorted(self.counts)}}

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"PerfCounters(counts={len(self.counts)})"
