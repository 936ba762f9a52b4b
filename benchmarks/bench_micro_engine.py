"""Ablation A4 — event-engine throughput microbenchmark.

The block-event rate bounds how big a network the simulator can carry;
this pins the engine's raw events/second so regressions surface.  Both
cells publish BENCH json so the trajectory is tracked PR-over-PR.
"""

from __future__ import annotations

import time

from repro.sim.engine import Engine

from conftest import publish_bench


def _churn(num_events: int) -> Engine:
    engine = Engine()
    fired = [0]

    def tick():
        fired[0] += 1
        if fired[0] < num_events:
            engine.schedule(1.0, tick)

    engine.schedule(1.0, tick)
    engine.run(until=float(num_events + 1))
    return engine


def test_engine_throughput(benchmark):
    def timed():
        started = time.perf_counter()
        engine = _churn(20_000)
        return engine, time.perf_counter() - started

    engine, wall = benchmark(timed)
    fired = engine.events_fired
    publish_bench(
        "micro_engine",
        wall_seconds=wall,
        events_fired=fired,
        counters=engine.counters.snapshot(),
    )
    assert fired == 20_000


def test_engine_cancellation_cost(benchmark):
    def cancel_heavy():
        engine = Engine()
        started = time.perf_counter()
        events = [engine.schedule(float(i % 97) + 1.0, lambda: None) for i in range(5_000)]
        for event in events[::2]:
            event.cancel()
        engine.run(until=100.0)
        return engine, time.perf_counter() - started

    engine, wall = benchmark(cancel_heavy)
    fired = engine.events_fired
    publish_bench(
        "micro_engine_cancel",
        wall_seconds=wall,
        events_fired=fired,
        counters=engine.counters.snapshot(),
    )
    assert fired == 2_500
