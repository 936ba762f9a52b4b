"""Ablation A4 — event-engine throughput microbenchmark.

The block-event rate bounds how big a network the simulator can carry;
this pins the engine's raw events/second so regressions surface.  The
cells cover one-shot ticks, cancellation, and the periodic path that
carries every peer's scan and storage check.  Each cell publishes BENCH
json so the trajectory is tracked PR-over-PR.
"""

from __future__ import annotations

import time

from repro.sim.engine import Engine
from repro.sim.processes import PeriodicProcess
from repro.simulation import collector_paused

from conftest import publish_bench, run_cell

#: Periodic processes in the periodic cell, one per simulated peer scan.
PERIODIC_PROCESSES = 1_000


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


def _throughput_cell():
    started = time.perf_counter()
    engine = _churn(20_000)
    return time.perf_counter() - started, engine.events_fired, engine.counters.snapshot()


def test_engine_throughput(benchmark):
    (wall, fired, counters), rss = run_cell(benchmark, _throughput_cell)
    publish_bench(
        "micro_engine",
        wall_seconds=wall,
        events_fired=fired,
        peak_rss_mb=rss,
        counters=counters,
    )
    assert fired == 20_000


def _cancellation_cell():
    engine = Engine()
    started = time.perf_counter()
    events = [engine.schedule(float(i % 97) + 1.0, lambda: None) for i in range(5_000)]
    for event in events[::2]:
        event.cancel()
    engine.run(until=100.0)
    return time.perf_counter() - started, engine.events_fired, engine.counters.snapshot()


def test_engine_cancellation_cost(benchmark):
    (wall, fired, counters), rss = run_cell(benchmark, _cancellation_cell)
    publish_bench(
        "micro_engine_cancel",
        wall_seconds=wall,
        events_fired=fired,
        peak_rss_mb=rss,
        counters=counters,
    )
    assert fired == 2_500


def _periodic_wave() -> Engine:
    """1,000 one-second processes at staggered phases for 130 s, half of
    them paused for 10 s midway and resumed at fresh phases: ~125k fires
    of no-op callbacks, so the engine's periodic path is all that runs."""
    engine = Engine()
    processes = [
        PeriodicProcess(
            engine,
            1.0,
            _noop,
            name=f"scan.p{index}",
            start_delay=index / PERIODIC_PROCESSES,
        )
        for index in range(PERIODIC_PROCESSES)
    ]
    engine.run(until=60.0)
    paused = processes[::2]
    for process in paused:
        process.pause()
    engine.run(until=70.0)
    for index, process in enumerate(paused):
        process.resume(start_delay=index / len(paused))
    engine.run(until=130.0)
    # Each pause left one cancelled event, which the engine must skip,
    # never fire.
    assert engine.cancelled_skipped == len(paused)
    return engine


def _noop() -> None:
    """The periodic cell's callback: the cost left is the engine's."""


def _periodic_cell():
    with collector_paused():
        started = time.perf_counter()
        engine = _periodic_wave()
        wall = time.perf_counter() - started
    return wall, engine.events_fired, engine.counters.snapshot(), engine.cancelled_skipped


def test_engine_periodic_throughput(benchmark):
    (wall, fired, counters, cancelled_skipped), rss = run_cell(benchmark, _periodic_cell)
    publish_bench(
        "micro_engine_periodic",
        wall_seconds=wall,
        events_fired=fired,
        peak_rss_mb=rss,
        counters=counters,
        processes=PERIODIC_PROCESSES,
        cancelled_skipped=cancelled_skipped,
    )
    assert 120_000 < fired < 130_000
