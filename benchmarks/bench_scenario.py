"""Scenario-engine benchmark: the ``flashcrowd`` preset end to end.

Tracks the PR-over-PR cost of open-system dynamics: one full flash-crowd
timeline (steady → hot-object injection + demand spike → departure
decay) on the 2-5-way exchange network, timed and published as
machine-readable ``BENCH_flashcrowd_<scale>.json``.  CI's
``scenario-smoke`` job runs it at both ``smoke`` and ``small`` on every
push and uploads both jsons; committed baselines under
``benchmarks/baselines/`` keep the trajectory non-empty from day one.

Honours ``REPRO_BENCH_SCALE`` like the figure benches (default
``smoke``).
"""

from __future__ import annotations

import time

from repro.experiments.presets import flash_crowd_scenario, preset
from repro.simulation import run_simulation

from conftest import SCALE, SEED, publish_bench, run_once


def _run_flashcrowd():
    base = preset(SCALE, exchange_mechanism="2-5-way", seed=SEED)
    config = base.replace(scenario=flash_crowd_scenario(base))
    started = time.perf_counter()
    result = run_simulation(config)
    wall = time.perf_counter() - started
    return result, wall


def test_flashcrowd_preset(benchmark):
    result, wall = run_once(benchmark, _run_flashcrowd)
    summary = result.summary
    publish_bench(
        "flashcrowd",
        wall_seconds=wall,
        events_fired=result.events_fired,
        num_peers=result.config.num_peers,
        scenario_events=len(result.config.scenario),
        flash_objects=summary.counters.get("scenario.flash_objects", 0),
        peers_left=summary.counters.get("scenario.peer_left", 0),
        completed_by_phase=summary.completed_downloads_by_phase,
        counters=result.perf_counters,
    )
    # The timeline must actually run: all three phases measure
    # completed downloads and every scheduled event applied.
    for phase in ("steady", "flash", "decay"):
        assert summary.completed_downloads_by_phase.get(phase, 0) > 0, phase
    assert summary.counters.get("scenario.flash_crowd") == 1
    assert summary.counters.get("scenario.departure") == 1
    # The crowd found the hot content.
    assert summary.counters.get("scenario.flash_objects", 0) > 0
