"""Huge-network benchmark: the ``huge`` preset, 50,000 peers.

The population stress test: one full 2-5-way exchange run at 50x the
``scale`` preset's population — the 10^4..10^5-peer regime the
ROADMAP's fluid tier must eventually be cross-validated against.  The
preset keeps the run CI-sized by trading window length for population
(see ``repro.experiments.presets``); the interesting published numbers
are events/sec (does the engine stay flat as the population grows?) and
peak RSS (does memory stay linear in *records*, not peers x
objects?).  The record also carries the registry's end-of-run tallies
(registered, alive, online, online sharers).

Build and run are timed separately: at 50k peers the one-off world
construction (RNG streams, interest profiles, initial placement) is a
meaningful fraction of the wall clock, and folding it into events/sec
would understate engine throughput.

Run via ``pytest benchmarks/bench_huge.py`` (CI does, on every push).
The single-cell run ignores ``REPRO_BENCH_SCALE`` — the point is
pinning the 50k-peer preset itself.
"""

from __future__ import annotations

import time

from repro.experiments.presets import preset
from repro.simulation import FileSharingSimulation

from conftest import SEED, publish_bench, run_cell


def population_counts(peers):
    """Registered, alive, online and online-sharer tallies of a registry."""
    alive = [peer for peer in peers.values() if not peer.departed]
    return {
        "registered": len(peers),
        "alive": len(alive),
        "online": sum(peer.online for peer in alive),
        "online_sharers": sum(peer.shares for peer in alive),
    }


def _run_huge():
    config = preset("huge", exchange_mechanism="2-5-way", seed=SEED)
    sim = FileSharingSimulation(config)
    build_started = time.perf_counter()
    sim.build()
    build_wall = time.perf_counter() - build_started
    run_started = time.perf_counter()
    result = sim.run()
    run_wall = time.perf_counter() - run_started
    return result, build_wall, run_wall, population_counts(sim.ctx.peers)


def test_huge_preset(benchmark):
    (result, build_wall, run_wall, population), rss = run_cell(benchmark, _run_huge)
    publish_bench(
        "huge",
        wall_seconds=run_wall,
        events_fired=result.events_fired,
        scale="huge",
        num_peers=result.config.num_peers,
        peak_rss_mb=rss,
        counters=result.perf_counters,
        build_seconds=round(build_wall, 3),
        completed_downloads=(
            result.summary.completed_downloads_sharers
            + result.summary.completed_downloads_freeloaders
        ),
        rings_formed=result.summary.counters.get("ring.formed", 0),
        population=population,
    )
    # A 50k-peer run must simulate a working network, not just survive:
    # downloads complete, rings form, and every peer is in the registry.
    assert result.summary.completed_downloads_sharers > 0
    assert result.summary.counters.get("ring.formed", 0) > 0
    assert population["registered"] == result.config.num_peers
