"""Large-network stress benchmark (the ``scale`` preset, 1000 peers).

Tracks the PR-over-PR perf trajectory of *one* simulation at a size the
paper never attempted: 5x its population with matched content density.
Two cells are timed and published as machine-readable BENCH json:

* ``scale_base`` — the full 2-5-way exchange network, end to end;
* ``scale_churn`` — the same network under heavy churn (peers offline
  ~half the time), the regime that used to drown in no-op scan events
  and stalled downloads before periodic processes learned to pause.

Run via ``pytest benchmarks/bench_scale.py`` (CI does, on every push).
The single-cell runs ignore ``REPRO_BENCH_SCALE`` — the point is pinning
the 1000-peer preset itself.
"""

from __future__ import annotations

import time

from repro.experiments.presets import preset
from repro.simulation import run_simulation

from conftest import SEED, publish_bench, run_cell


def _run_scale(**overrides):
    config = preset("scale", exchange_mechanism="2-5-way", seed=SEED, **overrides)
    started = time.perf_counter()
    result = run_simulation(config)
    wall = time.perf_counter() - started
    return result, wall


def test_scale_base(benchmark):
    (result, wall), rss = run_cell(benchmark, _run_scale)
    publish_bench(
        "scale_base",
        wall_seconds=wall,
        events_fired=result.events_fired,
        peak_rss_mb=rss,
        scale="scale",
        num_peers=result.config.num_peers,
        counters=result.perf_counters,
    )
    # A 1000-peer run must actually simulate a working network, not
    # just survive: downloads complete and exchange rings form.
    assert result.summary.completed_downloads_sharers > 0
    assert result.summary.counters.get("ring.formed", 0) > 0


def test_scale_churn(benchmark):
    (result, wall), rss = run_cell(
        benchmark,
        _run_scale,
        churn_enabled=True,
        churn_mean_online=3_000.0,
        churn_mean_offline=3_000.0,
    )
    publish_bench(
        "scale_churn",
        wall_seconds=wall,
        events_fired=result.events_fired,
        peak_rss_mb=rss,
        scale="scale",
        num_peers=result.config.num_peers,
        churn_transitions=result.summary.counters.get("churn.offline", 0)
        + result.summary.counters.get("churn.online", 0),
        counters=result.perf_counters,
    )
    assert result.summary.counters.get("churn.offline", 0) > 0
    # The churn stall fix: downloads keep completing even though
    # providers keep vanishing mid-queue.
    assert result.summary.completed_downloads_sharers > 0
