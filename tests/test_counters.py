"""Perf counters obey conservation laws over a whole run.

Each identity ties a counter to a tally kept elsewhere, so a bump site
that is lost, doubled or moved off its path breaks one of them.
"""

from __future__ import annotations

import pytest

from repro.experiments.presets import preset
from repro.simulation import FileSharingSimulation

#: Churn with sessions far shorter than the smoke window, so peers
#: disconnect and rejoin many times (the IRQ-remove-heavy regime).
CHURN = dict(churn_enabled=True, churn_mean_online=1000.0, churn_mean_offline=1000.0)


@pytest.fixture(scope="module", params=[{}, CHURN], ids=["static", "churn"])
def finished(request):
    sim = FileSharingSimulation(preset("smoke", seed=42, **request.param))
    sim.build()
    result = sim.run()
    return sim, result, result.perf_counters["counts"]


def test_event_kind_counts_sum_to_events_fired(finished):
    _sim, result, counts = finished
    kinds = {name: count for name, count in counts.items() if "." not in name}
    assert {"block", "pass", "scan"} <= set(kinds)
    assert sum(kinds.values()) == counts["engine.fired"] == result.events_fired


def test_irq_adds_minus_removes_is_the_live_entry_count(finished):
    sim, _result, counts = finished
    live = sum(len(peer.irq) for peer in sim.ctx.peers.values())
    assert live > 0
    assert counts["irq.adds"] - counts["irq.removes"] == live


def test_rings_formed_matches_the_metrics_counter(finished):
    _sim, result, counts = finished
    assert result.summary.counters["ring.formed"] > 0
    assert counts["ring_search.rings_formed"] == result.summary.counters["ring.formed"]
