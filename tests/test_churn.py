"""Tests for the churn extension (peer online/offline sessions)."""

from __future__ import annotations

import pytest

from repro.errors import ConfigError
from repro.metrics.records import TerminationReason
from repro.simulation import FileSharingSimulation, run_simulation

from tests.helpers import (
    build_peer,
    drain,
    give,
    make_ctx,
    run_with_records,
    small_config,
)


class TestOfflineTransitions:
    def test_offline_terminates_uploads_and_unpublishes(self):
        ctx = make_ctx()
        provider = build_peer(ctx, 0, mechanism="none")
        requester = build_peer(ctx, 1, mechanism="none")
        give(ctx, provider, 0)
        requester.start_download(ctx.catalog.object(0))
        ctx.engine.run(until=1.0)
        assert requester.pending[0].active_sources == 1

        provider.disconnect()
        assert not provider.online
        assert requester.pending[0].active_sources == 0
        assert ctx.lookup.providers(0, exclude=-1) == set()
        offline_sessions = [
            s for s in ctx.metrics.sessions
            if s.reason is TerminationReason.PEER_OFFLINE
        ]
        assert len(offline_sessions) == 1

    def test_offline_requester_withdraws_registrations(self):
        ctx = make_ctx()
        provider = build_peer(ctx, 0, mechanism="none")
        requester = build_peer(ctx, 1, mechanism="none")
        give(ctx, provider, 0)
        download = requester.start_download(ctx.catalog.object(0))
        requester.disconnect()
        assert download.registered_at == set()
        assert (1, 0) not in provider.irq

    def test_offline_breaks_rings(self):
        ctx = make_ctx()
        a = build_peer(ctx, 0)
        b = build_peer(ctx, 1)
        give(ctx, a, 0)
        give(ctx, b, 1)
        a.start_download(ctx.catalog.object(1))
        b.start_download(ctx.catalog.object(0))
        ctx.engine.run(until=1.0)
        assert a.exchange_upload_count == 1
        b.disconnect()
        assert a.exchange_upload_count == 0

    def test_online_republishes_store(self):
        ctx = make_ctx()
        peer = build_peer(ctx, 0, mechanism="none")
        give(ctx, peer, 0)
        peer.disconnect()
        assert ctx.lookup.providers(0, exclude=-1) == set()
        peer.reconnect()
        assert ctx.lookup.providers(0, exclude=-1) == {0}

    def test_offline_drains_queued_entries_from_other_requesters(self):
        """Regression: the churn download stall.

        A requester whose entry sat *queued* (not served) in the IRQ of
        a peer that went offline used to keep that peer in its
        ``registered_at`` for the whole offline session.  The download
        then looked engaged, so ``_replenish_downloads`` never looked
        up the alternative provider and the request stalled even though
        a live copy existed.
        """
        config = small_config(upload_capacity_kbit=10.0)  # one upload slot
        ctx = make_ctx(config)
        provider_a = build_peer(ctx, 50, mechanism="none")
        provider_b = build_peer(ctx, 51, mechanism="none")
        stalled = build_peer(ctx, 52, mechanism="none")
        competitor = build_peer(ctx, 53, mechanism="none")
        give(ctx, provider_a, 0)
        give(ctx, provider_a, 1)
        # The competitor takes A's only upload slot...
        competitor.start_download(ctx.catalog.object(1))
        drain(ctx)
        assert competitor.pending[1].active_sources == 1
        # ...so the stalled peer's request for object 0 stays queued.
        download = stalled.start_download(ctx.catalog.object(0))
        drain(ctx)
        assert download.active_sources == 0
        assert provider_a.peer_id in download.registered_at
        # A second provider appears, then A churns off with the entry
        # still queued.
        give(ctx, provider_b, 0)
        provider_a.disconnect()
        assert provider_a.peer_id not in download.registered_at
        assert provider_a.irq.is_empty
        # The next periodic scan re-looks-up and finds provider B; the
        # download completes during A's offline period.
        stalled.scan()
        drain(ctx, until=ctx.engine.now + 2_000.0)
        assert download.completed
        assert 0 in stalled.store

    def test_offline_pauses_periodic_processes(self):
        """No scan.p*/storage.p* events fire while a peer is offline."""
        sim = FileSharingSimulation(small_config())
        ctx = sim.build()
        peer = ctx.peers[0]
        assert len(peer.periodic_processes) == 2
        ctx.engine.run(until=200.0)
        peer.disconnect()
        assert all(p.paused for p in peer.periodic_processes)
        fired_before = [p.fired for p in peer.periodic_processes]
        ctx.engine.run(until=1_200.0)  # many scan/storage intervals
        assert [p.fired for p in peer.periodic_processes] == fired_before
        peer.reconnect()
        assert all(not p.paused for p in peer.periodic_processes)
        ctx.engine.run(until=1_600.0)
        assert peer.periodic_processes[0].fired > fired_before[0]

    def test_transitions_idempotent(self):
        ctx = make_ctx()
        peer = build_peer(ctx, 0, mechanism="none")
        give(ctx, peer, 0)
        peer.disconnect()
        peer.disconnect()  # no-op, must not raise
        peer.reconnect()
        peer.reconnect()
        assert peer.online


class TestChurnedSimulation:
    def test_churned_run_completes_downloads(self):
        config = small_config(
            churn_enabled=True,
            churn_mean_online=3_000.0,
            churn_mean_offline=500.0,
            exchange_mechanism="2-5-way",
            seed=13,
        )
        result = run_simulation(config)
        assert result.summary.counters.get("churn.offline", 0) > 0
        assert result.summary.counters.get("churn.online", 0) > 0
        assert result.summary.completed_downloads_sharers > 0
        offline_reasons = result.metrics.reason_counts().get(
            TerminationReason.PEER_OFFLINE, 0
        )
        assert offline_reasons > 0

    def test_churn_is_deterministic(self):
        config = small_config(
            churn_enabled=True, duration=4_000.0, seed=13
        )
        first = run_with_records(config)
        second = run_with_records(config)
        assert (
            first.summary.counters.get("churn.offline")
            == second.summary.counters.get("churn.offline")
        )
        assert len(first.metrics.sessions) == len(second.metrics.sessions)

    def test_churn_model_built_only_when_enabled(self):
        sim = FileSharingSimulation(small_config())
        sim.build()
        assert sim.churn is None

    def test_bad_churn_means_rejected(self):
        with pytest.raises(ConfigError):
            small_config(churn_enabled=True, churn_mean_online=0.0)
