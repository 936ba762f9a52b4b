"""Peer-level behaviour tests: registration, eviction, abandonment, trees."""

from __future__ import annotations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.baselines.credit import CreditLedger
from repro.core.disciplines import DISCIPLINES, make_discipline
from repro.core.irq import RequestEntry
from repro.core.request_tree import (
    RequestTreeNode,
    build_snapshot,
    occurrence_subindex,
    tree_peer_set,
)
from repro.errors import ProtocolError
from repro.metrics.records import TerminationReason
from repro.network.peer import ABANDON_AFTER_LOOKUP_FAILURES, Peer

from tests.helpers import build_peer, drain, give, irq_index, make_ctx, small_config


class TestRegistration:
    def test_register_respects_fanout(self):
        config = small_config(request_fanout=2)
        ctx = make_ctx(config)
        requester = build_peer(ctx, 0, mechanism="none")
        providers = [build_peer(ctx, i, mechanism="none") for i in range(1, 5)]
        for provider in providers:
            give(ctx, provider, 0)
        download = requester.start_download(ctx.catalog.object(0))
        assert len(download.registered_at) == 2

    def test_no_self_request(self):
        ctx = make_ctx()
        peer = build_peer(ctx, 0, mechanism="none")
        give(ctx, peer, 0)
        other = build_peer(ctx, 1, mechanism="none")
        give(ctx, other, 1)
        download = other.start_download(ctx.catalog.object(1 + 0))
        with pytest.raises(ProtocolError):
            other.register_request_at(1, download)

    def test_duplicate_pending_rejected(self):
        ctx = make_ctx()
        provider = build_peer(ctx, 0, mechanism="none")
        requester = build_peer(ctx, 1, mechanism="none")
        give(ctx, provider, 0)
        requester.start_download(ctx.catalog.object(0))
        with pytest.raises(ProtocolError):
            requester.start_download(ctx.catalog.object(0))

    def test_freeloader_provider_refuses_registration(self):
        ctx = make_ctx()
        freeloader = build_peer(ctx, 0, shares=False, mechanism="none")
        requester = build_peer(ctx, 1, mechanism="none")
        freeloader.store.add(0)  # stored but NOT in lookup
        download = requester.start_download(ctx.catalog.object(0))
        assert not requester.register_request_at(0, download)
        assert len(download.registered_at) == 0


class TestStorageCheck:
    def test_eviction_unregisters_from_lookup(self):
        ctx = make_ctx(small_config(storage_min_objects=2, storage_max_objects=2))
        peer = build_peer(ctx, 0, capacity=2)
        for object_id in range(4):
            give(ctx, peer, object_id)
        assert peer.store.over_capacity
        peer.storage_check()
        assert len(peer.store) == 2
        remaining = set(peer.store.object_ids())
        for object_id in range(4):
            providers = ctx.lookup.provider_view(object_id)
            assert (0 in providers) == (object_id in remaining)

    def test_eviction_terminates_normal_upload(self):
        ctx = make_ctx()
        provider = build_peer(ctx, 0, capacity=1, mechanism="none")
        requester = build_peer(ctx, 1, mechanism="none")
        give(ctx, provider, 0)
        requester.start_download(ctx.catalog.object(0))
        ctx.engine.run(until=1.0)
        assert requester.pending[0].active_sources == 1
        # Overflow the provider's store so object 0 can be evicted.
        give(ctx, provider, 1)
        give(ctx, provider, 2)
        evicted_before = len(provider.store)
        for _ in range(10):  # random eviction: retry until 0 goes
            provider.storage_check()
            if 0 not in provider.store:
                break
            give(ctx, provider, 3) if 3 not in provider.store else None
        if 0 not in provider.store:
            deleted = [
                s for s in ctx.metrics.sessions
                if s.reason is TerminationReason.SOURCE_DELETED
            ]
            assert len(deleted) == 1

    def test_exchange_pin_survives_eviction(self):
        ctx = make_ctx()
        a = build_peer(ctx, 0, capacity=1)
        b = build_peer(ctx, 1, capacity=1)
        give(ctx, a, 0)
        give(ctx, b, 1)
        a.start_download(ctx.catalog.object(1))
        b.start_download(ctx.catalog.object(0))
        ctx.engine.run(until=1.0)
        assert a.exchange_upload_count == 1
        # Overflow A's store; the exchanged object is pinned and survives.
        give(ctx, a, 2)
        give(ctx, a, 3)
        a.storage_check()
        assert 0 in a.store


class TestAbandonment:
    def test_starved_download_abandoned_after_retries(self):
        ctx = make_ctx()
        provider = build_peer(ctx, 0, mechanism="none")
        requester = build_peer(ctx, 1, mechanism="none")
        give(ctx, provider, 0)
        download = requester.start_download(ctx.catalog.object(0))
        # The only copy vanishes from the network.
        for transfer in list(download.transfers.values()):
            transfer.terminate(TerminationReason.SOURCE_DELETED, requeue=False)
        provider.store.remove(0)
        ctx.lookup.unregister(0, 0)
        for entry_provider in list(download.registered_at):
            ctx.peer(entry_provider).irq.remove(1, 0)
        download.registered_at.clear()
        for failures in range(1, ABANDON_AFTER_LOOKUP_FAILURES):
            requester._replenish_downloads()
            assert 0 in requester.pending  # a failure below the bound only counts
            assert download.lookup_failures == failures
        requester._replenish_downloads()
        assert 0 not in requester.pending  # the last failure abandons
        assert ctx.metrics.counters["download.abandoned"] == 1

    def test_successful_lookup_resets_failure_count(self):
        ctx = make_ctx()
        provider = build_peer(ctx, 0, mechanism="none")
        requester = build_peer(ctx, 1, mechanism="none")
        give(ctx, provider, 0)
        download = requester.start_download(ctx.catalog.object(0))
        download.lookup_failures = ABANDON_AFTER_LOOKUP_FAILURES - 1
        requester._replenish_downloads()  # has sources: resets the count
        assert download.lookup_failures == 0


class TestPerPeerState:
    def test_discipline_owns_baseline_state(self):
        ctx = make_ctx()
        peer = build_peer(ctx, 0)
        assert peer.participation is peer.discipline.participation
        assert type(peer.discipline).name == ctx.config.scheduler_mode
        assert not hasattr(peer, "credit")

    @pytest.mark.parametrize("name", ["fifo", "participation"])
    def test_only_the_credit_discipline_holds_a_ledger(self, name):
        assert not hasattr(make_discipline(name, 0, True, False), "credit")
        assert isinstance(make_discipline("credit", 0, True, False).credit, CreditLedger)

    @pytest.mark.parametrize("name", DISCIPLINES)
    def test_block_accounting_updates_participation_under_every_discipline(self, name):
        discipline = make_discipline(name, 0, shares=True, fake_participation=False)
        discipline.record_served(5, 300.0)
        discipline.record_received(6, 600.0)
        discipline.record_served(6, 100.0)
        reporter = discipline.participation
        assert (reporter.uploaded_kbit, reporter.downloaded_kbit) == (400.0, 600.0)

    def test_credit_ledger_records_both_directions_with_a_fifo_peer(self):
        ctx = make_ctx()
        assert ctx.config.scheduler_mode == "fifo"
        credit_peer = build_peer(ctx, 0, mechanism="none")
        credit_peer.discipline = make_discipline("credit", 0, True, False)
        fifo_peer = build_peer(ctx, 1, mechanism="none")
        give(ctx, credit_peer, 1)
        give(ctx, fifo_peer, 0)
        credit_peer.start_download(ctx.catalog.object(0))
        fifo_peer.start_download(ctx.catalog.object(1))
        drain(ctx, until=5_000.0)
        assert 0 in credit_peer.store and 1 in fifo_peer.store
        received = credit_peer.participation.downloaded_kbit
        served = credit_peer.participation.uploaded_kbit
        assert received > 0.0 and served > 0.0
        # (what the fifo peer uploaded to us, what it downloaded from us)
        assert credit_peer.discipline.credit.volumes(1) == (received, served)
        assert fifo_peer.participation.uploaded_kbit == received
        assert fifo_peer.participation.downloaded_kbit == served
        assert not hasattr(fifo_peer.discipline, "credit")

    def test_capacity_overrides_size_slot_pools(self):
        from repro.content.interests import InterestProfile
        from repro.content.storage import ObjectStore
        from repro.core.policies import parse_mechanism
        from repro.network.behaviors import SHARER
        from repro.network.peer import Peer

        ctx = make_ctx(small_config(upload_capacity_kbit=80.0))
        peer = Peer(
            ctx,
            0,
            SHARER,
            parse_mechanism("none"),
            InterestProfile([0], [1.0]),
            ObjectStore(5),
            upload_capacity_kbit=20.0,
            download_capacity_kbit=100.0,
            discipline=make_discipline("fifo", 0, shares=True, fake_participation=False),
            class_name="modem",
        )
        assert peer.upload_pool.total == 2
        assert peer.download_pool.total == 10
        assert peer.class_name == "modem"

    def test_resize_capacity_resizes_only_the_named_pool(self):
        ctx = make_ctx(small_config(upload_capacity_kbit=80.0, download_capacity_kbit=800.0))
        peer = build_peer(ctx, 0)
        peer.resize_capacity(upload_capacity_kbit=160.0)
        assert (peer.upload_pool.total, peer.download_pool.total) == (16, 80)
        peer.resize_capacity(download_capacity_kbit=100.0)
        assert (peer.upload_pool.total, peer.download_pool.total) == (16, 10)

    def test_built_peers_take_class_name_and_discipline_from_their_class(self):
        from repro.simulation import FileSharingSimulation

        config = small_config(freeloader_fraction=0.5, scheduler_mode="credit")
        ctx = FileSharingSimulation(config).build()
        names = [peer.class_name for peer in ctx.peers.values()]
        assert names.count("freeloader") == config.num_freeloaders
        for peer in ctx.peers.values():
            assert peer.class_name == peer.behavior.name
            assert type(peer.discipline).name == "credit"

    def test_participation_cheat_follows_behavior_and_flag(self):
        # The cheat is the non-sharing peer's lie about its level; it is
        # observable only to participation-disciplined servers, so it no
        # longer depends on any scheduler mode (global or own).
        ctx = make_ctx(small_config(scheduler_mode="participation"))
        assert build_peer(ctx, 0, shares=False).participation.cheats
        assert not build_peer(ctx, 1, shares=True).participation.cheats
        honest_ctx = make_ctx(small_config(freeloaders_fake_participation=False))
        assert not build_peer(honest_ctx, 0, shares=False).participation.cheats


class TestTreeRefresh:
    def test_refresh_publishes_new_snapshot(self):
        config = small_config(tree_refresh_interval=1.0)
        ctx = make_ctx(config)
        provider = build_peer(ctx, 0)
        requester = build_peer(ctx, 1)
        third = build_peer(ctx, 2)
        give(ctx, provider, 0)
        give(ctx, requester, 1)
        download = requester.start_download(ctx.catalog.object(0))
        assert 0 in download.registered_at
        entry = provider.irq.get(1, 0)
        assert entry is not None
        # Initially the requester's snapshot has no children.
        assert entry.tree is None or not entry.tree.children
        # A third peer registers at the requester, changing its tree.
        give(ctx, third, 2)
        third_download = third.start_download(ctx.catalog.object(1))
        assert 1 in third_download.registered_at
        ctx.engine.run(until=2.0)
        requester.refresh_outgoing_trees()
        refreshed = provider.irq.get(1, 0)
        assert refreshed is not None
        assert refreshed.tree is not None
        assert any(child.peer_id == 2 for child in refreshed.tree.children)
        # The provider's index now knows peer 2 is reachable through 1.
        assert 2 in provider.irq.index_key_set()

    def test_equal_rebuild_is_still_pushed(self):
        # An IRQ change that leaves the requester's tree equal still
        # reaches every provider as a new snapshot: a new root object,
        # one version bump and one counted refresh per entry.  Only the
        # work behind the push is saved: the index buckets stay as
        # they were.
        config = small_config(tree_refresh_interval=1.0)
        ctx = make_ctx(config)
        requester = build_peer(ctx, 0)
        providers = [build_peer(ctx, 1), build_peer(ctx, 2)]
        third = build_peer(ctx, 3)
        for provider in providers:
            give(ctx, provider, 0)
        give(ctx, requester, 1)
        download = requester.start_download(ctx.catalog.object(0))
        assert download.registered_at == {1, 2}
        third.start_download(ctx.catalog.object(1))
        ctx.engine.run(until=2.0)
        requester.refresh_outgoing_trees()
        held = {p.peer_id: p.irq.get(0, 0).tree for p in providers}
        assert all(tree.children for tree in held.values())
        versions = {p.peer_id: p.irq.version for p in providers}
        buckets = {p.peer_id: irq_index(p.irq) for p in providers}

        incoming = requester.irq.get(3, 1)
        requester.irq.refresh_tree(incoming, incoming.tree)
        refreshes = ctx.counters.counts["irq.tree_refreshes"]
        ctx.engine.run(until=4.0)
        requester.refresh_outgoing_trees()

        for provider in providers:
            tree = provider.irq.get(0, 0).tree
            assert tree is not held[provider.peer_id]
            assert tree.to_dict() == held[provider.peer_id].to_dict()
            assert provider.irq.version == versions[provider.peer_id] + 1
            assert irq_index(provider.irq) == buckets[provider.peer_id]
        assert ctx.counters.counts["irq.tree_refreshes"] == refreshes + len(providers)

    @pytest.mark.parametrize("mechanism, refreshes", [("none", 0), ("pairwise", 0), ("2-5-way", 1)])
    def test_scan_refreshes_trees_only_when_trees_have_levels(
        self, mechanism, refreshes, monkeypatch
    ):
        # Pairwise and no-exchange policies attach no tree below the
        # root (tree_levels <= 1), so a scan skips the refresh call.
        ctx = make_ctx(small_config())
        peer = build_peer(ctx, 0, mechanism=mechanism)
        calls = []
        monkeypatch.setattr(Peer, "refresh_outgoing_trees", lambda self: calls.append(self))
        peer.scan()
        assert len(calls) == refreshes


class _ExchangeStub:
    """Stands in for an exchange transfer bound to an IRQ entry."""

    is_exchange = True


class TestSnapshotReuseOracle:
    """Equal snapshot rebuilds may reuse derived state, never change it.

    Random programs over three peers add and remove IRQ entries, bind
    and release them to exchanges, and refresh entries with the
    requester's current snapshot, with the tree already held, with an
    equal fresh copy of it, or with a different tree.  After every step
    each peer's snapshot must equal a fresh ``build_snapshot`` made at
    its last IRQ version change, and every cached view on every root
    (snapshots and attached trees alike) must equal the view computed
    on a serialized copy.
    """

    PEERS = 3
    KINDS = ("add", "remove", "push", "same", "copy", "other", "bind", "release")
    #: (kind, owner, pick, peer, object): ``pick`` chooses the entry
    #: (or, for ``add``, the requester), ``peer``/``object`` label the
    #: child of an ``other`` tree and the object of an ``add``.
    OPS = st.lists(
        st.tuples(
            st.sampled_from(KINDS),
            st.integers(0, PEERS - 1),
            st.integers(0, 63),
            st.integers(0, PEERS - 1),
            st.integers(0, 5),
        ),
        max_size=40,
    )

    @settings(max_examples=200, deadline=None)
    @given(ops=OPS, max_nodes=st.sampled_from([3, 6, 128]))
    # A bind moves no version, so only a later content change may
    # show it in the snapshot; an equal refresh is such a change.
    @example(
        ops=[("add", 0, 0, 0, 0), ("bind", 0, 0, 0, 0), ("same", 0, 0, 0, 0)],
        max_nodes=128,
    )
    def test_reuse_matches_fresh_rebuild(self, ops, max_nodes):
        ctx = make_ctx(small_config(max_tree_nodes=max_nodes))
        peers = [build_peer(ctx, i) for i in range(self.PEERS)]
        levels = peers[0].policy.tree_levels
        reference = {}
        for kind, owner_id, pick, peer_id, object_id in ops:
            irq = peers[owner_id].irq
            if kind == "add":
                requester = peers[(owner_id + 1 + pick % (self.PEERS - 1)) % self.PEERS]
                irq.add(
                    RequestEntry(
                        requester.peer_id, object_id, 0.0, requester._tree_snapshot()
                    )
                )
            else:
                entries = irq.snapshot()
                if not entries:
                    continue
                entry = entries[pick % len(entries)]
                if kind == "remove":
                    irq.remove(entry.requester_id, entry.object_id)
                elif kind == "push":
                    tree = peers[entry.requester_id]._tree_snapshot()
                    if entry.tree is not tree:
                        irq.refresh_tree(entry, tree)
                elif kind == "same":
                    irq.refresh_tree(entry, entry.tree)
                elif kind == "copy":
                    irq.refresh_tree(entry, _copy(entry.tree))
                elif kind == "other":
                    irq.refresh_tree(
                        entry,
                        RequestTreeNode(
                            entry.requester_id,
                            None,
                            (RequestTreeNode(peer_id, object_id),),
                        ),
                    )
                elif kind == "bind" and entry.transfer is None:
                    entry.transfer = _ExchangeStub()
                    irq.note_binding_change()
                elif kind == "release" and entry.transfer is not None:
                    entry.transfer = None
                    irq.note_binding_change()
            for peer in peers:
                version = peer.irq.version
                if peer.peer_id not in reference or reference[peer.peer_id][0] != version:
                    fresh = build_snapshot(
                        peer.peer_id, peer.irq, levels, ctx.config.max_tree_nodes
                    )
                    reference[peer.peer_id] = (version, fresh)
                snapshot = peer._tree_snapshot()
                assert snapshot.to_dict() == reference[peer.peer_id][1].to_dict()
                _assert_views_exact(RequestEntry(peer.peer_id, -1, 0.0, snapshot))
                for entry in peer.irq.snapshot():
                    _assert_views_exact(entry)
                    assert entry._indexed == tree_peer_set(
                        entry.requester_id, _copy(entry.tree)
                    )


def _copy(tree):
    return None if tree is None else RequestTreeNode.from_dict(tree.to_dict())


def _assert_views_exact(entry):
    """Every view cached on ``entry`` or its root equals a fresh one."""
    fresh = RequestEntry(entry.requester_id, entry.object_id, 0.0, _copy(entry.tree))
    root, copy = entry.tree, fresh.tree
    if root is not None:
        assert root.node_count() == copy.node_count()
        assert root.depth() == copy.depth()
    requester = entry.requester_id
    assert tree_peer_set(requester, root) == tree_peer_set(requester, copy)
    assert occurrence_subindex(requester, root) == occurrence_subindex(requester, copy)
    for levels in (1, 2, 3):
        children, count = entry.pruned_children(levels)
        fresh_children, fresh_count = fresh.pruned_children(levels)
        assert count == fresh_count
        assert [c.to_dict() for c in children] == [c.to_dict() for c in fresh_children]
    for peer_id in range(TestSnapshotReuseOracle.PEERS):
        assert entry.paths_for(peer_id) == fresh.paths_for(peer_id)
