"""Unit tests for the incoming request queue."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.irq import IncomingRequestQueue, RequestEntry
from repro.core.request_tree import RequestTreeNode
from repro.errors import ProtocolError

from tests.helpers import irq_index


def entry(requester=2, obj=20, t=0.0, tree=None):
    return RequestEntry(requester, obj, t, tree)


class TestQueueBasics:
    def test_add_and_len(self):
        irq = IncomingRequestQueue(capacity=5)
        assert irq.add(entry())
        assert len(irq) == 1
        assert (2, 20) in irq

    def test_duplicate_rejected(self):
        irq = IncomingRequestQueue(capacity=5)
        assert irq.add(entry())
        assert not irq.add(entry())
        assert len(irq) == 1

    def test_capacity_enforced(self):
        irq = IncomingRequestQueue(capacity=2)
        assert irq.add(entry(2, 20))
        assert irq.add(entry(3, 30))
        assert not irq.add(entry(4, 40))
        assert (4, 40) not in irq

    def test_same_requester_different_objects_allowed(self):
        irq = IncomingRequestQueue(capacity=5)
        assert irq.add(entry(2, 20))
        assert irq.add(entry(2, 21))

    def test_remove_returns_entry_and_deactivates(self):
        irq = IncomingRequestQueue(capacity=5)
        original = entry()
        irq.add(original)
        removed = irq.remove(2, 20)
        assert removed is original
        assert not removed.active
        assert len(irq) == 0

    def test_remove_missing_returns_none(self):
        assert IncomingRequestQueue(capacity=5).remove(9, 99) is None

    def test_fifo_iteration_order(self):
        irq = IncomingRequestQueue(capacity=5)
        irq.add(entry(2, 20, t=0.0))
        irq.add(entry(3, 30, t=1.0))
        irq.add(entry(4, 40, t=2.0))
        assert [e.requester_id for e in irq.active_entries()] == [2, 3, 4]

    def test_zero_capacity_rejected(self):
        with pytest.raises(ProtocolError):
            IncomingRequestQueue(capacity=0)


class TestPeerIndex:
    def _tree(self):
        # Entry requester 2 carrying peers 4 and 5 in its snapshot.
        return RequestTreeNode(
            2,
            None,
            (
                RequestTreeNode(4, 44, (RequestTreeNode(5, 55),)),
            ),
        )

    def test_index_contains_requester_and_tree_peers(self):
        irq = IncomingRequestQueue(capacity=5)
        irq.add(entry(tree=self._tree()))
        assert {2, 4, 5} <= irq.index_key_set()

    def test_paths_to_direct_requester(self):
        irq = IncomingRequestQueue(capacity=5)
        irq.add(entry())
        paths = list(irq.paths_to(2))
        assert len(paths) == 1
        _entry, path = paths[0]
        assert path == ((2, 20),)

    def test_paths_to_deep_peer(self):
        irq = IncomingRequestQueue(capacity=5)
        irq.add(entry(tree=self._tree()))
        paths = [path for _e, path in irq.paths_to(5)]
        assert paths == [((2, 20), (4, 44), (5, 55))]

    def test_removed_entries_no_longer_yield_paths(self):
        irq = IncomingRequestQueue(capacity=5)
        irq.add(entry(tree=self._tree()))
        irq.remove(2, 20)
        assert list(irq.paths_to(4)) == []

    def test_paths_to_unknown_peer_empty(self):
        irq = IncomingRequestQueue(capacity=5)
        irq.add(entry())
        assert list(irq.paths_to(99)) == []

    def test_compaction_purges_dead_entries(self):
        irq = IncomingRequestQueue(capacity=500)
        for i in range(200):
            irq.add(entry(requester=i + 10, obj=i, tree=None))
        for i in range(200):
            irq.remove(i + 10, i)
        # After draining the queue, lazy compaction must have emptied
        # the index (dead occurrences dominate whenever live count is 0).
        assert not irq.index_key_set()

    @pytest.mark.xfail(
        strict=True,
        reason="refresh_tree keeps an entry in the bucket of a peer that "
        "left its tree and appends it again when the peer returns",
    )
    def test_peer_that_leaves_and_rejoins_a_tree_is_indexed_once(self):
        irq = IncomingRequestQueue(capacity=5)
        queued = entry(tree=RequestTreeNode(2, None, (RequestTreeNode(5, 50),)))
        irq.add(queued)
        irq.refresh_tree(queued, RequestTreeNode(2, None, (RequestTreeNode(4, 40),)))
        irq.refresh_tree(queued, RequestTreeNode(2, None, (RequestTreeNode(5, 50),)))
        assert irq_index(irq)[5] == [queued]
        assert [path for _e, path in irq.paths_to(5)] == [((2, 20), (5, 50))]

    def test_occurrences_cached(self):
        """``paths_for`` builds a peer's paths once per attached tree."""
        e = entry(tree=self._tree())
        first = e.paths_for(5)
        assert first == [((2, 20), (4, 44), (5, 55))]
        assert e.paths_for(5) is first
        e.set_tree(RequestTreeNode(2, None, (RequestTreeNode(5, 50),)))
        assert e.paths_for(5) == [((2, 20), (5, 50))]


class TestCompactionProperty:
    """``_maybe_compact`` is invisible: any interleaving of mutations
    leaves the observable queue exactly equal to a reference model.

    Compaction rebuilds the inverted index from live entries whenever
    dead occurrences dominate; these properties pin what it must
    preserve — FIFO snapshot order, per-peer path contents and order,
    and the binding epoch (content mutations must never touch it).
    """

    OPS = st.lists(
        st.one_of(
            st.tuples(
                st.just("add"),
                st.integers(min_value=0, max_value=9),
                st.integers(min_value=0, max_value=14),
                st.frozensets(st.integers(min_value=10, max_value=16), max_size=3),
            ),
            st.tuples(st.just("remove"), st.integers(min_value=0, max_value=63)),
            st.tuples(st.just("offline_drain")),
            st.tuples(st.just("bind")),
        ),
        max_size=60,
    )

    @settings(max_examples=120, deadline=None)
    @given(ops=OPS)
    def test_interleaved_mutation_matches_reference_model(self, ops):
        irq = IncomingRequestQueue(capacity=1_000)
        model = {}  # key -> (entry, indexed peer set), insertion-ordered
        binds = 0
        for op in ops:
            kind = op[0]
            if kind == "add":
                _, requester, obj, children = op
                children = {c for c in children if c != requester}
                tree = (
                    RequestTreeNode(
                        requester,
                        None,
                        tuple(RequestTreeNode(c, obj) for c in sorted(children)),
                    )
                    if children
                    else None
                )
                candidate = entry(requester, obj, tree=tree)
                if irq.add(candidate):
                    model[(requester, obj)] = (candidate, {requester} | children)
                else:
                    assert (requester, obj) in model  # capacity is ample
            elif kind == "remove":
                _, pick = op
                if model:
                    key = list(model)[pick % len(model)]
                    assert irq.remove(*key) is model.pop(key)[0]
                else:
                    assert irq.remove(99, 99) is None
            elif kind == "offline_drain":
                # What Peer._drain_incoming_requests does: withdraw
                # every queued entry, one remove at a time.
                for live in list(irq.active_entries()):
                    irq.remove(live.requester_id, live.object_id)
                model.clear()
            else:
                irq.note_binding_change()
                binds += 1
            # Observable state equals the model after *every* step —
            # compaction may have struck anywhere in between.
            assert [e.key for e in irq.snapshot()] == list(model)
            view = irq_index(irq)
            for peer_id in range(0, 17):
                expected = [
                    e for (e, peers) in model.values() if peer_id in peers
                ]
                assert [e for e, _ in irq.paths_to(peer_id)] == expected
                assert [e for e in view.get(peer_id, []) if e.active] == expected
            assert irq.binding_epoch == binds
        assert irq._dead_in_index >= 0
        if not model:
            # An emptied queue compacts immediately: no garbage index.
            assert irq_index(irq) == {}
