"""Unit tests for the ring search over composite request trees."""

from __future__ import annotations

from repro.core.irq import IncomingRequestQueue, RequestEntry
from repro.core.peer_table import PeerStateTable
from repro.core.request_tree import RequestTreeNode
from repro.core.ring_search import find_candidates, path_is_usable


def tree(peer_id, *children):
    return RequestTreeNode(peer_id, None, tuple(children))


def node(peer_id, object_id, *children):
    return RequestTreeNode(peer_id, object_id, tuple(children))


def search(irq, wants, max_ring):
    """Peer 1's ring search, with a fresh table and every object at version 0."""
    return find_candidates(1, irq, wants, max_ring, PeerStateTable(), {}.get)


class TestPathUsable:
    def test_simple_path_ok(self):
        assert path_is_usable(((2, 20),), searcher_id=1, max_ring=5)

    def test_path_through_searcher_rejected(self):
        assert not path_is_usable(((2, 20), (1, 10)), searcher_id=1, max_ring=5)

    def test_path_too_long_rejected(self):
        path = tuple((i, i * 10) for i in range(2, 7))  # 5 steps -> ring of 6
        assert not path_is_usable(path, searcher_id=1, max_ring=5)
        assert path_is_usable(path, searcher_id=1, max_ring=6)


class TestFindCandidates:
    def _irq(self, *entries):
        irq = IncomingRequestQueue(capacity=100)
        for e in entries:
            assert irq.add(e)
        return irq

    def test_pairwise_candidate_found(self):
        # Peer 2 requests object 20 from us; peer 2 provides object 7 we want.
        irq = self._irq(RequestEntry(2, 20, 0.0))
        candidates = search(irq, wants={7: {2}}, max_ring=5)
        assert len(candidates) == 1
        cand = candidates[0]
        assert cand.size == 2
        assert cand.want_object_id == 7
        assert cand.path == ((2, 20),)

    def test_no_candidates_when_providers_disjoint(self):
        irq = self._irq(RequestEntry(2, 20, 0.0))
        assert search(irq, wants={7: {9}}, max_ring=5) == []

    def test_three_way_candidate_through_tree(self):
        # Peer 2 requested 20 from us; its snapshot says peer 4 requested
        # 44 from peer 2.  Peer 4 provides object 7 we want: ring 1-4-2.
        snapshot = tree(2, node(4, 44))
        irq = self._irq(RequestEntry(2, 20, 0.0, tree=snapshot))
        candidates = search(irq, wants={7: {4}}, max_ring=5)
        assert len(candidates) == 1
        assert candidates[0].size == 3
        assert candidates[0].path == ((2, 20), (4, 44))

    def test_max_ring_limits_depth(self):
        snapshot = tree(2, node(4, 44, node(5, 55)))
        irq = self._irq(RequestEntry(2, 20, 0.0, tree=snapshot))
        assert search(irq, wants={7: {5}}, max_ring=3) == []
        found = search(irq, wants={7: {5}}, max_ring=4)
        assert [c.size for c in found] == [4]

    def test_multiple_wants_multiple_candidates(self):
        irq = self._irq(RequestEntry(2, 20, 0.0), RequestEntry(3, 30, 1.0))
        candidates = search(irq, wants={7: {2}, 8: {3}}, max_ring=5)
        assert {(c.want_object_id, c.path[-1][0]) for c in candidates} == {
            (7, 2),
            (8, 3),
        }

    def test_searcher_in_path_excluded(self):
        # Peer 2's snapshot claims WE (peer 1) requested something from it;
        # a ring through ourselves is not a ring.
        snapshot = tree(2, node(1, 11, node(4, 44)))
        irq = self._irq(RequestEntry(2, 20, 0.0, tree=snapshot))
        assert search(irq, wants={7: {4}}, max_ring=5) == []

    def test_inactive_entries_skipped(self):
        first = RequestEntry(2, 20, 0.0)
        irq = self._irq(first)
        irq.remove(2, 20)
        assert search(irq, wants={7: {2}}, max_ring=5) == []

    def test_no_exchange_when_ring_too_small(self):
        irq = self._irq(RequestEntry(2, 20, 0.0))
        assert search(irq, wants={7: {2}}, max_ring=1) == []

    def test_empty_wants(self):
        irq = self._irq(RequestEntry(2, 20, 0.0))
        assert search(irq, wants={}, max_ring=5) == []

    def test_deterministic_order(self):
        irq = self._irq(RequestEntry(2, 20, 0.0), RequestEntry(3, 30, 1.0))
        wants = {8: {3, 2}, 7: {2}}
        first = search(irq, wants, 5)
        second = search(irq, wants, 5)
        assert [(c.want_object_id, c.path) for c in first] == [
            (c.want_object_id, c.path) for c in second
        ]
        # Objects visited in sorted order.
        assert first[0].want_object_id == 7
