"""Unit tests for ring construction and lifecycle."""

from __future__ import annotations

import pytest

from repro.core.ring import ExchangeRing, RingEdge, RingState, edges_from_candidate
from repro.core.ring_search import RingCandidate
from repro.errors import RingError
from repro.metrics.records import TerminationReason


class TestEdgesFromCandidate:
    def test_pairwise_edges(self):
        candidate = RingCandidate(want_object_id=7, path=((2, 20),), entry=None)
        edges = edges_from_candidate(1, candidate)
        assert edges == [
            RingEdge(requester_id=2, provider_id=1, object_id=20),
            RingEdge(requester_id=1, provider_id=2, object_id=7),
        ]

    def test_three_way_edges(self):
        candidate = RingCandidate(want_object_id=7, path=((2, 20), (4, 44)), entry=None)
        edges = edges_from_candidate(1, candidate)
        assert edges == [
            RingEdge(requester_id=2, provider_id=1, object_id=20),
            RingEdge(requester_id=4, provider_id=2, object_id=44),
            RingEdge(requester_id=1, provider_id=4, object_id=7),
        ]

    def test_every_peer_provides_and_requests_once(self):
        candidate = RingCandidate(
            want_object_id=7, path=((2, 20), (4, 44), (5, 55)), entry=None
        )
        edges = edges_from_candidate(1, candidate)
        assert sorted(e.requester_id for e in edges) == sorted(
            e.provider_id for e in edges
        )


class _FakeTransfer:
    """Stands in for a network Transfer in ring lifecycle tests."""

    def __init__(self):
        self.active = True
        self.terminated_with = None
        self.downgraded = False

    def terminate(self, reason):
        self.active = False
        self.terminated_with = reason

    def downgrade_to_normal(self):
        self.downgraded = True


def make_ring(break_policy="terminate", size=3):
    peers = list(range(1, size + 1))
    edges = [
        RingEdge(
            requester_id=peers[i],
            provider_id=peers[(i - 1) % size],
            object_id=100 + i,
        )
        for i in range(size)
    ]
    return ExchangeRing(ring_id=1, edges=edges, break_policy=break_policy)


class TestRingConstruction:
    def test_size_and_members(self):
        ring = make_ring(size=4)
        assert ring.size == 4
        assert sorted(ring.member_ids()) == [1, 2, 3, 4]
        assert ring.state is RingState.FORMING

    def test_rejects_single_edge(self):
        with pytest.raises(RingError):
            ExchangeRing(1, [RingEdge(1, 2, 10)], "terminate")

    def test_rejects_duplicate_members(self):
        edges = [RingEdge(1, 2, 10), RingEdge(1, 2, 11)]
        with pytest.raises(RingError):
            ExchangeRing(1, edges, "terminate")

    def test_rejects_non_cycle(self):
        edges = [RingEdge(1, 2, 10), RingEdge(3, 1, 11)]  # 2 never requests
        with pytest.raises(RingError):
            ExchangeRing(1, edges, "terminate")

    def test_rejects_unknown_break_policy(self):
        with pytest.raises(RingError):
            make_ring(break_policy="implode")

    def test_activate_requires_all_transfers(self):
        ring = make_ring(size=3)
        ring.attach(_FakeTransfer())
        with pytest.raises(RingError):
            ring.activate()

    def test_activate(self):
        ring = make_ring(size=2)
        ring.attach(_FakeTransfer())
        ring.attach(_FakeTransfer())
        ring.activate()
        assert ring.state is RingState.ACTIVE


class TestRingBreak:
    def _active_ring(self, break_policy="terminate", size=3):
        ring = make_ring(break_policy=break_policy, size=size)
        transfers = [_FakeTransfer() for _ in range(size)]
        for t in transfers:
            ring.attach(t)
        ring.activate()
        return ring, transfers

    def test_terminate_policy_kills_survivors(self):
        ring, transfers = self._active_ring("terminate")
        first = transfers[0]
        first.active = False  # it terminated on its own
        ring.on_transfer_terminated(first, TerminationReason.COMPLETED)
        assert ring.state is RingState.BROKEN
        for survivor in transfers[1:]:
            assert survivor.terminated_with is TerminationReason.RING_BROKEN

    def test_downgrade_policy_keeps_survivors(self):
        ring, transfers = self._active_ring("downgrade")
        first = transfers[0]
        first.active = False
        ring.on_transfer_terminated(first, TerminationReason.COMPLETED)
        assert ring.state is RingState.BROKEN
        for survivor in transfers[1:]:
            assert survivor.downgraded
            assert survivor.terminated_with is None

    def test_break_is_idempotent(self):
        ring, transfers = self._active_ring("terminate")
        ring.on_transfer_terminated(transfers[0], TerminationReason.COMPLETED)
        # Cascaded terminations re-notify the ring; nothing further happens.
        ring.on_transfer_terminated(transfers[1], TerminationReason.RING_BROKEN)
        assert ring.state is RingState.BROKEN

    def test_attach_after_break_rejected(self):
        ring, transfers = self._active_ring("terminate")
        ring.on_transfer_terminated(transfers[0], TerminationReason.COMPLETED)
        with pytest.raises(RingError):
            ring.attach(_FakeTransfer())
