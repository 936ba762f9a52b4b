"""Unit tests for the ring token pass against live peer state."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.exchange_manager import _candidate_veto
from repro.core.policies import parse_mechanism
from repro.core.ring import RingEdge, edges_from_candidate
from repro.core.ring_search import RingCandidate
from repro.core.token_protocol import (
    REASON_ALREADY_EXCHANGING,
    REASON_NO_LONGER_WANTED,
    REASON_NO_UPLOAD_SLOT,
    REASON_NOT_EXCHANGING,
    REASON_NOT_SHARING,
    REASON_OBJECT_GONE,
    REASON_OFFLINE,
    REASON_RING_TOO_LONG,
    edge_veto,
)

from tests.helpers import build_peer, give, make_ctx


def first_veto(ctx, edges):
    """The token pass over ``edges``: the first edge's veto, else None."""
    ring_size = len(edges)
    for edge in edges:
        veto = edge_veto(
            ctx.peers[edge.requester_id],
            ctx.peers[edge.provider_id],
            edge.object_id,
            ring_size,
        )
        if veto is not None:
            return veto
    return None


@pytest.fixture
def network():
    """Two sharers with a mutual pairwise want, ready to validate.

    Peers are built with the "none" policy so no ring forms on its own
    during setup, then upgraded to an exchange-capable policy — these
    tests run the token pass directly over hand-built edges.
    """
    ctx = make_ctx()
    a = build_peer(ctx, 1, mechanism="none")
    b = build_peer(ctx, 2, mechanism="none")
    give(ctx, a, 0)  # A holds object 0 (B wants it)
    give(ctx, b, 1)  # B holds object 1 (A wants it)
    a.start_download(ctx.catalog.object(1))
    b.start_download(ctx.catalog.object(0))
    a.policy = parse_mechanism("pairwise")
    b.policy = parse_mechanism("pairwise")
    edges = [
        RingEdge(requester_id=2, provider_id=1, object_id=0),
        RingEdge(requester_id=1, provider_id=2, object_id=1),
    ]
    return ctx, a, b, edges


class TestValidateRing:
    def test_valid_ring_passes(self, network):
        ctx, _a, _b, edges = network
        assert first_veto(ctx, edges) is None

    def test_offline_provider_vetoes(self, network):
        ctx, a, _b, edges = network
        a.online = False
        assert first_veto(ctx, edges) == (REASON_OFFLINE, 1)

    def test_non_sharing_provider_vetoes(self, network):
        ctx, _a, _b, edges = network
        freeloader = build_peer(ctx, 3, shares=False)
        give(ctx, freeloader, 0)  # stored but never shared
        bad = [
            RingEdge(requester_id=2, provider_id=3, object_id=0),
            RingEdge(requester_id=3, provider_id=2, object_id=1),
        ]
        assert first_veto(ctx, bad) == (REASON_NOT_SHARING, 3)

    def test_non_exchanging_member_vetoes(self, network):
        # Heterogeneous populations: a member whose class never adopted
        # the exchange mechanism does not answer the token.
        ctx, a, _b, edges = network
        a.policy = parse_mechanism("none")
        assert first_veto(ctx, edges) == (REASON_NOT_EXCHANGING, 1)

    def test_member_ring_size_cap_vetoes(self):
        # A pairwise-class peer refuses membership in a 3-way ring even
        # when a 2-5-way initiator proposes it.
        ctx = make_ctx()
        a = build_peer(ctx, 1, mechanism="none")
        b = build_peer(ctx, 2, mechanism="none")
        c = build_peer(ctx, 3, mechanism="none")
        give(ctx, a, 0)
        give(ctx, b, 1)
        give(ctx, c, 2)
        a.start_download(ctx.catalog.object(2))  # A wants 2 (held by C)
        b.start_download(ctx.catalog.object(0))  # B wants 0 (held by A)
        c.start_download(ctx.catalog.object(1))  # C wants 1 (held by B)
        a.policy = parse_mechanism("2-5-way")
        b.policy = parse_mechanism("2-5-way")
        c.policy = parse_mechanism("pairwise")
        edges = [
            RingEdge(requester_id=2, provider_id=1, object_id=0),
            RingEdge(requester_id=3, provider_id=2, object_id=1),
            RingEdge(requester_id=1, provider_id=3, object_id=2),
        ]
        assert first_veto(ctx, edges) == (REASON_RING_TOO_LONG, 3)
        # With C upgraded to a 3-way-capable policy the same ring passes
        # (pairwise acceptance is covered by test_valid_ring_passes).
        c.policy = parse_mechanism("2-5-way")
        assert first_veto(ctx, edges) is None

    def test_evicted_object_vetoes(self, network):
        ctx, a, _b, edges = network
        a.store.remove(0)
        assert first_veto(ctx, edges) == (REASON_OBJECT_GONE, 1)

    def test_satisfied_requester_vetoes(self, network):
        ctx, _a, b, edges = network
        b.pending.clear()  # B no longer wants anything
        assert first_veto(ctx, edges) == (REASON_NO_LONGER_WANTED, 2)

    def test_exchange_saturated_provider_vetoes(self, network):
        ctx, a, _b, edges = network
        a._exchange_uploads = a.upload_pool.total  # all slots exchange-committed
        assert first_veto(ctx, edges) == (REASON_NO_UPLOAD_SLOT, 1)

    def test_full_normal_slots_do_not_veto(self, network):
        # Non-exchange uploads are preemptible, so a provider whose slots
        # are all occupied by NORMAL transfers still validates.
        ctx, a, _b, edges = network
        a.upload_pool.in_use = a.upload_pool.total
        assert a.exchange_upload_count == 0
        assert first_veto(ctx, edges) is None

    def test_want_already_in_exchange_vetoes(self, network):
        ctx, _a, b, edges = network

        class _FakeExchangeTransfer:
            is_exchange = True

            def __init__(self):
                class _P:
                    peer_id = 99

                self.provider = _P()

        # Through attach_transfer so the exchange-source counter backing
        # has_exchange_transfer stays in sync, as any real transfer does.
        b.pending[0].attach_transfer(_FakeExchangeTransfer())
        assert first_veto(ctx, edges) == (REASON_ALREADY_EXCHANGING, 2)

    def test_failure_reports_offending_peer(self, network):
        # The first edge's provider (A) passes; its requester (B) is
        # the member that vetoes, so the veto names B, not A.
        ctx, _a, b, edges = network
        b.online = False
        assert first_veto(ctx, edges) == (REASON_OFFLINE, 2)


#: Peers of the memo property's world: 0-2 take only pairwise rings,
#: 3-5 take rings of 2 to 5; peer 5 is offline.  Peer p holds object p
#: and wants objects 0-5 it does not hold; object 6 exists but nobody
#: holds or wants it.
PAIRWISE_PEERS = (0, 1, 2)
MULTIWAY_PEERS = (3, 4, 5)
WORLD_OBJECTS = 7


def veto_world():
    ctx = make_ctx()
    peers = [build_peer(ctx, p, mechanism="none") for p in range(6)]
    for peer in peers:
        give(ctx, peer, peer.peer_id)
    for peer in peers:
        for object_id in range(6):
            if object_id != peer.peer_id:
                peer.start_download(ctx.catalog.object(object_id))
    for peer in peers:
        peer.policy = parse_mechanism(
            "pairwise" if peer.peer_id in PAIRWISE_PEERS else "2-5-way"
        )
    peers[5].online = False
    return ctx


@st.composite
def ring_candidates(draw, searcher):
    """A path of 1-4 distinct non-searcher peers and a closing object.

    Each step asks for its provider's own object half the time (an edge
    that can pass) and for any object otherwise.
    """
    others = [p for p in PAIRWISE_PEERS + MULTIWAY_PEERS if p != searcher]
    members = draw(st.lists(st.sampled_from(others), min_size=1, max_size=4, unique=True))
    objects = st.integers(0, WORLD_OBJECTS - 1)
    path = []
    provider = searcher
    for peer in members:
        path.append((peer, provider if draw(st.booleans()) else draw(objects)))
        provider = peer
    want = provider if draw(st.booleans()) else draw(objects)
    return RingCandidate(want, tuple(path), None)


class TestCandidateVetoIsTheTokenPass:
    """The exchange manager's memoized veto walk returns exactly what an
    in-order :func:`edge_veto` walk over the candidate's ring edges
    returns, with one memo shared across a sequence of candidates (as
    within one search pass, where no state changes between them)."""

    @settings(max_examples=200, deadline=None)
    @given(data=st.data(), searcher=st.sampled_from(PAIRWISE_PEERS + MULTIWAY_PEERS))
    def test_memoized_walk_matches_in_order_edge_veto(self, data, searcher):
        ctx = veto_world()
        memo = {}
        candidates = data.draw(st.lists(ring_candidates(searcher), min_size=1, max_size=8))
        for candidate in candidates:
            expected = first_veto(ctx, edges_from_candidate(searcher, candidate))
            assert _candidate_veto(ctx.peers, searcher, candidate, memo) == expected
