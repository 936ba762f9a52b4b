"""Exchange ring lifecycle.

A ring of *n* peers carries *n* edges; on edge ``(requester, provider,
object)`` the provider serves the object to the requester, so "each
peer provides an object to their predecessor and gets an object from
their successor" (§III-A).

Rings break as soon as any member transfer terminates — most commonly
because a member completed its download (§III: "It is quite common for
one side to terminate first, when it completes its own download").  The
configured break policy decides what happens to the surviving
transfers: ``terminate`` ends them (they re-queue as normal requests),
``downgrade`` lets them continue as preemptible non-exchange sessions.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import TYPE_CHECKING, List, Tuple

from repro.errors import RingError
from repro.metrics.records import TerminationReason

if TYPE_CHECKING:  # pragma: no cover - hints only
    from repro.core.ring_search import RingCandidate
    from repro.network.transfer import Transfer


@dataclass(frozen=True)
class RingEdge:
    """One request edge of a ring: requester ← provider, labelled object."""

    requester_id: int
    provider_id: int
    object_id: int


def edges_from_candidate(initiator_id: int, candidate: "RingCandidate") -> List[RingEdge]:
    """Expand a search candidate into the full ring edge list.

    Walking the tree path from the initiator: each path step requested
    its object from the previous peer; the initiator closes the cycle by
    requesting the wanted object from the last path peer.
    """
    edges: List[RingEdge] = []
    previous = initiator_id
    for peer_id, object_id in candidate.path:
        edges.append(
            RingEdge(requester_id=peer_id, provider_id=previous, object_id=object_id)
        )
        previous = peer_id
    edges.append(
        RingEdge(
            requester_id=initiator_id,
            provider_id=previous,
            object_id=candidate.want_object_id,
        )
    )
    return edges


#: What happens to a broken ring's surviving transfers (see the module
#: docstring); ``SimulationConfig.ring_break_policy`` takes one of these.
BREAK_POLICIES = ("terminate", "downgrade")


class RingState(enum.Enum):
    """Lifecycle of a ring: forming -> active -> broken."""
    FORMING = "forming"
    ACTIVE = "active"
    BROKEN = "broken"


class ExchangeRing:
    """A committed n-way exchange and its member transfers."""

    def __init__(self, ring_id: int, edges: List[RingEdge], break_policy: str) -> None:
        if len(edges) < 2:
            raise RingError(f"a ring needs >= 2 edges, got {len(edges)}")
        if break_policy not in BREAK_POLICIES:
            raise RingError(f"unknown ring break policy {break_policy!r}")
        peers = [edge.requester_id for edge in edges]
        if len(set(peers)) != len(peers):
            raise RingError(f"ring has duplicate members: {peers}")
        providers = sorted(edge.provider_id for edge in edges)
        if providers != sorted(peers):
            raise RingError("ring edges do not form a single cycle")
        self.ring_id = ring_id
        self.edges: Tuple[RingEdge, ...] = tuple(edges)
        self.break_policy = break_policy
        self.state = RingState.FORMING
        self.transfers: List["Transfer"] = []

    @property
    def size(self) -> int:
        """Number of members (= edges) in the ring."""
        return len(self.edges)

    def member_ids(self) -> List[int]:
        """The ring's member peer ids, in edge order."""
        return [edge.requester_id for edge in self.edges]

    def attach(self, transfer: "Transfer") -> None:
        """Bind one member transfer to the forming ring."""
        if self.state is RingState.BROKEN:
            raise RingError(f"cannot attach a transfer to broken ring {self.ring_id}")
        self.transfers.append(transfer)

    def activate(self) -> None:
        """All edges attached: the ring goes active."""
        if len(self.transfers) != len(self.edges):
            raise RingError(
                f"ring {self.ring_id} activated with {len(self.transfers)} "
                f"transfers for {len(self.edges)} edges"
            )
        self.state = RingState.ACTIVE

    # ------------------------------------------------------------------
    def on_transfer_terminated(self, transfer: "Transfer", reason: TerminationReason) -> None:
        """A member transfer ended: break the ring (idempotent)."""
        if transfer in self.transfers:
            self.transfers.remove(transfer)
        if self.state is RingState.BROKEN:
            return
        self.state = RingState.BROKEN
        survivors = [t for t in self.transfers if t.active]
        if self.break_policy == "terminate":
            for survivor in survivors:
                survivor.terminate(TerminationReason.RING_BROKEN)
        else:
            for survivor in survivors:
                survivor.downgrade_to_normal()
            self.transfers.clear()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ExchangeRing(id={self.ring_id}, size={self.size}, "
            f"state={self.state.value}, members={self.member_ids()})"
        )
