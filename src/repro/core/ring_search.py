"""Ring search: finding feasible n-way exchanges.

"Let G be the directed graph whose vertices are nodes in the
peer-to-peer system, and whose labeled edges represent requests ... any
cycle of length n in G represents a feasible n-way exchange" (§III-A).

A peer P searches its *composite request tree* — its IRQ entries plus
the tree snapshots they carry — for any peer X that provides an object P
wants.  X at composite depth *d* (root = depth 1) closes a ring of *d*
peers.  Ownership knowledge comes from provider lists (the paper: P
"can use the original provider list to compute a cycle containing a
peer Pj even if it did not originally transmit a request to Pj").

The search here is a set intersection per wanted object, against the
IRQ's inverted peer index, so its cost is proportional to the number of
*hits*, not the tree size.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Dict, List, Set

from repro.core.peer_table import BITSET_MIN
from repro.core.request_tree import Path

if TYPE_CHECKING:  # pragma: no cover - hints only
    from repro.core.irq import IncomingRequestQueue, RequestEntry
    from repro.core.peer_table import PeerStateTable


class RingCandidate:
    """A feasible ring: a tree path plus the closing wanted object.

    ``path[i]`` is ``(peer_id, object_id)`` — the object that peer
    requested from its predecessor (the search root for ``i == 0``).
    The ring has ``len(path) + 1`` members: the searching peer plus the
    path peers; the last path peer provides ``want_object_id`` back to
    the searcher.
    """

    __slots__ = ("want_object_id", "path", "entry", "size")

    def __init__(self, want_object_id: int, path: Path, entry: "RequestEntry") -> None:
        self.want_object_id = want_object_id
        self.path = path
        self.entry = entry  # the IRQ entry the path came from (liveness check)
        # Ring size if committed: the path plus the searching peer.  A
        # plain attribute, not a property — the policy layer reads it
        # per candidate per ordering pass, millions of times per run.
        self.size = len(path) + 1

    def peers(self) -> List[int]:
        """Peer ids along the candidate path (closing peer last)."""
        return [step[0] for step in self.path]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"RingCandidate(size={self.size}, want={self.want_object_id}, "
            f"via={self.peers()})"
        )


def path_is_usable(path: Path, searcher_id: int, max_ring: int) -> bool:
    """Reject paths that cannot close into a valid ring for ``searcher_id``.

    Paths with duplicate peers were already filtered at index-build
    time; here we additionally reject paths through the searcher itself
    (a ring visits distinct peers) and paths too long for the policy.
    """
    if len(path) + 1 > max_ring:
        return False
    for peer_id, _object_id in path:
        if peer_id == searcher_id:
            return False
    return True


def find_candidates(
    searcher_id: int,
    irq: "IncomingRequestQueue",
    wants: Dict[int, Set[int]],
    max_ring: int,
    peer_table: "PeerStateTable",
    object_version_of: Callable[[int, int], int],
) -> List[RingCandidate]:
    """Enumerate ring candidates for a searching peer.

    Parameters
    ----------
    wants:
        ``{object_id: provider_peer_ids}`` for the searcher's open
        requests (provider sets from lookup; may be shared live sets —
        they are only read).
    peer_table / object_version_of:
        The provider ∩ request-index intersection goes through
        :meth:`~repro.core.peer_table.PeerStateTable.sorted_intersection`
        — provider-mask fancy-indexed by the IRQ's sorted key array for
        large operands, same ascending hit order either way
        (``object_version_of`` is ``lookup.object_versions().get``,
        keying the mask cache).

    Returns candidates in deterministic discovery order (objects sorted,
    providers sorted, FIFO entries); the policy layer re-orders them.
    """
    if max_ring < 2 or not wants or irq.is_empty:
        return []
    candidates: List[RingCandidate] = []
    index_keys = irq.index_key_set()
    # The sorted key array only matters on the mask path, and
    # sorted_intersection takes that path only when *both* operands
    # clear BITSET_MIN — so probe the provider sizes before paying
    # the rebuild (O(index log index) on every IRQ version bump,
    # measured ~11% of a whole 50k-peer run when built eagerly for
    # provider sets that never grow past a handful).
    index_keys_arr = (
        irq.index_keys_array()
        if len(index_keys) >= BITSET_MIN
        and any(len(p) >= BITSET_MIN for p in wants.values())
        else None
    )
    for object_id in sorted(wants):
        providers = wants[object_id]
        hits_sorted = peer_table.sorted_intersection(
            object_id,
            object_version_of(object_id, 0),
            providers,
            index_keys_arr,
            index_keys,
        )
        for provider_id in hits_sorted:
            for entry, path in irq.paths_to(provider_id):
                if path_is_usable(path, searcher_id, max_ring):
                    candidates.append(RingCandidate(object_id, path, entry))
    return candidates
