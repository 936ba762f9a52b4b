"""Ring-initiation token validation (paper §III-A).

"In practice, P must circulate a token through the proposed ring to
determine whether everyone is still willing to serve."  Request trees
are frozen snapshots, so by the time a ring is proposed some members may
have gone offline, completed their download, evicted the object, or
committed their slots to a competing ring ("it is possible that several
peers along the intended cycle will attempt to create the same ring
roughly simultaneously").

The simulator executes the token pass instantaneously (the paper's own
simulation makes the same simplification; §V) but checks the same
predicates a real token pass would: :func:`edge_veto` once per ring
edge, in ring order, stopping at the first veto
(:mod:`repro.core.exchange_manager` walks a candidate's edges).  A veto
carries a reason string that metrics aggregate — the reject mix is
itself an interesting measurement.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional, Tuple

if TYPE_CHECKING:  # pragma: no cover - hints only
    from repro.network.peer import Peer


#: Reasons a token pass can fail; kept as constants so metrics keys are stable.
REASON_OFFLINE = "member-offline"
REASON_NOT_SHARING = "member-not-sharing"
REASON_NOT_EXCHANGING = "member-not-exchanging"
REASON_RING_TOO_LONG = "ring-size-not-accepted"
REASON_OBJECT_GONE = "object-gone"
REASON_NO_LONGER_WANTED = "no-longer-wanted"
REASON_ALREADY_EXCHANGING = "already-exchanging"
REASON_NO_UPLOAD_SLOT = "no-upload-slot"
REASON_NO_DOWNLOAD_SLOT = "no-download-slot"


def edge_veto(
    requester: "Peer", provider: "Peer", object_id: int, ring_size: int
) -> Optional[Tuple[str, int]]:
    """One edge's token check: ``(reason, peer_id)`` on veto, else None.

    The *provider* must be online, sharing, hold the object (or enough
    of it, under the partial-serving extension) and have an upload slot
    not already committed to another exchange (non-exchange uploads are
    preemptible, so they do not count against availability).  The
    *requester* must still want the object — an open, not-yet-exchange-
    served download with unassigned blocks — and be able to receive it.

    The result is a value, not an exception: at scale ~99% of ring
    attempts are vetoed, and the exchange manager memoizes it per pass.
    Check order is observable through the reject-reason counters, so it
    must never be reordered.
    """
    if not provider.online:
        return (REASON_OFFLINE, provider.peer_id)
    if not provider.behavior.shares:
        return (REASON_NOT_SHARING, provider.peer_id)
    if not provider.policy.enables_exchanges:
        # Heterogeneous populations: a member that has not adopted
        # the exchange mechanism never answers the token.  Vacuous
        # under a homogeneous population (the initiator's own policy
        # already gates the search), so legacy runs are unchanged.
        return (REASON_NOT_EXCHANGING, provider.peer_id)
    if not 2 <= ring_size <= provider.policy.max_ring:
        # Likewise per-member: a pairwise-class peer refuses a
        # 3..N-way ring even when an N-way initiator proposed it.
        return (REASON_RING_TOO_LONG, provider.peer_id)
    if not provider.can_serve(object_id):
        return (REASON_OBJECT_GONE, provider.peer_id)
    if provider.exchange_upload_count >= provider.upload_pool.total:
        return (REASON_NO_UPLOAD_SLOT, provider.peer_id)

    if not requester.online:
        return (REASON_OFFLINE, requester.peer_id)
    if not requester.policy.enables_exchanges:
        return (REASON_NOT_EXCHANGING, requester.peer_id)
    if not 2 <= ring_size <= requester.policy.max_ring:
        return (REASON_RING_TOO_LONG, requester.peer_id)
    download = requester.pending.get(object_id)
    if download is None or download.completed or download.unassigned_blocks <= 0:
        return (REASON_NO_LONGER_WANTED, requester.peer_id)
    if download.has_exchange_transfer:
        # Paper: one registered request can join at most one exchange.
        return (REASON_ALREADY_EXCHANGING, requester.peer_id)
    if requester.download_pool.free <= 0 and download.transfer_from(provider.peer_id) is None:
        return (REASON_NO_DOWNLOAD_SLOT, requester.peer_id)
    return None
