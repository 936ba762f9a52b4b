"""Exchange formation: search → token pass → commit.

This module glues the ring search, the candidate-ordering policy and the
token protocol into the three trigger points the paper describes:

* before transmitting a request, the requester "inspects the entire
  Request Tree to see if any peer provides o" (:func:`try_form_exchanges`
  with ``only_object``);
* on receipt of a request, the provider checks the incoming tree "for
  any object that P still wants": registering the request schedules
  the provider's next pass (``Peer.register_request_at``), which runs
  the full search;
* and peers "regularly examine" their IRQs (the periodic scan calls the
  unrestricted form).

Commit is atomic within one simulation event: validation and slot
commitment happen back-to-back with no interleaving, which plays the
role of the token's mutual-agreement round.  Competing ring proposals
are serialized by the event loop, exactly like the paper's observation
that "only one will be initiated successfully".
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Dict, Optional, Sequence, Set, Tuple

from repro.core import token_protocol
from repro.core.ring import ExchangeRing, RingEdge, edges_from_candidate
from repro.core.ring_search import RingCandidate, find_candidates
from repro.core.scheduler import preempt_for_exchange
from repro.metrics.records import TerminationReason
from repro.network.transfer import Transfer

if TYPE_CHECKING:  # pragma: no cover - hints only
    from repro.network.peer import Peer


def open_wants(peer: "Peer", only_object: Optional[int] = None) -> Dict[int, Set[int]]:
    """The peer's exchange-eligible wants: object → live provider set.

    A want is eligible while the download is open, has unassigned blocks
    to fetch, and is not already served by an exchange (the paper's
    one-exchange-per-request rule).

    The provider sets are the lookup service's *live* views, not copies
    (:meth:`~repro.network.lookup.LookupService.provider_view`): ring
    search only reads them, and a set may hold the searcher itself,
    because ``path_is_usable`` rejects any path through the searcher.
    """
    lookup = peer.ctx.lookup
    wants: Dict[int, Set[int]] = {}  # simlint: disable=HOT001 -- one scratch dict per search pass, not per event; passes are gated by the idle-search version check
    for object_id, download in peer.pending.items():
        if only_object is not None and object_id != only_object:
            continue
        if download.completed or download.unassigned_blocks <= 0:
            continue
        if download.has_exchange_transfer:
            continue
        providers = lookup.provider_view(object_id)
        if providers:
            wants[object_id] = providers
    return wants


def search_state_key(peer: "Peer") -> tuple:
    """Fingerprint of everything an unrestricted ring search reads.

    Covers the four inputs of :func:`open_wants` + :func:`find_candidates`:
    the peer's IRQ content (``version``), entry↔transfer attachments
    (``binding_epoch`` — they gate which entries are usable edges), the
    provider sets of the peer's pending objects (per-object lookup
    versions — the *only* slice of the index the search reads, so
    unrelated register/unregister churn elsewhere in the network does
    not reopen this peer's gate) and the pending-download ledger (each
    download's ``epoch`` moves on any block/transfer state change).
    Equal keys ⇒ identical search inputs ⇒ a search that found nothing
    will find nothing again, so the periodic scan can skip it outright.
    """
    irq = peer.irq
    version_of = peer.ctx.lookup.object_versions().get
    parts = [irq.version, irq.binding_epoch]
    append = parts.append
    for object_id, download in peer.pending.items():
        append(object_id)
        append(download.epoch)
        append(version_of(object_id, 0))
    # Flat tuple: same information as the nested per-download triples
    # (fixed stride, so equal flats ⇔ equal nesteds) without the inner
    # tuple allocations — this runs on every single scan pass.
    return tuple(parts)


def try_form_exchanges(peer: "Peer", only_object: Optional[int] = None) -> int:
    """Search for feasible rings through this peer and commit them.

    Returns the number of rings formed.  Candidates are re-validated
    just before each commit because an earlier commit in the same pass
    may have consumed a want or a slot.

    The unrestricted form (the periodic scan) is gated on change
    tracking: a pass whose previous search found *no candidates* and
    whose :func:`search_state_key` has not moved since skips the whole
    search — no provider-set reads, no index intersections.  Searches
    that found candidates are never gated (their outcome also depends
    on remote validation state the key deliberately does not cover),
    so metrics and formed rings are bit-identical to the ungated code.
    """
    policy = peer.policy
    if not policy.enables_exchanges or not peer.shares:
        return 0
    counters = peer.ctx.counters
    gate_key = None
    if only_object is None:
        gate_key = search_state_key(peer)
        if gate_key == peer.idle_search_key:
            counters.bump("ring_search.gated_skips")
            return 0
    wants = open_wants(peer, only_object=only_object)
    if not wants:
        if gate_key is not None:
            peer.idle_search_key = gate_key
        return 0
    ctx = peer.ctx
    counters.bump("ring_search.searches")
    candidates = find_candidates(
        peer.peer_id,
        peer.irq,
        wants,
        policy.max_ring,
        peer_table=ctx.peer_table,
        object_version_of=ctx.lookup.object_versions().get,
    )
    counters.bump("ring_search.candidates", len(candidates))
    if not candidates:
        if gate_key is not None:
            peer.idle_search_key = gate_key
        return 0
    if gate_key is not None:
        peer.idle_search_key = None
    metrics = ctx.metrics
    peers = peer.ctx.peers
    peer_id = peer.peer_id
    pending = peer.pending
    formed = 0
    # Per-pass memo of edge vetoes: candidate lists repeat the same
    # (requester, provider, object, size) edges many times (one busy
    # entry anchors hundreds of paths), and between commits nothing a
    # token pass reads can change.  Cleared after every commit.
    memo: Dict[Tuple[int, int, int, int], Optional[Tuple[str, int]]] = {}  # simlint: disable=HOT001 -- one memo per search pass; it exists to *remove* per-candidate work, and passes are version-gated
    for candidate in policy.order(candidates):
        download = pending.get(candidate.want_object_id)
        if (
            download is None
            or download.completed
            or download.unassigned_blocks <= 0
            or download.has_exchange_transfer
        ):
            continue  # consumed by an earlier commit in this pass
        if not candidate.entry.active:
            continue  # the path's IRQ entry was served or cancelled
        metrics.count("ring.attempt")
        veto = _candidate_veto(peers, peer_id, candidate, memo)
        if veto is not None:
            metrics.count(f"ring.reject.{veto[0]}")
            continue
        edges = edges_from_candidate(peer_id, candidate)
        commit_ring(peer, edges)
        memo.clear()
        metrics.count("ring.formed")
        metrics.count(f"ring.formed.size{len(edges)}")
        formed += 1
    if formed:
        counters.bump("ring_search.rings_formed", formed)
    return formed


#: Memo sentinel distinguishing "edge not yet checked" from a cached
#: ``None`` ("edge passed").
_UNCHECKED: Any = object()


def _candidate_veto(
    peers: Dict[int, "Peer"],
    searcher_id: int,
    candidate: RingCandidate,
    memo: Dict[Tuple[int, int, int, int], Optional[Tuple[str, int]]],
) -> Optional[Tuple[str, int]]:
    """First token veto for a candidate's ring, or None if it validates.

    This is the token pass: :func:`~repro.core.token_protocol.edge_veto`
    over the edges :func:`~repro.core.ring.edges_from_candidate` would
    build, in the same order, stopping at the first veto — without
    materializing :class:`~repro.core.ring.RingEdge` objects for the
    ~99% of attempts that are vetoed, and memoized per pass (the
    overwhelmingly common veto, ``already-exchanging``, repeats for every
    path anchored at the same busy entry).
    """
    path = candidate.path
    ring_size = len(path) + 1
    provider_id = searcher_id
    for requester_id, object_id in path:
        key = (requester_id, provider_id, object_id, ring_size)
        veto = memo.get(key, _UNCHECKED)
        if veto is _UNCHECKED:
            veto = token_protocol.edge_veto(
                peers[requester_id], peers[provider_id], object_id, ring_size
            )
            memo[key] = veto
        if veto is not None:
            return veto
        provider_id = requester_id
    key = (searcher_id, provider_id, candidate.want_object_id, ring_size)
    veto = memo.get(key, _UNCHECKED)
    if veto is _UNCHECKED:
        veto = token_protocol.edge_veto(
            peers[searcher_id], peers[provider_id], candidate.want_object_id, ring_size
        )
        memo[key] = veto
    return veto


def commit_ring(peer: "Peer", edges: Sequence[RingEdge]) -> ExchangeRing:
    """Commit a validated ring: replace/preempt slots and start transfers.

    Must run in the same event as the token pass that validated it
    (:func:`_candidate_veto`, no interleaving), which is what makes the
    per-edge bookkeeping below safe without re-checking capacity.
    """
    ctx = peer.ctx
    ring = ExchangeRing(
        ring_id=ctx.next_ring_id(),
        edges=list(edges),
        break_policy=ctx.config.ring_break_policy,
    )
    for edge in ring.edges:
        provider = ctx.peer(edge.provider_id)
        requester = ctx.peer(edge.requester_id)
        download = requester.pending[edge.object_id]
        existing = download.transfer_from(edge.provider_id)
        if existing is not None:
            # The same edge was being served as a normal transfer: the
            # session is "canceled and replaced" by the exchange (§IV-B).
            existing.terminate(TerminationReason.REPLACED_BY_EXCHANGE, requeue=False)
        if provider.upload_pool.free <= 0:
            preempt_for_exchange(provider)
        transfer = Transfer(ctx, provider=provider, requester=requester,
                            download=download, ring=ring)
        entry = provider.irq.get(edge.requester_id, edge.object_id)
        if entry is not None and entry.queued:
            # The registered request is now satisfied by the exchange; it
            # stays registered (and returns to the queue if the ring breaks).
            transfer.bind_entry(entry)
        ring.attach(transfer)
        transfer.start()
    ring.activate()
    return ring
