"""Per-object download state with distinct block assignment.

A peer downloads "different parts of the same object concurrently from
multiple sources" (§III).  :class:`DownloadState` is the requester-side
ledger for one pending object: how many blocks remain unassigned, which
transfers are feeding it, and which providers currently hold a queued
request for it.

Block assignment is exclusive: a transfer takes a block from the
unassigned pool before carrying it and returns it if cancelled
mid-flight, so no byte is ever fetched twice and completion is exact.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Optional, Set

from repro.errors import ProtocolError

if TYPE_CHECKING:  # pragma: no cover - hints only
    from repro.content.catalog import ContentObject
    from repro.network.transfer import Transfer


class DownloadState:
    """Requester-side ledger for one pending object download."""

    __slots__ = (
        "peer_id",
        "object",
        "request_time",
        "total_blocks",
        "delivered_blocks",
        "unassigned_blocks",
        "completed",
        "transfers",
        "exchange_sources",
        "registered_at",
        "lookup_failures",
        "epoch",
    )

    def __init__(
        self,
        peer_id: int,
        obj: "ContentObject",
        request_time: float,
        total_blocks: int,
    ) -> None:
        if total_blocks <= 0:
            raise ProtocolError(
                f"download of object {obj.object_id} needs >= 1 block, got {total_blocks}"
            )
        self.peer_id = peer_id
        self.object = obj
        self.request_time = request_time
        self.total_blocks = total_blocks
        self.delivered_blocks = 0
        self.unassigned_blocks = total_blocks
        self.completed = False
        #: Active transfers feeding this download, keyed by provider id.
        self.transfers: Dict[int, "Transfer"] = {}
        #: How many of those are exchange transfers (kept in sync by
        #: attach/detach and by ring downgrades via
        #: :meth:`note_exchange_downgrade`) — ``has_exchange_transfer``
        #: sits on the exchange-search hot path and must not scan.
        self.exchange_sources = 0
        #: Providers holding a live request entry (queued or being served).
        self.registered_at: Set[int] = set()
        #: Consecutive starved re-lookups that found no provider.
        self.lookup_failures = 0
        #: Bumped on every state change an exchange search can observe
        #: (block ledger moves, transfer attach/detach).  The peer's
        #: idle-search gate fingerprints its pending downloads with
        #: these, so an unchanged epoch set proves the search inputs
        #: did not move.
        self.epoch = 0

    # ------------------------------------------------------------------
    # block ledger
    # ------------------------------------------------------------------
    @property
    def in_flight_blocks(self) -> int:
        """Blocks currently assigned to a transfer but not yet delivered."""
        return self.total_blocks - self.delivered_blocks - self.unassigned_blocks

    def take_block(self) -> bool:
        """Reserve one unassigned block for a transfer; False when none left."""
        if self.unassigned_blocks <= 0:
            return False
        self.unassigned_blocks -= 1
        self.epoch += 1
        return True

    def return_block(self) -> None:
        """Return a reserved, undelivered block (transfer cancelled)."""
        if self.in_flight_blocks <= 0:
            raise ProtocolError(
                f"object {self.object.object_id}: return_block with none in flight"
            )
        self.unassigned_blocks += 1
        self.epoch += 1

    def deliver_block(self) -> bool:
        """Record one delivered block; returns True when the object is done."""
        if self.completed:
            raise ProtocolError(
                f"object {self.object.object_id}: block delivered after completion"
            )
        if self.in_flight_blocks <= 0:
            raise ProtocolError(
                f"object {self.object.object_id}: delivery with no block in flight"
            )
        self.delivered_blocks += 1
        self.epoch += 1
        if self.delivered_blocks >= self.total_blocks:
            self.completed = True
        return self.completed

    # ------------------------------------------------------------------
    # transfer bookkeeping
    # ------------------------------------------------------------------
    def attach_transfer(self, transfer: "Transfer") -> None:
        """Register a serving transfer (one per provider, enforced)."""
        provider_id = transfer.provider.peer_id
        if provider_id in self.transfers:
            raise ProtocolError(
                f"provider {provider_id} already serving object "
                f"{self.object.object_id} to peer {self.peer_id}"
            )
        self.transfers[provider_id] = transfer
        if transfer.is_exchange:
            self.exchange_sources += 1
        self.epoch += 1

    def detach_transfer(self, transfer: "Transfer") -> None:
        """Remove a previously attached transfer (termination path)."""
        provider_id = transfer.provider.peer_id
        if self.transfers.get(provider_id) is not transfer:
            raise ProtocolError(
                f"detach of unknown transfer from provider {provider_id} "
                f"for object {self.object.object_id}"
            )
        del self.transfers[provider_id]
        if transfer.is_exchange:
            self.exchange_sources -= 1
        self.epoch += 1

    def note_exchange_downgrade(self) -> None:
        """An attached exchange transfer became a normal one."""
        if self.exchange_sources <= 0:
            raise ProtocolError(
                f"object {self.object.object_id}: downgrade with no "
                "exchange transfer attached"
            )
        self.exchange_sources -= 1
        self.epoch += 1

    def transfer_from(self, provider_id: int) -> Optional["Transfer"]:
        """The transfer served by ``provider_id``, or None."""
        return self.transfers.get(provider_id)

    @property
    def has_exchange_transfer(self) -> bool:
        """Whether an exchange already serves this request.

        The paper allows only one exchange per registered request ("if
        multiple exchanges are possible ... only one can be chosen").
        """
        return self.exchange_sources > 0

    @property
    def active_sources(self) -> int:
        """How many providers currently serve this download."""
        return len(self.transfers)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"DownloadState(peer={self.peer_id}, obj={self.object.object_id}, "
            f"{self.delivered_blocks}/{self.total_blocks} blocks, "
            f"sources={len(self.transfers)})"
        )
