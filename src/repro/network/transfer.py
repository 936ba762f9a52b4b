"""Block-level transfer sessions.

A :class:`Transfer` is one provider→requester session moving one object
at exactly one slot rate (paper §III: equal fixed-size slots regardless
of transfer type, one fixed-size block at a time).  Transfers are either
*exchange* transfers (belonging to an :class:`~repro.core.ring.ExchangeRing`)
or *normal* transfers, which run only on spare slots and are preempted
the moment an exchange needs the slot.

Lifecycle::

    start() -> [block events...] -> terminate(reason)

``terminate`` is idempotent, releases both slot-pool sides, returns any
in-flight block to the download's unassigned pool, records the session
and notifies the ring (if any), which may cascade into sibling
terminations (ring break) — the cascade is safe because each transfer
guards on its own state.
"""

from __future__ import annotations

import enum
from typing import TYPE_CHECKING, Optional

from repro.errors import ProtocolError
from repro.metrics.records import TerminationReason, TrafficClass

if TYPE_CHECKING:  # pragma: no cover - hints only
    from repro.context import SimContext
    from repro.core.ring import ExchangeRing
    from repro.network.download import DownloadState
    from repro.network.peer import Peer


class TransferState(enum.Enum):
    """Lifecycle of a transfer: created -> active -> terminated."""
    CREATED = "created"
    ACTIVE = "active"
    TERMINATED = "terminated"


class Transfer:
    """One provider→requester session at one slot rate."""

    __slots__ = (
        "_ctx",
        "provider",
        "requester",
        "download",
        "object",
        "ring",
        "ring_size",
        "ring_id",
        "state",
        "session_start",
        "session_blocks",
        "total_blocks_delivered",
        "entry",
        "_block_event",
        "_pinned",
    )

    def __init__(
        self,
        ctx: "SimContext",
        provider: "Peer",
        requester: "Peer",
        download: "DownloadState",
        ring: Optional["ExchangeRing"] = None,
    ) -> None:
        self._ctx = ctx
        self.provider = provider
        self.requester = requester
        self.download = download
        self.object = download.object
        self.ring = ring
        self.ring_size = ring.size if ring is not None else 0
        self.ring_id = ring.ring_id if ring is not None else None
        self.state = TransferState.CREATED
        self.session_start = 0.0
        self.session_blocks = 0  # blocks delivered within the current session
        self.total_blocks_delivered = 0
        self.entry = None  # the IRQ entry this transfer satisfies (if any)
        self._block_event = None
        self._pinned = False

    def bind_entry(self, entry) -> None:
        """Attach the IRQ entry this transfer serves (stays registered)."""
        if entry.transfer is not None:
            raise ProtocolError(f"entry {entry!r} already attached to a transfer")
        entry.transfer = self
        self.entry = entry
        self.provider.irq.note_binding_change()

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    @property
    def is_exchange(self) -> bool:
        """Whether this session belongs to an exchange ring."""
        return self.ring is not None

    @property
    def active(self) -> bool:
        """Whether the session is currently moving blocks."""
        return self.state is TransferState.ACTIVE

    @property
    def traffic_class(self) -> TrafficClass:
        """The session's :class:`TrafficClass` (by ring size)."""
        return TrafficClass.for_ring_size(self.ring_size)

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Acquire both slot sides and begin moving blocks.

        Callers (the scheduler / ring commit) are responsible for having
        verified capacity; a :class:`CapacityError` here is a simulator
        bug, not a model outcome.
        """
        if self.state is not TransferState.CREATED:
            raise ProtocolError(f"start() on transfer in state {self.state}")
        self.provider.upload_pool.acquire()
        self.requester.download_pool.acquire()
        self.state = TransferState.ACTIVE
        self.session_start = self._ctx.now
        self.provider.register_upload(self)
        self.download.attach_transfer(self)
        if self.is_exchange and self.object.object_id in self.provider.store:
            # Paper §IV-A: "A peer postpones removing an object if it is
            # used in an ongoing exchange" — pin for the session.  Under
            # the partial-serving extension the provider may instead be
            # feeding from an in-progress download, which lives outside
            # the store and cannot be evicted in the first place.
            self.provider.store.pin(self.object.object_id)
            self._pinned = True
        self._begin_next_block()

    def _begin_next_block(self) -> None:
        if not self.active:
            return
        if self.total_blocks_delivered >= self.provider.available_blocks(
            self.object.object_id
        ):
            # The provider has no further blocks to offer this session —
            # only reachable under the partial-serving extension (a full
            # copy always covers the whole object).
            self.terminate(TerminationReason.EXHAUSTED)
            return
        if not self.download.take_block():
            self.terminate(TerminationReason.EXHAUSTED)
            return
        block_seconds = self._ctx.config.block_seconds
        self._block_event = self._ctx.engine.schedule(
            block_seconds, self._on_block_delivered, name="block"
        )

    def _on_block_delivered(self) -> None:
        if not self.active:  # terminated while the event was queued
            return
        self._block_event = None
        self.session_blocks += 1
        self.total_blocks_delivered += 1
        block_kbit = self._ctx.config.block_size_kbit
        self.requester.credit.record_received(self.provider.peer_id, block_kbit)
        self.provider.credit.record_served(self.requester.peer_id, block_kbit)
        self.provider.participation.record_uploaded(block_kbit)
        self.requester.participation.record_downloaded(block_kbit)
        completed = self.download.deliver_block()
        if completed:
            requester = self.requester
            download = self.download
            self.terminate(TerminationReason.COMPLETED)
            requester.on_download_complete(download)
            return
        self._begin_next_block()

    def terminate(self, reason: TerminationReason, requeue: bool = True) -> None:
        """End the session; idempotent.

        ``requeue=False`` suppresses re-registering the request at the
        provider (used when the same edge is immediately replaced by an
        exchange transfer).
        """
        if self.state is TransferState.TERMINATED:
            return
        if self.state is TransferState.CREATED:
            # Never started: nothing to release or record.
            self.state = TransferState.TERMINATED
            return
        self.state = TransferState.TERMINATED
        if self._block_event is not None:
            # The in-flight block goes back to the download's pool.
            self._block_event.cancel()
            self._block_event = None
            self.download.return_block()
        self.provider.upload_pool.release()
        self.requester.download_pool.release()
        self.provider.unregister_upload(self)
        self.download.detach_transfer(self)
        if self._pinned:
            self.provider.store.unpin(self.object.object_id)
            self._pinned = False
        self._record_session(reason)
        self._release_entry(reason, requeue)
        ring = self.ring
        self.ring = None
        if ring is not None:
            ring.on_transfer_terminated(self, reason)
        if (
            requeue
            and self.entry is None
            and not self.download.completed
            and reason
            in (TerminationReason.PREEMPTED, TerminationReason.RING_BROKEN)
        ):
            # Ring closing edges have no registered entry; re-register so
            # the provider can serve the request again later.
            self.requester.requeue_request(self.provider, self.download)
        self.entry = None
        self.provider.schedule_pass()
        self.requester.schedule_pass()

    #: Termination reasons after which the request entry is withdrawn
    #: from the provider's queue rather than returned to it.
    _ENTRY_ENDING_REASONS = (
        TerminationReason.COMPLETED,
        TerminationReason.REQUESTER_CANCELLED,
        TerminationReason.SOURCE_DELETED,
        TerminationReason.PEER_OFFLINE,
        TerminationReason.STOPPED_SHARING,
    )

    def _release_entry(self, reason: TerminationReason, requeue: bool) -> None:
        entry = self.entry
        if entry is None:
            return
        if entry.transfer is self:
            entry.transfer = None
            self.provider.irq.note_binding_change()
        if not entry.active:
            self.entry = None
            return
        if self.download.completed or not requeue or reason in self._ENTRY_ENDING_REASONS:
            self.provider.irq.remove(entry.requester_id, entry.object_id)
            self.download.registered_at.discard(self.provider.peer_id)
            self.entry = None
        # Otherwise (preempted / ring broken / exhausted) the entry stays
        # queued at its original arrival position — the paper's peers
        # re-issue the request and wait again.

    def downgrade_to_normal(self) -> None:
        """Ring-break "downgrade" policy: keep moving blocks, lose priority.

        The exchange session is closed for the record books and a fresh
        non-exchange session begins at the current instant, preserving
        the in-flight block and both slots.
        """
        if not self.active:
            return
        if not self.is_exchange:
            raise ProtocolError("downgrade_to_normal() on a non-exchange transfer")
        self._record_session(TerminationReason.RING_BROKEN)
        self.ring = None
        self.ring_size = 0
        self.ring_id = None
        # The downgrade flips this transfer's is_exchange, which both
        # the requester's open-wants view and the provider's usable-edge
        # filters observe — sync the counter and nudge both trackers.
        self.download.note_exchange_downgrade()
        if self.entry is not None:
            self.provider.irq.note_binding_change()
        self.session_start = self._ctx.now
        self.session_blocks = 0
        self.provider.note_upload_downgraded()
        if self._pinned:
            self.provider.store.unpin(self.object.object_id)
            self._pinned = False

    # ------------------------------------------------------------------
    def _record_session(self, reason: TerminationReason) -> None:
        kbit = self.session_blocks * self._ctx.config.block_size_kbit
        # Scalar API: the collector stores these directly without
        # materializing a SessionRecord per session.
        self._ctx.metrics.add_session(
            provider_id=self.provider.peer_id,
            requester_id=self.requester.peer_id,
            object_id=self.object.object_id,
            traffic_class=self.traffic_class,
            ring_size=self.ring_size,
            ring_id=self.ring_id,
            request_time=self.download.request_time,
            start_time=self.session_start,
            end_time=self._ctx.now,
            kbit_transferred=kbit,
            reason=reason,
            requester_is_sharer=self.requester.behavior.shares,
            requester_class=self.requester.class_name,
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        kind = f"ring{self.ring_size}" if self.ring_size else "normal"
        return (
            f"Transfer({self.provider.peer_id}->{self.requester.peer_id}, "
            f"obj={self.object.object_id}, {kind}, {self.state.value})"
        )
