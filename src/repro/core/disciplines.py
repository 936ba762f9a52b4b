"""Per-peer service disciplines for non-exchange upload scheduling.

The paper's model serves the IRQ in FIFO order; the two baseline
incentive schemes it compares against (eMule's pairwise credit, KaZaA's
self-reported participation level) re-order the queue instead.  Each
peer owns one :class:`ServiceDiscipline` strategy object that decides
the service order of its queued entries — which is what lets a single
simulated network mix disciplines across peer classes, something the
old global ``scheduler_mode`` string branch could not express.

The discipline also owns the peer's baseline bookkeeping, and a
transfer accounts each block through it: the provider's
:meth:`~ServiceDiscipline.record_served` and the requester's
:meth:`~ServiceDiscipline.record_received`.  Every discipline keeps a
:class:`~repro.baselines.participation.ParticipationReporter`, because
the participation ranking, the strategy standing and the adversary
audit read it whatever the owner's own discipline is.  Only
:class:`CreditDiscipline` keeps a per-remote
:class:`~repro.baselines.credit.CreditLedger`: its queue rank is the one
reader, and it reads only its owner's ledger.  The KaZaA cheat (a
free-rider claiming the maximum participation level) is the claimer's
behaviour, decided when its discipline is built from the config flag —
not a build-time peek at a global scheduler mode, which would be wrong
the moment claimer and server run different disciplines.
"""

from __future__ import annotations

import heapq
from typing import TYPE_CHECKING, Iterator, Sequence

from repro.baselines.credit import CreditLedger
from repro.baselines.participation import ParticipationReporter, participation_priority
from repro.errors import ConfigError

if TYPE_CHECKING:  # pragma: no cover - hints only
    from repro.core.irq import RequestEntry
    from repro.network.peer import Peer


class ServiceDiscipline:
    """Strategy for ordering one peer's queued IRQ entries.

    Subclasses override :meth:`rank`; the base class carries the
    participation reporter every discipline maintains.

    The scheduler consumes :meth:`service_iter`, which yields entries
    *lazily* in service order: FIFO (no rank) streams the queue
    snapshot as-is, and ranked disciplines heapify once — O(n) — and
    pop only as many entries as free slots actually consume, instead of
    fully sorting the queue on every scheduling pass.  The heap's
    ``(key, position)`` tiebreak reproduces a stable sort by descending
    rank exactly.
    """

    name = "fifo"
    #: Ranked disciplines override :meth:`rank`; FIFO keeps None so the
    #: scheduler can stream the queue without computing keys at all.
    ranked = False

    __slots__ = ("peer_id", "participation")

    def __init__(self, peer_id: int, cheats: bool = False) -> None:
        self.peer_id = peer_id
        self.participation = ParticipationReporter(peer_id, cheats=cheats)

    def record_served(self, remote_id: int, kbit: float) -> None:
        """Account ``kbit`` that this peer uploaded to ``remote_id``."""
        self.participation.record_uploaded(kbit)

    def record_received(self, remote_id: int, kbit: float) -> None:
        """Account ``kbit`` that ``remote_id`` uploaded to this peer."""
        self.participation.record_downloaded(kbit)

    def rank(self, peer: "Peer", entry: "RequestEntry") -> float:
        """Service priority of one entry (higher serves first)."""
        return 0.0

    def standing(self) -> float:
        """The owner's contribution standing in ``[0, 1]``.

        The honest participation level — uploaded volume over the
        larger of uploaded/downloaded — which is exactly the quantity
        both baseline schemes reward (credit multiplies it out per
        remote peer, participation reports it globally).  The strategy
        layer (:mod:`repro.strategy`) feeds it into payoff evaluation;
        every discipline maintains the participation volumes, so the
        standing is defined under FIFO too.
        """
        return self.participation.honest_level

    def service_iter(
        self, peer: "Peer", entries: Sequence["RequestEntry"]
    ) -> Iterator["RequestEntry"]:
        """Entries in service order, yielded lazily.

        Ranked disciplines drop non-queued entries up front — they can
        never be served this pass, and ranking them would mean a credit
        lookup (or a peer dereference) per attached entry on a queue
        that is mostly attached.  FIFO streams unfiltered; its consumer
        skips non-queued entries for free as it walks.
        """
        if not self.ranked or len(entries) <= 1:
            return iter(entries)
        heap = [
            (-self.rank(peer, entry), position, entry)
            for position, entry in enumerate(entries)
            if entry.queued
        ]
        heapq.heapify(heap)

        def pop_all() -> Iterator["RequestEntry"]:
            while heap:
                yield heapq.heappop(heap)[2]

        return pop_all()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}(peer={self.peer_id})"


class FifoDiscipline(ServiceDiscipline):
    """Arrival order — the paper's model."""

    name = "fifo"
    __slots__ = ()


class CreditDiscipline(ServiceDiscipline):
    """eMule queue rank: waiting time x local credit modifier."""

    name = "credit"
    ranked = True
    __slots__ = ("credit",)

    def __init__(self, peer_id: int, cheats: bool = False) -> None:
        super().__init__(peer_id, cheats)
        self.credit = CreditLedger(peer_id)

    def record_served(self, remote_id: int, kbit: float) -> None:
        """Account an upload in the ledger and the participation volumes."""
        self.credit.record_served(remote_id, kbit)
        self.participation.record_uploaded(kbit)

    def record_received(self, remote_id: int, kbit: float) -> None:
        """Account a download in the ledger and the participation volumes."""
        self.credit.record_received(remote_id, kbit)
        self.participation.record_downloaded(kbit)

    def rank(self, peer: "Peer", entry: "RequestEntry") -> float:
        # One second of base waiting keeps the rank multiplicative even
        # for requests scheduled the instant they arrive (eMule gives
        # every queued request a base score for the same reason).
        """eMule queue rank: waiting time scaled by the requester's credit modifier."""
        return self.credit.rank(
            entry.requester_id, peer.ctx.now - entry.arrival_time + 1.0
        )


class ParticipationDiscipline(ServiceDiscipline):
    """KaZaA claimed participation level, waiting time as tiebreak."""

    name = "participation"
    ranked = True
    __slots__ = ()

    def rank(self, peer: "Peer", entry: "RequestEntry") -> float:
        """Priority by the requester's claimed level; waiting time breaks ties."""
        ctx = peer.ctx
        requester = ctx.peer(entry.requester_id)
        return participation_priority(
            requester.participation.claimed_level, ctx.now - entry.arrival_time
        )


_DISCIPLINES = {
    cls.name: cls for cls in (FifoDiscipline, CreditDiscipline, ParticipationDiscipline)
}

#: Service-discipline names accepted by ``scheduler_mode`` and
#: :attr:`~repro.population.PeerClassSpec.service_discipline`.
DISCIPLINES = tuple(_DISCIPLINES)


def make_discipline(
    name: str,
    peer_id: int,
    shares: bool,
    fake_participation: bool,
) -> ServiceDiscipline:
    """Build the named discipline for one peer.

    A non-sharing peer fakes the maximum participation level when
    ``fake_participation`` is set (the trivial KaZaA hack the paper
    cites).  The claim is the *requester's* lie, consulted by whichever
    server runs the participation discipline — so it cannot depend on
    the claimer's own serving discipline (a freeloader never serves
    anyway).  Under populations with no participation-disciplined peers
    the claimed level is simply never read.
    """
    cls = _DISCIPLINES.get(name)
    if cls is None:
        raise ConfigError(
            f"unknown service discipline {name!r}; expected one of "
            f"{sorted(_DISCIPLINES)}"
        )
    return cls(peer_id, cheats=fake_participation and not shares)
