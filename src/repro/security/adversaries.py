"""Adversarial peer populations (paper §V).

The paper's §V security discussion names the attacks every
differential-service mechanism must survive: *cheap pseudonyms* (a
detected cheater re-registers under a fresh identity and its standing
debt evaporates — Friedman & Resnick's whitewashing), *sybil* identity
farms (one principal controls many identities that vouch for each
other), and *collusion* (a clique that satisfies the mechanism's
letter — reciprocating internally — while contributing nothing to
outsiders).  The security primitives under :mod:`repro.security` model
the defenses in isolation; this module drives them with hostile
*populations* inside a full simulation, so the exchange, credit and
participation mechanisms can be ranked by how much honest peers lose.

Three attacker kinds, selected per peer class via
:attr:`repro.population.PeerClassSpec.adversary`:

* ``"whitewash"`` — free-riders that, driven by
  :class:`~repro.scenario.IdentityWhitewash` events, periodically retire
  and re-arrive under a fresh peer id (ids are allocated monotonically
  and never reused; the retired identity stays in ``ctx.peers``,
  flagged departed), shedding any blacklist entries against the old
  identity.  They do not fake participation: the attack's whole value
  is that a fresh identity is priced by the mechanism itself —
  worthless under exchange, bottom-of-queue under participation, but
  served on patience alone under eMule-style credit.
* ``"sybil"`` — one principal's identity farm: a
  :class:`~repro.scenario.SybilSpawn` event spawns ``count`` identities
  at once and binds them into a :class:`SybilRing` whose members
  cross-report standing (the ring's *best* honest level shields every
  member) and fake participation for each other.
* ``"collusion"`` — sharers that serve only their own clique: every
  request from outside the clique is refused at admission, so the
  clique satisfies the exchange token pass internally while extracting
  from honest peers.

The defense modelled here is the paper's cooperative blacklist: honest
providers that currently hold a suspect's requests act as witnesses in
a periodic audit, and once ``report_threshold`` distinct witnesses have
complained, every honest peer refuses the identity at admission
(:meth:`AdversaryState.allows`, called from
:meth:`~repro.network.peer.Peer.register_request_at`).  Whitewashing
defeats the list exactly as §V predicts — the fresh identity starts
clean, counted as ``adversary.blacklist_evasion``.

Determinism: this layer draws no randomness of its own.  Scenario-driven
attacks (whitewash target sampling) draw from the dedicated
``"adversary"`` RNG stream owned by the
:class:`~repro.scenario.ScenarioDirector`; the audit walks peers in
sorted-id order.  A run with no adversary classes constructs no
:class:`AdversaryState` and is bit-identical to a pre-adversary run.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Set, Tuple

from repro.errors import ProtocolError
from repro.security.blacklist import CooperativeBlacklist

if TYPE_CHECKING:  # pragma: no cover - hints only
    from repro.network.peer import Peer
    from repro.population import ResolvedPeerClass
    from repro.simulation import FileSharingSimulation

#: Attacker kinds accepted by :attr:`repro.population.PeerClassSpec.adversary`.
ADVERSARIES = ("whitewash", "sybil", "collusion")

#: Distinct honest witnesses required before the cooperative blacklist
#: bans an identity (paper §III-B: a threshold guards against a single
#: malicious reporter banning honest peers).
REPORT_THRESHOLD = 2

#: An identity becomes suspect once its honest participation level sits
#: below this while it claims the maximum (the KaZaA cheat's visible
#: claim/behaviour mismatch).
SUSPECT_LEVEL = 0.1


class SybilRing:
    """One principal's identity farm.

    The first (lowest-id) member is the principal.  Every member fakes
    participation and the ring cross-reports standing:
    :meth:`~AdversaryState.standing` returns the *best* member's honest
    level, so one token upload by any identity shields the whole farm
    from the audit's claim/behaviour check.
    """

    __slots__ = ("member_ids",)

    def __init__(self, member_ids) -> None:
        members = sorted(member_ids)
        if len(members) < 2:
            raise ProtocolError(
                f"a sybil ring needs >= 2 identities, got {len(members)}"
            )
        if len(set(members)) != len(members):
            raise ProtocolError(f"duplicate sybil member ids: {members}")
        self.member_ids: Tuple[int, ...] = tuple(members)


class AdversaryState:
    """All live attacker bookkeeping for one simulation run.

    Created lazily by the simulation when the first adversarial peer
    class enrolls a peer, and published on the context as
    ``ctx.adversary`` so the admission gate in
    :meth:`~repro.network.peer.Peer.register_request_at` can consult it
    (a ``None`` context slot is the only cost for non-adversarial runs).
    """

    def __init__(self, sim: "FileSharingSimulation") -> None:
        self.sim = sim
        self.ctx = sim.ctx
        self.blacklist = CooperativeBlacklist(report_threshold=REPORT_THRESHOLD)
        #: peer id -> attacker kind, for every identity ever enrolled
        #: (retired whitewash identities stay recorded — the audit skips
        #: departed peers, and tests assert ids are never reused).
        self.kind_of: Dict[int, str] = {}
        self._ring_of: Dict[int, SybilRing] = {}
        #: Collusion cliques, one shared member set per peer class (the
        #: class *is* the conspiracy); every member maps to the same set
        #: object, so later enrollments extend every member's view.
        self._cliques: Dict[str, Set[int]] = {}
        self._clique_of: Dict[int, Set[int]] = {}
        self._banned_already: Set[int] = set()

    # ------------------------------------------------------------------
    # enrollment (simulation assembly)
    # ------------------------------------------------------------------
    def enroll(self, peer: "Peer", peer_class: "ResolvedPeerClass") -> None:
        """Wire one newly created peer into its class's attack."""
        kind = peer_class.adversary
        if kind not in ADVERSARIES:
            raise ProtocolError(f"unknown adversary kind {kind!r}")
        self.kind_of[peer.peer_id] = kind
        if kind == "sybil":
            # Ring members run the cheap KaZaA cheat — claim the maximum
            # participation level regardless of the config's global
            # freeloaders_fake_participation switch.
            # Whitewashers deliberately do NOT cheat: theirs is a pure
            # identity-churn attack, so each mechanism prices the fresh
            # identity by its own rules (eMule credit admits it at
            # modifier 1 via patience; participation starts it at the
            # bottom; exchange ignores identity entirely).
            peer.participation.cheats = True
        elif kind == "collusion":
            clique = self._cliques.setdefault(peer_class.name, set())
            clique.add(peer.peer_id)
            self._clique_of[peer.peer_id] = clique

    # ------------------------------------------------------------------
    # admission gate (Peer.register_request_at)
    # ------------------------------------------------------------------
    def allows(self, provider: "Peer", requester_id: int) -> bool:
        """Whether ``provider`` admits a request from ``requester_id``.

        Two refusal modes: colluders refuse everyone outside their
        clique (the attack), and honest providers refuse identities the
        cooperative blacklist has banned (the defense).  Adversaries do
        not enforce the blacklist — cheaters have no incentive to spend
        slots policing other cheaters.
        """
        clique = self._clique_of.get(provider.peer_id)
        if clique is not None and requester_id not in clique:
            self.ctx.metrics.count("adversary.collusion_refusal")
            return False
        if provider.peer_id not in self.kind_of and self.blacklist.is_banned(
            requester_id
        ):
            self.ctx.metrics.count("adversary.blacklist_hit")
            return False
        return True

    # ------------------------------------------------------------------
    # attacks (scenario-driven)
    # ------------------------------------------------------------------
    def whitewash(self, peer: "Peer") -> "Peer":
        """Retire ``peer`` and re-arrive as a fresh identity of its class.

        The cheap-pseudonym move: the fresh id inherits nothing — no
        blacklist entries, no credit debt, no participation history.
        Reuses the scenario layer's :meth:`retire_peer`/:meth:`spawn_peer`
        primitives, so id allocation stays monotonic and the teardown is
        the audited departure path.
        """
        if self.kind_of.get(peer.peer_id) != "whitewash":
            raise ProtocolError(
                f"peer {peer.peer_id} is not a whitewashing adversary"
            )
        if self.blacklist.is_banned(peer.peer_id):
            self.ctx.metrics.count("adversary.blacklist_evasion")
        peer_class = self.sim.class_by_name(peer.class_name)
        self.sim.retire_peer(peer)
        fresh = self.sim.spawn_peer(peer_class)
        self.ctx.metrics.count("adversary.whitewash")
        return fresh

    def form_ring(self, members) -> None:
        """Bind freshly spawned sybil identities into one ring."""
        for peer in members:
            if self.kind_of.get(peer.peer_id) != "sybil":
                raise ProtocolError(
                    f"peer {peer.peer_id} is not a sybil adversary"
                )
        ring = SybilRing([peer.peer_id for peer in members])
        for peer in members:
            self._ring_of[peer.peer_id] = ring

    def standing(self, peer_id: int) -> float:
        """The audit-visible honest level of one identity.

        Sybil rings cross-report: every member shows the ring's best
        member's honest level.  Everyone else shows their own.
        """
        ring = self._ring_of.get(peer_id)
        if ring is not None:
            best = 0.0
            for member_id in ring.member_ids:
                peer = self.ctx.peers.get(member_id)
                if peer is not None:
                    best = max(best, peer.participation.honest_level)
            return best
        peer = self.ctx.peer(peer_id)
        return peer.participation.honest_level

    # ------------------------------------------------------------------
    # the defense: periodic cooperative-blacklist audit
    # ------------------------------------------------------------------
    def audit(self) -> int:
        """One detection pass; returns the number of fresh bans.

        For every live standing-laundering identity (whitewash or sybil)
        whose audit-visible honest level sits below
        :data:`SUSPECT_LEVEL` after it extracted at least one object's
        worth of data, the honest providers currently holding its
        requests act as witnesses and file cooperative-blacklist
        reports.  Draws no randomness; iterates in sorted peer-id order.
        """
        min_kbit = self.ctx.config.object_size_kbit
        fresh_bans = 0
        for peer_id in sorted(self.kind_of):
            if self.kind_of[peer_id] not in ("whitewash", "sybil"):
                continue
            peer = self.ctx.peers.get(peer_id)
            if peer is None or peer.departed:
                continue
            if peer.participation.downloaded_kbit < min_kbit:
                continue
            if self.standing(peer_id) >= SUSPECT_LEVEL:
                continue
            for witness_id in self._witnesses(peer):
                self.blacklist.report(witness_id, peer_id)
            if (
                self.blacklist.is_banned(peer_id)
                and peer_id not in self._banned_already
            ):
                self._banned_already.add(peer_id)
                self.ctx.metrics.count("adversary.blacklisted")
                fresh_bans += 1
        return fresh_bans

    def _witnesses(self, peer: "Peer") -> List[int]:
        """Honest providers currently holding ``peer``'s requests.

        Only peers the suspect is actively soliciting can observe the
        claim/behaviour mismatch; adversaries never witness (a cheater
        reporting a cheater would launder credibility into the list).
        """
        observed: Set[int] = set()
        for download in peer.pending.values():
            observed |= download.registered_at
            observed.update(download.transfers)
        return sorted(
            witness_id
            for witness_id in observed
            if witness_id not in self.kind_of and witness_id != peer.peer_id
        )
