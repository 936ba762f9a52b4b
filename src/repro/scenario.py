"""Scenario timelines: open-system dynamics on top of a built world.

The paper simulates a *closed* system — every peer is present from t=0,
the catalog never changes, and one stationary workload runs until the
clock stops.  Its §V discussion points beyond that world ("transient
peer participation", demand shifts), and the related work makes the
open-system questions concrete: Salek et al. ("You Share, I Share")
study how sharing incentives interact with network effects *as the
population grows*, and Mishra's mobile-P2P incentive survey centres on
transient peers that arrive and leave mid-run.  A scenario timeline
makes those regimes expressible declaratively.

A scenario is a tuple of timed events on
:attr:`~repro.config.SimulationConfig.scenario`; the
:class:`ScenarioDirector` schedules them on the engine at build time and
applies each one when the clock reaches it.  Event types, and the
motivation each models:

* :class:`Phase` — a named phase marker.  Metrics records completed from
  this instant on carry the phase label, and
  :func:`~repro.metrics.summary.summarize` slices per phase, so one run
  yields before/after comparisons without re-running.
* :class:`PeerArrival` — ``count`` new peers join as an existing
  population class (``class_name``) or as an inline
  :class:`~repro.population.PeerClassSpec` (``spec``), bootstrap
  interests and initial placement, and start their workloads (the
  swarm-growth / network-effects regime of Salek et al.).
* :class:`PeerDeparture` — ``count`` peers leave *permanently*: the
  churn teardown path runs once and the peer never returns (Mishra's
  transient participation, as opposed to churn's round-trips).
* :class:`FlashCrowd` — ``count`` new hot objects enter the catalog at
  the top popularity rank of one category, ``seed_providers`` sharers
  receive a copy, and ``attract_fraction`` of the population adds the
  category to its interests (the demand-shock regime the paper's fixed
  library cannot express).
* :class:`DemandShift` — a fraction of peers re-draws its interest
  profile from the global category popularity (a slow demand migration
  rather than a shock).
* :class:`MechanismRamp` — every peer of a class flips to a new
  exchange mechanism (staged adoption: what happens when the fifo
  holdouts turn on n-way exchanges at time t).
* :class:`CapacityChange` — every peer of a class is re-provisioned to
  new link capacities (an access-network upgrade or degradation).
* :class:`StrategyShock` — perturb the adaptive strategy dynamics of
  :mod:`repro.strategy`: forcibly flip a fraction of the revising peers
  and/or bias the perceived sharing payoff for a while (equilibrium
  stability probes in the style of the game-theoretic related work).
* :class:`IdentityWhitewash` — ``count`` whitewashing adversaries (a
  class with ``adversary="whitewash"``) retire and re-arrive under
  fresh identities, shedding blacklist entries (paper §V's cheap
  pseudonyms; see :mod:`repro.security.adversaries`).
* :class:`SybilSpawn` — one principal spawns ``count`` fresh sybil
  identities (a class with ``adversary="sybil"``) bound into a ring
  that cross-reports standing and fakes participation.

An **empty scenario is the closed system, bit-for-bit**: no events are
scheduled, no RNG stream is touched, and a ``scenario=()`` run replays
the pre-scenario build exactly (the golden fig7 table guards this).
All scenario randomness draws from the dedicated ``"scenario"`` stream
— except the adversarial events, which draw from their own
``"adversary"`` stream (created lazily on first use), so adding an
attack to a timeline never perturbs the benign events' draws — and two
runs of the same seed and scenario are identical.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional, Tuple, Union

from repro.errors import ConfigError
from repro.population import PeerClassSpec, require_integer, resolve_spec

if TYPE_CHECKING:  # pragma: no cover - hints only
    from repro.config import SimulationConfig
    from repro.simulation import FileSharingSimulation


@dataclass(frozen=True)
class Phase:
    """Start a named measurement phase at ``time``.

    Records completed at or after this instant carry ``name`` until the
    next marker fires.  Events and phases at equal times apply in
    declaration order, so list the marker *before* the events that open
    the phase.
    """

    time: float
    name: str
    kind: str = field(default="phase", init=False)


@dataclass(frozen=True)
class PeerArrival:
    """``count`` new peers join, bootstrap, and start their workloads.

    Exactly one of ``class_name`` (an existing population class, e.g.
    the derived legacy ``"sharer"``/``"freeloader"``) or ``spec`` (an
    inline class with ``count``/``fraction`` left ``None``) selects the
    arrivals' class.  An inline spec is resolved against the config
    when the config is validated, so one that cannot run fails there.
    """

    time: float
    count: int
    class_name: Optional[str] = None
    spec: Optional[PeerClassSpec] = None
    kind: str = field(default="arrival", init=False)


@dataclass(frozen=True)
class PeerDeparture:
    """``count`` peers leave permanently (never to reconnect).

    Departing peers are sampled uniformly from the remaining
    population, or from one class when ``class_name`` is given.  Fewer
    than ``count`` remaining candidates is not an error — everyone who
    can leave does.
    """

    time: float
    count: int
    class_name: Optional[str] = None
    kind: str = field(default="departure", init=False)


@dataclass(frozen=True)
class FlashCrowd:
    """``count`` new hot objects enter the catalog and demand spikes.

    The objects are injected at the top popularity rank of
    ``category_id`` (``None`` = the globally most popular category), so
    within-category popularity re-ranks; ``seed_providers`` online
    sharers receive and publish a copy; ``attract_fraction`` of the
    population adds the category to its interests at its favourite's
    weight.
    """

    time: float
    count: int = 1
    category_id: Optional[int] = None
    seed_providers: int = 2
    attract_fraction: float = 0.0
    kind: str = field(default="flash_crowd", init=False)


@dataclass(frozen=True)
class DemandShift:
    """A ``fraction`` of peers re-draws its interest profile."""

    time: float
    fraction: float
    kind: str = field(default="demand_shift", init=False)


@dataclass(frozen=True)
class MechanismRamp:
    """Every peer of ``class_name`` flips to ``exchange_mechanism``.

    Later arrivals of the class join with the new mechanism too.
    """

    time: float
    class_name: str
    exchange_mechanism: str
    kind: str = field(default="mechanism_ramp", init=False)


@dataclass(frozen=True)
class CapacityChange:
    """Every peer of ``class_name`` is re-provisioned to new capacities.

    ``None`` leaves a direction unchanged.  Shrinking below the slots
    currently in use never kills transfers — the pool is simply
    over-subscribed until enough of them finish.
    """

    time: float
    class_name: str
    upload_capacity_kbit: Optional[float] = None
    download_capacity_kbit: Optional[float] = None
    kind: str = field(default="capacity_change", init=False)


@dataclass(frozen=True)
class StrategyShock:
    """Perturb the strategy dynamics mid-run (see :mod:`repro.strategy`).

    ``flip_fraction`` forcibly flips that fraction of the
    strategy-enrolled peers between sharing and free-riding at ``time``
    (a stability probe: does the population return to its equilibrium?).
    ``payoff_bias`` is added to the sharing side of every best-response
    comparison for ``duration`` seconds (a perceived-payoff shock — a
    subsidy when positive, a sharing scare when negative).  Requires at
    least one strategy-enabled peer class; a fully static population
    has no dynamics to shock and fails validation.
    """

    time: float
    flip_fraction: float = 0.0
    payoff_bias: float = 0.0
    duration: float = 0.0
    kind: str = field(default="strategy_shock", init=False)


@dataclass(frozen=True)
class IdentityWhitewash:
    """``count`` whitewashing adversaries launder their identities.

    Each sampled adversary (from ``class_name``, or from every
    whitewash-capable class when ``None``) retires permanently and
    immediately re-arrives as a *fresh* peer id of the same class —
    blacklist entries, credit debt and participation history all stay
    with the dead identity.  Targets are sampled from the dedicated
    ``"adversary"`` RNG stream.  Fewer than ``count`` live candidates
    is not an error — everyone who can launder does.
    """

    time: float
    count: int
    class_name: Optional[str] = None
    kind: str = field(default="whitewash", init=False)


@dataclass(frozen=True)
class SybilSpawn:
    """One principal spawns ``count`` sybil identities as a ring.

    The identities join ``class_name`` (which must declare
    ``adversary="sybil"``) exactly like an arrival wave, then bind into
    a :class:`~repro.security.adversaries.SybilRing` whose members
    cross-report standing and fake participation for each other.
    """

    time: float
    count: int
    class_name: str
    kind: str = field(default="sybil_spawn", init=False)


#: Every concrete scenario event type (isinstance checks, docs, tests).
EVENT_TYPES = (
    Phase,
    PeerArrival,
    PeerDeparture,
    FlashCrowd,
    DemandShift,
    MechanismRamp,
    CapacityChange,
    StrategyShock,
    IdentityWhitewash,
    SybilSpawn,
)

ScenarioEvent = Union[
    Phase,
    PeerArrival,
    PeerDeparture,
    FlashCrowd,
    DemandShift,
    MechanismRamp,
    CapacityChange,
    StrategyShock,
    IdentityWhitewash,
    SybilSpawn,
]

ScenarioSpec = Tuple[ScenarioEvent, ...]


def scenario_class_names(config: "SimulationConfig") -> set:
    """Every class name addressable at runtime under ``config``.

    Population classes (explicit or legacy-derived) plus the names of
    inline arrival specs — a ramp may target a class that only exists
    after its first arrival wave.
    """
    names = {cls.name for cls in config.resolved_population()}
    for event in config.scenario:
        if isinstance(event, PeerArrival) and event.spec is not None:
            names.add(event.spec.name)
    return names


def ordered_events(events) -> list:
    """Events in firing order: by time, declaration order breaking ties.

    The single definition of the timeline's order — validation's
    arrival-before-spec-wave check and the director's scheduling both
    use it, so they can never disagree on equal-time tiebreaks.
    Returns ``(declaration_index, event)`` pairs.
    """
    return sorted(enumerate(events), key=lambda pair: (pair[1].time, pair[0]))


def adversary_kind_by_class(config: "SimulationConfig") -> dict:
    """Class name → adversary kind (``None`` = honest) for every
    runtime-addressable class: population classes plus inline arrival
    specs (an attack may target a class that only exists after its
    first wave)."""
    kinds = {cls.name: cls.adversary for cls in config.resolved_population()}
    for event in config.scenario:
        if isinstance(event, PeerArrival) and event.spec is not None:
            kinds.setdefault(event.spec.name, event.spec.adversary)
    return kinds


def _has_strategy_dynamics(config: "SimulationConfig") -> bool:
    """Whether any runtime-addressable class revises its strategy."""
    if any(not cls.strategy.is_static for cls in config.resolved_population()):
        return True
    global_strategy = config.strategy
    for event in config.scenario:
        if isinstance(event, PeerArrival) and event.spec is not None:
            spec = event.spec.strategy
            if spec is None:
                spec = global_strategy
            if spec is not None and not spec.is_static:
                return True
    return False


#: Integer event fields (``category_id`` may also be None).
_INT_FIELDS = ("count", "seed_providers", "category_id")


def validate_scenario(config: "SimulationConfig") -> None:
    """Eagerly validate ``config.scenario``; raises :class:`ConfigError`."""
    events = config.scenario
    if not events:
        return
    known_names = scenario_class_names(config)

    def check_class(event: ScenarioEvent, name: Optional[str]) -> None:
        if name is not None and name not in known_names:
            raise ConfigError(
                f"scenario {event.kind} at t={event.time:g} targets unknown "
                f"peer class {name!r}; known classes: {sorted(known_names)}"
            )

    for event in events:
        if not isinstance(event, EVENT_TYPES):
            raise ConfigError(
                f"unknown scenario event {event!r}; expected one of "
                f"{sorted(t.__name__ for t in EVENT_TYPES)}"
            )
        if not (isinstance(event.time, (int, float)) and math.isfinite(event.time)):
            raise ConfigError(f"scenario event time must be finite, got {event.time!r}")
        if event.time < 0:
            raise ConfigError(
                f"scenario {event.kind} time must be >= 0, got {event.time}"
            )
        for name in _INT_FIELDS:
            value = getattr(event, name, None)
            if value is not None:
                require_integer(f"scenario {event.kind} {name}", value)
        if isinstance(event, Phase):
            if not event.name:
                raise ConfigError("scenario phase name must be non-empty")
        elif isinstance(event, PeerArrival):
            if event.count < 1:
                raise ConfigError(
                    f"arrival count must be >= 1, got {event.count}"
                )
            if (event.class_name is None) == (event.spec is None):
                raise ConfigError(
                    "arrival needs exactly one of class_name or spec"
                )
            check_class(event, event.class_name)
            if event.spec is not None:
                if event.spec.count is not None or event.spec.fraction is not None:
                    raise ConfigError(
                        f"arrival spec {event.spec.name!r} must leave "
                        "count/fraction unset (the event's count sizes the wave)"
                    )
                # Resolve now, as the wave will when it fires: a spec
                # whose inherited shape cannot run fails at build.
                resolve_spec(event.spec, event.count, config)
        elif isinstance(event, PeerDeparture):
            if event.count < 1:
                raise ConfigError(
                    f"departure count must be >= 1, got {event.count}"
                )
            check_class(event, event.class_name)
        elif isinstance(event, FlashCrowd):
            if event.count < 1:
                raise ConfigError(
                    f"flash crowd object count must be >= 1, got {event.count}"
                )
            if event.seed_providers < 1:
                raise ConfigError(
                    "flash crowd needs seed_providers >= 1 "
                    "(an unseeded object is unlocatable forever)"
                )
            if not 0.0 <= event.attract_fraction <= 1.0:
                raise ConfigError(
                    f"attract_fraction must be in [0,1], got {event.attract_fraction}"
                )
            if event.category_id is not None and not (
                0 <= event.category_id < config.num_categories
            ):
                raise ConfigError(
                    f"flash crowd category_id {event.category_id} outside "
                    f"[0, {config.num_categories})"
                )
        elif isinstance(event, DemandShift):
            if not 0.0 < event.fraction <= 1.0:
                raise ConfigError(
                    f"demand shift fraction must be in (0,1], got {event.fraction}"
                )
        elif isinstance(event, MechanismRamp):
            check_class(event, event.class_name)
            # Locally imported: policies sits below config in the import
            # graph and this module is imported by config.
            from repro.core.policies import parse_mechanism

            parse_mechanism(event.exchange_mechanism)
        elif isinstance(event, CapacityChange):
            check_class(event, event.class_name)
            if (
                event.upload_capacity_kbit is None
                and event.download_capacity_kbit is None
            ):
                raise ConfigError(
                    f"capacity change for {event.class_name!r} changes nothing"
                )
            for value in (event.upload_capacity_kbit, event.download_capacity_kbit):
                if value is None:
                    continue
                if not math.isfinite(value):
                    raise ConfigError(
                        f"capacity change for {event.class_name!r} must be "
                        f"finite, got {value}"
                    )
                if value < config.slot_kbit:
                    raise ConfigError(
                        f"capacity change for {event.class_name!r} below one "
                        f"slot ({value} < {config.slot_kbit})"
                    )
        elif isinstance(event, StrategyShock):
            if not 0.0 <= event.flip_fraction <= 1.0:
                raise ConfigError(
                    f"flip_fraction must be in [0,1], got {event.flip_fraction}"
                )
            if not math.isfinite(event.payoff_bias):
                raise ConfigError(
                    f"payoff_bias must be finite, got {event.payoff_bias}"
                )
            if not (event.duration >= 0 and math.isfinite(event.duration)):
                raise ConfigError(
                    f"shock duration must be >= 0 and finite, got {event.duration}"
                )
            if event.flip_fraction == 0.0 and event.payoff_bias == 0.0:
                raise ConfigError(
                    f"strategy shock at t={event.time:g} changes nothing "
                    "(flip_fraction and payoff_bias both zero)"
                )
            if event.payoff_bias != 0.0 and event.duration == 0.0:
                raise ConfigError(
                    "strategy shock payoff_bias needs a positive duration"
                )
            if not _has_strategy_dynamics(config):
                raise ConfigError(
                    f"strategy shock at t={event.time:g} targets a fully "
                    "static population; give some class (or the global "
                    "config) a non-static StrategySpec"
                )
        elif isinstance(event, IdentityWhitewash):
            if event.count < 1:
                raise ConfigError(
                    f"whitewash count must be >= 1, got {event.count}"
                )
            check_class(event, event.class_name)
            kinds = adversary_kind_by_class(config)
            if event.class_name is not None:
                if kinds.get(event.class_name) != "whitewash":
                    raise ConfigError(
                        f"whitewash at t={event.time:g} targets class "
                        f"{event.class_name!r}, which does not declare "
                        'adversary="whitewash"'
                    )
            elif "whitewash" not in kinds.values():
                raise ConfigError(
                    f"whitewash at t={event.time:g} but no peer class "
                    'declares adversary="whitewash"'
                )
        elif isinstance(event, SybilSpawn):
            if event.count < 2:
                raise ConfigError(
                    f"a sybil ring needs count >= 2 identities, "
                    f"got {event.count}"
                )
            check_class(event, event.class_name)
            if adversary_kind_by_class(config).get(event.class_name) != "sybil":
                raise ConfigError(
                    f"sybil spawn at t={event.time:g} targets class "
                    f"{event.class_name!r}, which does not declare "
                    'adversary="sybil"'
                )

    # A *named* arrival needs a concrete class shape at fire time, so
    # its class must be a population class or a spec class whose
    # defining wave fires earlier (ramps/capacity changes/departures may
    # target future classes — they apply to zero peers and park their
    # overrides).  Walk events in the director's firing order.
    population_names = {cls.name for cls in config.resolved_population()}
    defined = set(population_names)
    for _, event in ordered_events(events):
        # Sybil spawns resolve their class by name at fire time exactly
        # like named arrivals, so they obey the same ordering rule.
        if isinstance(event, SybilSpawn) and event.class_name not in defined:
            raise ConfigError(
                f"sybil spawn at t={event.time:g} references class "
                f"{event.class_name!r} before any spec wave defined it"
            )
        if not isinstance(event, PeerArrival):
            continue
        if event.class_name is not None and event.class_name not in defined:
            raise ConfigError(
                f"arrival at t={event.time:g} references class "
                f"{event.class_name!r} before any spec wave defined it"
            )
        if event.spec is not None:
            defined.add(event.spec.name)


class ScenarioDirector:
    """Schedules and applies one config's scenario timeline.

    Constructed by :meth:`FileSharingSimulation.build` when the scenario
    is non-empty.  Every event is scheduled on the engine up front (in
    stable time order, so equal-time events apply in declaration order)
    and dispatched to the simulation's world-mutation primitives
    (:meth:`~repro.simulation.FileSharingSimulation.spawn_peer` /
    :meth:`~repro.simulation.FileSharingSimulation.retire_peer`) or to
    the content/population layers when it fires.
    """

    def __init__(self, sim: "FileSharingSimulation") -> None:
        self.sim = sim
        self.ctx = sim.ctx
        self._rand = self.ctx.rng.stream("scenario")
        # The adversarial events' stream, created on first use so
        # attack-free timelines never touch it (stream creation is
        # side-effect-free, but lazy keeps the intent visible).
        self._adv_rand = None
        for index, event in ordered_events(sim.config.scenario):
            # Event times are absolute timeline timestamps, so use the
            # absolute scheduling entry point: a director constructed
            # after the clock advanced past an event fails loudly
            # instead of silently shifting the timeline.
            self.ctx.engine.schedule_at(
                event.time,
                lambda e=event: self._fire(e),
                name=f"scenario.{event.kind}.{index}",
            )

    # ------------------------------------------------------------------
    def _fire(self, event: ScenarioEvent) -> None:
        self.ctx.metrics.count(f"scenario.{event.kind}")
        if isinstance(event, Phase):
            self.ctx.metrics.current_phase = event.name
        elif isinstance(event, PeerArrival):
            self._apply_arrival(event)
        elif isinstance(event, PeerDeparture):
            self._apply_departure(event)
        elif isinstance(event, FlashCrowd):
            self._apply_flash_crowd(event)
        elif isinstance(event, DemandShift):
            self._apply_demand_shift(event)
        elif isinstance(event, MechanismRamp):
            self._apply_mechanism_ramp(event)
        elif isinstance(event, CapacityChange):
            self._apply_capacity_change(event)
        elif isinstance(event, StrategyShock):
            self._apply_strategy_shock(event)
        elif isinstance(event, IdentityWhitewash):
            self._apply_whitewash(event)
        elif isinstance(event, SybilSpawn):
            self._apply_sybil_spawn(event)
        else:  # pragma: no cover - validate_scenario rejects these
            raise ConfigError(f"unknown scenario event {event!r}")

    # ------------------------------------------------------------------
    def _apply_arrival(self, event: PeerArrival) -> None:
        resolved = self.sim.arrival_class(event.class_name, event.spec, event.count)
        for _ in range(event.count):
            self.sim.spawn_peer(resolved)

    def _alive_peer_ids(self, class_name: Optional[str] = None) -> list:
        # Columnar scan: ascending-id enumeration over the peer table's
        # masks — identical to sorting the registry-derived ids.
        return self.ctx.peer_table.alive_ids(class_name)

    def _apply_departure(self, event: PeerDeparture) -> None:
        candidates = self._alive_peer_ids(event.class_name)
        chosen = self._rand.sample(candidates, min(event.count, len(candidates)))
        for peer_id in chosen:
            self.sim.retire_peer(self.ctx.peers[peer_id])

    def _apply_flash_crowd(self, event: FlashCrowd) -> None:
        ctx = self.ctx
        # Category ids are 0-based and ranked by id (rank = id + 1), so
        # the globally hottest category is id 0.
        category_id = 0 if event.category_id is None else event.category_id
        new_objects = [
            ctx.catalog.inject_object(
                category_id, size_kbit=self.sim.config.object_size_kbit
            )
            for _ in range(event.count)
        ]
        # Seed copies: the crowd needs at least one provider to find.
        # Prefer online sharers; under heavy churn every sharer may be
        # offline at fire time, in which case offline (non-departed)
        # ones are seeded instead — their copy publishes on reconnect,
        # so the hot objects become locatable rather than staying
        # orphaned forever.
        sharers = ctx.peer_table.sharer_ids(online_only=True)
        if not sharers:
            sharers = ctx.peer_table.sharer_ids(online_only=False)
            if sharers:
                ctx.metrics.count("scenario.flash_seeded_offline")
            else:
                ctx.metrics.count("scenario.flash_unseeded")
        seeds = self._rand.sample(sharers, min(event.seed_providers, len(sharers)))
        for peer_id in seeds:
            peer = ctx.peers[peer_id]
            for obj in new_objects:
                if peer.store.add_if_absent(obj.object_id):
                    # Pinned: the seeds model the release's origin
                    # hosts, and random overflow eviction must not make
                    # the hot object unlocatable before the crowd ever
                    # downloads a copy (crowd-made copies evict freely).
                    peer.store.pin(obj.object_id)
                    if peer.shares:
                        ctx.lookup.register(peer_id, obj.object_id)
        # Demand spike: a slice of the population turns to the category.
        if event.attract_fraction > 0.0:
            alive = self._alive_peer_ids()
            count = int(round(len(alive) * event.attract_fraction))
            for peer_id in self._rand.sample(alive, count):
                peer = ctx.peers[peer_id]
                peer.retarget_interests(peer.profile.with_category(category_id))
        ctx.metrics.count("scenario.flash_objects", len(new_objects))

    def _apply_demand_shift(self, event: DemandShift) -> None:
        from repro.content.interests import build_interest_profile

        alive = self._alive_peer_ids()
        count = int(round(len(alive) * event.fraction))
        for peer_id in self._rand.sample(alive, count):
            peer = self.ctx.peers[peer_id]
            peer_class = self.sim.class_by_name(peer.class_name)
            categories = self._rand.randint(
                peer_class.categories_per_peer_min, peer_class.categories_per_peer_max
            )
            profile = build_interest_profile(
                self.ctx.catalog,
                self.sim.category_popularity,
                self._rand,
                categories,
            )
            peer.retarget_interests(profile)

    def _apply_mechanism_ramp(self, event: MechanismRamp) -> None:
        # The simulation's policy cache keeps one instance per
        # mechanism string, shared by build-time peers, ramped peers
        # and later arrivals alike.
        policy = self.sim.policy_for(event.exchange_mechanism)
        for peer_id in self._alive_peer_ids(event.class_name):
            self.ctx.peers[peer_id].set_policy(policy)
        # Later arrivals of the class adopt the new mechanism too.
        self.sim.note_class_override(
            event.class_name, exchange_mechanism=event.exchange_mechanism
        )

    def _apply_strategy_shock(self, event: StrategyShock) -> None:
        # Validation guarantees some class is strategy-enabled, but the
        # first enrollment may still be ahead (an arrival-spec class
        # whose wave lands later); the shock then has nobody to touch.
        director = self.sim.strategy
        if director is None:
            self.ctx.metrics.count("scenario.strategy_shock_noop")
            return
        director.apply_shock(event)

    def _adversary_stream(self):
        if self._adv_rand is None:
            self._adv_rand = self.ctx.rng.stream("adversary")
        return self._adv_rand

    def _apply_whitewash(self, event: IdentityWhitewash) -> None:
        state = self.sim.adversary
        if state is None:
            # The whitewash class is an arrival-spec class whose first
            # wave has not landed yet: nobody to launder.
            self.ctx.metrics.count("adversary.whitewash_noop")
            return
        candidates = [
            peer_id
            for peer_id in self._alive_peer_ids(event.class_name)
            if state.kind_of.get(peer_id) == "whitewash"
        ]
        chosen = self._adversary_stream().sample(
            candidates, min(event.count, len(candidates))
        )
        for peer_id in chosen:
            state.whitewash(self.ctx.peers[peer_id])

    def _apply_sybil_spawn(self, event: SybilSpawn) -> None:
        resolved = self.sim.arrival_class(event.class_name, None, event.count)
        members = [self.sim.spawn_peer(resolved) for _ in range(event.count)]
        # spawn_peer enrolled every member, so the state exists now.
        self.sim.adversary.form_ring(members)
        self.ctx.metrics.count("adversary.sybil_identities", len(members))

    def _apply_capacity_change(self, event: CapacityChange) -> None:
        for peer_id in self._alive_peer_ids(event.class_name):
            self.ctx.peers[peer_id].resize_capacity(
                upload_capacity_kbit=event.upload_capacity_kbit,
                download_capacity_kbit=event.download_capacity_kbit,
            )
        # Later arrivals of the class are provisioned at the new
        # capacities too (same contract as mechanism ramps).
        overrides = {
            key: value
            for key, value in (
                ("upload_capacity_kbit", event.upload_capacity_kbit),
                ("download_capacity_kbit", event.download_capacity_kbit),
            )
            if value is not None
        }
        self.sim.note_class_override(event.class_name, **overrides)
