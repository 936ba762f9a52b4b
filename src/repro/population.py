"""Declarative heterogeneous peer populations.

The paper's population model is a binary sharer/freeloader split with
one global exchange mechanism, one global service discipline and
identical link capacities for every peer.  The questions that matter at
scale are about *mixed* populations: what fraction of peers must adopt
exchanges before the incentive bites, and how the mechanism behaves when
peers have heterogeneous capacities.

A :class:`PeerClassSpec` describes one class of peers declaratively:
its size (an absolute ``count``, a ``fraction`` of the population, or
neither — at most one class may omit both and absorbs the remainder),
its behaviour, and optional per-class overrides for the exchange
mechanism, service discipline, link capacities, storage range and
interest breadth.  Any field left ``None`` inherits the corresponding
global :class:`~repro.config.SimulationConfig` value, so a population
spec only states what *differs* between classes.

:func:`resolve_population` turns the specs (or, when
``config.population`` is empty, the two-class split derived from the
legacy ``freeloader_fraction``/``exchange_mechanism``/``scheduler_mode``
fields) into concrete :class:`ResolvedPeerClass` rows with exact counts;
:func:`assign_peer_classes` then maps peer ids to classes.  The
assignment consumes the ``"behavior"`` RNG stream exactly as the
pre-population code did for the derived two-class case, which is what
keeps every legacy config bit-identical across the refactor.
"""

from __future__ import annotations

import math
import numbers
import typing
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from repro.errors import ConfigError
from repro.network.behaviors import FREELOADER, SHARER, PeerBehavior
from repro.strategy import STATIC, StrategySpec

if TYPE_CHECKING:  # pragma: no cover - hints only
    from repro.config import SimulationConfig
    from repro.sim.rng import RandomSource

#: Behaviour names accepted by :attr:`PeerClassSpec.behavior`.
BEHAVIORS: Dict[str, PeerBehavior] = {
    SHARER.name: SHARER,
    FREELOADER.name: FREELOADER,
}


def require_integer(what: str, value: object) -> None:
    """Raise :class:`ConfigError` unless ``value`` is an integer.

    ``bool`` is refused although it is an ``int``.  A float count passes
    every range check, then fails deep inside a build or an event, or
    acts as if rounded up (a bound compared with ``<`` or ``>=``).
    """
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ConfigError(f"{what} must be an integer, got {value!r}")


@dataclass(frozen=True)
class PeerClassSpec:
    """One class of peers; ``None`` fields inherit the global config.

    Sizing: give ``count`` (absolute) or ``fraction`` (of ``num_peers``,
    rounded) but not both.  At most one class may give neither — it
    absorbs whatever the other classes leave over.
    """

    name: str
    count: Optional[int] = None
    fraction: Optional[float] = None
    behavior: str = "sharer"
    exchange_mechanism: Optional[str] = None
    service_discipline: Optional[str] = None
    upload_capacity_kbit: Optional[float] = None
    download_capacity_kbit: Optional[float] = None
    storage_min_objects: Optional[int] = None
    storage_max_objects: Optional[int] = None
    categories_per_peer_min: Optional[int] = None
    categories_per_peer_max: Optional[int] = None
    #: How this class revises its sharing strategy at runtime (see
    #: :mod:`repro.strategy`).  ``None`` inherits the global
    #: :attr:`~repro.config.SimulationConfig.strategy` (itself static
    #: by default), so pre-strategy configs never revise.  The class's
    #: ``behavior`` is the *initial condition* of the dynamics.
    strategy: Optional[StrategySpec] = None
    #: Attacker kind for this class (see
    #: :mod:`repro.security.adversaries`): ``"whitewash"``, ``"sybil"``
    #: or ``"collusion"``.  ``None`` (the default, and the only value
    #: legacy configs can hold) means the class is honest and the run
    #: constructs no adversary machinery at all.
    adversary: Optional[str] = None

    def validate(self) -> None:
        """Spec-local checks (cross-class checks live in resolution)."""
        if not self.name:
            raise ConfigError("peer class name must be non-empty")
        for name in _OPTIONAL_INT_FIELDS:
            value = getattr(self, name)
            if value is not None:
                require_integer(f"peer class {self.name!r} {name}", value)
        if self.count is not None and self.fraction is not None:
            raise ConfigError(
                f"peer class {self.name!r} gives both count and fraction"
            )
        if self.count is not None and self.count < 0:
            raise ConfigError(
                f"peer class {self.name!r} count must be >= 0, got {self.count}"
            )
        if self.fraction is not None and not 0.0 <= self.fraction <= 1.0:
            raise ConfigError(
                f"peer class {self.name!r} fraction must be in [0,1], "
                f"got {self.fraction}"
            )
        if self.behavior not in BEHAVIORS:
            raise ConfigError(
                f"peer class {self.name!r} has unknown behavior "
                f"{self.behavior!r}; expected one of {sorted(BEHAVIORS)}"
            )
        if self.service_discipline is not None:
            # Locally imported: the core package sits below config in
            # the import graph and this module is imported by config.
            from repro.core.disciplines import DISCIPLINES

            if self.service_discipline not in DISCIPLINES:
                raise ConfigError(
                    f"peer class {self.name!r} has unknown service discipline "
                    f"{self.service_discipline!r}; expected one of {DISCIPLINES}"
                )
        if self.exchange_mechanism is not None:
            # Locally imported for the same reason.
            from repro.core.policies import parse_mechanism

            parse_mechanism(self.exchange_mechanism)
        if self.strategy is not None:
            if not isinstance(self.strategy, StrategySpec):
                raise ConfigError(
                    f"peer class {self.name!r} strategy must be a "
                    f"StrategySpec, got {type(self.strategy).__name__}"
                )
            self.strategy.validate()
        if self.adversary is not None:
            # Locally imported: the security package sits outside the
            # config import graph (same idiom as parse_mechanism above).
            from repro.security.adversaries import ADVERSARIES

            if self.adversary not in ADVERSARIES:
                raise ConfigError(
                    f"peer class {self.name!r} has unknown adversary kind "
                    f"{self.adversary!r}; expected one of {ADVERSARIES}"
                )
            if self.adversary == "collusion" and self.behavior != "sharer":
                raise ConfigError(
                    f"peer class {self.name!r}: colluders must be sharers "
                    "(a clique of non-serving peers has nothing to "
                    "reciprocate internally)"
                )


#: :class:`PeerClassSpec` fields annotated ``Optional[int]``.
_OPTIONAL_INT_FIELDS = tuple(
    name
    for name, hint in typing.get_type_hints(PeerClassSpec).items()
    if hint == Optional[int]
)


@dataclass(frozen=True)
class ResolvedPeerClass:
    """A :class:`PeerClassSpec` with every inherited field made concrete."""

    name: str
    count: int
    behavior: PeerBehavior
    exchange_mechanism: str
    service_discipline: str
    upload_capacity_kbit: float
    download_capacity_kbit: float
    storage_min_objects: int
    storage_max_objects: int
    categories_per_peer_min: int
    categories_per_peer_max: int
    strategy: StrategySpec = STATIC
    adversary: Optional[str] = None

    def validate(self, slot_kbit: float) -> None:
        """Check the concrete per-class values against the slot geometry."""
        for label, value in (
            ("upload", self.upload_capacity_kbit),
            ("download", self.download_capacity_kbit),
        ):
            if not math.isfinite(value):
                raise ConfigError(
                    f"peer class {self.name!r}: {label} capacity must be "
                    f"finite, got {value}"
                )
        if self.upload_capacity_kbit < slot_kbit:
            raise ConfigError(
                f"peer class {self.name!r}: upload capacity smaller than one "
                f"slot ({self.upload_capacity_kbit} < {slot_kbit})"
            )
        if self.download_capacity_kbit < slot_kbit:
            raise ConfigError(
                f"peer class {self.name!r}: download capacity smaller than one "
                f"slot ({self.download_capacity_kbit} < {slot_kbit})"
            )
        if not 0 < self.storage_min_objects <= self.storage_max_objects:
            raise ConfigError(
                f"peer class {self.name!r}: storage capacity range invalid: "
                f"[{self.storage_min_objects}, {self.storage_max_objects}]"
            )
        if not 0 < self.categories_per_peer_min <= self.categories_per_peer_max:
            raise ConfigError(
                f"peer class {self.name!r}: categories_per_peer range invalid: "
                f"[{self.categories_per_peer_min}, {self.categories_per_peer_max}]"
            )


def derived_legacy_specs(config: "SimulationConfig") -> Tuple[PeerClassSpec, ...]:
    """The two-class population implied by the legacy global fields.

    The sharer class absorbs the remainder and the freeloader class takes
    an explicit count so the split matches ``config.num_freeloaders``
    (one rounding, not two).  Every other field inherits, which is what
    keeps derived populations bit-identical to pre-population configs.
    """
    return (
        PeerClassSpec(name="sharer", behavior="sharer"),
        PeerClassSpec(
            name="freeloader",
            behavior="freeloader",
            count=config.num_freeloaders,
        ),
    )


def _resolve_one(spec: PeerClassSpec, count: int, config: "SimulationConfig") -> ResolvedPeerClass:
    def inherit(value, default):
        return default if value is None else value

    return ResolvedPeerClass(
        name=spec.name,
        count=count,
        behavior=BEHAVIORS[spec.behavior],
        exchange_mechanism=inherit(spec.exchange_mechanism, config.exchange_mechanism),
        service_discipline=inherit(spec.service_discipline, config.scheduler_mode),
        upload_capacity_kbit=inherit(
            spec.upload_capacity_kbit, config.upload_capacity_kbit
        ),
        download_capacity_kbit=inherit(
            spec.download_capacity_kbit, config.download_capacity_kbit
        ),
        storage_min_objects=inherit(spec.storage_min_objects, config.storage_min_objects),
        storage_max_objects=inherit(spec.storage_max_objects, config.storage_max_objects),
        categories_per_peer_min=inherit(
            spec.categories_per_peer_min, config.categories_per_peer_min
        ),
        categories_per_peer_max=inherit(
            spec.categories_per_peer_max, config.categories_per_peer_max
        ),
        strategy=inherit(spec.strategy, inherit(config.strategy, STATIC)),
        adversary=spec.adversary,
    )


def resolve_spec(
    spec: PeerClassSpec, count: int, config: "SimulationConfig"
) -> ResolvedPeerClass:
    """Resolve one spec at an explicit count (scenario arrival waves).

    The scenario layer sizes arrival waves per event, so the spec itself
    carries no count/fraction; everything else inherits exactly as in
    build-time resolution.
    """
    spec.validate()
    resolved = _resolve_one(spec, count, config)
    resolved.validate(config.slot_kbit)
    return resolved


def resolve_population(config: "SimulationConfig") -> Tuple[ResolvedPeerClass, ...]:
    """Concrete per-class rows (exact counts) for one configuration.

    Raises :class:`~repro.errors.ConfigError` on duplicate names, counts
    that do not sum to ``num_peers``, more than one remainder class, or
    any invalid per-class override.
    """
    specs = config.population or derived_legacy_specs(config)
    seen: set = set()
    for spec in specs:
        spec.validate()
        if spec.name in seen:
            raise ConfigError(f"duplicate peer class name {spec.name!r}")
        seen.add(spec.name)

    num_peers = config.num_peers
    counts: List[Optional[int]] = []
    remainder_index: Optional[int] = None
    for index, spec in enumerate(specs):
        if spec.count is not None:
            counts.append(spec.count)
        elif spec.fraction is not None:
            counts.append(int(round(num_peers * spec.fraction)))
        else:
            if remainder_index is not None:
                raise ConfigError(
                    f"peer classes {specs[remainder_index].name!r} and "
                    f"{spec.name!r} both omit count and fraction; at most "
                    "one class may absorb the remainder"
                )
            remainder_index = index
            counts.append(None)

    explicit = sum(c for c in counts if c is not None)
    if remainder_index is not None:
        leftover = num_peers - explicit
        if leftover < 0:
            raise ConfigError(
                f"peer class counts exceed num_peers: {explicit} > {num_peers}"
            )
        counts[remainder_index] = leftover
    elif explicit != num_peers:
        # Without a remainder class, independently-rounded fractions can
        # miss num_peers by a peer or two (two 0.5 classes over an odd
        # population, say).  Re-apportion the fraction classes by
        # largest remainder — deterministic, and exact whenever the
        # declared sizes are actually consistent with num_peers.
        fraction_indices = [
            index for index, spec in enumerate(specs) if spec.count is None
        ]
        budget = num_peers - sum(
            spec.count for spec in specs if spec.count is not None
        )
        ideals = [num_peers * specs[index].fraction for index in fraction_indices]
        floors = [int(ideal) for ideal in ideals]
        leftover = budget - sum(floors)
        if not 0 <= leftover <= len(fraction_indices):
            raise ConfigError(
                f"peer class counts must sum to num_peers ({num_peers}), "
                f"got {explicit}"
            )
        by_remainder = sorted(
            range(len(fraction_indices)),
            key=lambda i: (-(ideals[i] - floors[i]), i),
        )
        for i in by_remainder[:leftover]:
            floors[i] += 1
        for index, count in zip(fraction_indices, floors):
            counts[index] = count

    resolved = tuple(
        _resolve_one(spec, count, config)  # type: ignore[arg-type]
        for spec, count in zip(specs, counts)
    )
    for cls in resolved:
        # Mechanism strings need no re-check here: per-class overrides
        # were parsed by spec.validate() above and the inherited global
        # is parsed by SimulationConfig.validate().
        cls.validate(config.slot_kbit)
    return resolved


def assign_peer_classes(
    classes: Tuple[ResolvedPeerClass, ...],
    num_peers: int,
    rng: "RandomSource",
) -> Dict[int, ResolvedPeerClass]:
    """Map each peer id to its class, consuming the ``"behavior"`` stream.

    Classes after the first are sampled, in declaration order, from the
    shrinking pool of unassigned ids; the first class keeps the rest.
    For the derived legacy population this is exactly one
    ``sample(range(num_peers), num_freeloaders)`` call — the same draw
    the pre-population assembly made, preserving bit-identical runs.
    """
    pool = list(range(num_peers))
    assignment: Dict[int, ResolvedPeerClass] = {}
    for cls in classes[1:]:
        chosen = rng.stream("behavior").sample(pool, cls.count)
        for peer_id in chosen:
            assignment[peer_id] = cls
        chosen_set = set(chosen)
        pool = [peer_id for peer_id in pool if peer_id not in chosen_set]
    first = classes[0]
    for peer_id in pool:
        assignment[peer_id] = first
    return assignment
