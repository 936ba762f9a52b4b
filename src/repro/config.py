"""Simulation configuration.

:class:`SimulationConfig` collects every knob of the system.  The
defaults reproduce the paper's Table II ("basic simulation parameters")
exactly; experiment sweeps override individual fields via
:meth:`SimulationConfig.replace`.  Engineering bounds that no experiment
varies (the bootstrap window, the workload's miss and retry bounds) are
module constants next to the code that uses them.

Fields are grouped as in the paper: population, link capacities, content
model, storage, request workload, and the exchange mechanism itself.
All validation happens eagerly in :meth:`validate` (called from
``__post_init__``) so a bad sweep fails before any simulation time is
spent.

Every field describes the simulated experiment: the config is hashable,
and its :meth:`~SimulationConfig.to_dict` form keys the result cache.
Instrumentation has no field — the perf counters
(:mod:`repro.sim.counters`) are always on and cannot move an event.
"""

from __future__ import annotations

import dataclasses
import math
import typing
from dataclasses import dataclass
from typing import Any, Dict, Optional, Tuple

from repro.errors import ConfigError
from repro.population import PeerClassSpec, ResolvedPeerClass, require_integer
from repro.scenario import ScenarioEvent
from repro.strategy import StrategySpec
from repro.units import mb_to_kbit


@dataclass(frozen=True)
class SimulationConfig:
    """All parameters of one simulation run.  Defaults = paper Table II."""

    # ------------------------------------------------------------- population
    num_peers: int = 200
    freeloader_fraction: float = 0.5
    #: Declarative heterogeneous population (see :mod:`repro.population`).
    #: Empty means "derive a two-class sharer/freeloader population from
    #: the legacy global fields" — every pre-population config keeps
    #: working, bit-identically.  Non-empty specs may override the
    #: exchange mechanism, service discipline, link capacities, storage
    #: and interest breadth per class; ``None`` fields inherit the
    #: globals below.
    population: Tuple[PeerClassSpec, ...] = ()
    #: Declarative scenario timeline (see :mod:`repro.scenario`): timed
    #: events that mutate the world mid-run — peer arrivals and
    #: permanent departures, flash-crowd object injection, demand
    #: shifts, mechanism-adoption ramps, capacity changes, and named
    #: measurement phases.  Empty means the paper's closed system; an
    #: empty scenario consumes no RNG and replays pre-scenario runs
    #: bit-identically.
    scenario: Tuple[ScenarioEvent, ...] = ()
    #: Adaptive strategy dynamics (see :mod:`repro.strategy`): the
    #: default revision behaviour inherited by every peer class that
    #: does not declare its own :attr:`PeerClassSpec.strategy`.
    #: ``None`` (and the explicit ``static`` spec) keep the paper's
    #: fixed populations — no revision events, no RNG consumed,
    #: bit-identical to pre-strategy runs.
    strategy: Optional[StrategySpec] = None

    # ------------------------------------------------------------------ links
    download_capacity_kbit: float = 800.0
    upload_capacity_kbit: float = 80.0
    slot_kbit: float = 10.0

    # ---------------------------------------------------------------- content
    num_categories: int = 300
    objects_per_category_min: int = 1
    objects_per_category_max: int = 300
    categories_per_peer_min: int = 1
    categories_per_peer_max: int = 8
    category_factor: float = 0.2
    object_factor: float = 0.2
    object_size_mb: float = 20.0

    # ---------------------------------------------------------------- storage
    storage_min_objects: int = 5
    storage_max_objects: int = 40
    storage_check_interval: float = 500.0

    # --------------------------------------------------------------- workload
    max_pending: int = 6
    irq_capacity: int = 1000
    request_fanout: int = 5

    # -------------------------------------------------------------- mechanism
    exchange_mechanism: str = "2-5-way"
    #: Non-exchange upload scheduling: "fifo" (the paper's model),
    #: "credit" (eMule queue-rank baseline) or "participation"
    #: (KaZaA claimed-level baseline).
    scheduler_mode: str = "fifo"
    #: Under the participation baseline, free-riders claim the maximum
    #: level (the trivial KaZaA hack the paper cites).
    freeloaders_fake_participation: bool = True
    ring_break_policy: str = "terminate"  # or "downgrade"
    scan_interval: float = 30.0
    #: How often a peer re-publishes its request tree on its outgoing
    #: registered requests (the paper's §V incremental tree updates).
    tree_refresh_interval: float = 60.0
    serve_partial: bool = False  # §V extension: serve chunks of incomplete objects
    max_tree_nodes: int = 128  # engineering bound on attached request trees

    # ------------------------------------------------------------------ churn
    #: Extension: alternate peers between online/offline sessions (the
    #: paper keeps everyone online; disconnects only appear as a
    #: ring-break reason).  Durations are exponential with these means.
    churn_enabled: bool = False
    churn_mean_online: float = 20_000.0
    churn_mean_offline: float = 2_000.0

    # ------------------------------------------------------------- simulation
    duration: float = 60_000.0
    warmup: float = 6_000.0
    block_size_kbit: float = 4096.0
    seed: int = 42

    def __post_init__(self) -> None:
        # Accept lists (e.g. from JSON round-trips) but store tuples so
        # the config stays hashable and its dict form deterministic.
        if not isinstance(self.population, tuple):
            object.__setattr__(self, "population", tuple(self.population))
        if not isinstance(self.scenario, tuple):
            object.__setattr__(self, "scenario", tuple(self.scenario))
        self.validate()

    # ------------------------------------------------------------------
    # derived quantities
    # ------------------------------------------------------------------
    @property
    def object_size_kbit(self) -> float:
        """Object size in kbit (the paper quotes sizes in MB)."""
        return mb_to_kbit(self.object_size_mb)

    @property
    def block_seconds(self) -> float:
        """Seconds to move one block through one slot."""
        return self.block_size_kbit / self.slot_kbit

    @property
    def num_freeloaders(self) -> int:
        """Free-rider count implied by ``freeloader_fraction`` (rounded)."""
        return int(round(self.num_peers * self.freeloader_fraction))

    @property
    def num_sharers(self) -> int:
        """Sharer count: whatever the free-riders leave of ``num_peers``."""
        return self.num_peers - self.num_freeloaders

    # ------------------------------------------------------------------
    # validation / mutation
    # ------------------------------------------------------------------
    def validate(self) -> None:
        """Raise :class:`ConfigError` on the first invalid field."""
        # NaN or ±inf in any numeric field either slips past the range
        # checks below or only fails deep inside a run (an endless
        # duration, an unschedulable interval, a slot count from inf).
        for f in dataclasses.fields(self):
            value = getattr(self, f.name)
            if isinstance(value, float) and not math.isfinite(value):
                raise ConfigError(f"{f.name} must be finite, got {value}")
        for name in _INT_FIELDS:
            require_integer(name, getattr(self, name))
        # Name tables live beside the code that implements each choice;
        # imported locally to avoid a circular dependency at module load.
        from repro.core.disciplines import DISCIPLINES
        from repro.core.policies import parse_mechanism
        from repro.core.ring import BREAK_POLICIES

        checks: Tuple[Tuple[bool, str], ...] = (
            (self.num_peers >= 2, f"num_peers must be >= 2, got {self.num_peers}"),
            (
                0.0 <= self.freeloader_fraction <= 1.0,
                f"freeloader_fraction must be in [0,1], got {self.freeloader_fraction}",
            ),
            (self.slot_kbit > 0, f"slot_kbit must be positive, got {self.slot_kbit}"),
            (
                self.upload_capacity_kbit >= self.slot_kbit,
                "upload capacity smaller than one slot "
                f"({self.upload_capacity_kbit} < {self.slot_kbit})",
            ),
            (
                self.download_capacity_kbit >= self.slot_kbit,
                "download capacity smaller than one slot "
                f"({self.download_capacity_kbit} < {self.slot_kbit})",
            ),
            (self.num_categories > 0, "num_categories must be positive"),
            (
                0 < self.objects_per_category_min <= self.objects_per_category_max,
                "objects_per_category range invalid: "
                f"[{self.objects_per_category_min}, {self.objects_per_category_max}]",
            ),
            (
                0 < self.categories_per_peer_min <= self.categories_per_peer_max,
                "categories_per_peer range invalid: "
                f"[{self.categories_per_peer_min}, {self.categories_per_peer_max}]",
            ),
            (self.category_factor >= 0, "category_factor must be >= 0"),
            (self.object_factor >= 0, "object_factor must be >= 0"),
            (self.object_size_mb > 0, "object_size_mb must be positive"),
            (
                0 < self.storage_min_objects <= self.storage_max_objects,
                "storage capacity range invalid: "
                f"[{self.storage_min_objects}, {self.storage_max_objects}]",
            ),
            (self.storage_check_interval > 0, "storage_check_interval must be positive"),
            (self.max_pending >= 1, f"max_pending must be >= 1, got {self.max_pending}"),
            (self.irq_capacity >= 1, "irq_capacity must be >= 1"),
            (self.request_fanout >= 1, "request_fanout must be >= 1"),
            (
                self.ring_break_policy in BREAK_POLICIES,
                f"unknown ring_break_policy {self.ring_break_policy!r}",
            ),
            (
                self.scheduler_mode in DISCIPLINES,
                f"unknown scheduler_mode {self.scheduler_mode!r}",
            ),
            (self.scan_interval > 0, "scan_interval must be positive"),
            (self.tree_refresh_interval > 0, "tree_refresh_interval must be positive"),
            (self.max_tree_nodes >= 1, "max_tree_nodes must be >= 1"),
            (
                self.churn_mean_online > 0 and self.churn_mean_offline > 0,
                "churn session means must be positive",
            ),
            (self.duration > 0, "duration must be positive"),
            (
                0.0 <= self.warmup < self.duration,
                f"warmup must be in [0, duration), got {self.warmup}",
            ),
            (self.block_size_kbit > 0, "block_size_kbit must be positive"),
        )
        for ok, message in checks:
            if not ok:
                raise ConfigError(message)
        parse_mechanism(self.exchange_mechanism)
        if self.strategy is not None:
            if not isinstance(self.strategy, StrategySpec):
                raise ConfigError(
                    "strategy must be a StrategySpec, got "
                    f"{type(self.strategy).__name__}"
                )
            self.strategy.validate()
        # Population specs (or the derived legacy two-class split) must
        # resolve to exact per-class counts covering every peer.
        from repro.population import resolve_population

        resolve_population(self)
        # Scenario events are validated against the resolved classes and
        # content model (imported locally for the same layering reason).
        from repro.scenario import validate_scenario

        validate_scenario(self)

    def resolved_population(self) -> Tuple[ResolvedPeerClass, ...]:
        """Concrete per-class rows (see :func:`repro.population.resolve_population`)."""
        from repro.population import resolve_population

        return resolve_population(self)

    def replace(self, **overrides: Any) -> "SimulationConfig":
        """A new config with the given fields overridden (re-validated)."""
        return dataclasses.replace(self, **overrides)

    def to_dict(self) -> Dict[str, Any]:
        """Every field as a JSON-safe dict, in declaration order.

        The experiment orchestrator hashes this to key its on-disk
        result cache, so the representation must be deterministic: same
        config → same dict → same fingerprint across processes.
        """
        return dataclasses.asdict(self)


#: :class:`SimulationConfig` fields annotated ``int``.
_INT_FIELDS = tuple(
    name
    for name, hint in typing.get_type_hints(SimulationConfig).items()
    if hint is int
)
