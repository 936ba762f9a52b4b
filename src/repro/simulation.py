"""End-to-end simulation assembly.

:class:`FileSharingSimulation` turns a
:class:`~repro.config.SimulationConfig` into a fully wired system —
catalog, lookup oracle, peers with interests, stores, initial placement,
workloads and periodic processes — runs the event loop, and reduces the
metrics to a :class:`~repro.metrics.summary.SimulationSummary`.

The world is assembled from two reusable mutation primitives,
:meth:`FileSharingSimulation.spawn_peer` and
:meth:`FileSharingSimulation.retire_peer`: :meth:`build` spawns the
initial population with them, and a non-empty
:attr:`~repro.config.SimulationConfig.scenario` drives the same
primitives mid-run through a :class:`~repro.scenario.ScenarioDirector`
(peer arrivals and permanent departures, flash crowds, demand shifts,
mechanism ramps, capacity changes).  With an empty scenario the
lifecycle is exactly the classic build-once/run-once closed system.

Typical use::

    from repro import FileSharingSimulation, SimulationConfig

    config = SimulationConfig(exchange_mechanism="2-5-way", seed=7)
    result = FileSharingSimulation(config).run()
    print(result.summary.mean_download_time_sharers_min)
"""

from __future__ import annotations

import dataclasses
import gc
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional

from repro.config import SimulationConfig
from repro.content.catalog import Catalog
from repro.content.interests import build_interest_profile
from repro.content.placement import place_objects_for_peer
from repro.content.popularity import PopularityCache, RankPopularity
from repro.content.storage import ObjectStore
from repro.content.workload import RequestGenerator
from repro.context import SimContext
from repro.core.policies import ExchangePolicy, parse_mechanism
from repro.errors import SimulationError
from repro.core.disciplines import make_discipline
from repro.metrics.columnar import ColumnarCollector
from repro.metrics.summary import SimulationSummary, summarize
from repro.network.lookup import LookupService
from repro.network.peer import Peer
from repro.population import (
    ResolvedPeerClass,
    assign_peer_classes,
    class_by_name,
)
from repro.scenario import ScenarioDirector
from repro.sim.processes import PeriodicProcess
from repro.strategy import StrategyDirector

#: Seconds over which peers issue their first request burst: each peer
#: bootstraps at a uniform offset within the window, drawn from the
#: ``"bootstrap"`` stream, at build time and on a scenario arrival.
BOOTSTRAP_WINDOW = 60.0


#: Objects the interpreter keeps in the permanent generation on its own,
#: read at import.  CPython 3.12 parks every immortal object there at a
#: full collection (375 on 3.12.1, from start-up on); no other version
#: parks any.  A larger count means a caller froze objects.
_INTERPRETER_FROZEN = gc.get_freeze_count()


@contextmanager
def collector_paused() -> Iterator[None]:
    """Run the block with Python's cyclic garbage collector paused.

    The simulator creates no reference cycles while it builds or runs
    (``tests/test_gc_pause.py`` holds that contract for every
    configuration family), so a collection inside :meth:`~
    FileSharingSimulation.build` or :meth:`~FileSharingSimulation.run`
    frees nothing: it only traces the trees, queues and index dicts the
    run allocates.  Collector timing is invisible to the model (no RNG,
    no scheduling, nothing here defines ``__del__`` or uses ``weakref``),
    so pausing it cannot move a trajectory.

    On exit, also on an exception, the enabled state found on entry is
    restored.  If the caller had frozen nothing (``gc.freeze``), every
    object the block left alive is first promoted to the oldest
    generation by a ``gc.freeze()`` / ``gc.unfreeze()`` pair (two O(1)
    list merges); without that they would all sit in generation 0, and
    the first young collection after the block would trace all of them.
    The pair also thaws the immortal objects CPython 3.12 parks, which
    is harmless: the next full collection parks them again.  A caller's
    own freeze is never thawed: the promotion is skipped instead, and
    the block's objects stay young.  A freeze made before this module
    was imported is taken for the interpreter's own.
    """
    was_enabled = gc.isenabled()
    promote = gc.get_freeze_count() <= _INTERPRETER_FROZEN
    gc.disable()
    try:
        yield
    finally:
        if promote:
            gc.freeze()
            gc.unfreeze()
        if was_enabled:
            gc.enable()


@dataclass
class SimulationResult:
    """Everything a caller needs after a run."""

    config: SimulationConfig
    summary: SimulationSummary
    metrics: ColumnarCollector
    events_fired: int
    #: JSON-ready perf-counter snapshot (``ctx.counters.snapshot()``,
    #: ``{"counts": {...}}``).  Benchmarks publish this verbatim.
    perf_counters: Dict[str, Dict[str, int]] = dataclasses.field(default_factory=dict)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"SimulationResult(mechanism={self.config.exchange_mechanism!r}, "
            f"sharers={self.summary.mean_download_time_sharers_min}, "
            f"freeloaders={self.summary.mean_download_time_freeloaders_min})"
        )


class FileSharingSimulation:
    """Builds and runs one simulated file-sharing network."""

    def __init__(
        self, config: SimulationConfig, metrics: Optional[ColumnarCollector] = None
    ) -> None:
        self.config = config
        self.ctx = SimContext(config, metrics=metrics)
        self.population = config.resolved_population()
        self.churn = None  # set by build() when churn is enabled
        self.scenario = None  # set by build() when the scenario is non-empty
        self.strategy = None  # set lazily when some class revises its strategy
        self.adversary = None  # set lazily when some class is adversarial
        self._built = False
        self._ran = False
        self._processes: List[PeriodicProcess] = []
        # The runtime class registry: population classes first, then
        # arrival classes in first-spawn order (spawn_peer adds them).
        self._classes_by_name: Dict[str, ResolvedPeerClass] = {
            cls.name: cls for cls in self.population
        }
        self._next_peer_id = config.num_peers
        self._policies: Dict[str, ExchangePolicy] = {}
        # Scenario overrides (mechanism ramps, capacity changes) aimed
        # at classes that do not exist yet — an inline arrival spec
        # whose first wave lands after the event; applied when the
        # class is first resolved.
        self._pending_class_overrides: Dict[str, Dict[str, object]] = {}

    # ------------------------------------------------------------------
    # runtime class registry (scenario layer)
    # ------------------------------------------------------------------
    @property
    def category_popularity(self) -> RankPopularity:
        """The global category rank distribution (set by :meth:`build`)."""
        return self._category_popularity

    def class_by_name(self, name: str) -> ResolvedPeerClass:
        """A runtime-addressable peer class: population or arrival spec."""
        return class_by_name(tuple(self._classes_by_name.values()), name)

    def note_class_override(self, name: str, **overrides: object) -> None:
        """A scenario event re-provisioned a class; later arrivals follow.

        A ramp or capacity change may legally target an arrival-spec
        class whose first wave has not landed yet — the overrides are
        parked and applied when :meth:`arrival_class` first resolves
        that class.
        """
        cls = self._classes_by_name.get(name)
        if cls is not None:
            self._classes_by_name[name] = dataclasses.replace(cls, **overrides)
        else:
            self._pending_class_overrides.setdefault(name, {}).update(overrides)

    def arrival_class(
        self, class_name: Optional[str], spec, count: int
    ) -> ResolvedPeerClass:
        """Resolve one arrival wave's class at the event's count.

        Named arrivals address the live registry (so a ramped or
        re-provisioned class arrives in its current shape).  Inline-spec
        arrivals also prefer the registry once the name is known — the
        first wave registers it — and apply any overrides that fired
        before the first wave landed.
        """
        from repro.population import resolve_spec

        known = self._classes_by_name.get(
            class_name if class_name is not None else spec.name
        )
        if known is not None:
            resolved = dataclasses.replace(known, count=count)
        elif spec is None:
            # validate_scenario orders named arrivals after the spec
            # waves that define their class, so this is unreachable
            # from a validated config — guard it with a clear error
            # rather than an AttributeError deep in resolution.
            raise SimulationError(
                f"arrival references class {class_name!r} before any "
                "spec wave defined it"
            )
        else:
            resolved = resolve_spec(spec, count, self.config)
        pending = self._pending_class_overrides.pop(resolved.name, None)
        if pending:
            resolved = dataclasses.replace(resolved, **pending)
        return resolved

    def policy_for(self, mechanism: str) -> ExchangePolicy:
        """The shared :class:`ExchangePolicy` instance for one mechanism
        string (one instance per mechanism for the whole run)."""
        policy = self._policies.get(mechanism)
        if policy is None:
            policy = parse_mechanism(mechanism)
            self._policies[mechanism] = policy
        return policy

    def _ensure_strategy_director(self) -> StrategyDirector:
        """The strategy director, created on first demand.

        Lazy because an arrival-spec class may be the first (or only)
        strategy-enabled class — the director then comes to life with
        the wave that needs it.  Creation order does not affect
        determinism: the ``"strategy"`` RNG stream is derived from its
        name, independently of every other stream.
        """
        if self.strategy is None:
            self.strategy = StrategyDirector(self)
        return self.strategy

    def _ensure_adversary_state(self):
        """The adversary bookkeeping, created on first enrollment.

        Lazy for the same reason as the strategy director: only configs
        with an adversarial peer class pay for it, and an honest run is
        bit-identical to a pre-adversary build (no state, no audit
        process, no events).  The first enrollment also starts the
        periodic cooperative-blacklist audit.
        """
        if self.adversary is None:
            from repro.security.adversaries import AdversaryState

            state = AdversaryState(self)
            self.adversary = state
            self.ctx.adversary = state
            # Detection is deliberately slower than serving: one audit
            # every four scan intervals, aligned (no stagger — the
            # audit draws no randomness and order is sorted-id).
            interval = self.config.scan_interval * 4.0
            audit = PeriodicProcess(
                self.ctx.engine,
                interval,
                state.audit,
                name="adversary.audit",
                start_delay=interval,
            )
            self.register_process(audit)
        return self.adversary

    def register_process(self, process: PeriodicProcess) -> None:
        """Track a periodic process so :meth:`run` stops it at the end."""
        self._processes.append(process)

    # ------------------------------------------------------------------
    def build(self) -> SimContext:
        """Construct the whole system; idempotent guard against reuse.

        A finished world is cyclic garbage (``Peer.ctx`` ->
        ``ctx.peers`` -> ``Peer``), so one full collection first frees
        whatever world an earlier simulation in this process left
        behind.  The world is then built with the collector paused
        (:func:`collector_paused`).
        """
        if self._built:
            raise SimulationError("simulation already built")
        self._built = True
        gc.collect()
        with collector_paused():
            self._assemble()
        return self.ctx

    def _assemble(self) -> None:
        """Create the catalog, the peers and their processes, churn and
        the directors: the body of :meth:`build`."""
        config = self.config
        ctx = self.ctx
        rng = ctx.rng

        ctx.catalog = Catalog.build(
            rng,
            num_categories=config.num_categories,
            objects_per_category_min=config.objects_per_category_min,
            objects_per_category_max=config.objects_per_category_max,
            object_size_kbit=config.object_size_kbit,
        )
        ctx.lookup = LookupService(coverage=config.lookup_coverage)

        self._category_popularity = RankPopularity(
            config.num_categories, config.category_factor
        )
        self._placement_cache = PopularityCache()
        self._workload_cache = PopularityCache()

        class_of = assign_peer_classes(self.population, config.num_peers, rng)
        self._interest_rand = rng.stream("interests")
        self._placement_rand = rng.stream("placement")
        self._stagger = rng.stream("stagger")
        self._bootstrap_stagger = rng.stream("bootstrap")

        # Three passes (create, start processes, bootstrap) in exactly
        # the pre-scenario order: each named RNG stream and the engine's
        # event sequence numbers see the same consumption sequence, so
        # empty-scenario runs stay bit-identical across the refactor.
        for peer_id in range(config.num_peers):
            self._create_peer(peer_id, class_of[peer_id])
        for peer in ctx.peers.values():
            self._start_peer_processes(peer)
        for peer in ctx.peers.values():
            self._schedule_bootstrap(peer)

        if config.churn_enabled:
            from repro.network.churn import ChurnModel

            self.churn = ChurnModel(
                ctx,
                list(ctx.peers.values()),
                mean_online=config.churn_mean_online,
                mean_offline=config.churn_mean_offline,
                rand=rng.stream("churn"),
            )
        # The director schedules every timeline event up front.  An
        # empty scenario constructs nothing and consumes nothing.
        if config.scenario:
            self.scenario = ScenarioDirector(self)
        # The strategy director comes *after* the scenario director so
        # build-scheduled scenario events carry smaller engine sequence
        # numbers than any revision epoch: at equal timestamps, scenario
        # events (phases, shocks) always apply before revisions.  A
        # fully static population constructs nothing and consumes
        # nothing (bit-identical to pre-strategy builds).
        if any(not cls.strategy.is_static for cls in self.population):
            director = self._ensure_strategy_director()
            for peer_id in range(config.num_peers):
                director.enroll(ctx.peers[peer_id], class_of[peer_id].strategy)

    # ------------------------------------------------------------------
    # world-mutation primitives (build-time loop and scenario runtime)
    # ------------------------------------------------------------------
    def _create_peer(self, peer_id: int, peer_class: ResolvedPeerClass) -> Peer:
        """Wire one peer into the world: interests, store, placement,
        lookup registration and workload (no processes yet)."""
        config = self.config
        ctx = self.ctx
        rng = ctx.rng
        categories = rng.uniform_int(
            peer_class.categories_per_peer_min,
            peer_class.categories_per_peer_max,
            stream="peer-categories",
        )
        profile = build_interest_profile(
            ctx.catalog, self._category_popularity, self._interest_rand, categories
        )
        capacity = rng.uniform_int(
            peer_class.storage_min_objects,
            peer_class.storage_max_objects,
            stream="peer-storage",
        )
        store = ObjectStore(capacity)
        behavior = peer_class.behavior
        peer = Peer(
            ctx,
            peer_id,
            behavior,
            self.policy_for(peer_class.exchange_mechanism),
            profile,
            store,
            upload_capacity_kbit=peer_class.upload_capacity_kbit,
            download_capacity_kbit=peer_class.download_capacity_kbit,
            discipline=make_discipline(
                peer_class.service_discipline,
                peer_id,
                shares=behavior.shares,
                fake_participation=config.freeloaders_fake_participation,
            ),
            class_name=peer_class.name,
        )
        placed = place_objects_for_peer(
            ctx.catalog,
            profile,
            store,
            self._placement_rand,
            config.object_factor,
            self._placement_cache,
        )
        if behavior.shares:
            for object_id in placed:
                ctx.lookup.register(peer_id, object_id)
        workload = RequestGenerator(
            ctx.catalog,
            profile,
            rng.stream(f"workload{peer_id}"),
            config.object_factor,
            stored=store.id_view(),
            pending=peer.pending,
            locatable=ctx.lookup.provider_index(),
            popularity_cache=self._workload_cache,
        )
        peer.attach_workload(workload)
        ctx.peers[peer_id] = peer
        if peer_class.adversary is not None:
            self._ensure_adversary_state().enroll(peer, peer_class)
        return peer

    def _start_peer_processes(self, peer: Peer) -> None:
        """Attach one peer's periodic scan/storage loops (staggered)."""
        config = self.config
        engine = self.ctx.engine
        # Attached to the peer as well so churn can pause the loops
        # while the peer is offline (an offline peer's scan/storage
        # ticks are pure event-heap churn).
        scan = PeriodicProcess(
            engine,
            config.scan_interval,
            peer.scan,
            name=f"scan.p{peer.peer_id}",
            start_delay=self._stagger.random() * config.scan_interval,
        )
        storage = PeriodicProcess(
            engine,
            config.storage_check_interval,
            peer.storage_check,
            name=f"storage.p{peer.peer_id}",
            start_delay=self._stagger.random() * config.storage_check_interval,
        )
        peer.attach_periodic(scan)
        peer.attach_periodic(storage)
        self._processes.extend((scan, storage))

    def _schedule_bootstrap(self, peer: Peer) -> None:
        """Issue the peer's initial request burst within the window."""
        delay = self._bootstrap_stagger.random() * BOOTSTRAP_WINDOW
        self.ctx.engine.schedule(
            delay, peer.fill_pending, name=f"bootstrap.p{peer.peer_id}"
        )

    def spawn_peer(self, peer_class: ResolvedPeerClass) -> Peer:
        """A new peer joins the running world (scenario arrivals).

        Allocates the next peer id, wires the peer in exactly as the
        build loop does (interests, placement, workload — drawing from
        the same named RNG streams, continued), starts its periodic
        processes, and staggers its first request burst over the
        bootstrap window from *now*.
        """
        peer_id = self._next_peer_id
        self._next_peer_id += 1
        self._classes_by_name.setdefault(peer_class.name, peer_class)
        peer = self._create_peer(peer_id, peer_class)
        self._start_peer_processes(peer)
        self._schedule_bootstrap(peer)
        if self.churn is not None:
            self.churn.enroll(peer)
        if not peer_class.strategy.is_static:
            self._ensure_strategy_director().enroll(peer, peer_class.strategy)
        self.ctx.metrics.count("scenario.peer_joined")
        return peer

    def retire_peer(self, peer: Peer) -> None:
        """A peer leaves the running world permanently (departures).

        Runs the same audited teardown churn uses
        (:meth:`~repro.network.peer.Peer.disconnect`), then makes the
        departure irreversible: pending downloads are dropped, the
        periodic processes are stopped outright, and ``peer.departed``
        blocks any later reconnect (churn's or anyone else's).  The
        peer stays in the registry so ids remain resolvable.
        """
        if peer.departed:
            return
        peer.disconnect()  # no-op when churn already took it offline
        peer.departed = True
        peer.pending.clear()
        for process in peer.periodic_processes:
            process.stop()
        self.ctx.metrics.count("scenario.peer_left")

    # ------------------------------------------------------------------
    def run(self) -> SimulationResult:
        """Build (if needed), run to ``config.duration``, summarize.

        The event loop and the summary run with the collector paused
        (:func:`collector_paused`).
        """
        if self._ran:
            raise SimulationError("simulation already ran; build a new one")
        if not self._built:
            self.build()
        self._ran = True
        with collector_paused():
            self.ctx.engine.run(until=self.config.duration)
            for process in self._processes:
                process.stop()
            # Class sizes and the sharer split are counted over the peers
            # present at the end: arrivals, departures and strategy
            # switches move them mid-run, and under an explicit
            # population the legacy freeloader_fraction says nothing
            # about the actual split.  A class whose peers all left
            # keeps its key at 0.
            class_sizes = dict.fromkeys(self._classes_by_name, 0)
            num_sharers = 0
            num_freeloaders = 0
            for peer in self.ctx.peers.values():
                if peer.departed:
                    continue
                class_sizes[peer.class_name] += 1
                if peer.behavior.shares:
                    num_sharers += 1
                else:
                    num_freeloaders += 1
            adversary_classes = sorted(
                name
                for name, cls in self._classes_by_name.items()
                if cls.adversary is not None
            )
            summary = summarize(
                self.ctx.metrics,
                num_sharers=num_sharers,
                num_freeloaders=num_freeloaders,
                class_sizes=class_sizes,
                adversary_classes=adversary_classes or None,
            )
        return SimulationResult(
            config=self.config,
            summary=summary,
            metrics=self.ctx.metrics,
            events_fired=self.ctx.engine.events_fired,
            perf_counters=self.ctx.counters.snapshot(),
        )


def run_simulation(config: SimulationConfig) -> SimulationResult:
    """One-call convenience wrapper."""
    return FileSharingSimulation(config).run()


def run_summary(config: SimulationConfig) -> SimulationSummary:
    """Run one simulation and return only its summary.

    This is the pickle-safe entry point the experiment orchestrator
    ships to ``multiprocessing`` workers: the argument is a plain frozen
    dataclass and the return value is a plain dataclass of built-in
    types, so both cross process boundaries cheaply — unlike the full
    :class:`SimulationResult`, which drags the entire metrics record
    store with it.
    """
    return run_simulation(config).summary
