"""Shared factories and helpers for the test suite."""

from __future__ import annotations

import math

from repro.config import SimulationConfig
from repro.content.catalog import Catalog, Category, ContentObject
from repro.context import SimContext
from repro.metrics.columnar import ColumnarCollector
from repro.network.behaviors import FREELOADER, SHARER
from repro.network.lookup import LookupService
from repro.simulation import FileSharingSimulation, SimulationResult


def tiny_catalog(
    num_categories: int = 3, objects_per_category: int = 4, size_kbit: float = 4096.0
) -> Catalog:
    """A small deterministic catalog: ids are dense, sizes equal."""
    categories = []
    next_id = 0
    for cid in range(num_categories):
        objects = tuple(
            ContentObject(
                object_id=next_id + rank - 1,
                category_id=cid,
                rank=rank,
                size_kbit=size_kbit,
            )
            for rank in range(1, objects_per_category + 1)
        )
        next_id += objects_per_category
        categories.append(Category(category_id=cid, rank=cid + 1, objects=objects))
    return Catalog(categories)


def small_config(**overrides) -> SimulationConfig:
    """A fast-but-loaded configuration for integration tests."""
    defaults = dict(
        num_peers=20,
        num_categories=10,
        objects_per_category_min=2,
        objects_per_category_max=10,
        categories_per_peer_min=1,
        categories_per_peer_max=4,
        object_size_mb=1.0,
        block_size_kbit=1024.0,
        storage_min_objects=3,
        storage_max_objects=8,
        storage_check_interval=300.0,
        max_pending=4,
        request_fanout=3,
        scan_interval=30.0,
        duration=8000.0,
        warmup=1000.0,
        bootstrap_window=20.0,
        seed=11,
    )
    defaults.update(overrides)
    return SimulationConfig(**defaults)


class StubPolicy:
    """Minimal policy stand-in for peer-level unit tests."""

    def __init__(self, max_ring: int = 0) -> None:
        self.max_ring = max_ring

    @property
    def enables_exchanges(self) -> bool:
        return self.max_ring >= 2

    @property
    def tree_levels(self) -> int:
        return max(0, self.max_ring - 1)

    def accepts(self, ring_size: int) -> bool:
        return 2 <= ring_size <= self.max_ring

    def order(self, candidates):
        return [c for c in candidates if self.accepts(c.size)]


def recording_collector(config: SimulationConfig) -> ColumnarCollector:
    """A collector that keeps every row, so record views can be read."""
    return ColumnarCollector(warmup=config.warmup, keep_records=True)


def recording_sim(config: SimulationConfig) -> FileSharingSimulation:
    """A simulation whose ``ctx.metrics`` serves the record views."""
    return FileSharingSimulation(config, metrics=recording_collector(config))


def run_with_records(config: SimulationConfig) -> SimulationResult:
    """``run_simulation`` with a record-keeping collector."""
    return recording_sim(config).run()


def make_ctx(config: SimulationConfig | None = None, catalog: Catalog | None = None):
    """A bare context with catalog + lookup wired (no peers); its
    collector keeps records."""
    config = config or small_config()
    ctx = SimContext(config, metrics=recording_collector(config))
    ctx.catalog = catalog or tiny_catalog(size_kbit=config.object_size_kbit)
    ctx.lookup = LookupService(coverage=config.lookup_coverage)
    return ctx


def blocks_for(config: SimulationConfig, size_kbit: float) -> int:
    return max(1, math.ceil(size_kbit / config.block_size_kbit))


# ---------------------------------------------------------------------------
# Manual network assembly (unit tests drive peers without a full simulation)
# ---------------------------------------------------------------------------

from repro.content.interests import InterestProfile  # noqa: E402
from repro.content.storage import ObjectStore  # noqa: E402
from repro.core.policies import parse_mechanism  # noqa: E402
from repro.network.peer import Peer  # noqa: E402


def build_peer(ctx, peer_id, shares=True, mechanism="2-5-way", capacity=20):
    """Create a peer wired into ``ctx`` with a trivial interest profile."""
    profile = InterestProfile([0], [1.0])
    store = ObjectStore(capacity)
    behavior = SHARER if shares else FREELOADER
    peer = Peer(ctx, peer_id, behavior, parse_mechanism(mechanism), profile, store)
    ctx.peers[peer_id] = peer
    return peer


def give(ctx, peer, object_id):
    """Store an object at a peer and register it with lookup if shared."""
    if peer.store.add_if_absent(object_id):
        if peer.behavior.shares:
            ctx.lookup.register(peer.peer_id, object_id)


def drain(ctx, until=None, max_events=100_000):
    """Run pending events (zero-delay passes included)."""
    if until is None:
        until = ctx.engine.now
    ctx.engine.run(until=until, max_events=max_events)
