"""Shared simulation context.

:class:`SimContext` bundles the services every component needs — the
event engine, configuration, RNG, lookup oracle, metrics sink and the
peer registry — so constructors take one argument instead of six and
tests can assemble partial contexts cheaply.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Dict, Optional

from repro.config import SimulationConfig
from repro.core.peer_table import PeerStateTable
from repro.metrics.columnar import ColumnarCollector
from repro.sim.engine import Engine
from repro.sim.rng import RandomSource

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, hints only
    from repro.content.catalog import Catalog
    from repro.network.lookup import LookupService
    from repro.network.peer import Peer
    from repro.security.adversaries import AdversaryState


class SimContext:
    """Service locator for one simulation run."""

    def __init__(
        self,
        config: SimulationConfig,
        engine: Optional[Engine] = None,
        rng: Optional[RandomSource] = None,
        metrics: Optional[ColumnarCollector] = None,
    ) -> None:
        self.config = config
        self.engine = engine if engine is not None else Engine()
        #: Per-subsystem perf counters (see :mod:`repro.sim.counters`):
        #: the engine's set, so its per-event tallies and every other
        #: subsystem's land in one snapshot.
        self.counters = self.engine.counters
        self.rng = rng if rng is not None else RandomSource(config.seed)
        #: The metrics sink; pass a collector built with
        #: ``keep_records=True`` to read record views after the run.
        self.metrics = (
            metrics if metrics is not None else ColumnarCollector(warmup=config.warmup)
        )
        #: The peer registry, the one copy of peer state.  Ids are
        #: allocated monotonically and never removed (departed peers
        #: stay, flagged), so iteration is in ascending id order.
        self.peers: Dict[int, "Peer"] = {}
        #: Ring search's provider-mask cache (see
        #: :mod:`repro.core.peer_table`); each peer registers its id.
        self.peer_table = PeerStateTable()
        self.catalog: Optional["Catalog"] = None
        self.lookup: Optional["LookupService"] = None
        #: Attacker bookkeeping (see :mod:`repro.security.adversaries`),
        #: set by the simulation iff some peer class declares an
        #: ``adversary`` kind.  ``None`` for every honest run — the
        #: admission gate's single ``is None`` check is the only cost.
        self.adversary: Optional["AdversaryState"] = None
        self._ring_counter = 0
        self._blocks_cache: Dict[int, int] = {}

    @property
    def now(self) -> float:
        """Current simulated time in seconds (the engine's clock)."""
        return self.engine.now

    def peer(self, peer_id: int) -> "Peer":
        """Peer lookup; a missing id is always a bug, so let KeyError fly."""
        return self.peers[peer_id]

    def next_ring_id(self) -> int:
        """Monotonic ring identifiers for metrics and debugging."""
        self._ring_counter += 1
        return self._ring_counter

    def blocks_for(self, object_id: int) -> int:
        """Blocks needed for one object (memoized: sizes are immutable).

        Sits on the scheduler/validation hot path via
        :meth:`~repro.network.peer.Peer.available_blocks`, so the
        catalog lookup and ceiling division run once per object, not
        once per call.
        """
        blocks = self._blocks_cache.get(object_id)
        if blocks is None:
            size_kbit = self.catalog.object(object_id).size_kbit
            blocks = max(1, math.ceil(size_kbit / self.config.block_size_kbit))
            self._blocks_cache[object_id] = blocks
        return blocks

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SimContext(peers={len(self.peers)}, t={self.engine.now:.1f})"
