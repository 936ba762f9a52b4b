"""Outside-in span tracer for the end-to-end benchmark.

Nothing in ``src/`` knows about this module.  :meth:`Tracer.install`
patches the simulator from the outside, in the benchmark's child
process only:

* **Event spans.**  ``Engine.schedule_at`` is wrapped so every callback
  it stores runs inside a span named ``event.<name prefix>`` (``scan``,
  ``block``, ``pass``, ...).  Every schedule site passes a name and
  nothing compares callbacks, so the wrapper changes no trajectory.
* **Call spans.**  Each layer's entry point is wrapped at the binding
  its callers use: ring search as ``exchange_manager.find_candidates``
  (the exchange manager imports it by name), the scheduler through its
  module attribute, IRQ, peer-table and peer methods on their classes.

A span stack gives self time (a span's duration minus its child spans).
Spans are never stored one by one: per span name the tracer keeps the
call count, total and self seconds and a log2 histogram of durations,
which is all the report needs and keeps the traced RSS near the
untraced one over millions of spans.

A hook whose target no longer exists (a refactor renamed or deleted it)
is listed in :attr:`Tracer.missing` instead of aborting the run, so the
benchmark outlives the code it measures.
"""

from __future__ import annotations

import importlib
import operator
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

#: ``(span name, "module:attribute path", tally)``.  A tally
#: ``(suffix, fn)`` adds ``fn(result)`` to the counter ``<span>.<suffix>``.
CALL_HOOKS: Tuple[Tuple[str, str, Optional[Tuple[str, Callable[[Any], int]]]], ...] = (
    ("setup.catalog", "repro.content.catalog:Catalog.build", None),
    ("setup.interests", "repro.simulation:build_interest_profile", None),
    ("setup.placement", "repro.simulation:place_objects_for_peer", None),
    ("setup.peer_init", "repro.network.peer:Peer.__init__", None),
    (
        "exchange_manager.try_form_exchanges",
        "repro.core.exchange_manager:try_form_exchanges",
        ("rings", int),
    ),
    (
        "ring_search.find_candidates",
        "repro.core.exchange_manager:find_candidates",
        ("candidates", len),
    ),
    # Every provider x request-index intersection of a ring search, and
    # the ones that take the bitset path (only they build a provider mask).
    (
        "peer_table.sorted_intersection",
        "repro.core.peer_table:PeerStateTable.sorted_intersection",
        None,
    ),
    ("peer_table.provider_mask", "repro.core.peer_table:PeerStateTable._provider_mask", None),
    ("peer.refresh_outgoing_trees", "repro.network.peer:Peer.refresh_outgoing_trees", None),
    ("irq.refresh_tree", "repro.core.irq:IncomingRequestQueue.refresh_tree", None),
    ("irq.add", "repro.core.irq:IncomingRequestQueue.add", ("refused", operator.not_)),
    ("irq.remove", "repro.core.irq:IncomingRequestQueue.remove", None),
    ("scheduler.serve_pending", "repro.core.scheduler:serve_pending", ("served", int)),
    (
        "lookup.find_providers",
        "repro.network.lookup:LookupService.find_providers",
        ("misses", operator.not_),
    ),
    ("peer.disconnect", "repro.network.peer:Peer.disconnect", None),
    ("peer.reconnect", "repro.network.peer:Peer.reconnect", None),
    ("metrics.add_session", "repro.metrics.columnar:ColumnarCollector.add_session", None),
    ("metrics.add_download", "repro.metrics.columnar:ColumnarCollector.add_download", None),
    (
        "metrics.rows_since",
        "repro.metrics.columnar:ColumnarCollector.session_rows_since",
        None,
    ),
    (
        "metrics.rows_since",
        "repro.metrics.columnar:ColumnarCollector.download_rows_since",
        None,
    ),
    ("metrics.summarize", "repro.simulation:summarize", None),
)

#: The one place every event enters the engine's store.
EVENT_HOOK = "repro.sim.engine:Engine.schedule_at"

#: Histogram buckets: bucket ``b`` holds durations of ``[2**(b-1), 2**b)`` ns.
_BUCKETS = 64


def _resolve(target: str) -> Tuple[Any, str]:
    """``(owner, attribute)`` for ``"module:Qual.attr"``; raises if absent."""
    module_name, _, path = target.partition(":")
    owner: Any = importlib.import_module(module_name)
    *parents, attr = path.split(".")
    for name in parents:
        owner = getattr(owner, name)
    # The attribute must be defined on the owner itself: patching an
    # inherited name would shadow it instead of wrapping the binding.
    owner.__dict__[attr]
    return owner, attr


def percentile_us(hist: List[int], q: float) -> float:
    """The ``q`` quantile (0..1) of a log2 ns histogram, in microseconds.

    Linear interpolation inside the bucket that holds the quantile's
    rank; the estimate is exact to the bucket (a factor of two).
    """
    total = sum(hist)
    if total == 0:
        return 0.0
    rank = q * total
    seen = 0
    for bucket, count in enumerate(hist):
        if count and seen + count >= rank:
            if bucket == 0:
                return 0.0
            low = float(2 ** (bucket - 1))
            fraction = (rank - seen) / count
            return (low + fraction * low) / 1000.0
        seen += count
    return float(2 ** (len(hist) - 1)) / 1000.0


class Tracer:
    """Aggregated spans of one traced cell (see the module docstring)."""

    def __init__(self) -> None:
        #: span name -> ``[calls, total_s, self_s, histogram]``.
        self.stats: Dict[str, list] = {}
        #: ``<span>.<suffix>`` -> summed tally.
        self.tallies: Dict[str, int] = {}
        #: Seconds spent in spans that had no parent span.
        self.toplevel_s = 0.0
        #: Hook targets that could not be resolved, as ``"module:attr"``.
        self.missing: List[str] = []
        self._stack: List[List[float]] = []
        self._undo: List[Tuple[Any, str, Any]] = []

    # ------------------------------------------------------------------
    def _record(self, name: str) -> list:
        record = self.stats.get(name)
        if record is None:
            record = [0, 0.0, 0.0, [0] * _BUCKETS]
            self.stats[name] = record
        return record

    def _close(self, record: list, elapsed: float, children: float) -> None:
        """Account one finished span against its parent and its record."""
        stack = self._stack
        if stack:
            stack[-1][0] += elapsed
        else:
            self.toplevel_s += elapsed
        record[0] += 1
        record[1] += elapsed
        record[2] += elapsed - children
        record[3][int(elapsed * 1e9).bit_length()] += 1

    def wrap(
        self,
        name: str,
        fn: Callable[..., Any],
        tally: Optional[Tuple[str, Callable[[Any], int]]] = None,
    ) -> Callable[..., Any]:
        """``fn`` run inside a span named ``name``."""
        record = self._record(name)
        stack = self._stack
        close = self._close
        clock = time.perf_counter
        tallies = self.tallies
        tally_key = f"{name}.{tally[0]}" if tally else ""
        tally_fn = tally[1] if tally else None
        if tally:
            tallies.setdefault(tally_key, 0)

        def traced(*args: Any, **kwargs: Any) -> Any:
            frame = [0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                close(record, elapsed, frame[0])
            if tally_fn is not None:
                tallies[tally_key] += tally_fn(result)
            return result

        return traced

    # ------------------------------------------------------------------
    def install(self) -> None:
        """Patch every hook target; unresolvable ones go to :attr:`missing`."""
        for name, target, tally in CALL_HOOKS:
            try:
                owner, attr = _resolve(target)
            except (ImportError, AttributeError, KeyError):
                self.missing.append(target)
                continue
            raw = owner.__dict__[attr]
            if isinstance(raw, (classmethod, staticmethod)):
                patched: Any = type(raw)(self.wrap(name, raw.__func__, tally))
            else:
                patched = self.wrap(name, raw, tally)
            setattr(owner, attr, patched)
            self._undo.append((owner, attr, raw))
        try:
            owner, attr = _resolve(EVENT_HOOK)
        except (ImportError, AttributeError, KeyError):
            self.missing.append(EVENT_HOOK)
            return
        original = owner.__dict__[attr]
        wrap = self.wrap

        def schedule_at(engine: Any, time: float, callback: Callable[[], None],
                        name: Optional[str] = None) -> Any:
            kind = "event." + (name.partition(".")[0] if name else "unnamed")
            return original(engine, time, wrap(kind, callback), name)

        setattr(owner, attr, schedule_at)
        self._undo.append((owner, attr, original))

    def uninstall(self) -> None:
        """Restore every patched binding (newest first)."""
        while self._undo:
            owner, attr, raw = self._undo.pop()
            setattr(owner, attr, raw)

    def take(self) -> Dict[str, Any]:
        """Snapshot the aggregates and reset them (one phase of a cell).

        Records handed out by :meth:`wrap` stay live, so counts are
        zeroed in place rather than replaced.
        """
        snapshot = {
            "spans": {
                name: {
                    "calls": record[0],
                    "total_s": record[1],
                    "self_s": record[2],
                    "hist_log2_ns": list(record[3]),
                }
                for name, record in sorted(self.stats.items())
                if record[0]
            },
            "tallies": dict(sorted(self.tallies.items())),
            "toplevel_s": self.toplevel_s,
        }
        for record in self.stats.values():
            record[0] = 0
            record[1] = 0.0
            record[2] = 0.0
            record[3][:] = [0] * _BUCKETS
        for key in self.tallies:
            self.tallies[key] = 0
        self.toplevel_s = 0.0
        return snapshot
