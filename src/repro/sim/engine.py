"""Discrete-event simulation engine: one ``(time, seq)`` heap.

The engine is deliberately minimal: a clock, a pending-event heap and a
run loop.  Everything domain-specific (peers, transfers, rings) lives
above it and interacts with the engine only through
:meth:`Engine.schedule` / :meth:`Engine.schedule_at` and, for periodic
processes, :meth:`Engine.schedule_every`.

Determinism guarantees:

* events fire in exactly the ``(time, seq)`` total order — equal times
  fire in scheduling order, because ``seq`` is a global counter stamped
  at schedule time — since the pending store *is* a binary heap of
  ``(time, seq, event)`` tuples.  Non-finite times, which would break
  heap order silently (NaN compares False against everything), are
  rejected by :meth:`Engine.schedule_at`; the run loop's re-arm adds a
  checked finite, positive interval to a finite time;
* a periodic event is **re-armed in place**: when the run loop pops
  one, it puts the same event back at ``time + interval`` with a fresh
  ``seq`` *before* it runs the callback — the point where a callback
  rescheduling itself would draw that ``seq`` — so the pop order is the
  one a fresh event per firing gives, without the allocation;
* the engine itself uses no randomness,

so a simulation driven by a seeded :class:`~repro.sim.rng.RandomSource`
replays exactly, event for event.

Cancellation leaves a **tombstone**: :meth:`~repro.sim.events.Event.cancel`
only flags the event, and :meth:`Engine._head` pops it once it reaches
the head, at O(log pending).  Pop order is the ``(time, seq)`` order with
or without tombstones, so they cannot move a trajectory.  They stay few
because every cancel the model makes during a run is of an event due
within one block time (a terminated transfer's next block) or one
interval (a paused or stopped periodic process's next firing), and no
tombstone outlives its due time.
"""

from __future__ import annotations

import heapq
import math
from typing import Callable, List, Optional, Tuple

from repro.errors import SchedulingError, SimulationError
from repro.sim.counters import PerfCounters
from repro.sim.events import Event


class Engine:
    """Discrete-event scheduler with a floating-point clock in seconds.

    The heap holds ``(time, seq, event)`` tuples rather than bare events:
    tuple comparison runs in C, and with millions of heap operations per
    run the Python-level ``Event.__lt__`` dispatch was a measurable
    slice of the whole simulation.
    """

    def __init__(self, start_time: float = 0.0) -> None:
        self._now = float(start_time)
        self._seq = 0
        self._fired = 0
        self._cancelled_skipped = 0
        self._running = False
        self._heap: List[Tuple[float, int, Event]] = []
        #: Per-event-kind fire counts plus ``engine.fired``, and the
        #: tallies of every subsystem sharing this engine's context.
        self.counters = PerfCounters()

    # ------------------------------------------------------------------
    # clock
    # ------------------------------------------------------------------
    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    @property
    def events_fired(self) -> int:
        """Number of events executed so far (excludes cancelled skips)."""
        return self._fired

    @property
    def events_pending(self) -> int:
        """Number of events still stored (including cancelled ones)."""
        return len(self._heap)

    @property
    def cancelled_skipped(self) -> int:
        """Number of cancelled events popped from the heap and discarded."""
        return self._cancelled_skipped

    # ------------------------------------------------------------------
    # scheduling
    # ------------------------------------------------------------------
    def schedule(
        self,
        delay: float,
        callback: Callable[[], None],
        name: Optional[str] = None,
    ) -> Event:
        """Schedule ``callback`` to fire ``delay`` seconds from now.

        Returns the :class:`Event`, which the caller may cancel.  A
        negative delay raises :class:`SchedulingError` — events in the
        past indicate a bookkeeping bug upstream, never a valid model.
        """
        if delay < 0:
            raise SchedulingError(
                f"cannot schedule {name or callback!r} {-delay:.6f}s in the past"
            )
        return self.schedule_at(self._now + delay, callback, name)

    def schedule_at(
        self,
        time: float,
        callback: Callable[[], None],
        name: Optional[str] = None,
    ) -> Event:
        """Schedule ``callback`` at absolute simulated ``time``.

        ``time`` must be finite and not before the current time; a
        violation raises :class:`SchedulingError`.
        """
        if not self._now <= time < math.inf:  # also False for NaN
            if math.isfinite(time):
                raise SchedulingError(
                    f"cannot schedule {name or callback!r} at t={time:.6f} "
                    f"before current time t={self._now:.6f}"
                )
            raise SchedulingError(
                f"cannot schedule {name or callback!r} at non-finite t={time}"
            )
        seq = self._seq
        event = Event(time, callback, name)
        heapq.heappush(self._heap, (time, seq, event))  # simlint: disable=SCH001 -- this IS the seq-tie-break API every other push must go through
        self._seq = seq + 1
        return event

    def schedule_every(
        self,
        delay: float,
        interval: float,
        callback: Callable[[], None],
        name: Optional[str] = None,
    ) -> Event:
        """Schedule ``callback`` ``delay`` seconds from now, then every ``interval``.

        The event is armed through :meth:`schedule` and then marked
        periodic, so the run loop re-arms it in place at
        ``time + interval`` before each callback: a callback that raises
        leaves the next firing queued, and cancelling the event (also
        from inside its callback) ends the series.  ``interval`` must be
        finite and positive — NaN or zero would refire at one instant
        forever — or :class:`SchedulingError` is raised before anything
        is scheduled.
        """
        if not 0.0 < interval < math.inf:  # also False for NaN
            raise SchedulingError(
                f"periodic interval of {name or callback!r} must be finite "
                f"and positive, got {interval}"
            )
        event = self.schedule(delay, callback, name)
        event.interval = interval
        return event

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def _head(self) -> Optional[Tuple[float, int, Event]]:
        """The next live heap entry, or None; the one place tombstones are popped."""
        heap = self._heap
        while heap:
            entry = heap[0]
            if not entry[2]._cancelled:
                return entry
            heapq.heappop(heap)
            self._cancelled_skipped += 1
        return None

    def step(self) -> Optional[Event]:
        """Fire the next non-cancelled event; return it, or None if empty.

        One turn of :meth:`run`'s loop, so the event is counted and, if
        periodic, re-armed exactly as a run would; like :meth:`run`, it
        must not be called from inside a callback.
        """
        entry = self._head()
        if entry is None:
            return None
        self.run(max_events=1)
        return entry[2]

    def run(self, until: Optional[float] = None, max_events: Optional[int] = None) -> int:
        """Run the event loop.

        Parameters
        ----------
        until:
            Stop once the next event would fire after this time, which
            must be finite (NaN never stops the loop; an infinite clock
            rejects every later schedule).  The clock is advanced to
            ``until`` (events *at* ``until`` fire)
            unless the loop stopped early on ``max_events`` with
            undrained events at or before ``until`` — advancing past
            those would let the clock move backwards on the next
            :meth:`step`/:meth:`run` and make :meth:`schedule_at`
            reject still-valid times.
        max_events:
            Safety valve for tests: stop after this many fired events.

        Returns the number of events fired by this call.  At least one
        of ``until`` / ``max_events`` must be given, otherwise the loop
        could only end by draining the heap — usually a hang in a
        self-rescheduling simulation.
        """
        if until is None and max_events is None:
            raise SimulationError("run() needs an 'until' time or a max_events bound")
        if until is not None and not math.isfinite(until):
            raise SimulationError(f"run() needs a finite 'until', got {until}")
        if self._running:
            raise SimulationError("engine is already running (re-entrant run() call)")
        self._running = True
        fired = 0
        event_counts = self.counters.counts
        heap = self._heap
        head = self._head
        heappop = heapq.heappop
        heapreplace = heapq.heapreplace
        try:
            while heap:
                if max_events is not None and fired >= max_events:
                    break
                entry = head()
                if entry is None:
                    break
                time, _seq, event = entry
                if until is not None and time > until:
                    break
                interval = event.interval
                if interval is None:
                    heappop(heap)
                else:
                    # Re-arm before the callback, where a callback
                    # rescheduling itself would draw its seq.
                    seq = self._seq
                    self._seq = seq + 1
                    event.time = next_time = time + interval
                    heapreplace(heap, (next_time, seq, event))  # simlint: disable=SCH001 -- the periodic re-arm: stamps the next seq exactly as schedule_at would
                self._now = time
                self._fired += 1
                fired += 1
                kind = event.kind
                event_counts[kind] = event_counts.get(kind, 0) + 1
                event.callback()
        finally:
            self._running = False
            event_counts["engine.fired"] = event_counts.get("engine.fired", 0) + fired
        if until is not None and self._now < until:
            next_time = self.peek_time()
            if next_time is None or next_time > until:
                self._now = until
        return fired

    def peek_time(self) -> Optional[float]:
        """Fire time of the next pending event, skipping cancelled ones."""
        entry = self._head()
        return None if entry is None else entry[0]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Engine(now={self._now:.3f}, pending={self.events_pending}, "
            f"fired={self._fired})"
        )
