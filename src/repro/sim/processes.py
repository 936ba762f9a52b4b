"""Periodic processes on top of the event engine.

Peers run several recurring activities — IRQ scans for feasible
exchanges, storage-limit checks — which the paper describes as happening
"in regular intervals".  :class:`PeriodicProcess` arms one periodic
event (:meth:`~repro.sim.engine.Engine.schedule_every`) that runs the
model's callback directly and that the engine re-arms in place before
every firing, and adds clean cancellation semantics: pausing or
stopping cancels that event, so the callback runs no more, and
resuming arms a new one.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.sim.engine import Engine
from repro.sim.events import Event


class PeriodicProcess:
    """Fires ``callback`` every ``interval`` seconds until stopped.

    The first firing happens at ``start_delay`` (default: one full
    interval) so that, e.g., storage checks do not all run at t=0 before
    anything happened.  Callers desynchronize the peers' scan phases by
    passing a random ``start_delay`` — with 200 peers all scanning at
    the same instant the simulation would serialize ring formation
    artificially.

    ``interval`` must be finite and positive (NaN would refire at one
    instant forever) and ``start_delay`` finite and not negative, or
    the engine raises :class:`~repro.errors.SchedulingError`.

    The engine re-arms the event before each callback, so a callback
    that raises still leaves the process alive for the next tick, and a
    callback that calls :meth:`stop` cancels the queued firing.
    """

    __slots__ = (
        "_engine",
        "_interval",
        "_callback",
        "_name",
        "_event",
        "_stopped",
        "_paused",
    )

    def __init__(
        self,
        engine: Engine,
        interval: float,
        callback: Callable[[], None],
        name: str = "periodic",
        start_delay: Optional[float] = None,
    ) -> None:
        self._engine = engine
        self._interval = interval
        self._callback = callback
        self._name = name
        self._stopped = False
        self._paused = False
        first = interval if start_delay is None else start_delay
        self._event: Optional[Event] = engine.schedule_every(
            first, interval, callback, name
        )

    @property
    def stopped(self) -> bool:
        """Whether the process was stopped for good."""
        return self._stopped

    @property
    def paused(self) -> bool:
        """Whether the process is paused (resumable, nothing scheduled)."""
        return self._paused

    @property
    def interval(self) -> float:
        """Seconds between firings."""
        return self._interval

    def stop(self) -> None:
        """Cancel the pending firing and stop rescheduling."""
        self._stopped = True
        self._paused = False
        if self._event is not None:
            self._event.cancel()
            self._event = None

    def pause(self) -> None:
        """Suspend firing without tearing the process down.

        The pending event is cancelled, so a paused process contributes
        *nothing* to the event heap — the point of pausing offline
        peers' scan/storage loops is exactly that their no-op ticks
        stop being scheduled at all.  Idempotent; a no-op once stopped.
        """
        if self._stopped or self._paused:
            return
        self._paused = True
        if self._event is not None:
            self._event.cancel()
            self._event = None

    def resume(self, start_delay: Optional[float] = None) -> None:
        """Resume a paused process.

        ``start_delay`` seconds until the next firing; None restarts
        the regular cadence (one interval).  Callers that staggered the
        original phases should pass a fresh stagger here — peers pausing
        together (e.g. a churn burst) would otherwise resume in phase.
        Idempotent; a no-op unless paused.  An invalid ``start_delay``
        raises and leaves the process paused.
        """
        if self._stopped or not self._paused:
            return
        delay = self._interval if start_delay is None else start_delay
        self._event = self._engine.schedule_every(
            delay, self._interval, self._callback, self._name
        )
        self._paused = False
