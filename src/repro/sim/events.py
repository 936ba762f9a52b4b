"""Cancellable simulation events.

An :class:`Event` wraps a zero-argument callback together with its fire
time.  The engine's store entries — ``(time, seq, event)`` tuples —
carry the monotonically increasing sequence number that makes the store
ordering total and deterministic: two events scheduled for the same
instant fire in the order they were scheduled, which keeps runs
reproducible under a fixed seed.  Events carry no comparison methods
of their own.

A periodic event (``interval`` set, see
:meth:`repro.sim.engine.Engine.schedule_every`) is re-armed in place:
the engine pushes the same object back at ``time + interval`` before it
runs the callback, so one event serves a periodic process from arm to
pause or stop.

Cancelling only flags the event: it stays in the engine's store as a
tombstone until it reaches the head, where the engine discards it.
Cancelling an event that already fired touches nothing but the event,
so a late cancel (a transfer racing ring tear-down) is a harmless no-op.
"""

from __future__ import annotations

import sys
from typing import Callable, Optional


class Event:
    """A scheduled callback in simulated time.

    Instances are created by :meth:`repro.sim.engine.Engine.schedule`;
    user code holds on to them only to call :meth:`cancel`.
    """

    __slots__ = ("time", "callback", "name", "kind", "interval", "_cancelled")

    def __init__(
        self,
        time: float,
        callback: Callable[[], None],
        name: Optional[str] = None,
    ) -> None:
        #: Next fire time; a periodic event's moves on every re-arm.
        self.time = time
        self.callback = callback
        name = name or getattr(callback, "__name__", "event")
        self.name = name
        #: The name up to its first ``.``: the key the engine counts
        #: fires under (``scan`` for ``scan.p7``), interned once here
        #: rather than split on every fire.
        self.kind = sys.intern(name.partition(".")[0])
        #: Seconds between firings of a periodic event; None fires once.
        self.interval: Optional[float] = None
        self._cancelled = False

    @property
    def cancelled(self) -> bool:
        """Whether :meth:`cancel` has been called on this event."""
        return self._cancelled

    def cancel(self) -> None:
        """Mark the event so the engine will skip it.

        Cancelling an already-cancelled or already-fired event is a
        harmless no-op; transfers race with ring tear-down and both
        sides may try to cancel the same block event.
        """
        self._cancelled = True
        # Drop the callback reference so cancelled events do not keep
        # large object graphs (peers, transfers) alive inside the store.
        self.callback = _noop

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "cancelled" if self._cancelled else "pending"
        every = "" if self.interval is None else f", every {self.interval:g}s"
        return f"Event({self.name!r}, t={self.time:.3f}{every}, {state})"


def _noop() -> None:
    """Replacement callback for cancelled events."""
