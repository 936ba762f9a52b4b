"""Cancellable simulation events.

An :class:`Event` wraps a zero-argument callback together with its fire
time and a monotonically increasing sequence number.  The sequence number
makes the store ordering total and deterministic: two events scheduled
for the same instant fire in the order they were scheduled, which keeps
runs reproducible under a fixed seed.  The ordering itself lives in the
engine's store entries — ``(time, seq, event)`` tuples — so events carry
no comparison methods of their own.

Cancelling only flags the event: it stays in the engine's store as a
tombstone until it reaches the head, where the engine discards it.
Cancelling an event that already fired touches nothing but the event,
so a late cancel (a transfer racing ring tear-down) is a harmless no-op.
"""

from __future__ import annotations

from typing import Callable, Optional


class Event:
    """A scheduled callback in simulated time.

    Instances are created by :meth:`repro.sim.engine.Engine.schedule`;
    user code holds on to them only to call :meth:`cancel`.
    """

    __slots__ = ("time", "seq", "callback", "name", "_cancelled")

    def __init__(
        self,
        time: float,
        seq: int,
        callback: Callable[[], None],
        name: Optional[str] = None,
    ) -> None:
        self.time = time
        self.seq = seq
        self.callback = callback
        self.name = name or getattr(callback, "__name__", "event")
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

    def fire(self) -> None:
        """Invoke the callback (the engine calls this; tests may too)."""
        self.callback()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "cancelled" if self._cancelled else "pending"
        return f"Event({self.name!r}, t={self.time:.3f}, seq={self.seq}, {state})"


def _noop() -> None:
    """Replacement callback for cancelled events."""
