"""Slot-based link capacity.

The paper manages the upload link in "relatively large, equal,
fixed-size" slots (Table II: 10 kbit/s slots on an 80 kbit/s uplink and
an 800 kbit/s downlink).  Every transfer occupies exactly one slot on
each side for its whole life, so capacity bookkeeping reduces to a
counting semaphore — but one that *raises* on misuse instead of silently
saturating, because a slot leak is a simulator bug that must surface.
"""

from __future__ import annotations

from repro.errors import CapacityError


class SlotPool:
    """A fixed number of equal-rate transfer slots."""

    __slots__ = ("slot_kbit", "total", "in_use")

    def __init__(self, capacity_kbit: float, slot_kbit: float) -> None:
        if slot_kbit <= 0:
            raise CapacityError(f"slot rate must be positive, got {slot_kbit}")
        if capacity_kbit < slot_kbit:
            raise CapacityError(
                f"capacity {capacity_kbit} kbit/s below one slot ({slot_kbit} kbit/s)"
            )
        self.slot_kbit = slot_kbit
        self.total = int(capacity_kbit // slot_kbit)
        self.in_use = 0

    @property
    def free(self) -> int:
        """Slots currently available (0 while over-subscribed)."""
        # Branch instead of max(): this property is probed millions of
        # times per run (every veto / serve pass), and the builtin call
        # is measurable at 50k peers.
        spare = self.total - self.in_use
        return spare if spare > 0 else 0

    def acquire(self) -> None:
        """Take one slot; raises :class:`CapacityError` when full."""
        if self.in_use >= self.total:
            raise CapacityError(f"no free slots ({self.in_use}/{self.total} in use)")
        self.in_use += 1

    def release(self) -> None:
        """Return one slot; releasing an idle pool is a bookkeeping bug."""
        if self.in_use <= 0:
            raise CapacityError("release() on an empty slot pool")
        self.in_use -= 1

    def resize(self, capacity_kbit: float) -> None:
        """Re-provision the pool mid-run (scenario capacity changes).

        Slots already in use are never revoked: shrinking below
        ``in_use`` leaves the pool over-subscribed — no new slot is
        handed out until enough running transfers finish — rather than
        killing transfers, which matches an access-link re-provision
        (existing flows drain, new ones queue).
        """
        if capacity_kbit < self.slot_kbit:
            raise CapacityError(
                f"capacity {capacity_kbit} kbit/s below one slot "
                f"({self.slot_kbit} kbit/s)"
            )
        self.total = int(capacity_kbit // self.slot_kbit)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SlotPool({self.in_use}/{self.total} x {self.slot_kbit} kbit/s)"
