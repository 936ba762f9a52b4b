"""Unit tests for slot pools."""

from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from repro.errors import CapacityError
from repro.network.capacity import SlotPool


class TestSlotPool:
    def test_slot_count_from_capacity(self):
        pool = SlotPool(80.0, 10.0)
        assert pool.total == 8
        assert pool.free == 8

    def test_fractional_slots_truncate(self):
        assert SlotPool(85.0, 10.0).total == 8

    def test_acquire_release_cycle(self):
        pool = SlotPool(20.0, 10.0)
        pool.acquire()
        assert pool.free == 1
        pool.release()
        assert pool.free == 2

    def test_acquire_beyond_capacity_raises(self):
        pool = SlotPool(10.0, 10.0)
        pool.acquire()
        assert pool.free == 0
        with pytest.raises(CapacityError):
            pool.acquire()

    def test_release_from_full_pool_admits_another_acquire(self):
        pool = SlotPool(10.0, 10.0)
        pool.acquire()
        pool.release()
        assert pool.free == 1
        pool.acquire()
        assert pool.free == 0
        assert pool.in_use == 1

    def test_release_idle_pool_raises(self):
        with pytest.raises(CapacityError):
            SlotPool(10.0, 10.0).release()

    def test_zero_slot_rate_rejected(self):
        with pytest.raises(CapacityError):
            SlotPool(10.0, 0.0)

    def test_capacity_below_slot_rejected(self):
        with pytest.raises(CapacityError):
            SlotPool(5.0, 10.0)

    @given(
        slots=st.integers(min_value=1, max_value=50),
        operations=st.lists(st.booleans(), max_size=200),
    )
    def test_in_use_never_escapes_bounds(self, slots, operations):
        pool = SlotPool(slots * 10.0, 10.0)
        for acquire in operations:
            if acquire and pool.free:
                pool.acquire()
            elif pool.in_use > 0:
                pool.release()
            assert 0 <= pool.in_use <= pool.total
