"""Unit tests for the peer object store."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.content.storage import ObjectStore
from repro.errors import StorageError


class TestBasicOperations:
    def test_add_and_contains(self):
        store = ObjectStore(capacity=3)
        store.add(7)
        assert 7 in store
        assert len(store) == 1

    def test_add_duplicate_rejected(self):
        store = ObjectStore(capacity=3)
        store.add(7)
        with pytest.raises(StorageError):
            store.add(7)

    def test_add_if_absent(self):
        store = ObjectStore(capacity=3)
        assert store.add_if_absent(7) is True
        assert store.add_if_absent(7) is False
        assert len(store) == 1

    def test_remove(self):
        store = ObjectStore(capacity=3)
        store.add(7)
        store.remove(7)
        assert 7 not in store

    def test_remove_missing_rejected(self):
        with pytest.raises(StorageError):
            ObjectStore(capacity=3).remove(7)

    def test_zero_capacity_rejected(self):
        with pytest.raises(StorageError):
            ObjectStore(capacity=0)

    def test_overflow_allowed_temporarily(self):
        store = ObjectStore(capacity=2)
        for oid in range(4):
            store.add(oid)
        assert store.over_capacity
        assert len(store) - store.capacity == 2


class TestPinning:
    def test_pinned_object_cannot_be_removed(self):
        store = ObjectStore(capacity=3)
        store.add(7)
        store.pin(7)
        with pytest.raises(StorageError):
            store.remove(7)

    def test_unpin_releases(self):
        store = ObjectStore(capacity=3)
        store.add(7)
        store.pin(7)
        store.unpin(7)
        store.remove(7)  # must not raise

    def test_pin_is_reference_counted(self):
        store = ObjectStore(capacity=3)
        store.add(7)
        store.pin(7)
        store.pin(7)
        store.unpin(7)
        assert store.is_pinned(7)
        store.unpin(7)
        assert not store.is_pinned(7)

    def test_pin_missing_object_rejected(self):
        with pytest.raises(StorageError):
            ObjectStore(capacity=3).pin(7)

    def test_unpin_unpinned_rejected(self):
        store = ObjectStore(capacity=3)
        store.add(7)
        with pytest.raises(StorageError):
            store.unpin(7)


class TestEviction:
    def test_evicts_down_to_capacity(self):
        store = ObjectStore(capacity=2)
        for oid in range(5):
            store.add(oid)
        evicted = store.evict_random_overflow(random.Random(0))
        assert len(evicted) == 3
        assert len(store) == 2

    def test_eviction_skips_pinned(self):
        store = ObjectStore(capacity=1)
        store.add(1)
        store.add(2)
        store.pin(1)
        store.pin(2)
        evicted = store.evict_random_overflow(random.Random(0))
        # Everything pinned: eviction is postponed (paper semantics).
        assert evicted == []
        assert store.over_capacity

    def test_eviction_deterministic_under_seed(self):
        def run():
            store = ObjectStore(capacity=3)
            for oid in range(10):
                store.add(oid)
            return store.evict_random_overflow(random.Random(99))

        assert run() == run()

    def test_no_eviction_when_within_capacity(self):
        store = ObjectStore(capacity=5)
        store.add(1)
        assert store.evict_random_overflow(random.Random(0)) == []

    @settings(max_examples=30)
    @given(
        capacity=st.integers(min_value=1, max_value=10),
        extra=st.integers(min_value=0, max_value=10),
        pinned_count=st.integers(min_value=0, max_value=20),
        seed=st.integers(min_value=0, max_value=100),
    )
    def test_eviction_invariants(self, capacity, extra, pinned_count, seed):
        store = ObjectStore(capacity=capacity)
        total = capacity + extra
        for oid in range(total):
            store.add(oid)
        for oid in range(min(pinned_count, total)):
            store.pin(oid)
        store.evict_random_overflow(random.Random(seed))
        # Invariant: pinned objects survive; store never below capacity
        # unless pins force overflow.
        for oid in range(min(pinned_count, total)):
            assert oid in store
        assert len(store) >= min(capacity, total)
        if min(pinned_count, total) <= capacity:
            assert len(store) <= capacity
