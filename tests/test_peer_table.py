"""PeerStateTable: ring search's provider ∩ request-index intersection.

Both paths, plain set intersection for small operands and the cached
provider mask for large ones, must equal ``sorted(a & b)`` bit for bit,
and a cached mask must never outlive its object version or the id
capacity it was built for.
"""

import random

import numpy as np

from repro.core.peer_table import BITSET_MIN, PeerStateTable

from tests.helpers import build_peer, make_ctx


def make_table(num_peers=10):
    table = PeerStateTable(capacity=4)  # force growth
    for peer_id in range(num_peers):
        table.register(peer_id)
    return table


class TestRegister:
    def test_register_grows_capacity(self):
        table = PeerStateTable(capacity=2)
        table.register(1)
        assert table._capacity == 2
        table.register(37)
        assert table._capacity == 64  # doubled from 2 until it covers 37
        # A lower id never shrinks it.
        table.register(5)
        assert table._capacity == 64

    def test_register_ignores_row_keywords(self):
        # benchmarks/e2e/test_e2e_bench.py still passes the columns of
        # the old peer-state mirror; they must not change the capacity.
        plain = PeerStateTable(capacity=2)
        plain.register(37)
        with_rows = PeerStateTable(capacity=2)
        with_rows.register(
            37,
            online=True,
            shares=True,
            enables_exchanges=True,
            max_ring=2,
            class_name="sharer",
        )
        assert with_rows._capacity == plain._capacity == 64

    def test_new_peer_registers_its_id(self):
        ctx = make_ctx()
        build_peer(ctx, 3000)
        assert ctx.peer_table._capacity == 4096

    def test_storage_nbytes_counts_cached_masks(self):
        size = BITSET_MIN * 2
        table = make_table(size)
        assert table.storage_nbytes() == 0
        keys = set(range(size))
        keys_sorted = np.asarray(sorted(keys), dtype=np.intc)
        # The small-set path caches nothing.
        table.sorted_intersection(1, 1, {3, 9}, keys_sorted, frozenset(keys))
        assert table.storage_nbytes() == 0
        # The mask path caches one byte per peer id.
        table.sorted_intersection(2, 1, set(keys), keys_sorted, frozenset(keys))
        assert table.storage_nbytes() == table._capacity == size


class TestSortedIntersection:
    def _check(self, table, providers, index_keys, object_version=1):
        expected = sorted(providers & set(index_keys))
        keys_sorted = np.asarray(sorted(index_keys), dtype=np.intc)
        got = table.sorted_intersection(
            7, object_version, providers, keys_sorted, frozenset(index_keys)
        )
        assert got == expected

    def test_small_sets_match_sorted(self):
        table = make_table(100)
        self._check(table, {3, 9, 55}, {9, 55, 60})

    def test_large_sets_take_mask_path_and_match(self):
        rand = random.Random(7)
        size = BITSET_MIN * 4
        table = make_table(size * 2)
        providers = set(rand.sample(range(size * 2), size))
        index_keys = set(rand.sample(range(size * 2), size))
        assert len(providers) >= BITSET_MIN and len(index_keys) >= BITSET_MIN
        self._check(table, providers, index_keys)
        # The mask path populated the per-object cache.
        assert 7 in table._provider_masks

    def test_version_change_invalidates_masks(self):
        size = BITSET_MIN * 2
        table = make_table(size * 2)
        providers = set(range(size))
        index_keys = set(range(size // 2, size + size // 2))
        self._check(table, providers, index_keys, object_version=1)
        # Same object key, new version, different provider set: must
        # rebuild the mask, not reuse it.
        providers2 = set(range(size, size * 2))
        index_keys2 = set(range(size))
        self._check(table, providers2, index_keys2, object_version=2)

    def test_capacity_growth_invalidates_masks(self):
        size = BITSET_MIN * 2
        table = make_table(size)
        providers = set(range(size))
        index_keys = set(range(size))
        self._check(table, providers, index_keys)
        # Growing capacity (new high id) must not break cached masks.
        table.register(size * 64)
        self._check(table, providers, index_keys)

    def test_provider_mask_cache_bounded(self):
        from repro.core.peer_table import PROVIDER_MASK_CACHE_MAX

        size = BITSET_MIN * 2
        table = make_table(size)
        providers = set(range(size))
        index_keys = set(range(size))
        keys_sorted = np.asarray(sorted(index_keys), dtype=np.intc)
        for object_id in range(PROVIDER_MASK_CACHE_MAX + 50):
            got = table.sorted_intersection(
                object_id, 1, providers, keys_sorted, frozenset(index_keys)
            )
            assert got == sorted(providers & index_keys)
        assert len(table._provider_masks) <= PROVIDER_MASK_CACHE_MAX
        # Eviction is oldest-first: the most recent inserts survive.
        assert (PROVIDER_MASK_CACHE_MAX + 49) in table._provider_masks
        # One byte per peer id per cached mask; the capacity is ``size``.
        assert table.storage_nbytes() == PROVIDER_MASK_CACHE_MAX * size
