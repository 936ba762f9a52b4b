"""PeerStateTable: columnar mirror correctness and order-identity.

Two properties matter: the table must mirror the object graph exactly
(every mutation point pushes its update), and every vectorized reader
must enumerate ids in exactly the order of the registry loop it
replaced — ascending peer id — including the bitset intersection path,
which must equal ``sorted(a & b)`` bit for bit.
"""

import random

import pytest

from repro.config import SimulationConfig
from repro.core.peer_table import BITSET_MIN, PeerStateTable
from repro.simulation import FileSharingSimulation


def make_table(num_peers=10, **rows):
    table = PeerStateTable(capacity=4)  # force growth
    for peer_id in range(num_peers):
        table.register(
            peer_id,
            online=True,
            shares=peer_id % 2 == 0,
            enables_exchanges=True,
            max_ring=5,
            class_name="sharer" if peer_id % 2 == 0 else "freeloader",
        )
    return table


class TestRowsAndScans:
    def test_register_grows_capacity_and_size(self):
        table = PeerStateTable(capacity=2)
        table.register(
            37, online=True, shares=True, enables_exchanges=True, max_ring=2
        )
        assert table.size == 38
        assert bool(table.online[37]) and bool(table.shares[37])
        assert int(table.max_ring[37]) == 2
        # Gap rows below are present but unregistered.
        assert not bool(table.registered[5])

    def test_alive_ids_ascending_and_class_filtered(self):
        table = make_table(10)
        table.set_departed(4)
        assert table.alive_ids() == [0, 1, 2, 3, 5, 6, 7, 8, 9]
        assert table.alive_ids("sharer") == [0, 2, 6, 8]
        assert table.alive_ids("freeloader") == [1, 3, 5, 7, 9]
        assert table.alive_ids("never-registered") == []

    def test_sharer_ids_online_gating(self):
        table = make_table(10)
        table.set_online(2, False)
        table.set_departed(6)
        assert table.sharer_ids(online_only=True) == [0, 4, 8]
        assert table.sharer_ids(online_only=False) == [0, 2, 4, 8]

    def test_mutations_write_their_columns(self):
        table = make_table(4)
        table.set_online(0, False)
        table.set_shares(1, True)
        table.set_policy(2, False, 0)
        table.set_departed(3)
        assert not bool(table.online[0])
        assert bool(table.shares[1])
        assert not bool(table.enables_exchanges[2]) and int(table.max_ring[2]) == 0
        assert bool(table.departed[3])

    def test_counts(self):
        table = make_table(10)
        table.set_departed(0)
        table.set_online(2, False)
        counts = table.counts()
        assert counts["registered"] == 10
        assert counts["alive"] == 9
        assert counts["online"] == 8
        assert counts["online_sharers"] == 3  # 4, 6, 8 (0 departed, 2 offline)

    def test_storage_nbytes_positive(self):
        assert make_table(10).storage_nbytes() > 0


class TestSortedIntersection:
    def _check(self, table, providers, index_keys, object_version=1):
        import numpy as np

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
        table.register(
            size * 64, online=True, shares=True, enables_exchanges=True, max_ring=2
        )
        self._check(table, providers, index_keys)

    def test_provider_mask_cache_bounded(self):
        from repro.core.peer_table import PROVIDER_MASK_CACHE_MAX

        size = BITSET_MIN * 2
        table = make_table(size)
        providers = set(range(size))
        index_keys = set(range(size))
        import numpy as np

        keys_sorted = np.asarray(sorted(index_keys), dtype=np.intc)
        for object_id in range(PROVIDER_MASK_CACHE_MAX + 50):
            got = table.sorted_intersection(
                object_id, 1, providers, keys_sorted, frozenset(index_keys)
            )
            assert got == sorted(providers & index_keys)
        assert len(table._provider_masks) <= PROVIDER_MASK_CACHE_MAX
        # Eviction is oldest-first: the most recent inserts survive.
        assert (PROVIDER_MASK_CACHE_MAX + 49) in table._provider_masks


class TestMirrorsObjectGraph:
    @pytest.fixture()
    def sim(self):
        config = SimulationConfig(
            num_peers=12,
            freeloader_fraction=0.5,
            duration=100.0,
            warmup=0.0,
            seed=5,
        )
        sim = FileSharingSimulation(config)
        sim.build()
        return sim

    def _assert_mirror(self, sim):
        table = sim.ctx.peer_table
        for peer_id, peer in sim.ctx.peers.items():
            assert bool(table.online[peer_id]) == peer.online
            assert bool(table.shares[peer_id]) == peer.behavior.shares
            assert bool(table.departed[peer_id]) == peer.departed
            assert (
                bool(table.enables_exchanges[peer_id])
                == peer.policy.enables_exchanges
            )
            assert int(table.max_ring[peer_id]) == peer.policy.max_ring

    def test_build_registers_every_peer(self, sim):
        assert sim.ctx.peer_table.counts()["registered"] == 12
        self._assert_mirror(sim)

    def test_connectivity_and_sharing_flips_mirrored(self, sim):
        peer = sim.ctx.peers[0]
        peer.disconnect()
        self._assert_mirror(sim)
        peer.reconnect()
        self._assert_mirror(sim)
        peer.set_sharing(not peer.behavior.shares)
        self._assert_mirror(sim)

    def test_retirement_mirrored(self, sim):
        sim.retire_peer(sim.ctx.peers[3])
        self._assert_mirror(sim)
        assert 3 not in sim.ctx.peer_table.alive_ids()
