"""Ring search's provider ∩ request-index intersection.

Peer state lives in one place, the :class:`~repro.network.peer.Peer`
objects of ``ctx.peers``.  What this module keeps is the one question
ring search asks of many peers at once: which of an object's providers
also appear in my request index, in ascending id order?

:meth:`PeerStateTable.sorted_intersection` answers it with plain set
intersection for small operands (provider sets average < 2 peers at
small scale) and, when both sides hold at least :data:`BITSET_MIN`
ids, by fancy-indexing a cached per-object provider mask with the IRQ's
sorted key array.  Both paths return ``sorted(providers & index_keys)``
exactly.  The mask cache keys off the same version fingerprint the
idle-search gate uses (the object's count in
``LookupService.object_versions()``), so a cached mask is exactly as
fresh as the gate's own view of the world.
"""

from __future__ import annotations

from typing import AbstractSet, Dict, Iterable, List, Optional, Set, Tuple

import numpy as np

#: Minimum size of *both* operands before the bitset intersection path
#: engages; below it, plain set intersection wins (measured: provider
#: sets average 1.6 peers at the ``small`` preset, where building a
#: mask would cost more than the whole set operation).
BITSET_MIN = 64

#: Cap on cached per-object provider masks.  Each mask is one byte per
#: peer id (~50 KB at the ``huge`` preset), so the cache tops out
#: around a dozen MB instead of scaling with catalog size.  Eviction is
#: insertion-ordered — purely a perf knob, never trajectory-visible.
PROVIDER_MASK_CACHE_MAX = 256

#: Initial id capacity; growth doubles from here.
_INITIAL_CAPACITY = 1024


class PeerStateTable:
    """The provider-mask cache behind ring search's intersection.

    ``capacity`` is the length of every provider mask: it covers every
    registered peer id and doubles when a larger id registers.

    The module and class names date from an earlier design that mirrored
    peer state in numpy columns.  They stay because the end-to-end
    benchmark binds them: its tracer hooks
    ``repro.core.peer_table:PeerStateTable.sorted_intersection`` and
    ``_provider_mask`` by name, its cell report probes
    :meth:`storage_nbytes` on ``ctx.peer_table``, and
    ``test_e2e_bench.py`` builds a table with ``PeerStateTable(capacity=)``
    and :meth:`register`.
    """

    def __init__(self, capacity: int = _INITIAL_CAPACITY) -> None:
        self._capacity = max(1, capacity)
        # object_id -> (object_version, capacity, mask); bounded LRU-ish
        # (insertion-ordered, oldest evicted) so a long catalog cannot
        # accumulate masks without bound.
        self._provider_masks: Dict[int, Tuple[int, int, np.ndarray]] = {}

    def register(self, peer_id: int, **_ignored: object) -> None:
        """Grow the id capacity to cover ``peer_id``.

        The keyword arguments are accepted and ignored:
        ``benchmarks/e2e/test_e2e_bench.py`` passes the columns of the
        old peer-state mirror.  Step 1 of ROADMAP item 2, the benchmark
        change that deletes the bitset path, deletes this class.
        """
        while peer_id >= self._capacity:
            self._capacity *= 2

    def _provider_mask(
        self, object_id: int, object_version: int, providers: Iterable[int]
    ) -> np.ndarray:
        capacity = self._capacity
        entry = self._provider_masks.get(object_id)
        if (
            entry is not None
            and entry[0] == object_version
            and entry[1] == capacity
        ):
            return entry[2]
        mask = np.zeros(capacity, dtype=bool)
        mask[list(providers)] = True
        cache = self._provider_masks
        if object_id not in cache and len(cache) >= PROVIDER_MASK_CACHE_MAX:
            cache.pop(next(iter(cache)))
        cache[object_id] = (object_version, capacity, mask)
        return mask

    def sorted_intersection(
        self,
        object_id: int,
        object_version: int,
        providers: Set[int],
        index_keys_sorted: Optional[np.ndarray],
        index_keys: "AbstractSet[int]",
    ) -> List[int]:
        """``sorted(providers & index_keys)``, mask-backed when large.

        ``index_keys_sorted`` must be the ascending unique array form of
        ``index_keys`` (the IRQ's sorted key array), or None to force
        the set path.  Small operands (< :data:`BITSET_MIN` on either
        side) use plain set intersection — measured faster there.  Large
        ones fancy-index a cached per-object provider mask with the key
        array: the key array is ascending, so the selected subsequence
        equals the sorted set intersection exactly, at O(len(index_keys))
        per call instead of an AND over the whole id space.
        """
        if index_keys_sorted is None or len(providers) < BITSET_MIN:
            return sorted(providers & index_keys)
        provider_mask = self._provider_mask(object_id, object_version, providers)
        hits: List[int] = index_keys_sorted[
            provider_mask[index_keys_sorted]
        ].tolist()
        return hits

    def storage_nbytes(self) -> int:
        """Bytes held by the cached provider masks."""
        return sum(entry[2].nbytes for entry in self._provider_masks.values())
