"""Columnar peer-state table: id-indexed numpy rows behind the registry.

The simulator's hot paths repeatedly ask the same scalar questions of
many peers at once — "which peers are online sharers?", "which of these
providers also appear in my request index?".  Answering them through
the ``Dict[int, Peer]`` registry touches one Python object per peer;
at the ``huge`` preset (50k+ peers) that is 50k attribute loads per
scan.  :class:`PeerStateTable` keeps the *scan-relevant* slice of peer
state as struct-of-arrays numpy columns indexed by peer id, so those
questions become single vectorized mask expressions.

The table is a **mirror, never the source of truth**: :class:`~repro.
network.peer.Peer` objects keep owning their state and push updates
here from the same mutation points that already publish state changes
(construction, ``disconnect``/``reconnect``, ``set_sharing``,
``set_policy``, retirement).  Readers therefore see exactly the state
the object graph holds, one write behind nothing.

Trajectory invariance: every reader is *order-identical* to the loop it
replaces.  Peer ids are allocated monotonically and never reused, so
``np.flatnonzero(mask)`` enumerates exactly the ids an ascending-id
scan (or a ``sorted()`` over registry keys) would produce.  The
provider/index bitset intersection returns the same ascending id list
as ``sorted(providers & index_keys)``, and it is size-gated: tiny sets
(the common case at small scale — provider sets average < 2 peers)
stay on plain set intersection, which is faster there.  Nothing here
filters ring candidates — counter-visible behaviour (``ring.attempt``,
``ring.reject.*``) is untouched.

The per-object provider-mask cache keys off the same version
fingerprint the idle-search gate uses (the object's count in
``LookupService.object_versions()``), so a cached mask is exactly as
fresh as the gate's own view of the world.  The request-index side of
the intersection needs no mask at all: the IRQ hands over its sorted
CSR key array and the provider mask is fancy-indexed by it — O(index
size) per probe and zero per-searcher cache (the old per-searcher bool
masks were the single largest RSS consumer at 50k peers).
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
#: table row (~50 KB at the ``huge`` preset), so the cache tops out
#: around a dozen MB instead of scaling with catalog size.  Eviction is
#: insertion-ordered — purely a perf knob, never trajectory-visible.
PROVIDER_MASK_CACHE_MAX = 256

#: Initial row capacity; growth doubles from here.
_INITIAL_CAPACITY = 1024


class PeerStateTable:
    """Struct-of-arrays mirror of scan-relevant peer state."""

    def __init__(self, capacity: int = _INITIAL_CAPACITY) -> None:
        capacity = max(1, capacity)
        #: Rows in use: ``max(peer_id) + 1`` over registered peers.
        self.size = 0
        self.online = np.zeros(capacity, dtype=bool)
        self.shares = np.zeros(capacity, dtype=bool)
        self.enables_exchanges = np.zeros(capacity, dtype=bool)
        self.departed = np.zeros(capacity, dtype=bool)
        self.max_ring = np.zeros(capacity, dtype=np.int32)
        self.class_code = np.zeros(capacity, dtype=np.int32)
        self.registered = np.zeros(capacity, dtype=bool)
        # Interned class labels; code 0 is the empty label.
        self._class_labels: List[str] = [""]
        self._class_codes: Dict[str, int] = {"": 0}
        # object_id -> (object_version, capacity, mask); bounded LRU-ish
        # (insertion-ordered, oldest evicted) so a long catalog cannot
        # accumulate masks without bound.
        self._provider_masks: Dict[int, Tuple[int, int, np.ndarray]] = {}

    # ------------------------------------------------------------------
    # registration & mutation (called from Peer / the simulation)
    # ------------------------------------------------------------------
    def _ensure(self, peer_id: int) -> None:
        capacity = self.online.shape[0]
        if peer_id >= capacity:
            new_capacity = capacity
            while peer_id >= new_capacity:
                new_capacity *= 2
            grow = new_capacity - capacity
            for name in (
                "online",
                "shares",
                "enables_exchanges",
                "departed",
                "max_ring",
                "class_code",
                "registered",
            ):
                column = getattr(self, name)
                setattr(
                    self,
                    name,
                    np.concatenate(
                        [column, np.zeros(grow, dtype=column.dtype)]
                    ),
                )
        if peer_id >= self.size:
            self.size = peer_id + 1

    def register(
        self,
        peer_id: int,
        *,
        online: bool,
        shares: bool,
        enables_exchanges: bool,
        max_ring: int,
        class_name: str = "",
    ) -> None:
        """Add (or overwrite) one peer's row; rows are never removed."""
        self._ensure(peer_id)
        self.online[peer_id] = online
        self.shares[peer_id] = shares
        self.enables_exchanges[peer_id] = enables_exchanges
        self.departed[peer_id] = False
        self.max_ring[peer_id] = max_ring
        code = self._class_codes.get(class_name)
        if code is None:
            code = len(self._class_labels)
            self._class_codes[class_name] = code
            self._class_labels.append(class_name)
        self.class_code[peer_id] = code
        self.registered[peer_id] = True

    def set_online(self, peer_id: int, online: bool) -> None:
        """Mirror a connectivity flip (disconnect/reconnect)."""
        self._ensure(peer_id)
        self.online[peer_id] = online

    def set_shares(self, peer_id: int, shares: bool) -> None:
        """Mirror a sharing-behaviour flip (strategy layer, shocks)."""
        self._ensure(peer_id)
        self.shares[peer_id] = shares

    def set_policy(self, peer_id: int, enables_exchanges: bool, max_ring: int) -> None:
        """Mirror a mid-run mechanism switch (adoption ramps)."""
        self._ensure(peer_id)
        self.enables_exchanges[peer_id] = enables_exchanges
        self.max_ring[peer_id] = max_ring

    def set_departed(self, peer_id: int) -> None:
        """Mirror permanent retirement (scenario departures)."""
        self._ensure(peer_id)
        self.departed[peer_id] = True

    # ------------------------------------------------------------------
    # vectorized scans (order-identical to ascending-id registry loops)
    # ------------------------------------------------------------------
    def _view(self, column: np.ndarray) -> np.ndarray:
        return column[: self.size]

    def alive_ids(self, class_name: Optional[str] = None) -> List[int]:
        """Ascending ids of non-departed peers, optionally one class.

        Replaces ``sorted(id for id, p in peers.items() if not
        p.departed and (class_name is None or p.class_name ==
        class_name))`` — identical output, one mask expression.  A
        class label never registered matches nothing.
        """
        mask = self._view(self.registered) & ~self._view(self.departed)
        if class_name is not None:
            code = self._class_codes.get(class_name)
            if code is None:
                return []
            mask = mask & (self._view(self.class_code) == code)
        ids: List[int] = np.flatnonzero(mask).tolist()
        return ids

    def sharer_ids(self, online_only: bool = True) -> List[int]:
        """Ascending ids of non-departed sharing peers.

        ``online_only=True`` mirrors ``peer.behavior.shares and
        peer.online and not peer.departed``; ``False`` drops the
        connectivity requirement (flash-crowd offline seeding).
        """
        mask = self._view(self.shares) & ~self._view(self.departed)
        if online_only:
            mask = mask & self._view(self.online)
        ids: List[int] = np.flatnonzero(mask).tolist()
        return ids

    def counts(self) -> Dict[str, int]:
        """Population tallies for diagnostics and benchmark artifacts."""
        alive = self._view(self.registered) & ~self._view(self.departed)
        online = self._view(self.online) & alive
        return {
            "registered": int(np.count_nonzero(self._view(self.registered))),
            "alive": int(np.count_nonzero(alive)),
            "online": int(np.count_nonzero(online)),
            "online_sharers": int(
                np.count_nonzero(online & self._view(self.shares))
            ),
        }

    # ------------------------------------------------------------------
    # provider ∩ request-index intersection (ring search)
    # ------------------------------------------------------------------
    def _provider_mask(
        self, object_id: int, object_version: int, providers: Iterable[int]
    ) -> np.ndarray:
        capacity = self.online.shape[0]
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
        """Bytes held by the column arrays (mask caches excluded)."""
        return sum(
            int(getattr(self, name).nbytes)
            for name in (
                "online",
                "shares",
                "enables_exchanges",
                "departed",
                "max_ring",
                "class_code",
                "registered",
            )
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"PeerStateTable(size={self.size})"
