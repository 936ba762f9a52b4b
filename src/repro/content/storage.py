"""Per-peer object storage with capacity limits and exchange pinning.

The paper's model (§IV-A): each peer stores up to a maximum number of
objects; "in regular intervals, peers examine their storage and remove
random objects if the maximum number of objects is exceeded", and "a
peer postpones removing an object if it is used in an ongoing exchange".

:class:`ObjectStore` therefore allows *temporary* overflow (a completed
download is always stored) and exposes :meth:`eviction_candidates` for
the periodic cleanup to sample from.  Pinning is reference-counted
because one object can be served in several concurrent exchanges.
"""

from __future__ import annotations

import random
from typing import AbstractSet, Dict, List, Set

from repro.errors import StorageError


class ObjectStore:
    """A bounded set of fully-stored object ids with pin counts."""

    __slots__ = ("capacity", "_objects", "_pins")

    def __init__(self, capacity: int) -> None:
        if capacity <= 0:
            raise StorageError(f"storage capacity must be positive, got {capacity}")
        self.capacity = capacity
        self._objects: Set[int] = set()
        self._pins: Dict[int, int] = {}

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def __contains__(self, object_id: int) -> bool:
        return object_id in self._objects

    def __len__(self) -> int:
        return len(self._objects)

    @property
    def over_capacity(self) -> bool:
        """Whether the store currently holds more than its capacity."""
        return len(self._objects) > self.capacity

    def object_ids(self) -> List[int]:
        """Stored object ids in sorted order (stable for seeded sampling)."""
        return sorted(self._objects)

    def id_view(self) -> AbstractSet[int]:
        """The live stored-id set itself — read-only by convention, no copy.

        The request sampler tests every candidate against it, where
        ``in store`` would cost a Python call per candidate.  The store
        never rebinds the set, so a held reference stays live; holders
        only read it and mutate through this class.
        """
        return self._objects

    def is_pinned(self, object_id: int) -> bool:
        """Whether the object is protected from eviction."""
        return self._pins.get(object_id, 0) > 0

    # ------------------------------------------------------------------
    # mutation
    # ------------------------------------------------------------------
    def add(self, object_id: int) -> None:
        """Store an object; duplicates indicate an upstream bug."""
        if object_id in self._objects:
            raise StorageError(f"object {object_id} already stored")
        self._objects.add(object_id)

    def add_if_absent(self, object_id: int) -> bool:
        """Store an object unless present; returns True if newly stored."""
        if object_id in self._objects:
            return False
        self._objects.add(object_id)
        return True

    def remove(self, object_id: int) -> None:
        """Delete an object; pinned objects must be unpinned first."""
        if object_id not in self._objects:
            raise StorageError(f"object {object_id} not stored, cannot remove")
        if self.is_pinned(object_id):
            raise StorageError(f"object {object_id} is pinned, cannot remove")
        self._objects.remove(object_id)

    def pin(self, object_id: int) -> None:
        """Protect an object from eviction (reference counted)."""
        if object_id not in self._objects:
            raise StorageError(f"cannot pin object {object_id}: not stored")
        self._pins[object_id] = self._pins.get(object_id, 0) + 1

    def unpin(self, object_id: int) -> None:
        """Release one pin reference; unpinning a non-pinned object raises."""
        count = self._pins.get(object_id, 0)
        if count <= 0:
            raise StorageError(f"cannot unpin object {object_id}: not pinned")
        if count == 1:
            del self._pins[object_id]
        else:
            self._pins[object_id] = count - 1

    # ------------------------------------------------------------------
    # eviction
    # ------------------------------------------------------------------
    def eviction_candidates(self) -> List[int]:
        """Unpinned stored objects, in sorted order."""
        return [oid for oid in sorted(self._objects) if not self.is_pinned(oid)]

    def evict_random_overflow(self, rand: random.Random) -> List[int]:
        """Evict random unpinned objects until within capacity.

        Returns the evicted ids.  If everything over capacity is pinned
        the store simply stays overfull until pins are released —
        matching the paper's "postpone removing" semantics.
        """
        evicted: List[int] = []
        while self.over_capacity:
            candidates = self.eviction_candidates()
            if not candidates:
                break
            victim = rand.choice(candidates)
            self._objects.remove(victim)
            evicted.append(victim)
        return evicted

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ObjectStore(stored={len(self._objects)}/{self.capacity}, "
            f"pinned={len(self._pins)})"
        )
