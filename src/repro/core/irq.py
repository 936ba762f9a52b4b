"""Incoming request queue (IRQ) with a tree-occurrence index.

Every peer keeps an IRQ "where remote peers register their interest for
a local file" (paper §III).  Entries are FIFO for non-exchange service
and carry the requester's frozen request-tree snapshot for ring search.

To make ring search cheap, the queue maintains an inverted index from
*every peer appearing in any attached tree* to the entries (and paths)
where it appears.  Ring search then reduces to one set intersection per
wanted object.  Removal marks entries inactive; the index compacts
lazily when dead entries accumulate.

Index buckets are **unboxed when singular**: a peer occurring in exactly
one attached tree maps straight to that :class:`RequestEntry`, and only
a second occurrence promotes the bucket to a list.  ~90% of buckets at
the ``huge`` preset are singular, so this removes millions of
one-element list allocations — the measured top RSS consumer of the
50k-peer run — and halves the allocation work of request registration,
the measured insertion hotspot.  Ring search additionally reads the
index keys as a sorted id array (cached per
:attr:`~IncomingRequestQueue.version`) to fancy-index provider masks in
the columnar peer table.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, Iterator, KeysView, List, Optional, Set, Tuple

import numpy as np

from repro.core.request_tree import (
    Path,
    RequestTreeNode,
    occurrence_subindex,
    prune,
    shares_children,
    tree_peer_set,
)
from repro.errors import ProtocolError
from repro.sim.counters import PerfCounters

_NO_PATHS: tuple = ()

#: Shared empty CSR arrays (an empty queue holds no per-instance numpy).
_EMPTY_IDS = np.zeros(0, dtype=np.intc)


class RequestEntry:
    """One registered request: (requester, object) plus its tree snapshot.

    A request stays registered for its whole life — *queued* while
    waiting and *attached* to the transfer currently satisfying it.  The
    paper's request graph G consists of live requests regardless of
    service state: a request being served by a normal transfer is still
    a usable ring edge (the ring "cancels and replaces" the session),
    so entries must not vanish from the searchable graph at serve time.
    """

    __slots__ = (
        "requester_id",
        "object_id",
        "arrival_time",
        "tree",
        "active",
        "transfer",
        "_paths",
        "_indexed",
        "_pruned",
    )

    def __init__(
        self,
        requester_id: int,
        object_id: int,
        arrival_time: float,
        tree: Optional[RequestTreeNode] = None,
    ) -> None:
        self.requester_id = requester_id
        self.object_id = object_id
        self.arrival_time = arrival_time
        self.tree = tree
        self.active = True
        #: The transfer currently serving this request (None = queued).
        self.transfer = None
        #: Per-peer materialized path lists (lazy: ring search usually
        #: probes one or two providers per entry, not every peer in the
        #: tree).
        self._paths: Optional[Dict[int, List[Path]]] = None
        #: The peer-id set this entry is indexed under in its queue —
        #: the cheap :func:`tree_peer_set` walk, not the occurrence
        #: keys, so the full path index stays lazy until ring search
        #: actually queries this entry.
        self._indexed: Set[int] = frozenset()
        #: Cached ``(levels, children, node_count)`` of the attached
        #: tree's depth-pruned view (see :meth:`pruned_children`).
        self._pruned: Optional[Tuple[int, Tuple[RequestTreeNode, ...], int]] = None

    @property
    def key(self) -> Tuple[int, int]:
        """``(requester_id, object_id)`` — the queue's identity for this entry."""
        return (self.requester_id, self.object_id)

    @property
    def queued(self) -> bool:
        """Waiting for service (live and unattached)."""
        return self.active and self.transfer is None

    def paths_for(self, peer_id: int) -> List[Path]:
        """This entry's usable paths ending at one peer (lazy, cached).

        Each path starts with the entry's own step ``(requester,
        object)``; a path that would visit a peer twice is not a ring
        and is left out.  Only the requested peer's bucket is
        materialized — ring search probes a couple of providers per
        entry, not the whole tree — and the object-independent tree walk
        behind it is shared through the snapshot root.
        """
        cache = self._paths
        if cache is None:
            cache = {}  # simlint: disable=HOT001 -- lazy once-per-entry path cache (amortizes per-event work); dropped on set_tree
            self._paths = cache
        paths = cache.get(peer_id)
        if paths is None:
            prefix: Path = ((self.requester_id, self.object_id),)
            if peer_id == self.requester_id:
                paths = [prefix]
            else:
                subs = occurrence_subindex(self.requester_id, self.tree).get(peer_id)
                paths = [prefix + sub for sub in subs] if subs else _NO_PATHS
            cache[peer_id] = paths
        return paths

    def pruned_children(
        self, levels: int
    ) -> Tuple[Tuple[RequestTreeNode, ...], int]:
        """The attached tree's children pruned to ``levels``, cached.

        Returns ``(children, total_node_count)`` of the *unbudgeted*
        prune; :func:`~repro.core.request_tree.build_snapshot` adopts it
        whenever the count fits its remaining node budget (where the
        budgeted per-node prune would reproduce it node for node) and
        falls back to the budgeted prune otherwise.

        The view is a pure function of the (immutable) tree and
        ``levels``, so it is cached on the tree *root* and shared by
        every entry the snapshot is attached to: one request's fanout
        parks the same frozen tree at ``request_fanout`` providers, and
        each provider re-prunes it on every snapshot rebuild.  The
        entry-level ``_pruned`` tuple only short-circuits the root-cache
        dict probe.
        """
        cached = self._pruned
        if cached is not None and cached[0] == levels:
            return cached[1], cached[2]
        tree = self.tree
        if tree is None:
            view: Tuple[Tuple[RequestTreeNode, ...], int] = ((), 0)
        else:
            cache = tree.occurrence_cache()
            key = ("pruned", levels)
            view = cache.get(key)
            if view is None:
                kids: List[RequestTreeNode] = []
                for sub in tree.children:
                    copied = prune(sub, levels)
                    if copied is not None:
                        kids.append(copied)
                children = tuple(kids)
                view = (children, sum(kid.node_count() for kid in children))
                cache[key] = view
        self._pruned = (levels, view[0], view[1])
        return view

    def set_tree(self, tree: Optional[RequestTreeNode]) -> None:
        """Replace the attached snapshot (invalidates the path caches)."""
        self.tree = tree
        self._paths = None
        self._pruned = None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "active" if self.active else "dead"
        return (
            f"RequestEntry(req={self.requester_id}, obj={self.object_id}, "
            f"t={self.arrival_time:.1f}, {state})"
        )


class IncomingRequestQueue:
    """Bounded FIFO of :class:`RequestEntry` with per-peer tree index."""

    __slots__ = (
        "capacity",
        "_entries",
        "_index",
        "_keys_array",
        "_keys_array_version",
        "_dead_in_index",
        "version",
        "binding_epoch",
        "shape_version",
        "_snapshot",
        "_snapshot_version",
        "_counters",
    )

    def __init__(self, capacity: int, counters: Optional[PerfCounters] = None) -> None:
        if capacity <= 0:
            raise ProtocolError(f"IRQ capacity must be positive, got {capacity}")
        self.capacity = capacity
        #: Perf-counter sink; a peer passes its context's shared set.
        self._counters = counters if counters is not None else PerfCounters()
        self._entries: "OrderedDict[Tuple[int, int], RequestEntry]" = OrderedDict()
        #: Inverted index: peer id → RequestEntry (single occurrence,
        #: the common case, stored unboxed) or List[RequestEntry] in
        #: append order.
        self._index: Dict[int, object] = {}
        #: Sorted unique indexed peer ids (for mask fancy-indexing);
        #: built on demand, keyed off ``version``.
        self._keys_array = _EMPTY_IDS
        self._keys_array_version = -1
        self._dead_in_index = 0
        #: Bumped on every content change; snapshot caches key off it.
        self.version = 0
        #: Bumped when an entry's transfer attachment changes (bind,
        #: release, ring downgrade).  Attachment affects which entries
        #: are usable ring-search edges but not the queue's content, so
        #: it gets its own counter: search gating keys off
        #: ``(version, binding_epoch)`` while tree-snapshot caches keep
        #: keying off ``version`` alone, exactly as before.
        self.binding_epoch = 0
        #: Bumped on every content change but a refresh that re-roots
        #: the held tree (see :meth:`refresh_tree`): with
        #: ``binding_epoch`` it covers everything
        #: :func:`~repro.core.request_tree.build_snapshot` reads.
        self.shape_version = 0
        self._snapshot: Optional[List[RequestEntry]] = None
        self._snapshot_version = -1

    # ------------------------------------------------------------------
    # basic container protocol
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: Tuple[int, int]) -> bool:
        return key in self._entries

    @property
    def is_empty(self) -> bool:
        """Whether no entry is queued or attached."""
        return not self._entries

    # ------------------------------------------------------------------
    # mutation
    # ------------------------------------------------------------------
    def add(self, entry: RequestEntry) -> bool:
        """Register a request; False if the queue is full or a duplicate.

        The paper allows "only one registered request on a given peer
        for a given object", so duplicates are rejected, not replaced.
        """
        if entry.key in self._entries or len(self._entries) >= self.capacity:
            return False
        self._entries[entry.key] = entry
        entry._indexed = tree_peer_set(entry.requester_id, entry.tree)
        index = self._index
        index_get = index.get  # bound once: add() runs ~1M times at 50k peers
        for peer_id in entry._indexed:
            bucket = index_get(peer_id)
            if bucket is None:
                index[peer_id] = entry
            elif type(bucket) is list:
                bucket.append(entry)
            else:
                index[peer_id] = [bucket, entry]
        self.version += 1
        self.shape_version += 1
        self._counters.bump("irq.adds")
        return True

    def remove(self, requester_id: int, object_id: int) -> Optional[RequestEntry]:
        """Remove (deactivate) an entry; None if absent."""
        entry = self._entries.pop((requester_id, object_id), None)
        if entry is None:
            return None
        entry.active = False
        self._dead_in_index += len(entry._indexed)
        self.version += 1
        self.shape_version += 1
        self._counters.bump("irq.removes")
        self._maybe_compact()
        return entry

    def note_binding_change(self) -> None:
        """An entry was attached to / detached from a transfer."""
        self.binding_epoch += 1

    def refresh_tree(self, entry: RequestEntry, tree: Optional[RequestTreeNode]) -> None:
        """Replace an entry's snapshot with a fresher one.

        Models the paper's incremental request-tree updates (§V) at
        scan granularity.  Every call counts as a content change
        (``version`` moves), whatever the new tree holds.

        A re-rooting of the held tree (see
        :func:`~repro.core.request_tree.reuse_equal`) has the same
        paths and the same peers, so the entry keeps its path caches
        and its index slots.  Any other tree drops the path caches and
        indexes the entry under the peers that joined it.  The entry
        stays in the buckets of peers that left the tree until the next
        compaction: a lookup there finds no path, but if such a peer
        re-enters the tree first, the entry is appended to its bucket a
        second time and ``paths_to`` yields the entry's paths twice.
        """
        if self._entries.get(entry.key) is not entry:
            raise ProtocolError(f"cannot refresh unknown entry {entry!r}")
        if shares_children(entry.tree, tree):
            entry.tree = tree
        else:
            self.shape_version += 1
            old_peers = entry._indexed
            entry.set_tree(tree)
            new_peers = tree_peer_set(entry.requester_id, tree)
            if new_peers != old_peers:
                entry._indexed = new_peers
                index = self._index
                for peer_id in new_peers - old_peers:
                    bucket = index.get(peer_id)
                    if bucket is None:
                        index[peer_id] = entry
                    elif type(bucket) is list:
                        bucket.append(entry)
                    else:
                        index[peer_id] = [bucket, entry]
                self._dead_in_index += len(old_peers - new_peers)
        self.version += 1
        self._counters.bump("irq.tree_refreshes")
        self._maybe_compact()

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def get(self, requester_id: int, object_id: int) -> Optional[RequestEntry]:
        """The live entry for ``(requester_id, object_id)``, or None."""
        return self._entries.get((requester_id, object_id))

    def snapshot(self) -> List[RequestEntry]:
        """FIFO list of current entries, cached until the queue changes.

        Scheduling passes iterate the queue far more often than its
        membership changes, so the list is rebuilt only on a version
        bump.  Callers must treat the list as read-only; it stays valid
        (entries merely turn inactive) if the queue mutates mid-walk.
        """
        if self._snapshot is None or self._snapshot_version != self.version:
            self._snapshot = list(self._entries.values())
            self._snapshot_version = self.version
        return self._snapshot

    def active_entries(self) -> Iterator[RequestEntry]:
        """FIFO iteration over live entries (snapshot; safe to mutate)."""
        return iter(self.snapshot())

    def tree_entries(self) -> Iterator[RequestEntry]:
        """Entries visible as request-graph edges.

        Exchange-served requests are excluded: the paper allows one
        exchange per registered request, so such an edge can never be
        recruited into another ring.  Backed by the cached snapshot
        (stable under mutation), filtered lazily — snapshot building
        iterates this on every rebuild.
        """
        for entry in self.snapshot():
            if entry.transfer is None or not entry.transfer.is_exchange:
                yield entry

    def index_keys_array(self) -> np.ndarray:
        """Sorted unique indexed peer ids as an int array (read-only).

        Ring search fancy-indexes provider masks with this array; it is
        exactly ``sorted(index_key_set())``.  Built on demand and cached
        per version — callers that stay on the small-set intersection
        path never pay for it.
        """
        if self._keys_array_version != self.version:
            index = self._index
            self._keys_array = np.fromiter(
                sorted(index), dtype=np.intc, count=len(index)
            )
            self._keys_array_version = self.version
        return self._keys_array

    def index_key_set(self) -> "KeysView[int]":
        """Indexed peer ids as a set-like view (read-only, live).

        Every peer appearing in an attached tree, plus stale keys of
        peers whose entries left since the last compaction.
        """
        return self._index.keys()

    def paths_to(self, peer_id: int) -> Iterator[Tuple[RequestEntry, Path]]:
        """(entry, path) pairs for usable occurrences of ``peer_id``.

        Exchange-served entries are skipped — their request edge is
        already committed to a ring and cannot anchor another one.
        Entries come out in append order, matching the old per-peer
        bucket order exactly.
        """
        bucket = self._index.get(peer_id)
        if bucket is None:
            return
        entries = bucket if type(bucket) is list else (bucket,)
        for entry in entries:
            if not entry.active:
                continue
            if entry.transfer is not None and entry.transfer.is_exchange:
                continue
            for path in entry.paths_for(peer_id):
                yield entry, path

    # ------------------------------------------------------------------
    def _maybe_compact(self) -> None:
        """Rebuild the index when dead occurrences dominate.

        Amortized: a rebuild costs O(live occurrences) and happens at
        most once per max(64, live) removals; an emptied queue clears
        its index immediately so idle peers hold no garbage.
        """
        if self._dead_in_index <= 0:
            return
        if self._entries and (
            self._dead_in_index < 64 or self._dead_in_index < len(self._entries)
        ):
            return
        new_index: Dict[int, object] = {}  # simlint: disable=HOT001 -- amortized compaction: runs once per 64+ dead entries, not per event
        for entry in self._entries.values():
            for peer_id in entry._indexed:
                bucket = new_index.get(peer_id)
                if bucket is None:
                    new_index[peer_id] = entry
                elif type(bucket) is list:
                    bucket.append(entry)
                else:
                    new_index[peer_id] = [bucket, entry]
        self._index = new_index
        self._keys_array_version = -1
        self._dead_in_index = 0
        self._counters.bump("irq.compactions")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"IncomingRequestQueue({len(self._entries)}/{self.capacity})"
