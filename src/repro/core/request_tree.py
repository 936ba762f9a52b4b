"""Request trees (paper §III-A).

A peer's request tree has the peer as implicit root and, for each entry
in its incoming request queue (IRQ), a child labelled with the requester
and the requested object; beneath each child hangs the (pruned) request
tree that accompanied that request.  An edge therefore reads "child
requested *object* from parent", and a path root→X of depth *d* closes
into a feasible *d*-way exchange ring whenever X owns something the root
wants.

Trees travel with requests as **frozen snapshots**: when peer R sends a
request it attaches its current tree pruned to ``max_ring - 1`` levels,
so that placed under the recipient's root the composite never exceeds
``max_ring`` levels — the paper's empirical cut-off ("limit the search
for cycles to chains of up to 5 predecessors").

A configurable node budget bounds snapshot size (the paper's §V concedes
the full tree "may be prohibitive" and proposes Bloom filters, which we
implement separately in :mod:`repro.core.bloom_tree`).

A rebuilt snapshot is often node-for-node equal to the one it replaces;
:func:`reuse_equal` then returns a fresh root over the old children and
root caches, so the views derived from the old snapshot carry over.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterator, List, Optional, Set, Tuple

if TYPE_CHECKING:  # pragma: no cover - hints only
    from repro.core.irq import IncomingRequestQueue

#: One step of a root→node path: (peer_id, object the peer requested
#: from its path predecessor).
PathStep = Tuple[int, int]
Path = Tuple[PathStep, ...]


class RequestTreeNode:
    """A node of a request tree.

    ``object_id`` is the object this peer requested from its parent;
    it is ``None`` only for the implicit root.

    Nodes are immutable once built (``children`` is a tuple and is never
    reassigned), which is what lets :func:`prune` share whole subtrees
    between snapshots instead of deep-copying them, lets
    :func:`reuse_equal` hang a fresh root over an older snapshot's
    children, and makes the cached ``node_count``/``depth`` values safe.
    """

    __slots__ = (
        "peer_id",
        "object_id",
        "children",
        "_node_count",
        "_depth",
        "_peer_set",
        "_occ_cache",
    )

    def __init__(
        self,
        peer_id: int,
        object_id: Optional[int],
        children: Tuple["RequestTreeNode", ...] = (),
    ) -> None:
        self.peer_id = peer_id
        self.object_id = object_id
        self.children = children
        self._node_count: Optional[int] = None
        self._depth: Optional[int] = None
        #: Root-level caches, shared by every entry holding this
        #: snapshot — one request's fanout attaches the same frozen
        #: tree at ~``request_fanout`` providers, so derived views
        #: (peer set, occurrence indexes) are computed once, not per
        #: provider.  Only populated on roots.
        self._peer_set: Optional[frozenset] = None
        self._occ_cache: Optional[dict] = None

    # ------------------------------------------------------------------
    def node_count(self) -> int:
        """Total nodes in this subtree, root included (cached)."""
        count = self._node_count
        if count is None:
            count = 1
            for child in self.children:
                child_count = child._node_count
                count += child_count if child_count is not None else child.node_count()
            self._node_count = count
        return count

    def depth(self) -> int:
        """Levels in this subtree (a lone root has depth 1; cached)."""
        depth = self._depth
        if depth is None:
            deepest = 0
            for child in self.children:
                child_depth = child._depth
                if child_depth is None:
                    child_depth = child.depth()
                if child_depth > deepest:
                    deepest = child_depth
            depth = 1 + deepest
            self._depth = depth
        return depth

    def occurrence_cache(self) -> dict:
        """The mutable per-root cache used by entry occurrence lookups."""
        cache = self._occ_cache
        if cache is None:
            cache = {}
            self._occ_cache = cache
        return cache

    def iter_nodes(self) -> Iterator["RequestTreeNode"]:
        """Depth-first iteration over this node and its subtree."""
        yield self
        for child in self.children:
            yield from child.iter_nodes()

    # ------------------------------------------------------------------
    # (de)serialization — used by tests, debugging and the examples
    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        """JSON-safe nested dict form (tests, debugging, examples)."""
        return {
            "peer": self.peer_id,
            "object": self.object_id,
            "children": [child.to_dict() for child in self.children],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "RequestTreeNode":
        """Rebuild a tree from :meth:`to_dict` output."""
        children = tuple(cls.from_dict(child) for child in data.get("children", ()))
        return cls(data["peer"], data.get("object"), children)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"RequestTreeNode(peer={self.peer_id}, object={self.object_id}, "
            f"children={len(self.children)})"
        )


def prune(
    node: RequestTreeNode, levels: int, budget: Optional[List[int]] = None
) -> Optional[RequestTreeNode]:
    """``node`` limited to ``levels`` levels and a shared node budget.

    ``budget`` is a single-element mutable list so recursion shares it;
    pass None for unbounded.  Returns None when levels or budget hit 0.

    A subtree that already fits both bounds is returned *as is* (nodes
    are immutable, so sharing is safe) — identical content to the old
    deep copy, including the preorder truncation shape when the budget
    runs out mid-tree, without allocating a node per level per snapshot.
    """
    if levels <= 0:
        return None
    depth = node._depth
    if depth is None:
        depth = node.depth()
    if budget is None:
        if depth <= levels:
            return node
    else:
        remaining = budget[0]
        if remaining <= 0:
            return None
        if depth <= levels:
            count = node._node_count
            if count is None:
                count = node.node_count()
            if count <= remaining:
                budget[0] = remaining - count
                return node
        budget[0] = remaining - 1
    if levels == 1:  # children could only land at level 0 — drop them
        return RequestTreeNode(node.peer_id, node.object_id, ())
    children: List[RequestTreeNode] = []
    for child in node.children:
        copied = prune(child, levels - 1, budget)
        if copied is not None:
            children.append(copied)
    return RequestTreeNode(node.peer_id, node.object_id, tuple(children))


def build_snapshot(
    peer_id: int,
    irq: "IncomingRequestQueue",
    levels: int,
    node_budget: int,
) -> Optional[RequestTreeNode]:
    """The tree a peer attaches to an outgoing request.

    ``levels`` counts node levels including this peer as the (snapshot)
    root; with the paper's max ring of 5 the snapshot carries
    ``levels = 4``.  Returns None when ``levels <= 0`` (no-exchange or
    ring-size-1 configurations attach nothing).
    """
    if levels <= 0:
        return None
    budget = [max(0, node_budget - 1)]  # root consumes one slot
    children: List[RequestTreeNode] = []
    if levels > 1:
        for entry in irq.tree_entries():
            if budget[0] <= 0:
                break
            budget[0] -= 1  # the entry's own node
            child_children: Tuple[RequestTreeNode, ...] = ()
            if entry.tree is not None and levels > 2:
                # Fast path: the entry caches its depth-pruned view;
                # when the whole view fits the remaining budget the
                # budgeted prune below would reproduce it node for
                # node, so the (immutable) view is adopted outright.
                pruned_view, view_count = entry.pruned_children(levels - 2)
                if view_count <= budget[0]:
                    child_children = pruned_view
                    budget[0] -= view_count
                else:
                    grandchildren: List[RequestTreeNode] = []
                    for sub in entry.tree.children:
                        copied = prune(sub, levels - 2, budget)
                        if copied is not None:
                            grandchildren.append(copied)
                    child_children = tuple(grandchildren)
            children.append(
                RequestTreeNode(entry.requester_id, entry.object_id, child_children)
            )
    return RequestTreeNode(peer_id, None, tuple(children))


def same_shape(
    a: Optional[RequestTreeNode], b: Optional[RequestTreeNode]
) -> bool:
    """Whether two trees are node-for-node equal: labels and child order.

    Subtrees that :func:`prune` and :func:`build_snapshot` share between
    snapshots compare by identity, so checking a rebuild against the
    tree it replaces stops at every subtree the two hold in common.
    """
    if a is b:
        return True
    if a is None or b is None:
        return False
    if a.peer_id != b.peer_id or a.object_id != b.object_id:
        return False
    stack = [(a.children, b.children)]
    push = stack.append
    pop = stack.pop
    while stack:
        a_children, b_children = pop()
        if a_children is b_children:
            continue
        if len(a_children) != len(b_children):
            return False
        for a_child, b_child in zip(a_children, b_children):
            if a_child is b_child:
                continue
            if a_child.peer_id != b_child.peer_id or a_child.object_id != b_child.object_id:
                return False
            push((a_child.children, b_child.children))
    return True


def reuse_equal(
    tree: Optional[RequestTreeNode], previous: Optional[RequestTreeNode]
) -> Optional[RequestTreeNode]:
    """``tree``, or a re-rooting of ``previous`` when the two are equal.

    The re-rooting is a *new* root object over ``previous``'s very
    ``children`` tuple, carrying its root caches (peer set, occurrence
    cache, node count, depth): every holder of either root derives the
    same views, computed once.  Being a new object, it still reads as a
    changed snapshot wherever a caller compares roots by identity.
    """
    if tree is None or previous is None or not same_shape(tree, previous):
        return tree
    return reroot(previous)


def reroot(previous: RequestTreeNode) -> RequestTreeNode:
    """A new root over ``previous``'s children, carrying its root caches."""
    root = RequestTreeNode(previous.peer_id, previous.object_id, previous.children)
    root._node_count = previous._node_count
    root._depth = previous._depth
    root._peer_set = previous._peer_set
    root._occ_cache = previous.occurrence_cache()
    return root


def shares_children(
    old: Optional[RequestTreeNode], new: Optional[RequestTreeNode]
) -> bool:
    """Whether ``new`` is ``old`` or a :func:`reuse_equal` re-rooting of it.

    O(1): the same root label over the same ``children`` tuple means
    the same paths and the same peer set.
    """
    if old is new:
        return True
    return (
        old is not None
        and new is not None
        and old.children is new.children
        and old.peer_id == new.peer_id
        and old.object_id == new.object_id
    )


def tree_peer_set(
    requester_id: int, tree: Optional[RequestTreeNode]
) -> Set[int]:
    """All peer ids appearing in one entry's composite tree, cheaply.

    A *superset* of the peers the entry has usable paths to (see
    :meth:`~repro.core.irq.RequestEntry.paths_for`): the walk skips the
    duplicate-peer path filter, so a peer reachable only through paths
    that revisit a peer is still included.  The IRQ's inverted index
    tolerates that — a lookup for such a peer just finds no usable path
    — and in exchange the index can be maintained without materializing
    any path tuples, leaving the expensive occurrence indexing to the
    entries a ring search actually touches.
    """
    if tree is None:
        return {requester_id}
    cached = tree._peer_set
    if cached is None:
        acc = {tree.peer_id}
        add = acc.add
        stack: List[RequestTreeNode] = [tree]
        push = stack.append
        pop = stack.pop
        while stack:
            node = pop()
            for child in node.children:
                if child.object_id is None:
                    continue  # malformed: non-root without an edge label
                add(child.peer_id)
                if child.children:
                    push(child)
        cached = frozenset(acc)
        tree._peer_set = cached
    if tree.peer_id == requester_id:
        # The usual case: the snapshot root *is* the requester, so the
        # cached set can be shared as-is (read-only by convention).
        return cached
    peers = set(cached)
    peers.add(requester_id)
    return peers


#: Reserved key under which a root's object-independent sub-index is
#: cached in its occurrence cache (the pruned views use tuple keys).
_SUBINDEX_KEY = "subindex"


def occurrence_subindex(
    requester_id: int, tree: Optional[RequestTreeNode]
) -> dict:
    """The (cached) object-independent half of an entry's occurrences.

    ``{peer_id: [subpath, ...]}`` with the root step stripped; shared
    through the root's cache whenever the root *is* the requester (the
    only shape the protocol produces).  Callers must treat the result
    as read-only.
    """
    if tree is None:
        return {}
    if tree.peer_id == requester_id:
        cache = tree.occurrence_cache()
        sub = cache.get(_SUBINDEX_KEY)
        if sub is None:
            sub = _occurrence_subindex(tree, requester_id)
            cache[_SUBINDEX_KEY] = sub
        return sub
    # Hand-built shape: the root is not the requester, so the walk
    # depends on the requester and cannot be shared through the root.
    return _occurrence_subindex(tree, requester_id)


def _occurrence_subindex(tree: RequestTreeNode, requester_id: int) -> dict:
    """``{peer_id: [subpath, ...]}`` of a snapshot, minus the root step.

    The walk's duplicate-peer filter is seeded with the requester; the
    protocol always makes the requester the snapshot root, in which
    case the result is object-independent — only the root step
    (requester, object) differs between the entries sharing one
    snapshot — so one walk per tree serves every (object, provider)
    combination of the requester's fanout, with
    :meth:`~repro.core.irq.RequestEntry.paths_for` just prefixing the
    root step.
    """
    index: dict = {}
    bucket_of = index.get
    stack: List[Tuple[RequestTreeNode, Path]] = [(tree, ())]
    push = stack.append
    pop = stack.pop
    while stack:
        node, path = pop()
        for child in node.children:
            if child.object_id is None:
                continue  # malformed: non-root without an edge label
            peer_id = child.peer_id
            if peer_id == requester_id:
                continue  # the requester seeds the duplicate filter
            duplicate = False
            for step_peer, _step_object in path:
                if step_peer == peer_id:
                    duplicate = True
                    break
            if duplicate:
                continue
            child_path = path + ((peer_id, child.object_id),)
            bucket = bucket_of(peer_id)
            if bucket is None:
                index[peer_id] = [child_path]
            else:
                bucket.append(child_path)
            if child.children:
                push((child, child_path))
    return index
