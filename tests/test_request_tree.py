"""Unit tests for request trees: building, pruning, occurrences."""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.core.irq import IncomingRequestQueue, RequestEntry
from repro.core.request_tree import RequestTreeNode, build_snapshot, prune


def leaf(peer_id, object_id):
    return RequestTreeNode(peer_id, object_id)


def node(peer_id, object_id, *children):
    return RequestTreeNode(peer_id, object_id, tuple(children))


class TestTreeBasics:
    def test_node_count(self):
        tree = node(1, None, leaf(2, 20), node(3, 30, leaf(4, 40)))
        assert tree.node_count() == 4

    def test_depth(self):
        assert leaf(1, None).depth() == 1
        tree = node(1, None, node(2, 20, leaf(3, 30)))
        assert tree.depth() == 3

    def test_roundtrip_serialization(self):
        tree = node(1, None, leaf(2, 20), node(3, 30, leaf(4, 40)))
        assert RequestTreeNode.from_dict(tree.to_dict()).to_dict() == tree.to_dict()

    def test_iter_nodes_preorder(self):
        tree = node(1, None, leaf(2, 20), leaf(3, 30))
        assert [n.peer_id for n in tree.iter_nodes()] == [1, 2, 3]


class TestPrune:
    def test_prune_depth(self):
        tree = node(1, None, node(2, 20, node(3, 30, leaf(4, 40))))
        pruned = prune(tree, levels=2)
        assert pruned.depth() == 2
        assert pruned.children[0].children == ()

    def test_prune_zero_levels_gives_none(self):
        assert prune(leaf(1, None), levels=0) is None

    def test_prune_budget_limits_nodes(self):
        wide = node(1, None, *[leaf(i, i * 10) for i in range(2, 12)])
        budget = [4]
        pruned = prune(wide, levels=3, budget=budget)
        assert pruned.node_count() <= 4

    def test_prune_shares_subtrees_that_fit(self):
        # Nodes are immutable, so a subtree already within the level
        # and budget bounds is returned as-is instead of deep-copied.
        tree = node(1, None, leaf(2, 20))
        assert prune(tree, levels=5) is tree
        assert prune(tree, levels=5, budget=[100]) is tree

    def test_prune_truncation_builds_fresh_nodes(self):
        tree = node(1, None, node(2, 20, leaf(3, 30)))
        pruned = prune(tree, levels=2)
        assert pruned is not tree
        assert pruned.to_dict() == {
            "peer": 1,
            "object": None,
            "children": [{"peer": 2, "object": 20, "children": []}],
        }
        # The original is untouched by the truncation.
        assert tree.children[0].children[0].peer_id == 3

    @settings(max_examples=30)
    @given(levels=st.integers(min_value=1, max_value=6))
    def test_pruned_depth_never_exceeds_levels(self, levels):
        deep = leaf(9, 90)
        for peer in range(8, 0, -1):
            deep = node(peer, peer * 10 if peer != 1 else None, deep)
        pruned = prune(deep, levels=levels)
        assert pruned.depth() <= levels


class TestBuildSnapshot:
    def _irq_with(self, *entries):
        irq = IncomingRequestQueue(capacity=100)
        for entry in entries:
            assert irq.add(entry)
        return irq

    def test_empty_irq_bare_root(self):
        irq = IncomingRequestQueue(capacity=10)
        snapshot = build_snapshot(7, irq, levels=4, node_budget=100)
        assert snapshot.peer_id == 7
        assert snapshot.object_id is None
        assert snapshot.children == ()

    def test_zero_levels_returns_none(self):
        irq = IncomingRequestQueue(capacity=10)
        assert build_snapshot(7, irq, levels=0, node_budget=100) is None

    def test_one_level_snapshot_has_no_children(self):
        irq = self._irq_with(RequestEntry(2, 20, 0.0))
        snapshot = build_snapshot(7, irq, levels=1, node_budget=100)
        assert snapshot.children == ()

    def test_entries_become_children(self):
        irq = self._irq_with(RequestEntry(2, 20, 0.0), RequestEntry(3, 30, 1.0))
        snapshot = build_snapshot(7, irq, levels=4, node_budget=100)
        assert [(c.peer_id, c.object_id) for c in snapshot.children] == [(2, 20), (3, 30)]

    def test_attached_trees_nested(self):
        # Entry from peer 2 carries peer 2's own snapshot containing peer 4.
        subtree = node(2, None, leaf(4, 44))
        irq = self._irq_with(RequestEntry(2, 20, 0.0, tree=subtree))
        snapshot = build_snapshot(7, irq, levels=4, node_budget=100)
        child = snapshot.children[0]
        assert child.peer_id == 2
        assert [(g.peer_id, g.object_id) for g in child.children] == [(4, 44)]

    def test_levels_limit_composite_depth(self):
        deep = node(2, None, node(4, 44, node(5, 55, leaf(6, 66))))
        irq = self._irq_with(RequestEntry(2, 20, 0.0, tree=deep))
        snapshot = build_snapshot(7, irq, levels=3, node_budget=100)
        assert snapshot.depth() == 3  # 7 -> 2 -> 4; peers 5, 6 pruned

    def test_node_budget_respected(self):
        entries = [RequestEntry(i, i * 10, float(i)) for i in range(2, 30)]
        irq = self._irq_with(*entries)
        snapshot = build_snapshot(7, irq, levels=4, node_budget=10)
        assert snapshot.node_count() <= 10

    def test_inactive_entries_excluded(self):
        irq = self._irq_with(RequestEntry(2, 20, 0.0), RequestEntry(3, 30, 1.0))
        irq.remove(2, 20)
        snapshot = build_snapshot(7, irq, levels=4, node_budget=100)
        assert [c.peer_id for c in snapshot.children] == [3]


class TestOccurrences:
    """``RequestEntry.paths_for``: an entry's paths to one peer."""

    def test_entry_itself_is_first_occurrence(self):
        entry = RequestEntry(2, 20, 0.0)
        assert entry.paths_for(2) == [((2, 20),)]

    def test_deep_occurrences_carry_paths(self):
        tree = node(2, None, node(4, 44, leaf(5, 55)))
        entry = RequestEntry(2, 20, 0.0, tree=tree)
        assert entry.paths_for(4) == [((2, 20), (4, 44))]
        assert entry.paths_for(5) == [((2, 20), (4, 44), (5, 55))]

    def test_duplicate_peer_paths_filtered(self):
        # Peer 2 appears again below itself: the path 2 -> 4 -> 2 would
        # repeat peer 2 and must not be yielded.
        tree = node(2, None, node(4, 44, leaf(2, 22)))
        entry = RequestEntry(2, 20, 0.0, tree=tree)
        assert entry.paths_for(4)
        assert entry.paths_for(2) == [((2, 20),)]  # only the direct occurrence

    def test_same_peer_on_two_branches_kept(self):
        tree = node(2, None, node(4, 44, leaf(6, 66)), node(5, 55, leaf(6, 67)))
        entry = RequestEntry(2, 20, 0.0, tree=tree)
        assert len(entry.paths_for(6)) == 2

    def test_malformed_root_label_ignored(self):
        # A non-root node without an object label cannot be an edge.
        tree = node(2, None, RequestTreeNode(4, None))
        entry = RequestEntry(2, 20, 0.0, tree=tree)
        assert not entry.paths_for(4)
