"""Tests for the MND-augmented R-tree.

The key properties:

* every stored MND equals its recomputed value after any mutation
  sequence (validate_rtree checks this recursively);
* the MND region semantics of Theorem 1: if
  ``minDist(N_C, rect) >= MND(N_C)`` then no point of ``rect`` lies in
  the NFC of any client under ``N_C``.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geometry.circle import Circle
from repro.geometry.point import Point
from repro.geometry.rect import Rect
from repro.rtree.bulk import bulk_load
from repro.rtree.mnd_tree import MNDTree
from repro.rtree.validate import validate_rtree
from repro.storage.stats import IOStats


def make_clients(n, seed=0, max_radius=60.0):
    rng = random.Random(seed)
    return [
        (Point(rng.uniform(0, 1000), rng.uniform(0, 1000)), rng.uniform(0, max_radius))
        for __ in range(n)
    ]


def build_tree(clients, bulk=True, max_entries=6) -> MNDTree:
    radius = {p: r for p, r in clients}
    tree = MNDTree(
        "m",
        IOStats(),
        radius_of=lambda p: radius[p],
        max_leaf_entries=max_entries,
        max_branch_entries=max_entries,
    )
    points = [p for p, __ in clients]
    if bulk:
        bulk_load(tree, [Rect.from_point(p) for p in points], points)
    else:
        for p in points:
            tree.insert(Rect.from_point(p), p)
    return tree


class TestAugmentationMaintenance:
    def test_bulk_load_mnds_are_exact(self):
        tree = build_tree(make_clients(300))
        validate_rtree(tree)

    def test_insert_built_mnds_are_exact(self):
        tree = build_tree(make_clients(200, seed=1), bulk=False)
        validate_rtree(tree, check_min_fill=True)

    def test_mnds_survive_deletes(self):
        clients = make_clients(150, seed=2)
        tree = build_tree(clients, bulk=False)
        for p, __ in clients[:100]:
            assert tree.delete(Rect.from_point(p), p)
            validate_rtree(tree)

    def test_layout_is_mnd_entry_wide(self):
        tree = MNDTree("m", IOStats(), radius_of=lambda p: 0.0)
        assert tree.max_branch == 93  # 44-byte entries on 4K pages
        assert tree.max_leaf == 93

    def test_zero_radii_give_zero_mnds(self):
        clients = [(p, 0.0) for p, __ in make_clients(100, seed=3)]
        tree = build_tree(clients)
        for node in tree.iter_nodes():
            if not node.is_leaf:
                assert all(e.mnd == 0.0 for e in node.entries)

    def test_root_mnd(self):
        clients = make_clients(120, seed=4)
        tree = build_tree(clients)
        assert tree.root_mnd() >= 0.0
        assert tree.root_mnd() == tree.compute_mnd(tree.root)

    def test_root_mnd_empty_tree(self):
        tree = MNDTree("m", IOStats(), radius_of=lambda p: 0.0)
        assert tree.root_mnd() == 0.0


class TestTheorem1Semantics:
    """``minDist(N_C, N_P) >= MND(N_C)`` must imply that no point in
    ``N_P`` is enclosed by any NFC under ``N_C`` — the pruning rule."""

    def _check_node(self, tree, node, mnd, rect, radius_of):
        if rect.min_dist_rect(node.mbr()) >= mnd:
            # Pruned: assert no client NFC in the subtree reaches rect.
            for entry in self._leaf_entries(tree, node):
                circle = Circle(entry.mbr.center, radius_of(entry.payload))
                # No corner or clamp point of rect may be inside the NFC:
                # equivalently minDist(center, rect) >= radius.
                assert rect.min_dist_point(circle.center) >= circle.radius - 1e-9

    def _leaf_entries(self, tree, node):
        if node.is_leaf:
            yield from node.entries
            return
        for e in node.entries:
            yield from self._leaf_entries(tree, tree.node(e.child_id))

    @settings(max_examples=30, deadline=None)
    @given(st.integers(min_value=0, max_value=1000))
    def test_pruning_never_loses_influence(self, seed):
        clients = make_clients(80, seed=seed)
        tree = build_tree(clients, max_entries=4)
        radius = {p: r for p, r in clients}
        rng = random.Random(seed + 1)
        x, y = rng.uniform(0, 950), rng.uniform(0, 950)
        rect = Rect(x, y, x + rng.uniform(0, 200), y + rng.uniform(0, 200))
        # Walk the whole tree applying the pruning predicate everywhere.
        stack = [(tree.root, tree.root_mnd())]
        while stack:
            node, mnd = stack.pop()
            self._check_node(tree, node, mnd, rect, lambda p: radius[p])
            if not node.is_leaf:
                stack.extend((tree.node(e.child_id), e.mnd) for e in node.entries)

    def test_explicit_counterexample_shape(self):
        """A far-away rect is pruned at the root; a rect inside a big NFC
        is not."""
        clients = [(Point(500, 500), 100.0)]
        tree = build_tree(clients)
        assert tree.root_mnd() == 100.0
        far = Rect(900, 900, 950, 950)
        assert far.min_dist_rect(tree.root.mbr()) >= tree.root_mnd()
        near = Rect(550, 550, 560, 560)
        assert near.min_dist_rect(tree.root.mbr()) < tree.root_mnd()
