"""Tests for in-place entry updates (``RTree.update_entries``).

An update gives data entries new MBRs in the leaves where they sit and
refreshes each ancestor entry once, bottom up.  The properties pinned
here:

* the tree stays valid — tight MBRs, exact MND values — while entries
  grow and shrink, and no entry changes leaf;
* a bound decoded-leaf cache loses exactly the decodes of the nodes on
  the touched root-to-leaf paths, no more and no fewer;
* a batch that names a missing entry raises before changing anything.
"""

import random

import pytest

from repro.geometry.point import Point
from repro.geometry.rect import Rect
from repro.rtree.bulk import bulk_load
from repro.rtree.mnd_tree import MNDTree
from repro.rtree.rtree import RTree
from repro.rtree.validate import validate_rtree
from repro.storage import DecodedLeafCache
from repro.storage.stats import IOStats


def random_points(n, seed=0):
    rng = random.Random(seed)
    return [Point(rng.uniform(0, 1000), rng.uniform(0, 1000)) for _ in range(n)]


def build(points) -> RTree:
    tree = RTree("t", IOStats(), max_leaf_entries=4, max_branch_entries=4)
    for i, p in enumerate(points):
        tree.insert(Rect.from_point(p), i)
    return tree


def box(p: Point, r: float) -> Rect:
    return Rect(p[0] - r, p[1] - r, p[0] + r, p[1] + r)


def leaf_and_parents(tree: RTree) -> tuple[dict, dict]:
    """Payload -> leaf id, and node id -> parent node id."""
    leaf_of, parent = {}, {}
    for node in tree.iter_nodes():
        for entry in node.entries:
            if node.is_leaf:
                leaf_of[entry.payload] = node.node_id
            else:
                parent[entry.child_id] = node.node_id
    return leaf_of, parent


def path_ids(tree: RTree, payloads) -> set[int]:
    leaf_of, parent = leaf_and_parents(tree)
    ids = set()
    for payload in payloads:
        node_id = leaf_of[payload]
        while node_id is not None:
            ids.add(node_id)
            node_id = parent.get(node_id)
    return ids


class TestUpdateEntries:
    def test_grow_and_shrink_keep_the_tree_valid(self):
        pts = random_points(80, seed=3)
        tree = build(pts)
        assert tree.height >= 3
        leaves_before, __ = leaf_and_parents(tree)
        nodes_before = tree.num_nodes
        mbrs = {i: Rect.from_point(p) for i, p in enumerate(pts)}
        rng = random.Random(4)
        for radius in (40.0, 5.0, 120.0, 0.0):
            chosen = rng.sample(range(len(pts)), 20)
            items = [(mbrs[i], box(pts[i], radius), i) for i in chosen]
            tree.update_entries(items)
            for old, new, i in items:
                mbrs[i] = new
            validate_rtree(tree)
            assert {e.payload: e.mbr for e in tree.iter_leaf_entries()} == mbrs
        # Nothing moved between leaves, and no node was split or freed.
        assert leaf_and_parents(tree)[0] == leaves_before
        assert tree.num_nodes == nodes_before
        assert len(tree) == len(pts)

    def test_bound_cache_loses_exactly_the_touched_paths(self):
        pts = random_points(80, seed=5)
        tree = build(pts)
        assert tree.height >= 3
        cache = DecodedLeafCache()
        tree.bind_leaf_cache(cache)
        all_ids = {node.node_id for node in tree.iter_nodes()}
        for node_id in all_ids:
            cache.get("t", tree.version, node_id, lambda: "warm")
        # Two grow, one shrinks back to a point, one keeps its MBR
        # (a payload-only change).
        tree.update_entries([(Rect.from_point(pts[2]), box(pts[2], 30.0), 2)])
        for node_id in all_ids:
            cache.get("t", tree.version, node_id, lambda: "warm")
        touched = [2, 17, 41, 63]
        expected = path_ids(tree, touched)
        assert expected != all_ids
        tree.update_entries(
            [
                (box(pts[2], 30.0), Rect.from_point(pts[2]), 2),
                (Rect.from_point(pts[17]), box(pts[17], 8.0), 17),
                (Rect.from_point(pts[41]), box(pts[41], 250.0), 41),
                (Rect.from_point(pts[63]), Rect.from_point(pts[63]), 63),
            ]
        )
        lost = {
            node_id
            for node_id in all_ids
            if cache.get("t", tree.version, node_id, lambda: "fresh") == "fresh"
        }
        assert lost == expected
        validate_rtree(tree)

    def test_version_bumps_once_per_call(self):
        pts = random_points(30, seed=6)
        tree = build(pts)
        before = tree.version
        tree.update_entries(
            [(Rect.from_point(pts[i]), box(pts[i], 3.0), i) for i in range(10)]
        )
        assert tree.version == before + 1
        tree.update_entries([])
        assert tree.version == before + 1

    def test_missing_entry_raises_before_changing_anything(self):
        pts = random_points(30, seed=7)
        tree = build(pts)
        version = tree.version
        with pytest.raises(KeyError):
            tree.update_entries(
                [
                    (Rect.from_point(pts[0]), box(pts[0], 9.0), 0),
                    (Rect.from_point(pts[1]), box(pts[1], 9.0), 99),
                ]
            )
        assert tree.version == version
        assert {e.payload: e.mbr for e in tree.iter_leaf_entries()} == {
            i: Rect.from_point(p) for i, p in enumerate(pts)
        }

    def test_mnd_tree_recomputes_the_augmentation(self):
        pts = random_points(120, seed=8)
        radius = {i: 10.0 for i in range(len(pts))}
        tree = MNDTree(
            "m",
            IOStats(),
            radius_of=lambda i: radius[i],
            max_leaf_entries=4,
            max_branch_entries=4,
        )
        bulk_load(tree, [Rect.from_point(p) for p in pts], list(range(len(pts))))
        assert tree.height >= 3
        chosen = random.Random(9).sample(range(len(pts)), 25)
        for i in chosen:
            radius[i] = 90.0 if i % 2 else 0.5
        # The stored MND values are stale until the paths are refreshed.
        with pytest.raises(AssertionError):
            validate_rtree(tree)
        points = [Rect.from_point(pts[i]) for i in chosen]
        tree.update_entries([(r, r, i) for r, i in zip(points, chosen)])
        validate_rtree(tree)
