"""Tests for the generic R-tree intersection join."""

import random

from repro.geometry.point import Point
from repro.geometry.rect import Rect
from repro.rtree.bulk import bulk_load
from repro.rtree.join import intersection_join
from repro.rtree.rtree import RTree
from repro.storage.stats import IOStats


def random_rects(n, seed, size=30.0):
    rng = random.Random(seed)
    out = []
    for i in range(n):
        x, y = rng.uniform(0, 1000), rng.uniform(0, 1000)
        out.append((Rect(x, y, x + rng.uniform(0, size), y + rng.uniform(0, size)), i))
    return out


def build(items, name="t"):
    tree = RTree(name, IOStats(), max_leaf_entries=6, max_branch_entries=6)
    bulk_load(tree, [mbr for mbr, __ in items], [p for __, p in items])
    return tree


class TestIntersectionJoin:
    def test_matches_nested_loop(self):
        a = random_rects(80, seed=1)
        b = random_rects(120, seed=2)
        got = sorted(intersection_join(build(a, "a"), build(b, "b")))
        expected = sorted((ia, ib) for ra, ia in a for rb, ib in b if ra.intersects(rb))
        assert got == expected

    def test_empty_side_yields_nothing(self):
        a = build(random_rects(10, seed=3), "a")
        b = RTree("b", IOStats(), max_leaf_entries=6, max_branch_entries=6)
        assert list(intersection_join(a, b)) == []
        assert list(intersection_join(b, a)) == []

    def test_different_heights(self):
        """One shallow tree against one deep tree exercises the
        level-alignment branches."""
        a = random_rects(5, seed=4)
        b = random_rects(800, seed=5)
        got = sorted(intersection_join(build(a, "a"), build(b, "b")))
        expected = sorted((ia, ib) for ra, ia in a for rb, ib in b if ra.intersects(rb))
        assert got == expected

    def test_point_in_region_join(self):
        """Points joined against covering squares — the NFC shape."""
        rng = random.Random(6)
        points = [
            (Rect.from_point(Point(rng.uniform(0, 100), rng.uniform(0, 100))), i)
            for i in range(60)
        ]
        squares = random_rects(40, seed=7, size=20.0)
        got = set(intersection_join(build(points, "p"), build(squares, "s")))
        expected = {
            (ip, isq)
            for rp, ip in points
            for rs, isq in squares
            if rp.intersects(rs)
        }
        assert got == expected

    def test_join_with_self(self):
        items = random_rects(50, seed=8)
        tree_a = build(items, "a")
        tree_b = build(items, "b")
        pairs = list(intersection_join(tree_a, tree_b))
        # Every rectangle intersects itself.
        assert all((i, i) in set(pairs) for __, i in items)
