"""Tests for window queries."""

import random

from repro.geometry.point import Point
from repro.geometry.rect import Rect
from repro.rtree.bulk import bulk_load
from repro.rtree.rtree import RTree
from repro.rtree.window import count_in_window, window_query
from repro.storage.stats import IOStats


def build_tree(points, stats=None):
    tree = RTree("t", stats or IOStats(), max_leaf_entries=8, max_branch_entries=8)
    bulk_load(tree, [Rect.from_point(p) for p in points], points)
    return tree


def random_points(n, seed=0):
    rng = random.Random(seed)
    return [Point(rng.uniform(0, 1000), rng.uniform(0, 1000)) for _ in range(n)]


class TestWindowQuery:
    def test_matches_linear_scan(self):
        pts = random_points(500)
        tree = build_tree(pts)
        for seed in range(5):
            rng = random.Random(seed + 100)
            x, y = rng.uniform(0, 800), rng.uniform(0, 800)
            w = Rect(x, y, x + 200, y + 200)
            got = sorted(window_query(tree, w))
            expected = sorted(p for p in pts if w.contains_point(p))
            assert got == expected

    def test_empty_window(self):
        tree = build_tree(random_points(100))
        assert list(window_query(tree, Rect(2000, 2000, 3000, 3000))) == []

    def test_whole_domain_returns_everything(self):
        pts = random_points(150, seed=1)
        tree = build_tree(pts)
        assert count_in_window(tree, Rect(-1, -1, 1001, 1001)) == 150

    def test_empty_tree(self):
        tree = RTree("t", IOStats(), max_leaf_entries=4, max_branch_entries=4)
        assert list(window_query(tree, Rect(0, 0, 1, 1))) == []

    def test_boundary_points_included(self):
        tree = build_tree([Point(5, 5)])
        assert list(window_query(tree, Rect(5, 5, 10, 10))) == [Point(5, 5)]

    def test_payload_filter(self):
        pts = random_points(200, seed=2)
        tree = build_tree(pts)
        w = Rect(0, 0, 1000, 1000)
        got = list(window_query(tree, w, payload_filter=lambda p: p[0] < 100))
        assert all(p[0] < 100 for p in got)
        assert len(got) == sum(1 for p in pts if p[0] < 100)

    def test_selective_window_reads_fewer_nodes(self):
        stats = IOStats()
        tree = build_tree(random_points(2000, seed=3), stats=stats)
        stats.reset()
        list(window_query(tree, Rect(0, 0, 50, 50)))
        small = stats.total_reads
        stats.reset()
        list(window_query(tree, Rect(0, 0, 1000, 1000)))
        full = stats.total_reads
        assert small < full / 4
        assert full == tree.num_nodes  # full window touches every node
