"""Tests for best-first NN search and the quadrant-constrained variant."""

import math
import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geometry.point import Point
from repro.geometry.rect import Rect
from repro.rtree.bulk import bulk_load
from repro.rtree.nn import incremental_nearest, nearest_in_quadrant, nearest_neighbor
from repro.rtree.rtree import RTree
from repro.storage.stats import IOStats


def build_tree(points, stats=None, max_entries=8):
    tree = RTree(
        "t",
        stats or IOStats(),
        max_leaf_entries=max_entries,
        max_branch_entries=max_entries,
    )
    bulk_load(tree, [Rect.from_point(p) for p in points], points)
    return tree


def random_points(n, seed=0):
    rng = random.Random(seed)
    return [Point(rng.uniform(0, 1000), rng.uniform(0, 1000)) for _ in range(n)]


class TestNearestNeighbor:
    def test_matches_linear_scan(self):
        pts = random_points(400)
        tree = build_tree(pts)
        for q in random_points(25, seed=1):
            d, nn = nearest_neighbor(tree, q)
            expected = min(pts, key=lambda p: p.distance_to(q))
            assert nn == expected
            assert math.isclose(d, q.distance_to(expected), abs_tol=1e-9)

    def test_empty_tree_returns_none(self):
        tree = RTree("t", IOStats(), max_leaf_entries=4, max_branch_entries=4)
        assert nearest_neighbor(tree, Point(0, 0)) is None

    def test_query_point_in_tree_gives_distance_zero(self):
        pts = random_points(50)
        tree = build_tree(pts)
        d, nn = nearest_neighbor(tree, pts[10])
        assert d == 0.0

    def test_incremental_order_is_nondecreasing(self):
        pts = random_points(100, seed=2)
        tree = build_tree(pts)
        q = Point(500, 500)
        distances = [d for d, __ in incremental_nearest(tree, q)]
        assert len(distances) == 100
        assert distances == sorted(distances)

    def test_incremental_stream_is_lazy_in_io(self):
        """Taking only the first neighbour must read far fewer nodes than
        draining the stream — the property QVC's quadrant search uses."""
        stats = IOStats()
        tree = build_tree(random_points(2000, seed=3), stats=stats, max_entries=16)
        stats.reset()
        next(iter(incremental_nearest(tree, Point(500, 500))))
        first_only = stats.total_reads
        stats.reset()
        list(incremental_nearest(tree, Point(500, 500)))
        full_drain = stats.total_reads
        assert first_only < full_drain / 5

    def test_payload_filter(self):
        pts = random_points(100, seed=4)
        tree = build_tree(pts)
        q = Point(500, 500)
        d, nn = next(
            iter(incremental_nearest(tree, q, payload_filter=lambda p: p[0] > 800))
        )
        candidates = [p for p in pts if p[0] > 800]
        assert nn == min(candidates, key=lambda p: p.distance_to(q))


class TestQuadrantNN:
    def test_matches_linear_scan_per_quadrant(self):
        pts = random_points(300, seed=5)
        tree = build_tree(pts)
        for q in random_points(10, seed=6):
            for quad in range(4):
                result = nearest_in_quadrant(tree, q, quad)
                candidates = [p for p in pts if p.quadrant_relative_to(q) == quad]
                if not candidates:
                    assert result is None
                else:
                    expected = min(candidates, key=lambda p: p.distance_to(q))
                    assert math.isclose(
                        result[0], q.distance_to(expected), abs_tol=1e-9
                    )

    def test_empty_quadrant_returns_none(self):
        # All data in quadrant 0 relative to the origin.
        pts = [Point(10, 10), Point(20, 5), Point(5, 30)]
        tree = build_tree(pts)
        origin = Point(0, 0)
        assert nearest_in_quadrant(tree, origin, 0) is not None
        assert nearest_in_quadrant(tree, origin, 2) is None

    def test_invalid_quadrant(self):
        import pytest

        tree = build_tree(random_points(5))
        with pytest.raises(ValueError):
            nearest_in_quadrant(tree, Point(0, 0), 4)

    @settings(max_examples=40, deadline=None)
    @given(
        st.integers(min_value=0, max_value=3),
        st.integers(min_value=0, max_value=10_000),
    )
    def test_quadrant_nn_property(self, quad, seed):
        rng = random.Random(seed)
        pts = [Point(rng.uniform(0, 100), rng.uniform(0, 100)) for __ in range(30)]
        tree = build_tree(pts, max_entries=4)
        q = Point(rng.uniform(0, 100), rng.uniform(0, 100))
        result = nearest_in_quadrant(tree, q, quad)
        candidates = [p for p in pts if p.quadrant_relative_to(q) == quad]
        if candidates:
            best = min(p.distance_to(q) for p in candidates)
            assert result is not None
            assert math.isclose(result[0], best, abs_tol=1e-9)
        else:
            assert result is None


class TestKNearest:
    def test_matches_sorted_scan(self):
        from repro.rtree.nn import k_nearest

        pts = random_points(200, seed=20)
        tree = build_tree(pts)
        q = Point(400, 600)
        got = k_nearest(tree, q, 7)
        expected = sorted(q.distance_to(p) for p in pts)[:7]
        assert [d for d, __ in got] == expected

    def test_k_larger_than_tree(self):
        from repro.rtree.nn import k_nearest

        pts = random_points(5, seed=21)
        tree = build_tree(pts)
        assert len(k_nearest(tree, Point(0, 0), 50)) == 5

    def test_invalid_k(self):
        import pytest

        from repro.rtree.nn import k_nearest

        tree = build_tree(random_points(5, seed=22))
        with pytest.raises(ValueError):
            k_nearest(tree, Point(0, 0), 0)
