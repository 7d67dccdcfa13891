"""Tests for best-first NN search and the quadrant-constrained variant.

``TestColumnStreamOracle`` keeps the object-at-a-time best-first loop
and QVC's point-based AIR construction that the column stream replaced,
and checks the stream against them bit for bit on tie-heavy trees.
"""

import heapq
import itertools
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import DynamicWorkspace, Workspace
from repro.core.diskmode import DiskWorkspace, persist_indexes
from repro.core.qvc import QuasiVoronoiCell
from repro.core.types import Site
from repro.datasets.generators import SpatialInstance
from repro.geometry.halfplane import bisector_halfplane
from repro.geometry.point import Point
from repro.geometry.rect import Rect
from repro.rtree.bulk import bulk_load
from repro.rtree.nn import (
    _quadrant_mbr_filter,
    incremental_nearest,
    nearest_in_quadrant,
    nearest_neighbor,
)
from repro.rtree.persist import DiskRTree, save_rtree
from repro.rtree.rtree import RTree
from repro.storage.codecs import SiteCodec
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


# ---------------------------------------------------------------------------
# The column stream against the object-at-a-time loop it replaced
# ---------------------------------------------------------------------------


def oracle_nearest(tree, query, mbr_filter=None, payload_filter=None):
    """The object-at-a-time best-first loop: one heap item per entry,
    ``Rect.min_dist_point`` per entry, ties broken by push order."""
    if tree.num_entries == 0:
        return
    counter = itertools.count()
    heap = [(0.0, next(counter), False, None)]
    while heap:
        dist, __, is_data, obj = heapq.heappop(heap)
        if is_data:
            yield dist, obj
            continue
        node = tree.read_node(tree.root_id if obj is None else obj)
        for entry in node.entries:
            if mbr_filter is not None and not mbr_filter(entry.mbr):
                continue
            if node.is_leaf:
                if payload_filter is not None and not payload_filter(entry.payload):
                    continue
                item = (True, entry.payload)
            else:
                item = (False, entry.child_id)
            d = entry.mbr.min_dist_point(query)
            heapq.heappush(heap, (d, next(counter), *item))


def oracle_clip(vertices, hp):
    """``ConvexPolygon.clip`` as it was, on ``Point`` vertices."""
    kept = []
    n = len(vertices)
    violations = [hp.signed_violation(v) for v in vertices]
    tolerances = [
        1e-9 * (abs(hp.a * v[0]) + abs(hp.b * v[1]) + abs(hp.c) + 1.0)
        for v in vertices
    ]
    for i in range(n):
        j = (i + 1) % n
        cur, nxt = vertices[i], vertices[j]
        cur_v, nxt_v = violations[i], violations[j]
        cur_in = cur_v <= tolerances[i]
        nxt_in = nxt_v <= tolerances[j]
        if cur_in:
            kept.append(cur)
        if cur_in != nxt_in:
            t = min(1.0, max(0.0, cur_v / (cur_v - nxt_v)))
            kept.append(
                Point(cur[0] + t * (nxt[0] - cur[0]), cur[1] + t * (nxt[1] - cur[1]))
            )
    return kept


def oracle_air(ws, p):
    """QVC's AIR(p) as it was: the object stream's quadrant NNs, then the
    bisectors clipped against the data bounds with ``Point`` vertices."""
    found = [None, None, None, None]
    missing = 4
    for __, site in oracle_nearest(ws.r_f, p):
        quad = Point(site.x, site.y).quadrant_relative_to(p)
        if found[quad] is None:
            found[quad] = site
            missing -= 1
            if missing == 0:
                break
    halfplanes = []
    for site in found:
        if site is None:
            continue
        f = Point(site.x, site.y)
        if f == p:
            return None
        halfplanes.append(bisector_halfplane(p, f))
    vertices = list(ws.data_bounds.corners())
    for hp in halfplanes:
        vertices = oracle_clip(vertices, hp)
        if not vertices:
            return Rect.from_point(p)
    return Rect.from_points(vertices)


def recorded_reads(tree, monkeypatch):
    """Log every ``read_node`` id of ``tree``, in order."""
    log = []
    read = tree.read_node

    def logged(node_id, stats=None):
        log.append(node_id)
        return read(node_id, stats=stats)

    monkeypatch.setattr(tree, "read_node", logged)
    return log


def grid_sites(rng, n, side=12):
    """Integer-grid sites with duplicates (same point, other ids)."""
    points = [
        (float(rng.randint(0, side)), float(rng.randint(0, side))) for __ in range(n)
    ]
    points += points[: n // 5]
    return [Site(sid, x, y) for sid, (x, y) in enumerate(points)]


def tree_kinds(tmp_path):
    """The same tie-heavy sites as an STR tree in memory, that tree
    mapped from disk, and a tree churned by Guttman inserts/deletes."""
    rng = random.Random(41)
    sites = grid_sites(rng, 150)
    memory = RTree("t", IOStats(), max_leaf_entries=5, max_branch_entries=4)
    bulk_load(memory, [Rect(s.x, s.y, s.x, s.y) for s in sites], sites)
    save_rtree(memory, tmp_path / "t.pages", SiteCodec())
    disk = DiskRTree("t", tmp_path / "t.pages", SiteCodec(), IOStats())
    churned = RTree("c", IOStats(), max_leaf_entries=5, max_branch_entries=4)
    order = sites[:]
    rng.shuffle(order)
    for s in order:
        churned.insert(Rect(s.x, s.y, s.x, s.y), s)
    for s in order[::3]:
        assert churned.delete(Rect(s.x, s.y, s.x, s.y), s)
    for s in order[:20]:
        churned.insert(Rect(s.x, s.y, s.x, s.y), s._replace(sid=s.sid + 1000))
    return {"memory": memory, "disk": disk, "churned": churned}


def tie_queries(tree, rng):
    """Queries on entries, on node MBR edges and corners, and between."""
    nearest = itertools.islice(oracle_nearest(tree, Point(6, 6)), 12)
    queries = [Point(s.x, s.y) for __, s in nearest]
    root = tree.read_node(tree.root_id)
    for entry in root.entries:
        r = entry.mbr
        queries += [Point(r.xmin, r.ymax), Point(r.xmax, (r.ymin + r.ymax) / 2)]
    queries += [
        Point(rng.randint(-2, 14) / 2, rng.randint(-2, 14) / 2) for __ in range(12)
    ]
    # Off the grid, about one distance in 160 rounds differently under
    # np.hypot than under Rect.min_dist_point's math.hypot.
    queries += [Point(rng.uniform(-1, 13), rng.uniform(-1, 13)) for __ in range(12)]
    return queries


def tie_ws_instance() -> SpatialInstance:
    rng = random.Random(43)

    def grid(n):
        return [
            Point(float(rng.randint(0, 16)), float(rng.randint(0, 16)))
            for __ in range(n)
        ]

    facilities = grid(50)
    facilities += facilities[:5]
    clients = grid(300) + facilities[:4]
    return SpatialInstance(
        "ties", clients, facilities, grid(20), domain=Rect(0.0, 0.0, 16.0, 16.0)
    )


def air_queries(ws):
    """On facilities, on their axes, on half-grid points and on the
    potentials."""
    rng = random.Random(44)
    facilities = getattr(ws, "facilities", tie_ws_instance().facilities)
    out = [Point(f[0], f[1]) for f in facilities[:8]]
    out += [Point(f[0], float(rng.randint(0, 16))) for f in facilities[8:16]]
    out += [Point(rng.randint(0, 32) / 2, rng.randint(0, 32) / 2) for __ in range(40)]
    out += [Point(p.x, p.y) for p in ws.potentials]
    return out


def air_workspaces(tmp_path):
    """Tie-heavy workspaces with a three-level ``R_F``: in memory, mapped
    from disk, and churned by facility inserts and deletes."""
    memory = Workspace(tie_ws_instance(), page_size=256)
    disk = DiskWorkspace(persist_indexes(memory, tmp_path / "ws"))
    churned = DynamicWorkspace(tie_ws_instance(), page_size=256)
    churned.r_f  # noqa: B018 — built before the churn, then updated in place
    rng = random.Random(45)
    for __ in range(12):
        churned.add_facility((float(rng.randint(0, 16)), float(rng.randint(0, 16))))
    for site in churned.facilities[3:30:3]:
        churned.remove_facility(site)
    return {"memory": memory, "disk": disk, "churned": churned}


def bits(rect):
    return None if rect is None else tuple(float(v).hex() for v in rect)


class TestColumnStreamOracle:
    @pytest.mark.parametrize("kind", ["memory", "disk", "churned"])
    def test_same_sequence_and_reads_as_the_object_loop(
        self, kind, tmp_path, monkeypatch
    ):
        tree = tree_kinds(tmp_path)[kind]
        log = recorded_reads(tree, monkeypatch)
        for q in tie_queries(tree, random.Random(42)):
            filters = [{}]
            filters += [
                {
                    "mbr_filter": _quadrant_mbr_filter(q, quad),
                    "payload_filter": lambda s, quad=quad, q=q: (
                        Point(s.x, s.y).quadrant_relative_to(q) == quad
                    ),
                }
                for quad in range(4)
            ]
            for kwargs in filters:
                log.clear()
                want = [(d.hex(), s) for d, s in oracle_nearest(tree, q, **kwargs)]
                want_reads = log[:]
                log.clear()
                got = [(d.hex(), s) for d, s in incremental_nearest(tree, q, **kwargs)]
                assert got == want
                assert log == want_reads
                assert log  # the root at least

    @pytest.mark.parametrize("kind", ["memory", "disk", "churned"])
    def test_qvc_airs_match_the_point_algorithm(self, kind, tmp_path, monkeypatch):
        ws = air_workspaces(tmp_path)[kind]
        assert ws.r_f.height >= 3
        qvc = QuasiVoronoiCell(ws)
        log = recorded_reads(ws.r_f, monkeypatch)
        empty = 0
        for p in air_queries(ws):
            log.clear()
            want = oracle_air(ws, p)
            want_reads = log[:]
            log.clear()
            got = qvc.air(p)
            assert bits(got) == bits(want), p
            assert log == want_reads, p
            empty += got is None
        assert empty  # some queries sat on a facility

    def test_quadrant_facilities_match_the_object_stream(self, tmp_path):
        ws = air_workspaces(tmp_path)["disk"]
        qvc = QuasiVoronoiCell(ws)
        for p in air_queries(ws):
            want = [None, None, None, None]
            for __, site in oracle_nearest(ws.r_f, p):
                quad = Point(site.x, site.y).quadrant_relative_to(p)
                if want[quad] is None:
                    want[quad] = site
                if None not in want:
                    break
            assert qvc.quadrant_nearest_facilities(p) == want
