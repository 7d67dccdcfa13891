"""Tests for the RNN-tree over nearest-facility circles."""

import math
import random

from repro.geometry.circle import Circle
from repro.geometry.point import Point
from repro.rtree.rnn_tree import build_rnn_tree
from repro.rtree.validate import validate_rtree
from repro.rtree.window import window_query
from repro.storage.stats import IOStats


class FakeClient:
    def __init__(self, cid, x, y, dnn):
        self.cid, self.x, self.y, self.dnn = cid, x, y, dnn


def make_clients(n, seed=0):
    rng = random.Random(seed)
    return [
        FakeClient(i, rng.uniform(0, 1000), rng.uniform(0, 1000), rng.uniform(0, 50))
        for i in range(n)
    ]


def build(clients, bulk=True, stats=None):
    return build_rnn_tree(
        "rnn",
        stats or IOStats(),
        clients,
        [(c.x, c.y, c.dnn) for c in clients],
        use_bulk_load=bulk,
    )


class TestRNNTree:
    def test_structure_valid(self):
        tree = build(make_clients(300))
        validate_rtree(tree)
        assert tree.num_entries == 300

    def test_insert_built_variant(self):
        tree = build(make_clients(100, seed=1), bulk=False)
        validate_rtree(tree, check_min_fill=True)

    def test_leaf_mbrs_are_nfc_squares(self):
        clients = make_clients(50, seed=2)
        tree = build(clients)
        for entry in tree.iter_leaf_entries():
            c = entry.payload
            expected = Circle(Point(c.x, c.y), c.dnn).mbr()
            assert entry.mbr == expected
            # Square MBR -> centre/radius reconstruction is exact.
            assert math.isclose(
                (entry.mbr.xmax - entry.mbr.xmin) / 2, c.dnn, abs_tol=1e-9
            )

    def test_point_query_returns_enclosing_circle_candidates(self):
        """A point query on the RNN-tree yields exactly the clients whose
        NFC *MBR* contains the point (the filter step of the NFC
        method); the exact circle test then refines it."""
        clients = make_clients(200, seed=3)
        tree = build(clients)
        rng = random.Random(4)
        for __ in range(20):
            q = Point(rng.uniform(0, 1000), rng.uniform(0, 1000))
            from repro.geometry.rect import Rect

            got = {c.cid for c in window_query(tree, Rect.from_point(q))}
            expected = {
                c.cid
                for c in clients
                if Circle(Point(c.x, c.y), c.dnn).mbr().contains_point(q)
            }
            assert got == expected

    def test_io_accounting_flows_to_stats(self):
        stats = IOStats()
        tree = build(make_clients(500, seed=5), stats=stats)
        stats.reset()
        from repro.geometry.rect import Rect

        list(window_query(tree, Rect(0, 0, 100, 100)))
        assert stats.reads["rnn"] > 0
