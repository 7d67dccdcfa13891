"""Tests for STR bulk loading."""

import gc
import random
import sys
import threading

import pytest

from repro.geometry.point import Point
from repro.geometry.rect import Rect
from repro.rtree.bulk import bulk_load, paused_gc
from repro.rtree.mnd_tree import MNDTree
from repro.rtree.rtree import RTree
from repro.rtree.validate import validate_rtree
from repro.storage.stats import IOStats


def load(tree, items, **kwargs):
    """``bulk_load`` from ``(mbr, payload)`` pairs."""
    return bulk_load(tree, [mbr for mbr, __ in items], [p for __, p in items], **kwargs)


def random_items(n, seed=0):
    rng = random.Random(seed)
    return [
        (Rect.from_point(Point(rng.uniform(0, 1000), rng.uniform(0, 1000))), i)
        for i in range(n)
    ]


class TestBulkLoad:
    def test_empty(self):
        tree = RTree("t", IOStats(), max_leaf_entries=8, max_branch_entries=8)
        load(tree, [])
        assert len(tree) == 0
        validate_rtree(tree)

    def test_single_leaf(self):
        tree = RTree("t", IOStats(), max_leaf_entries=8, max_branch_entries=8)
        load(tree, random_items(5))
        assert tree.height == 1
        assert len(tree) == 5
        validate_rtree(tree)

    def test_multi_level(self):
        tree = RTree("t", IOStats(), max_leaf_entries=8, max_branch_entries=8)
        load(tree, random_items(500))
        assert tree.height >= 3
        validate_rtree(tree)

    def test_all_payloads_present(self):
        tree = RTree("t", IOStats(), max_leaf_entries=10, max_branch_entries=10)
        load(tree, random_items(333, seed=2))
        got = sorted(e.payload for e in tree.iter_leaf_entries())
        assert got == list(range(333))

    def test_rejects_nonempty_tree(self):
        tree = RTree("t", IOStats(), max_leaf_entries=8, max_branch_entries=8)
        tree.insert(Rect(0, 0, 1, 1), "x")
        with pytest.raises(ValueError):
            load(tree, random_items(10))

    def test_packing_matches_effective_capacity(self):
        """STR packs leaves at the configured fill factor (the paper's
        ~70 % effective capacity), and never worse than insert-building."""
        items = random_items(2000, seed=3)
        bulk_tree = RTree("b", IOStats(), max_leaf_entries=16, max_branch_entries=16)
        load(bulk_tree, items)
        insert_tree = RTree("i", IOStats(), max_leaf_entries=16, max_branch_entries=16)
        for mbr, payload in items:
            insert_tree.insert(mbr, payload)
        assert bulk_tree.num_nodes <= insert_tree.num_nodes
        leaves = [n for n in bulk_tree.iter_nodes() if n.is_leaf]
        avg = sum(len(n) for n in leaves) / len(leaves)
        assert 0.6 * 16 <= avg <= 0.8 * 16

    def test_fill_factor_controls_leaf_occupancy(self):
        items = random_items(1000, seed=4)
        tree = RTree("t", IOStats(), max_leaf_entries=20, max_branch_entries=20)
        load(tree, items, fill=0.5)
        leaves = [n for n in tree.iter_nodes() if n.is_leaf]
        # Average occupancy should be near 10 entries (= 20 * 0.5).
        avg = sum(len(n) for n in leaves) / len(leaves)
        assert 8 <= avg <= 12

    def test_insert_after_bulk_load(self):
        tree = RTree("t", IOStats(), max_leaf_entries=8, max_branch_entries=8)
        load(tree, random_items(200, seed=5))
        for i in range(50):
            tree.insert(Rect(float(i), float(i), float(i), float(i)), 1000 + i)
        assert len(tree) == 250
        validate_rtree(tree)

    def test_delete_after_bulk_load(self):
        items = random_items(200, seed=6)
        tree = RTree("t", IOStats(), max_leaf_entries=8, max_branch_entries=8)
        load(tree, items)
        for mbr, payload in items[:100]:
            assert tree.delete(mbr, payload)
        assert len(tree) == 100
        validate_rtree(tree)


class TestPausedCollector:
    """The cyclic collector is off while entries materialise, and its
    prior state comes back however the build ends."""

    @staticmethod
    def probing_tree(probe):
        """An MND tree whose leaf radii are read inside the paused build."""

        def radius_of(payload):
            probe()
            return 1.0

        return MNDTree(
            "m",
            IOStats(),
            radius_of=radius_of,
            max_leaf_entries=8,
            max_branch_entries=8,
        )

    def test_restored_after_a_build(self):
        seen = []
        assert gc.isenabled()
        load(self.probing_tree(lambda: seen.append(gc.isenabled())), random_items(200))
        assert seen and not any(seen)
        assert gc.isenabled()

    def test_restored_after_a_build_that_raises(self):
        def fail():
            raise RuntimeError("radius unavailable")

        with pytest.raises(RuntimeError):
            load(self.probing_tree(fail), random_items(200))
        assert gc.isenabled()

    def test_stays_off_when_already_off(self):
        gc.disable()
        try:
            load(self.probing_tree(lambda: None), random_items(200))
            assert not gc.isenabled()
        finally:
            gc.enable()

    def test_two_threads_building_at_once(self):
        """Both builds meet inside the pause; the collector returns only
        after the second one ends."""
        barrier = threading.Barrier(2, timeout=30)
        local = threading.local()
        seen, errors = [], []

        def probe():
            seen.append(gc.isenabled())
            if not getattr(local, "met", False):
                local.met = True
                barrier.wait()

        def build():
            try:
                load(self.probing_tree(probe), random_items(100))
            except Exception as exc:  # surfaced below
                errors.append(exc)

        threads = [threading.Thread(target=build) for __ in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert not any(thread.is_alive() for thread in threads)
        assert not errors
        assert seen and not any(seen)
        assert gc.isenabled()

    def test_many_threads_pausing_at_once(self):
        """More threads than cores, a tiny switch interval: a lost update
        to the pause count would turn the collector on inside a pause or
        leave it off after the last one."""
        enabled_inside = []

        def worker():
            for __ in range(300):
                with paused_gc():
                    if gc.isenabled():
                        enabled_inside.append(True)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker) for __ in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert not enabled_inside
        assert gc.isenabled()

    def test_nested_pauses_restore_once(self):
        with paused_gc():
            with paused_gc():
                assert not gc.isenabled()
            assert not gc.isenabled()
        assert gc.isenabled()
