"""The workspace-level decoded-leaf cache.

Replaces the per-selector ``_leaf_cache`` dicts (the MND one was never
cleared — a per-query memory leak); the cache is shared, versioned per
tree, and never changes what gets *charged*: the page read happens
before the cache is consulted.
"""

from __future__ import annotations

import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro.core import Workspace, make_selector
from repro.kernels.columnar import BranchColumns, ClientColumns, SiteColumns
from repro.obs.registry import REGISTRY
from repro.storage import DecodedLeafCache


class TestDecodedLeafCache:
    def test_decodes_once_per_leaf(self):
        cache = DecodedLeafCache()
        calls = []
        for _ in range(3):
            value = cache.get("R_C", 0, 7, lambda: calls.append(1) or "decoded")
        assert value == "decoded"
        assert len(calls) == 1
        assert cache.hits == 2 and cache.misses == 1
        assert len(cache) == 1

    def test_keys_are_per_tree_and_node(self):
        cache = DecodedLeafCache()
        assert cache.get("R_C", 0, 1, lambda: "a") == "a"
        assert cache.get("R_C", 0, 2, lambda: "b") == "b"
        assert cache.get("R_F", 0, 1, lambda: "c") == "c"
        assert len(cache) == 3

    def test_version_bump_drops_only_that_tree(self):
        cache = DecodedLeafCache()
        cache.get("R_C", 0, 1, lambda: "old")
        cache.get("R_F", 0, 1, lambda: "other")
        # Same node id, new tree version: the stale decode must not
        # survive (node ids are recycled by splits/merges).
        assert cache.get("R_C", 1, 1, lambda: "new") == "new"
        assert cache.get("R_F", 0, 1, lambda: "BUG") == "other"

    def test_invalidate_tree_and_clear(self):
        cache = DecodedLeafCache()
        cache.get("R_C", 0, 1, lambda: "a")
        cache.get("R_F", 0, 1, lambda: "b")
        cache.invalidate_tree("R_C")
        assert cache.get("R_C", 0, 1, lambda: "a2") == "a2"
        cache.clear()
        assert len(cache) == 0

    def test_concurrent_gets_return_one_value(self):
        cache = DecodedLeafCache()
        barrier = threading.Barrier(8)

        def get(i: int):
            barrier.wait()
            return cache.get("R_C", 0, 1, lambda: object())

        with ThreadPoolExecutor(max_workers=8) as pool:
            values = list(pool.map(get, range(8)))
        # A racing double-decode is benign, but every caller must see
        # the same surviving object.
        assert len({id(v) for v in values}) == 1


class TestGetMany:
    """One bulk lookup behaves as its per-id ``get`` calls would, under
    one lock round for the lookups and one for the stores."""

    IDS = [4, 1, 9, 1, 7, 4]

    @staticmethod
    def counters():
        hits = REGISTRY.counter("leafcache.hits")
        misses = REGISTRY.counter("leafcache.misses")
        return hits.value, misses.value

    @staticmethod
    def warm(cache):
        cache.get("R_C", 0, 1, lambda: "one")
        cache.get("R_C", 0, 7, lambda: "seven")

    def test_returns_and_counts_what_per_id_gets_do(self):
        bulk, single = DecodedLeafCache(), DecodedLeafCache()
        self.warm(bulk)
        self.warm(single)
        before = self.counters()
        expected = [single.get("R_C", 0, n, lambda n=n: f"node {n}") for n in self.IDS]
        mid = self.counters()
        got = bulk.get_many("R_C", 0, self.IDS, lambda n: f"node {n}")
        after = self.counters()
        assert got == expected == ["node 4", "one", "node 9", "one", "seven", "node 4"]
        assert (bulk.hits, bulk.misses) == (single.hits, single.misses) == (4, 4)
        per_id = tuple(b - a for a, b in zip(before, mid))
        assert tuple(b - a for a, b in zip(mid, after)) == per_id == (4, 2)

    def test_decodes_once_per_missing_id(self):
        cache = DecodedLeafCache()
        self.warm(cache)
        decoded = []
        got = cache.get_many("R_C", 0, self.IDS, lambda n: decoded.append(n) or n)
        assert decoded == [4, 9]
        assert got == [4, "one", 9, "one", "seven", 4]
        assert cache.get_many("R_C", 0, self.IDS, lambda n: decoded.append(n)) == got
        assert decoded == [4, 9]

    def test_version_bumps_drop_untracked_trees_only(self):
        cache = DecodedLeafCache()
        cache.track("R_Cm")
        for tree in ("R_C", "R_Cm"):
            cache.get_many(tree, 0, [1, 2], lambda n: f"old {n}")
        cache.note_dirty("R_Cm", [2])
        assert cache.get_many("R_C", 1, [1, 2], lambda n: f"new {n}") == [
            "new 1",
            "new 2",
        ]
        assert cache.get_many("R_Cm", 1, [1, 2], lambda n: f"new {n}") == [
            "old 1",
            "new 2",
        ]

    def test_racing_threads_keep_the_first_decode(self):
        cache = DecodedLeafCache()
        both_missed = threading.Barrier(2, timeout=10)

        def decode(node_id):
            both_missed.wait()  # each thread looked up before either stored
            return object()

        with ThreadPoolExecutor(max_workers=2) as pool:
            runs = list(
                pool.map(lambda __: cache.get_many("R_C", 0, [3, 5], decode), range(2))
            )
        assert [id(v) for v in runs[0]] == [id(v) for v in runs[1]]
        assert cache.get_many("R_C", 0, [3, 5], decode) == runs[0]
        assert cache.misses == 4 and cache.hits == 2


class TestScopedInvalidation:
    """Tracked trees: mutations drop exactly the dirtied decodes."""

    def test_tracked_tree_survives_version_bump(self):
        cache = DecodedLeafCache()
        cache.track("R_C")
        cache.get("R_C", 0, 1, lambda: "warm")
        # A new tree version no longer drops the whole tree wholesale —
        # the tree reports its dirty nodes itself.
        assert cache.get("R_C", 1, 1, lambda: "BUG") == "warm"

    def test_untracked_tree_keeps_wholesale_semantics(self):
        cache = DecodedLeafCache()
        cache.get("R_C", 0, 1, lambda: "old")
        assert cache.get("R_C", 1, 1, lambda: "new") == "new"

    def test_note_dirty_drops_exactly_those_nodes(self):
        cache = DecodedLeafCache()
        cache.track("R_C")
        cache.get("R_C", 0, 1, lambda: "a")
        cache.get("R_C", 0, 2, lambda: "b")
        cache.get("R_F", 0, 1, lambda: "f")
        cache.note_dirty("R_C", [1])
        assert cache.get("R_C", 1, 1, lambda: "a2") == "a2"
        assert cache.get("R_C", 1, 2, lambda: "BUG") == "b"
        assert cache.get("R_F", 0, 1, lambda: "BUG") == "f"

    def test_drop_node_covers_id_recycling(self):
        cache = DecodedLeafCache()
        cache.track("R_C")
        cache.get("R_C", 0, 3, lambda: "freed")
        cache.drop_node("R_C", 3)
        assert cache.get("R_C", 0, 3, lambda: "recycled") == "recycled"

    def test_mutations_keep_untouched_decodes_warm(self, small_instance):
        """The integration contract: a single insert into a bound tree
        must not empty the whole decoded-leaf cache."""
        from repro.core.dynamic import DynamicWorkspace

        ws = DynamicWorkspace(small_instance)
        make_selector(ws, "MND").select()
        populated = len(ws.leaf_cache)
        assert populated > 0
        ws.add_client((500.0, 500.0))
        assert len(ws.leaf_cache) > 0


class TestColumnarValues:
    """The cache serves structure-of-arrays buffers, exactly once."""

    def test_queries_populate_columnar_buffers(self, small_workspace):
        ws = small_workspace
        make_selector(ws, "MND").select()
        values = list(ws.leaf_cache._entries.values())
        assert values
        assert all(
            isinstance(v, (SiteColumns, ClientColumns, BranchColumns))
            for v in values
        )
        # Both leaf record kinds and branch entries are cached.
        assert any(isinstance(v, ClientColumns) for v in values)
        assert any(isinstance(v, BranchColumns) for v in values)

    def test_version_bump_clears_cached_arrays(self):
        cache = DecodedLeafCache()
        stale = SiteColumns.from_sites([])
        fresh = SiteColumns.from_sites([])
        cache.get("R_C", 0, 1, lambda: stale)
        assert cache.get("R_C", 1, 1, lambda: fresh) is fresh
        assert stale not in cache._entries.values()
        assert len(cache) == 1

    def test_hits_and_misses_land_in_the_obs_registry(self, small_workspace):
        ws = small_workspace
        hits = REGISTRY.counter("leafcache.hits")
        misses = REGISTRY.counter("leafcache.misses")
        h0, m0 = hits.value, misses.value
        make_selector(ws, "MND").select()
        assert misses.value - m0 == ws.leaf_cache.misses
        make_selector(ws, "MND").select()
        # A warm second query registers hits without new misses.
        assert hits.value > h0
        assert hits.value - h0 == ws.leaf_cache.hits
        assert misses.value - m0 == ws.leaf_cache.misses

    def test_metrics_survive_registry_reset(self):
        cache = DecodedLeafCache()
        REGISTRY.reset()  # zeroes counters in place; handles stay bound
        cache.get("R_C", 0, 1, lambda: SiteColumns.from_sites([]))
        cache.get("R_C", 0, 1, lambda: SiteColumns.from_sites([]))
        assert REGISTRY.counter("leafcache.misses").value >= 1
        assert REGISTRY.counter("leafcache.hits").value >= 1

    def test_eight_threads_read_exact_columns(self, small_workspace):
        """Concurrent cache readers all see one buffer with the exact
        serially-decoded contents."""
        from repro.rtree.columns import client_columns

        ws = small_workspace
        tree = ws.r_c
        node = tree.read_node(tree.root_id)
        while not node.is_leaf:
            node = tree.read_node(node.entries[0].child_id)

        (reference,) = client_columns(tree, [node.node_id], DecodedLeafCache())
        barrier = threading.Barrier(8)

        def fetch(i: int):
            barrier.wait()
            return client_columns(tree, [node.node_id], ws.leaf_cache)[0]

        with ThreadPoolExecutor(max_workers=8) as pool:
            results = list(pool.map(fetch, range(8)))
        assert len({id(r) for r in results}) == 1
        got = results[0]
        for field in ("ids", "xs", "ys", "dnn", "weights"):
            assert np.array_equal(getattr(got, field), getattr(reference, field))


class TestWorkspaceIntegration:
    def test_queries_share_the_workspace_cache(self, small_workspace):
        ws = small_workspace
        assert len(ws.leaf_cache) == 0
        first = make_selector(ws, "MND").select()
        populated = len(ws.leaf_cache)
        assert populated > 0
        hits_before = ws.leaf_cache.hits
        second = make_selector(ws, "MND").select()
        # The second query decodes nothing new yet is charged the same
        # page reads: caching decode work never changes io accounting.
        assert len(ws.leaf_cache) == populated
        assert ws.leaf_cache.hits > hits_before
        assert second.io_total == first.io_total
        assert second.dr == first.dr

    def test_selectors_keep_no_private_leaf_cache(self, small_workspace):
        for method in ("NFC", "MND"):
            selector = make_selector(small_workspace, method)
            selector.select()
            assert not hasattr(selector, "_leaf_cache")

    def test_explicit_invalidation_empties_the_cache(self, small_workspace):
        ws = small_workspace
        make_selector(ws, "MND").select()
        assert len(ws.leaf_cache) > 0
        ws.invalidate_leaf_cache()
        assert len(ws.leaf_cache) == 0

    def test_dynamic_updates_invalidate_stale_leaves(self, small_instance):
        from repro.core.dynamic import DynamicWorkspace

        ws = DynamicWorkspace(small_instance)
        baseline = make_selector(ws, "MND").select()
        ws.add_facility((500.0, 500.0))
        updated = make_selector(ws, "MND").select()
        # The new facility shrinks some dnn values; a stale cached leaf
        # would have reproduced the old answer.
        assert updated.dr <= baseline.dr
        oracle = make_selector(Workspace(ws.instance), "MND").select()
        assert updated.dr == pytest.approx(oracle.dr)
        assert updated.location.sid == oracle.location.sid
