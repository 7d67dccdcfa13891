"""The region clock's epoch and scoped leaf invalidation under mutations.

Version-keyed caches (the service's result cache) rely on one contract:
*no* dataset mutation may leave ``region_clock.epoch`` unchanged, and
no query after a mutation may be served stale decoded leaf arrays.
Since the churn engine landed, a ``DynamicWorkspace`` mutation no
longer clears the decoded-leaf cache wholesale — the trees report
exactly the node ids they dirtied (``RTree.bind_leaf_cache``) and
everything else stays warm — so these tests pin the *observable*
contract: epochs advance, answers match a from-scratch oracle, and
untouched decodes survive.
"""

from __future__ import annotations

import pytest

from repro.core import METHODS, Workspace, make_selector
from repro.core.dynamic import DynamicWorkspace
from repro.datasets.generators import make_instance
from repro.geometry.point import Point


def fresh_ws(seed=141, n_c=400, n_f=20, n_p=30) -> DynamicWorkspace:
    return DynamicWorkspace(make_instance(n_c, n_f, n_p, rng=seed))


def warm_leaf_cache(ws) -> None:
    """Run a query so decoded leaf arrays are actually cached."""
    make_selector(ws, "MND").select()


def oracle_dr(ws, method: str) -> float:
    """The answer a from-scratch workspace gives for the same data."""
    fresh = Workspace(ws.instance, precomputed_dnn=ws.client_xyd[:, 2])
    return make_selector(fresh, method).select().dr


class TestStaticWorkspace:
    def test_starts_at_version_zero(self, small_instance):
        clock = Workspace(small_instance).region_clock
        assert (clock.epoch, clock.select_epoch, clock.evaluate_epoch) == (0, 0, 0)


class TestDynamicMutationsBump:
    def _check(self, ws, before_epoch):
        assert ws.region_clock.epoch == before_epoch + 1
        # No stale decode may survive: the post-mutation answer must
        # match a from-scratch workspace over the same (mutated) data
        # (approx: the rebuilt tree's leaf grouping can regroup the
        # floating-point partial sums in the last ulp).
        got = make_selector(ws, "MND").select().dr
        assert got == pytest.approx(oracle_dr(ws, "MND"), rel=1e-12, abs=1e-12)

    def test_add_client(self):
        ws = fresh_ws()
        warm_leaf_cache(ws)
        before = ws.region_clock.epoch
        ws.add_client(Point(123.4, 567.8))
        self._check(ws, before)

    def test_remove_client(self):
        ws = fresh_ws()
        warm_leaf_cache(ws)
        before = ws.region_clock.epoch
        ws.remove_client(ws.clients[7])
        self._check(ws, before)

    def test_add_facility(self):
        ws = fresh_ws()
        warm_leaf_cache(ws)
        before = ws.region_clock.epoch
        ws.add_facility(Point(200.0, 300.0))
        self._check(ws, before)

    def test_remove_facility(self):
        ws = fresh_ws()
        warm_leaf_cache(ws)
        before = ws.region_clock.epoch
        ws.remove_facility(ws.facilities[3])
        self._check(ws, before)

    def test_untouched_decodes_stay_warm(self):
        """Scoped invalidation: a single client arrival dirties one
        root-to-leaf path per tree, not the whole cache."""
        ws = fresh_ws()
        warm_leaf_cache(ws)
        assert len(ws.leaf_cache) > 0
        ws.add_client(Point(123.4, 567.8))
        assert len(ws.leaf_cache) > 0


class TestNoStaleLeavesServed:
    def test_results_after_mutation_reflect_the_mutation(self):
        """A query after an update must see the new data even though the
        previous query populated the decoded-leaf cache."""
        ws = fresh_ws()
        before = {m: make_selector(ws, m).select().dr for m in METHODS}
        # Drop a facility right on top of a client: dnn values change,
        # so every method's best dr must change too.
        target = Point(ws.clients[0].x, ws.clients[0].y)
        ws.add_facility(target)
        for method in METHODS:
            after = make_selector(ws, method).select().dr
            assert after != before[method] or after == 0.0
