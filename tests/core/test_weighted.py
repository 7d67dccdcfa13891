"""Tests for the weighted-clients extension."""

import numpy as np
import pytest

from repro.core import METHODS, Workspace, make_selector
from repro.core import naive
from repro.core.evaluate import evaluate_location
from repro.datasets.generators import SpatialInstance, make_instance
from repro.geometry.point import Point


def weighted_ws(seed=161, n_c=500, n_f=25, n_p=40) -> Workspace:
    import random

    rng = random.Random(seed)
    inst = make_instance(n_c, n_f, n_p, rng=seed)
    inst.client_weights = [rng.uniform(0.0, 5.0) for __ in range(n_c)]
    return Workspace(inst)


def brute_force_weighted(ws) -> np.ndarray:
    out = np.zeros(ws.n_p)
    for i, p in enumerate(ws.potentials):
        for c in ws.clients:
            d = Point(c.x, c.y).distance_to(Point(p.x, p.y))
            if d < c.dnn:
                out[i] += c.weight * (c.dnn - d)
    return out


class TestWeightedQuery:
    def test_all_methods_match_weighted_oracle(self):
        ws = weighted_ws()
        oracle = brute_force_weighted(ws)
        np.testing.assert_allclose(naive.distance_reductions(ws), oracle, atol=1e-6)
        for name in METHODS:
            vec = make_selector(ws, name).distance_reductions()
            np.testing.assert_allclose(vec, oracle, atol=1e-6, err_msg=name)

    def test_evaluate_reports_the_selects_dr(self):
        """``evaluate``'s dr is the weighted sum over IS(p), correctly
        rounded: every method's ``dr[p]`` bit for bit."""
        ws = weighted_ws()
        reported = np.array([evaluate_location(ws, p).dr for p in range(ws.n_p)])
        assert np.array_equal(reported, naive.distance_reductions(ws))
        for name in METHODS:
            vec = make_selector(ws, name).distance_reductions()
            assert np.array_equal(vec, reported), name

    def test_unweighted_defaults_to_one(self):
        inst = make_instance(200, 10, 15, rng=162)
        ws = Workspace(inst)
        assert all(c.weight == 1.0 for c in ws.clients)

    def test_double_weight_doubles_contribution(self):
        base = SpatialInstance("w1", [Point(0, 0)], [Point(10, 0)], [Point(1, 0)])
        doubled = SpatialInstance(
            "w2",
            [Point(0, 0)],
            [Point(10, 0)],
            [Point(1, 0)],
            client_weights=[2.0],
        )
        dr1 = make_selector(Workspace(base), "MND").select().dr
        dr2 = make_selector(Workspace(doubled), "MND").select().dr
        assert dr2 == pytest.approx(2 * dr1)

    def test_zero_weight_client_is_ignored(self):
        inst = SpatialInstance(
            "w0",
            [Point(0, 0), Point(100, 100)],
            [Point(10, 0), Point(110, 100)],
            [Point(1, 0), Point(101, 100)],
            client_weights=[0.0, 1.0],
        )
        ws = Workspace(inst)
        for name in METHODS:
            vec = make_selector(ws, name).distance_reductions()
            assert vec[0] == pytest.approx(0.0, abs=1e-9)
            assert vec[1] > 0

    def test_weights_change_the_winner(self):
        """Two symmetric clusters: weighting one side flips the answer."""
        west_clients = [Point(100, 500), Point(110, 500)]
        east_clients = [Point(900, 500), Point(890, 500)]
        inst = SpatialInstance(
            "flip",
            west_clients + east_clients,
            [Point(500, 500)],
            [Point(105, 500), Point(895, 500)],
            client_weights=[1.0, 1.0, 10.0, 10.0],
        )
        result = make_selector(Workspace(inst), "MND").select()
        assert result.location.sid == 1  # the east candidate wins

    def test_misaligned_weights_rejected(self):
        with pytest.raises(ValueError, match="align"):
            SpatialInstance(
                "bad",
                [Point(0, 0)],
                [Point(1, 1)],
                [Point(2, 2)],
                client_weights=[1.0, 2.0],
            )

    def test_negative_weights_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            SpatialInstance(
                "bad",
                [Point(0, 0)],
                [Point(1, 1)],
                [Point(2, 2)],
                client_weights=[-1.0],
            )

    def test_topk_respects_weights(self):
        ws = weighted_ws(seed=163)
        oracle = brute_force_weighted(ws)
        order = np.lexsort((np.arange(len(oracle)), -oracle))
        top3 = make_selector(ws, "NFC").select_topk(3)
        assert [s.sid for s, __ in top3] == [int(i) for i in order[:3]]


class TestWeightedDynamics:
    def test_weighted_client_arrival(self):
        from repro.core.continuous import ContinuousSelection
        from repro.core.dynamic import DynamicWorkspace

        cs = ContinuousSelection(DynamicWorkspace(make_instance(150, 8, 20, rng=164)))
        heavy = cs.add_client(Point(500, 500), weight=25.0)
        assert heavy.weight == 25.0
        assert cs.verify()

    def test_negative_weight_rejected(self):
        from repro.core.dynamic import DynamicWorkspace

        ws = DynamicWorkspace(make_instance(20, 2, 3, rng=165))
        with pytest.raises(ValueError):
            ws.add_client(Point(1, 1), weight=-2.0)

    def test_select_location_weights_param(self):
        from repro.core import select_location

        result = select_location(
            [(0, 0), (100, 0)],
            [(10, 0), (110, 0)],
            [(1, 0), (101, 0)],
            client_weights=[1.0, 50.0],
        )
        assert result.location.sid == 1  # the heavy client's candidate
