"""The central correctness suite: all four methods must agree with the
brute-force oracle on the full distance-reduction vector, across data
distributions and degenerate inputs.
"""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import METHODS, Workspace, make_selector
from repro.core import naive
from repro.core.diskmode import DiskWorkspace, persist_indexes
from repro.datasets.generators import SpatialInstance, make_instance
from repro.geometry.point import Point
from repro.geometry.rect import Rect

ALL_METHODS = sorted(METHODS)


def assert_all_methods_match_oracle(ws: Workspace):
    oracle = naive.distance_reductions(ws)
    for name in ALL_METHODS:
        selector = make_selector(ws, name)
        result = selector.select()
        vec = selector.distance_reductions()
        # Every method sums each potential's terms exactly and tests
        # d < dnn with one distance formula: the same vector, bit for bit.
        assert np.array_equal(vec, oracle), name
        assert result.dr == vec.max(), name
        # The reported location must realise the optimum.
        assert vec[result.location.sid] == result.dr, name


class TestDistributions:
    @pytest.mark.parametrize("distribution", ["uniform", "gaussian", "zipfian"])
    def test_all_methods_match_oracle(self, distribution):
        inst = make_instance(600, 30, 50, distribution=distribution, rng=5)
        assert_all_methods_match_oracle(Workspace(inst))

    def test_clustered_real_substitute(self):
        from repro.datasets.real import real_instance

        inst = real_instance("US", rng=6, scale=0.03)
        assert_all_methods_match_oracle(Workspace(inst))

    def test_insert_built_indexes_give_same_answers(self):
        inst = make_instance(400, 20, 30, rng=7)
        assert_all_methods_match_oracle(Workspace(inst, use_bulk_load=False))

    def test_small_page_size_deep_trees(self):
        """A 256-byte page forces tall trees, stressing every traversal
        branch of the join algorithms."""
        inst = make_instance(500, 25, 40, rng=8)
        assert_all_methods_match_oracle(Workspace(inst, page_size=256))


class TestPaperExample:
    def test_fig1_answer_is_p2(self, tiny_instance):
        """Fig. 1 of the paper: p2 wins because it reduces more distance."""
        ws = Workspace(tiny_instance)
        for name in ALL_METHODS:
            result = make_selector(ws, name).select()
            assert result.location.sid == 1  # p2 (0-indexed id 1)

    def test_fig1_influence_sets(self, tiny_instance):
        ws = Workspace(tiny_instance)
        p1, p2 = ws.potentials
        is_p1 = naive.influence_set(ws, p1)
        is_p2 = naive.influence_set(ws, p2)
        # p1 influences the three western clients near f1; p2 pulls the
        # eastern clients near f2.
        assert len(is_p1) >= 1 and len(is_p2) >= 1
        assert set(is_p1).isdisjoint(is_p2)


class TestDegenerateInputs:
    def test_single_client_single_potential(self):
        inst = SpatialInstance("t", [Point(0, 0)], [Point(10, 0)], [Point(1, 0)])
        ws = Workspace(inst)
        assert_all_methods_match_oracle(ws)
        result = make_selector(ws, "MND").select()
        assert result.dr == pytest.approx(9.0)

    def test_potential_coincides_with_facility(self):
        """A candidate on top of an existing facility reduces nothing."""
        inst = SpatialInstance(
            "t",
            [Point(0, 0), Point(5, 5)],
            [Point(2, 2)],
            [Point(2, 2), Point(0, 1)],
        )
        ws = Workspace(inst)
        assert_all_methods_match_oracle(ws)
        for name in ALL_METHODS:
            vec = make_selector(ws, name).distance_reductions()
            assert vec[0] == 0.0

    def test_potential_coincides_with_client(self):
        inst = SpatialInstance("t", [Point(3, 3)], [Point(10, 10)], [Point(3, 3)])
        ws = Workspace(inst)
        assert_all_methods_match_oracle(ws)
        vec = make_selector(ws, "NFC").distance_reductions()
        assert vec[0] == pytest.approx(Point(3, 3).distance_to(Point(10, 10)))

    def test_all_candidates_useless(self):
        """Facilities already blanket the clients: every dr is 0 and the
        methods still return a deterministic answer."""
        clients = [Point(float(i), 0) for i in range(5)]
        inst = SpatialInstance(
            "t", clients, list(clients), [Point(100, 100), Point(200, 200)]
        )
        ws = Workspace(inst)
        for name in ALL_METHODS:
            result = make_selector(ws, name).select()
            assert result.dr == 0.0
            assert result.location.sid == 0  # smallest-id tie-break

    def test_duplicate_clients_count_multiply(self):
        inst = SpatialInstance("t", [Point(0, 0)] * 4, [Point(10, 0)], [Point(0, 1)])
        ws = Workspace(inst)
        assert_all_methods_match_oracle(ws)
        vec = make_selector(ws, "MND").distance_reductions()
        assert vec[0] == pytest.approx(4 * 9.0)

    def test_duplicate_potentials_tie_to_smallest_id(self):
        inst = SpatialInstance("t", [Point(0, 0)], [Point(10, 0)], [Point(1, 0)] * 3)
        ws = Workspace(inst)
        for name in ALL_METHODS:
            assert make_selector(ws, name).select().location.sid == 0


class TestPotentialsOnFacilities:
    """Every potential sits on a facility, so every ``IS(p)`` is empty:
    ``dist(c, p)`` is then ``dist(c, f)`` for a facility ``f``, bit for
    bit, and never below ``dnn(c, F)``."""

    def test_every_method_gives_zero_everywhere(self, tmp_path):
        inst = make_instance(2000, 50, 10, rng=1)
        ws = Workspace(replace(inst, potentials=list(inst.facilities)))
        assert not naive.distance_reductions(ws).any()
        with DiskWorkspace(persist_indexes(ws, tmp_path)) as disk:
            for served in (ws, disk):
                for name in ALL_METHODS:
                    selector = make_selector(served, name)
                    result = selector.select()
                    assert not selector.distance_reductions().any(), name
                    assert (result.location.sid, result.dr) == (0, 0.0), name


class TestCoordinateLimit:
    @pytest.mark.parametrize("exponent", [480, 500, 510])
    def test_methods_match_the_oracle_at_the_limit(self, exponent):
        """An instance scaled to ``±2**exponent``: no squared distance
        overflows up to the workspace's coordinate limit, ``2**510``."""
        scale = 2.0**exponent

        def scaled(points):
            return [
                Point((p.x / 500.0 - 1.0) * scale, (p.y / 500.0 - 1.0) * scale)
                for p in points
            ]

        inst = make_instance(600, 20, 40, rng=5)
        ws = Workspace(
            SpatialInstance(
                "scaled",
                scaled(inst.clients),
                scaled(inst.facilities),
                scaled(inst.potentials),
                domain=Rect(-scale, -scale, scale, scale),
            )
        )
        assert np.isfinite(ws.client_xyd).all()
        oracle = naive.distance_reductions(ws)
        assert np.isfinite(oracle).all() and oracle.any()
        assert_all_methods_match_oracle(ws)


class TestPropertyRandomInstances:
    @settings(max_examples=25, deadline=None)
    @given(
        st.integers(min_value=1, max_value=60),
        st.integers(min_value=1, max_value=12),
        st.integers(min_value=1, max_value=15),
        st.integers(min_value=0, max_value=10_000),
    )
    def test_methods_agree_on_random_instances(self, n_c, n_f, n_p, seed):
        inst = make_instance(n_c, n_f, n_p, rng=seed)
        ws = Workspace(inst)
        oracle = naive.distance_reductions(ws)
        for name in ALL_METHODS:
            vec = make_selector(ws, name).distance_reductions()
            assert np.array_equal(vec, oracle), name
