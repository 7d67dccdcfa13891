"""Tests for the Workspace."""

import math

import numpy as np
import pytest

from repro.core.workspace import Workspace
from repro.datasets.generators import SpatialInstance, make_instance
from repro.geometry.point import Point
from repro.knnjoin.nested_loop import nn_join_nested_loop
from repro.knnjoin.rtree_join import nn_join_rtree
from repro.rtree.validate import validate_rtree


class TestValidation:
    def test_no_facilities_rejected(self):
        inst = SpatialInstance("t", [Point(0, 0)], [], [Point(1, 1)])
        with pytest.raises(ValueError, match="facility"):
            Workspace(inst)

    def test_no_potentials_rejected(self):
        inst = SpatialInstance("t", [Point(0, 0)], [Point(1, 1)], [])
        with pytest.raises(ValueError, match="potential"):
            Workspace(inst)

    def test_no_clients_is_legal(self):
        """With no clients every dr is 0 — odd but well defined."""
        inst = SpatialInstance("t", [], [Point(1, 1)], [Point(2, 2)])
        ws = Workspace(inst)
        assert ws.n_c == 0


class TestNonFiniteInput:
    """NaN or infinite input is rejected where the columns are built,
    naming the set and the index."""

    @staticmethod
    def instance(clients=None, facilities=None, potentials=None, weights=None):
        return SpatialInstance(
            "t",
            clients or [Point(0, 0), Point(1, 1)],
            facilities or [Point(2, 2), Point(3, 3)],
            potentials or [Point(4, 4), Point(5, 5)],
            client_weights=weights,
        )

    def test_nan_client_coordinate(self):
        inst = self.instance(clients=[Point(0, 0), Point(math.nan, 1)])
        with pytest.raises(ValueError, match="client 1 is not finite"):
            Workspace(inst)

    def test_nan_facility_coordinate(self):
        inst = self.instance(facilities=[Point(2, math.nan), Point(3, 3)])
        with pytest.raises(ValueError, match="facility 0 is not finite"):
            Workspace(inst)

    @pytest.mark.parametrize("value", [math.inf, -math.inf])
    def test_infinite_coordinate(self, value):
        inst = self.instance(clients=[Point(0, 0), Point(1, value)])
        with pytest.raises(ValueError, match="client 1 is not finite"):
            Workspace(inst)

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_potential(self, value):
        inst = self.instance(potentials=[Point(4, 4), Point(value, 5)])
        with pytest.raises(ValueError, match="potential 1 is not finite"):
            Workspace(inst)

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_weight(self, value):
        inst = self.instance(weights=[value, 1.0])
        with pytest.raises(ValueError, match="weight of client 0 is not finite"):
            Workspace(inst)


class TestCoordinateLimit:
    """A coordinate beyond ``±2**510`` is rejected like a NaN: its
    squared distances could overflow, and one infinite ``dnn`` would
    give every potential an infinite ``dr``."""

    def test_huge_client_is_rejected(self):
        inst = make_instance(2000, 50, 40, rng=5)
        inst.clients.append(Point(1e200, 1e200))
        with pytest.raises(ValueError, match="client 2000 has a coordinate beyond"):
            Workspace(inst)

    @pytest.mark.parametrize("what", ["facility", "potential"])
    def test_huge_site_is_rejected(self, what):
        inst = make_instance(50, 5, 5, rng=5)
        points = inst.facilities if what == "facility" else inst.potentials
        points[3] = Point(1.0, -(2.0**511))
        with pytest.raises(ValueError, match=f"{what} 3 has a coordinate beyond"):
            Workspace(inst)

    def test_the_limit_itself_is_accepted(self):
        limit = 2.0**510
        inst = SpatialInstance(
            "t",
            [Point(-limit, -limit), Point(limit, limit)],
            [Point(limit, -limit)],
            [Point(-limit, limit)],
        )
        assert np.isfinite(Workspace(inst).client_xyd).all()


class TestPrecomputation:
    def test_dnn_values_are_exact(self, small_workspace):
        ws = small_workspace
        for c in ws.clients[:50]:
            expected = min(
                Point(c.x, c.y).distance_to(Point(f.x, f.y)) for f in ws.facilities
            )
            assert c.dnn == pytest.approx(expected, abs=1e-9)

    def test_arrays_mirror_records(self, small_workspace):
        ws = small_workspace
        assert ws.client_xyd.shape == (ws.n_c, 3)
        idx = 17
        c = ws.clients[idx]
        assert tuple(ws.client_xyd[idx]) == (c.x, c.y, c.dnn)

    def test_join_methods_agree(self):
        """The workspace's grid join against both oracle joins."""
        inst = make_instance(200, 15, 10, rng=1)
        dnn = Workspace(inst).client_xyd[:, 2]
        for oracle in (nn_join_nested_loop, nn_join_rtree):
            expect = oracle(inst.clients, inst.facilities)
            np.testing.assert_allclose(dnn, expect, atol=1e-9)


class TestLazyStructures:
    def test_indexes_built_on_demand_and_cached(self, small_workspace):
        ws = small_workspace
        t1 = ws.r_c
        t2 = ws.r_c
        assert t1 is t2
        assert t1.num_entries == ws.n_c

    def test_all_trees_are_valid(self, small_workspace):
        ws = small_workspace
        for tree in (ws.r_c, ws.r_f, ws.r_p, ws.rnn_tree, ws.mnd_tree):
            validate_rtree(tree)

    def test_construction_does_not_count_io(self, small_workspace):
        ws = small_workspace
        ws.reset_stats()
        __ = ws.r_c
        __ = ws.mnd_tree
        __ = ws.client_file
        assert ws.stats.total_reads == 0

    def test_block_file_shapes(self, small_workspace):
        ws = small_workspace
        assert ws.client_file.num_records == ws.n_c
        assert ws.client_file.records_per_block == 146  # 28-byte records
        assert ws.potential_file.records_per_block == 204  # 20-byte records


class TestMNDTreeIntegration:
    def test_mnd_radius_uses_dnn(self, small_workspace):
        ws = small_workspace
        tree = ws.mnd_tree
        # The root's MND can never exceed the largest client dnn.
        assert tree.root_mnd() <= max(c.dnn for c in ws.clients) + 1e-9
