"""Tests for incremental dnn maintenance."""

import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geometry.point import Point
from repro.knnjoin.incremental import DnnMaintainer


def random_points(n, seed=0):
    rng = random.Random(seed)
    return [Point(rng.uniform(0, 100), rng.uniform(0, 100)) for __ in range(n)]


class TestAddFacility:
    def test_add_shrinks_only_enclosed_clients(self):
        clients = [Point(0, 0), Point(50, 50)]
        m = DnnMaintainer(clients, [Point(10, 0)])
        affected = m.add_facility(Point(49, 50))
        assert affected == 1
        assert math.isclose(m.dnn_of(1), 1.0)
        assert math.isclose(m.dnn_of(0), 10.0)  # unchanged

    def test_add_far_facility_affects_nobody(self):
        m = DnnMaintainer(random_points(20, seed=1), [Point(50, 50)])
        assert m.add_facility(Point(100000, 100000)) == 0

    def test_add_keeps_exactness(self):
        m = DnnMaintainer(random_points(50, seed=2), random_points(5, seed=3))
        for f in random_points(10, seed=4):
            m.add_facility(f)
        assert m.verify()

    def test_verify_is_bitwise(self):
        """One ulp off in one row is a disagreement."""
        m = DnnMaintainer(random_points(50, seed=2), random_points(5, seed=3))
        m._dnn[7] = np.nextafter(m._dnn[7], np.inf)
        assert not m.verify()

    def test_distances_view_is_read_only(self):
        m = DnnMaintainer(random_points(5, seed=5), [Point(0, 0)])
        with pytest.raises(ValueError):
            m.distances[0] = 0.0


class TestRemoveFacility:
    def test_remove_recomputes_served_clients(self):
        clients = [Point(0, 0)]
        m = DnnMaintainer(clients, [Point(1, 0), Point(5, 0)])
        recomputed = m.remove_facility(Point(1, 0))
        assert recomputed == 1
        assert math.isclose(m.dnn_of(0), 5.0)

    def test_remove_unserved_facility_recomputes_nothing(self):
        clients = [Point(0, 0)]
        m = DnnMaintainer(clients, [Point(1, 0), Point(50, 0)])
        assert m.remove_facility(Point(50, 0)) == 0
        assert math.isclose(m.dnn_of(0), 1.0)

    def test_remove_missing_raises(self):
        m = DnnMaintainer(random_points(3, seed=6), [Point(1, 1), Point(2, 2)])
        with pytest.raises(ValueError):
            m.remove_facility(Point(99, 99))

    def test_remove_last_facility_raises(self):
        m = DnnMaintainer(random_points(3, seed=7), [Point(1, 1)])
        with pytest.raises(ValueError):
            m.remove_facility(Point(1, 1))
        # And the maintainer is still usable afterwards.
        assert len(m.facilities) == 1

    def test_duplicate_facility_keeps_serving(self):
        clients = [Point(0, 0)]
        m = DnnMaintainer(clients, [Point(1, 0), Point(1, 0), Point(9, 0)])
        m.remove_facility(Point(1, 0))
        assert math.isclose(m.dnn_of(0), 1.0)  # the twin still serves
        assert m.verify()


class TestOpSequences:
    @settings(max_examples=30, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.booleans(),
                st.floats(min_value=0, max_value=100, allow_nan=False),
                st.floats(min_value=0, max_value=100, allow_nan=False),
            ),
            min_size=1,
            max_size=30,
        )
    )
    def test_random_sequences_stay_exact(self, op_list):
        m = DnnMaintainer(random_points(25, seed=8), [Point(50, 50), Point(10, 90)])
        added: list[Point] = []
        for is_add, x, y in op_list:
            if is_add or not added:
                f = Point(x, y)
                m.add_facility(f)
                added.append(f)
            else:
                m.remove_facility(added.pop())
        assert m.verify()

    def test_objective_is_monotone_under_additions(self):
        m = DnnMaintainer(random_points(40, seed=9), random_points(3, seed=10))
        previous = float(np.sum(m.distances))
        for f in random_points(8, seed=11):
            m.add_facility(f)
            current = float(np.sum(m.distances))
            assert current <= previous + 1e-9
            previous = current


class TestBlockedMinimum:
    def test_many_blocks_match_the_grid_join_bitwise(self, monkeypatch):
        """A closed site's stale clients are recomputed in row blocks;
        block boundaries must not change a single bit."""
        import repro.knnjoin.incremental as incremental
        from repro.knnjoin.grid import nn_join_grid

        monkeypatch.setattr(incremental, "_BLOCK_CELLS", 7)
        clients = random_points(300, seed=12)
        facilities = random_points(6, seed=13)
        hub = Point(50.0, 50.0)
        m = DnnMaintainer(clients, facilities + [hub])
        recomputed = m.remove_facility(hub)
        assert recomputed > 7  # more than one block of stale rows
        expect = np.array(nn_join_grid(clients, facilities))
        assert np.array_equal(np.asarray(m.distances), expect)
        arrival = Point(33.3, 66.6)
        assert m.add_client(arrival) == nn_join_grid([arrival], facilities)[0]
