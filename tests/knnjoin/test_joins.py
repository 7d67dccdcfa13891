"""Tests for the NN joins: the production grid join and its oracles."""

import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datasets.generators import make_instance
from repro.geometry.point import Point
from repro.knnjoin.grid import FacilityGrid, nn_join_columns, nn_join_grid
from repro.knnjoin.nested_loop import nn_join_nested_loop
from repro.knnjoin.rtree_join import nn_join_rtree


def random_points(n, seed=0, lo=0.0, hi=1000.0):
    rng = random.Random(seed)
    return [Point(rng.uniform(lo, hi), rng.uniform(lo, hi)) for __ in range(n)]


class TestAgreement:
    """The joins agree bit for bit: each computes ``sqrt(dx*dx + dy*dy)``
    (the R-tree join through its minDists), and a minimum commutes with
    the monotone square root."""

    def test_three_joins_agree(self):
        for seed in range(1, 81, 2):
            clients = random_points(300, seed=seed)
            facilities = random_points(40, seed=seed + 1)
            a = nn_join_nested_loop(clients, facilities)
            assert nn_join_grid(clients, facilities) == a
            assert nn_join_rtree(clients, facilities) == a

    def test_single_facility(self):
        clients = random_points(50, seed=3)
        f = Point(500, 500)
        expected = [c.distance_to(f) for c in clients]
        for join in (nn_join_nested_loop, nn_join_grid, nn_join_rtree):
            assert join(clients, [f]) == expected

    def test_client_on_facility_has_zero_dnn(self):
        facilities = random_points(10, seed=4)
        clients = [facilities[3]]
        for join in (nn_join_nested_loop, nn_join_grid, nn_join_rtree):
            assert join(clients, facilities)[0] == 0.0

    def test_empty_facilities_raise(self):
        clients = random_points(5, seed=5)
        for join in (nn_join_nested_loop, nn_join_grid, nn_join_rtree):
            with pytest.raises(ValueError):
                join(clients, [])

    def test_empty_clients_give_empty_result(self):
        facilities = random_points(5, seed=6)
        for join in (nn_join_nested_loop, nn_join_grid, nn_join_rtree):
            assert join([], facilities) == []

    def test_duplicate_facilities(self):
        facilities = [Point(1, 1)] * 5 + [Point(9, 9)]
        clients = [Point(0, 0), Point(10, 10)]
        assert nn_join_grid(clients, facilities) == [math.sqrt(2)] * 2

    @settings(max_examples=50, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000))
    def test_grid_matches_nested_loop_property(self, seed):
        rng = random.Random(seed)
        n_c = rng.randint(1, 40)
        n_f = rng.randint(1, 25)
        clients = random_points(n_c, seed=seed, lo=-50, hi=50)
        facilities = random_points(n_f, seed=seed + 1, lo=-50, hi=50)
        assert nn_join_grid(clients, facilities) == nn_join_nested_loop(
            clients, facilities
        )


class TestFacilityGrid:
    def test_nearest_returns_point(self):
        facilities = random_points(30, seed=7)
        grid = FacilityGrid(facilities)
        q = Point(123, 456)
        d, f = grid.nearest(q)
        assert f in facilities
        assert d == q.distance_to(f) == min(q.distance_to(p) for p in facilities)

    def test_query_far_outside_grid_bounds(self):
        facilities = random_points(20, seed=8, lo=400, hi=600)
        grid = FacilityGrid(facilities)
        q = Point(-5000, 9000)
        d, __ = grid.nearest(q)
        assert d == min(q.distance_to(p) for p in facilities)

    def test_degenerate_all_same_point(self):
        grid = FacilityGrid([Point(5, 5)] * 7)
        assert grid.nearest_distance(Point(8, 9)) == 5.0

    def test_collinear_facilities(self):
        facilities = [Point(float(i), 0.0) for i in range(10)]
        grid = FacilityGrid(facilities)
        assert grid.nearest_distance(Point(4.4, 3)) == math.hypot(0.4, 3)

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            FacilityGrid([])

    def test_len(self):
        assert len(FacilityGrid(random_points(9, seed=9))) == 9


@st.composite
def join_cases(draw):
    """Facility layouts the grid must survive, plus clients inside, on
    and far outside them, all shifted by a common offset."""
    offset = draw(st.sampled_from([0.0, 1e6, -1e6]))
    coord = st.floats(min_value=-50.0, max_value=50.0, allow_nan=False)
    layout = draw(
        st.sampled_from(["uniform", "clustered", "coincident", "line", "lattice"])
    )
    n_f = draw(st.integers(min_value=1, max_value=40))
    if layout == "uniform":
        facilities = [(draw(coord), draw(coord)) for __ in range(n_f)]
    elif layout == "clustered":
        centre = (draw(coord), draw(coord))
        jitter = st.floats(min_value=-1e-3, max_value=1e-3, allow_nan=False)
        facilities = [
            (centre[0] + draw(jitter), centre[1] + draw(jitter)) for __ in range(n_f)
        ]
    elif layout == "coincident":
        facilities = [(draw(coord), draw(coord))] * n_f
    elif layout == "line":  # a degenerate extent: the 1e-9 padding
        x = draw(coord)
        facilities = [(x, draw(coord)) for __ in range(n_f)]
    else:
        cell = st.integers(min_value=-3, max_value=3)
        facilities = [(float(draw(cell)), float(draw(cell))) for __ in range(n_f)]
    far = st.floats(min_value=-1e4, max_value=1e4, allow_nan=False)
    clients = [(draw(coord), draw(coord)) for __ in range(draw(st.integers(0, 30)))]
    clients += [(draw(far), draw(far)) for __ in range(draw(st.integers(0, 5)))]
    clients += draw(st.lists(st.sampled_from(facilities), max_size=5))
    clients += clients[: draw(st.integers(0, 3))]
    shift = [Point(x + offset, y + offset) for x, y in facilities]
    return [Point(x + offset, y + offset) for x, y in clients], shift


class TestVectorisedJoin:
    """The production join returns FacilityGrid.nearest's dnn bit for bit."""

    @settings(max_examples=150, deadline=None)
    @given(join_cases())
    def test_matches_pointwise_grid_bitwise(self, case):
        clients, facilities = case
        grid = FacilityGrid(facilities)
        expect = np.array([grid.nearest(c)[0] for c in clients], dtype=np.float64)
        c = np.array(clients, dtype=np.float64).reshape(-1, 2)
        f = np.array(facilities, dtype=np.float64)
        got = nn_join_columns(c[:, 0], c[:, 1], f[:, 0], f[:, 1])
        assert got.tobytes() == expect.tobytes()

    @pytest.mark.parametrize("distribution", ["uniform", "gaussian"])
    def test_matches_pointwise_grid_on_many_clients(self, distribution):
        inst = make_instance(20_000, 500, 1, distribution=distribution, rng=7)
        grid = FacilityGrid(inst.facilities)
        expect = np.array([grid.nearest(c)[0] for c in inst.clients])
        c = np.array(inst.clients)
        f = np.array(inst.facilities)
        got = nn_join_columns(c[:, 0], c[:, 1], f[:, 0], f[:, 1])
        assert got.tobytes() == expect.tobytes()

    def test_no_clients(self):
        none = np.empty(0)
        got = nn_join_columns(none, none, np.array([1.0]), np.array([2.0]))
        assert got.shape == (0,)

    def test_huge_coordinates_clip_before_the_cast(self):
        """A quotient far beyond int64 clamps instead of overflowing."""
        facilities = [Point(0.0, 0.0), Point(1.0, 1.0)]
        clients = [Point(1e150, -1e150), Point(-1e150, 0.5)]
        grid = FacilityGrid(facilities)
        c = np.array(clients)
        f = np.array(facilities)
        got = nn_join_columns(c[:, 0], c[:, 1], f[:, 0], f[:, 1])
        assert got.tolist() == [grid.nearest(q)[0] for q in clients]
