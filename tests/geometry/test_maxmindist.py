"""Tests for the MND computation (Theorems 2 and 3, Equation 1).

The closed-form CFP arithmetic is the paper's key technical device; it
is validated here against a dense boundary-sampling reference.
"""

import math
import struct

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geometry.circle import Circle
from repro.geometry.maxmindist import (
    max_min_dist_bruteforce,
    max_min_dist_circle_rect,
    max_min_dist_region_rect,
    max_min_dist_runs,
    mnd_of_circles,
    mnd_of_regions,
)
from repro.geometry.point import Point
from repro.geometry.rect import Rect

radii = st.floats(min_value=0.0, max_value=200.0, allow_nan=False)
coords = st.floats(min_value=0.0, max_value=1000.0, allow_nan=False)


@st.composite
def rect_with_inner_point(draw):
    """An MBR together with a point inside it (an indexed client)."""
    x1, x2 = sorted((draw(coords), draw(coords)))
    y1, y2 = sorted((draw(coords), draw(coords)))
    m = Rect(x1, y1, x2, y2)
    tx = draw(st.floats(min_value=0, max_value=1))
    ty = draw(st.floats(min_value=0, max_value=1))
    o = Point(x1 + tx * (x2 - x1), y1 + ty * (y2 - y1))
    return m, o


@st.composite
def rect_with_inner_rect(draw):
    """An MBR together with a contained child MBR."""
    x1, x2 = sorted((draw(coords), draw(coords)))
    y1, y2 = sorted((draw(coords), draw(coords)))
    m = Rect(x1, y1, x2, y2)
    fracs = sorted(draw(st.tuples(*[st.floats(0, 1)] * 2)))
    fx1, fx2 = fracs
    fy1, fy2 = sorted(draw(st.tuples(*[st.floats(0, 1)] * 2)))
    inner = Rect(
        x1 + fx1 * (x2 - x1),
        y1 + fy1 * (y2 - y1),
        x1 + fx2 * (x2 - x1),
        y1 + fy2 * (y2 - y1),
    )
    return m, inner


class TestKnownCases:
    def test_circle_fully_inside_gives_zero(self):
        m = Rect(0, 0, 100, 100)
        assert max_min_dist_circle_rect(Circle(Point(50, 50), 10), m) == 0.0

    def test_center_on_boundary_gives_radius(self):
        """Theorem 2 case (1): centre on the MBR edge -> MND = r."""
        m = Rect(0, 0, 100, 100)
        assert max_min_dist_circle_rect(Circle(Point(50, 100), 7), m) == 7.0
        assert max_min_dist_circle_rect(Circle(Point(0, 50), 3), m) == 3.0

    def test_corner_client(self):
        m = Rect(0, 0, 100, 100)
        # Circle at corner sticking out equally on two sides.
        assert max_min_dist_circle_rect(Circle(Point(0, 0), 5), m) == 5.0

    def test_protrusion_one_side(self):
        m = Rect(0, 0, 100, 100)
        # Sticks out 10 to the right only.
        v = max_min_dist_circle_rect(Circle(Point(95, 50), 15), m)
        assert v == 10.0

    def test_zero_radius(self):
        m = Rect(0, 0, 10, 10)
        assert max_min_dist_circle_rect(Circle(Point(5, 5), 0.0), m) == 0.0

    def test_degenerate_mbr(self):
        """A single-client node: MBR is a point, MND is the radius."""
        m = Rect(5, 5, 5, 5)
        assert max_min_dist_circle_rect(Circle(Point(5, 5), 4), m) == 4.0


class TestAgainstBruteForce:
    @settings(max_examples=150, deadline=None)
    @given(rect_with_inner_point(), radii)
    def test_circle_case_matches_sampling(self, m_and_o, r):
        """Theorem 2: the CFP formula equals the sampled maximum."""
        m, o = m_and_o
        exact = max_min_dist_circle_rect(Circle(o, r), m)
        sampled = max_min_dist_bruteforce(Rect.from_point(o), r, m, samples=2048)
        # Sampling lower-bounds the max and converges from below.
        assert sampled <= exact + 1e-9
        assert math.isclose(sampled, exact, abs_tol=r * 0.01 + 1e-9)

    @settings(max_examples=150, deadline=None)
    @given(rect_with_inner_rect(), radii)
    def test_region_case_matches_sampling(self, m_and_inner, r):
        """Theorem 3: same for rounded-rectangle child regions."""
        m, inner = m_and_inner
        exact = max_min_dist_region_rect(inner, r, m)
        sampled = max_min_dist_bruteforce(inner, r, m, samples=2048)
        assert sampled <= exact + 1e-9
        assert math.isclose(sampled, exact, abs_tol=r * 0.01 + 1e-9)


class TestEnclosureInvariant:
    """The semantic guarantee behind Theorem 1: every point of every
    child NFC lies within MND of the node MBR."""

    @settings(max_examples=100, deadline=None)
    @given(
        st.lists(
            st.tuples(st.floats(0, 100), st.floats(0, 100), radii),
            min_size=1,
            max_size=8,
        ),
        st.floats(min_value=0, max_value=6.283),
    )
    def test_mnd_encloses_all_circle_boundaries(self, raw, theta):
        circles = [Circle(Point(x, y), r) for x, y, r in raw]
        m = Rect.union_all([Rect.from_point(c.center) for c in circles])
        mnd = mnd_of_circles(circles, m)
        for c in circles:
            boundary_point = c.point_at_angle(theta)
            assert m.min_dist_point(boundary_point) <= mnd + 1e-9


class TestAggregation:
    def test_mnd_of_circles_is_max(self):
        m = Rect(0, 0, 100, 100)
        circles = [
            Circle(Point(50, 50), 10),     # inside -> 0
            Circle(Point(95, 50), 15),     # right overhang 10
            Circle(Point(50, 2), 20),      # bottom overhang 18
        ]
        assert mnd_of_circles(circles, m) == 18.0

    def test_mnd_of_regions_is_max(self):
        m = Rect(0, 0, 100, 100)
        regions = [
            (Rect(10, 10, 20, 20), 5.0),   # inside -> 0
            (Rect(80, 80, 100, 100), 9.0), # overhang 9 on two sides
        ]
        assert mnd_of_regions(regions, m) == 9.0

    def test_empty_lists_give_zero(self):
        m = Rect(0, 0, 1, 1)
        assert mnd_of_circles([], m) == 0.0
        assert mnd_of_regions([], m) == 0.0


class TestRunsOnColumns:
    """``max_min_dist_runs`` equals the scalar closed form, node by node."""

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.tuples(rect_with_inner_point(), radii), min_size=1, max_size=12))
    def test_matches_scalar_scan_bitwise(self, cases):
        inner = np.array([(o.x, o.y, o.x, o.y) for (__, o), __ in cases])
        m = np.array([tuple(m) for (m, __), __ in cases])
        r = np.array([radius for __, radius in cases])
        starts = np.arange(len(cases))
        got = max_min_dist_runs(inner, r, starts, m)
        for k, ((box, o), radius) in enumerate(cases):
            expect = max(0.0, max_min_dist_region_rect(Rect.from_point(o), radius, box))
            assert struct.pack("<d", got[k]) == struct.pack("<d", expect)

    def test_negative_zero_terms_give_positive_zero(self):
        """A client at x = +0.0 in a node whose x minimum is -0.0, all
        radii zero: a term is -0.0, the scalar scan keeps +0.0."""
        inner = np.array([[-0.0, 1.0, -0.0, 1.0], [0.0, 5.0, 0.0, 5.0]])
        m = np.array([[-0.0, 1.0, 3.0, 9.0]])
        got = max_min_dist_runs(inner, np.zeros(2), np.array([0]), m)
        assert math.copysign(1.0, got[0]) == 1.0 and got[0] == 0.0
