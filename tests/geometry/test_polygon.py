"""Tests for convex polygons and half-plane clipping."""

import math

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.geometry.halfplane import HalfPlane, bisector_halfplane
from repro.geometry.point import Point
from repro.geometry.polygon import ConvexPolygon, clip_all_columns, mbr_columns
from repro.geometry.rect import Rect
from tests.conftest import domain_points


class TestClipping:
    def test_clip_square_in_half(self):
        poly = ConvexPolygon.from_rect(Rect(0, 0, 2, 2))
        clipped = poly.clip(HalfPlane(1, 0, 1))  # x <= 1
        assert clipped.mbr() == Rect(0, 0, 1, 2)
        assert math.isclose(clipped.area(), 2.0)

    def test_clip_away_everything(self):
        poly = ConvexPolygon.from_rect(Rect(0, 0, 1, 1))
        clipped = poly.clip(HalfPlane(1, 0, -5))  # x <= -5
        assert clipped.is_empty()

    def test_clip_no_effect(self):
        poly = ConvexPolygon.from_rect(Rect(0, 0, 1, 1))
        clipped = poly.clip(HalfPlane(1, 0, 100))
        assert math.isclose(clipped.area(), 1.0)

    def test_clip_all_short_circuits_on_empty(self):
        poly = ConvexPolygon.from_rect(Rect(0, 0, 1, 1))
        out = poly.clip_all([HalfPlane(1, 0, -5), HalfPlane(0, 1, 100)])
        assert out.is_empty()

    def test_diagonal_clip_makes_triangle(self):
        poly = ConvexPolygon.from_rect(Rect(0, 0, 1, 1))
        clipped = poly.clip(HalfPlane(1, 1, 1))  # x + y <= 1
        assert math.isclose(clipped.area(), 0.5)

    def test_empty_polygon_mbr_raises(self):
        import pytest

        with pytest.raises(ValueError):
            ConvexPolygon([]).mbr()


class TestContainsPoint:
    def test_inside_outside(self):
        poly = ConvexPolygon.from_rect(Rect(0, 0, 2, 2))
        assert poly.contains_point(Point(1, 1))
        assert poly.contains_point(Point(0, 0))  # vertex
        assert not poly.contains_point(Point(3, 1))

    def test_single_point_polygon(self):
        poly = ConvexPolygon([Point(1, 1)])
        assert poly.contains_point(Point(1, 1))
        assert not poly.contains_point(Point(1.1, 1))

    def test_empty_contains_nothing(self):
        assert not ConvexPolygon([]).contains_point(Point(0, 0))


class TestQuasiVoronoiProperty:
    """The property the QVC method relies on (Section IV): clipping the
    domain by bisectors keeps exactly the region at least as close to p
    as to each clipping facility."""

    @given(domain_points(), domain_points(), domain_points(), domain_points())
    def test_cell_is_superset_of_closer_region(self, p, f1, f2, q):
        """Every in-domain point strictly closer to p than to both
        facilities must stay in the clipped cell — the containment QVC
        correctness rests on."""
        assume(f1 != p and f2 != p)
        cell = ConvexPolygon.from_rect(Rect(0, 0, 1000, 1000)).clip_all(
            [bisector_halfplane(p, f1), bisector_halfplane(p, f2)]
        )
        dp = q.distance_to(p)
        df = min(q.distance_to(f1), q.distance_to(f2))
        if dp < df - 1e-6:
            assert cell.contains_point(q, eps=1e-6)

    def test_cell_excludes_clearly_closer_to_facility(self):
        p, f = Point(100, 100), Point(900, 100)
        cell = ConvexPolygon.from_rect(Rect(0, 0, 1000, 1000)).clip_all(
            [bisector_halfplane(p, f)]
        )
        assert cell.contains_point(Point(200, 500))
        assert not cell.contains_point(Point(800, 500))

    @given(domain_points(), st.lists(domain_points(), min_size=1, max_size=4))
    def test_p_always_in_its_cell(self, p, facilities):
        halfplanes = [bisector_halfplane(p, f) for f in facilities if f != p]
        cell = ConvexPolygon.from_rect(Rect(0, 0, 1000, 1000)).clip_all(halfplanes)
        assert cell.contains_point(p, eps=1e-6)


# ---------------------------------------------------------------------------
# The column clip against ConvexPolygon, bit for bit
# ---------------------------------------------------------------------------

#: Grid values, signed zeros and domain-scale floats.
clip_coords = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5, 1000.0]),
    st.integers(-8, 8).map(float),
    st.floats(-1000.0, 1000.0, allow_nan=False, allow_infinity=False),
)


@st.composite
def start_rects(draw):
    """Data bounds, some collapsed to a segment or a point, with ±0.0."""
    x0, x1 = sorted([draw(clip_coords), draw(clip_coords)])
    y0, y1 = sorted([draw(clip_coords), draw(clip_coords)])
    shape = draw(st.sampled_from(["box", "box", "box", "segment", "point"]))
    if shape != "box":
        x1 = x0
    if shape == "point":
        y1 = y0
    return Rect(x0, y0, x1, y1)


@st.composite
def inside(draw, rect):
    """A point of the rectangle, often on its boundary."""
    fraction = st.one_of(st.sampled_from([0.0, 0.5, 1.0]), st.floats(0.0, 1.0))
    u, v = draw(fraction), draw(fraction)
    return Point(
        rect.xmin + u * (rect.xmax - rect.xmin),
        rect.ymin + v * (rect.ymax - rect.ymin),
    )


def _nudge(value: float, steps: int) -> float:
    for __ in range(abs(steps)):
        value = math.nextafter(value, math.inf if steps > 0 else -math.inf)
    return value


@st.composite
def clip_halfplanes(draw, rect):
    """Up to four half-planes, one per quadrant slot (None when empty):
    bisectors, random, near-parallel to the one before, degenerate, and
    ones that pin the cell to a line."""
    planes = []
    for __ in range(4):
        kind = draw(
            st.sampled_from(
                ["none", "bisector", "random", "parallel", "degenerate", "pin"]
            )
        )
        if kind == "none":
            planes.append(None)
        elif kind == "bisector":  # of a point in the rectangle and any other
            p = draw(inside(rect))
            f = Point(draw(clip_coords), draw(clip_coords))
            planes.append(None if p == f else bisector_halfplane(p, f))
        elif kind == "random":  # a line through the rectangle, or anywhere
            a, b = draw(clip_coords), draw(clip_coords)
            x, y = draw(inside(rect))
            c = a * x + b * y if draw(st.booleans()) else draw(clip_coords)
            planes.append(HalfPlane(a, b, c))
        elif kind == "parallel":
            base = next((hp for hp in reversed(planes) if hp), HalfPlane(1.0, 1.0, 0.0))
            steps = st.integers(-2, 2)
            planes.append(
                HalfPlane(
                    _nudge(-base.a if draw(st.booleans()) else base.a, draw(steps)),
                    _nudge(base.b, draw(steps)),
                    _nudge(base.c, draw(steps)),
                )
            )
        elif kind == "degenerate":
            planes.append(HalfPlane(0.0, 0.0, draw(clip_coords)))
        else:  # x <= v or -x <= -v, with v on the rectangle's edge
            v = draw(st.sampled_from([rect.xmin, rect.xmax]))
            sign = draw(st.sampled_from([1.0, -1.0]))
            planes.append(HalfPlane(sign, 0.0, sign * v))
    return planes


@st.composite
def clip_batches(draw):
    cells = []
    for __ in range(draw(st.integers(1, 10))):
        rect = draw(start_rects())
        cells.append((rect, draw(clip_halfplanes(rect))))
    return cells


def _hex(values) -> list[str]:
    return [float(v).hex() for v in values]


def clip_cells(cells):
    """Each cell's rectangle clipped by its non-None half-planes in slot
    order, as columns: ``(xs, ys, counts, mbr bounds)``."""
    corners = [rect.corners() for rect, __ in cells]
    halfplanes = []
    for q in range(4):
        rows = [i for i, (__, planes) in enumerate(cells) if planes[q]]
        coefficients = np.array([cells[i][1][q] for i in rows]).reshape(-1, 3)
        halfplanes.append((np.array(rows, dtype=np.intp), *coefficients.T))
    with np.errstate(all="ignore"):
        xs, ys, counts = clip_all_columns(
            np.array([[c[0] for c in cs] for cs in corners]),
            np.array([[c[1] for c in cs] for cs in corners]),
            np.full(len(cells), 4, dtype=np.intp),
            halfplanes,
        )
        return xs, ys, counts, mbr_columns(xs, ys, counts)


def assert_cell_matches(cells, i, xs, ys, counts, bounds):
    rect, planes = cells[i]
    poly = ConvexPolygon.from_rect(rect).clip_all([hp for hp in planes if hp])
    k = int(counts[i])
    assert k == len(poly.vertices), i
    assert _hex(xs[i, :k]) == _hex(v[0] for v in poly.vertices), i
    assert _hex(ys[i, :k]) == _hex(v[1] for v in poly.vertices), i
    if k:
        assert _hex(b[i] for b in bounds) == _hex(poly.mbr()), i


class TestClipColumns:
    @settings(max_examples=300, deadline=None)
    @given(clip_batches())
    def test_matches_convex_polygon_bit_for_bit(self, cells):
        """``clip_all_columns`` and ``mbr_columns`` give each cell the
        vertices and MBR of ``ConvexPolygon.clip_all`` and ``mbr``.  A
        cell whose loop clip divides by zero (the loop raises) is left
        out of the comparison."""
        columns = clip_cells(cells)
        for i in range(len(cells)):
            try:
                assert_cell_matches(cells, i, *columns)
            except ZeroDivisionError:
                continue

    def test_a_cell_collapses_to_a_point_then_empties(self):
        """``x + y <= 0`` leaves the square's corner, and ``x + y >= 1``
        then empties it; the emptied cell skips the last clip."""
        square = Rect(0.0, 0.0, 2.0, 2.0)
        corner = HalfPlane(1.0, 1.0, 0.0)
        beyond = HalfPlane(-1.0, -1.0, -1.0)
        cells = [
            (square, [corner, None, None, None]),
            (square, [corner, beyond, None, HalfPlane(1.0, 0.0, 5.0)]),
        ]
        columns = clip_cells(cells)
        for i in range(len(cells)):
            assert_cell_matches(cells, i, *columns)
        assert columns[2].tolist()[1] == 0
        assert columns[2].tolist()[0] >= 1

    def test_signed_zero_extremes_keep_the_first(self):
        """``Rect.from_points`` keeps the first of equal extremes."""
        xs = np.array([[0.0, -0.0, 1.0], [-0.0, 0.0, -1.0]])
        ys = np.array([[-0.0, 0.0, -0.0], [0.0, -0.0, 0.0]])
        got = mbr_columns(xs, ys, np.array([3, 3]))
        for i in range(2):
            want = Rect.from_points(list(zip(xs[i], ys[i])))
            assert _hex(b[i] for b in got) == _hex(want)
