"""Axis-aligned rectangles (MBRs).

Rectangles serve three roles in the reproduction:

* minimum bounding rectangles of R-tree nodes and entries,
* window-query ranges (the ``AIR(p)`` of the QVC method),
* the data-space domain used by generators and half-plane clipping.

``Rect`` is a ``NamedTuple`` of ``(xmin, ymin, xmax, ymax)`` so it is
immutable, hashable and cheap to unpack in join loops.
"""

from __future__ import annotations

from typing import Iterable, NamedTuple

from repro.geometry.point import Point, norm


class Rect(NamedTuple):
    """A closed axis-aligned rectangle ``[xmin, xmax] x [ymin, ymax]``."""

    xmin: float
    ymin: float
    xmax: float
    ymax: float

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def from_point(cls, p: Point) -> "Rect":
        """The degenerate rectangle covering a single point."""
        return cls(p[0], p[1], p[0], p[1])

    @classmethod
    def from_points(cls, points: Iterable[Point]) -> "Rect":
        """The MBR of a non-empty collection of points."""
        it = iter(points)
        try:
            first = next(it)
        except StopIteration:
            raise ValueError("Rect.from_points requires at least one point")
        xmin = xmax = first[0]
        ymin = ymax = first[1]
        for x, y in it:
            if x < xmin:
                xmin = x
            elif x > xmax:
                xmax = x
            if y < ymin:
                ymin = y
            elif y > ymax:
                ymax = y
        return cls(xmin, ymin, xmax, ymax)

    @classmethod
    def union_all(cls, rects: Iterable["Rect"]) -> "Rect":
        """The MBR of a non-empty collection of rectangles."""
        it = iter(rects)
        try:
            xmin, ymin, xmax, ymax = next(it)
        except StopIteration:
            raise ValueError("Rect.union_all requires at least one rect")
        for r in it:
            if r[0] < xmin:
                xmin = r[0]
            if r[1] < ymin:
                ymin = r[1]
            if r[2] > xmax:
                xmax = r[2]
            if r[3] > ymax:
                ymax = r[3]
        return cls(xmin, ymin, xmax, ymax)

    # ------------------------------------------------------------------
    # Basic measures
    # ------------------------------------------------------------------
    @property
    def width(self) -> float:
        return self.xmax - self.xmin

    @property
    def height(self) -> float:
        return self.ymax - self.ymin

    @property
    def area(self) -> float:
        return self.width * self.height

    @property
    def margin(self) -> float:
        """Half-perimeter, the R*-tree ``margin`` measure."""
        return self.width + self.height

    @property
    def center(self) -> Point:
        return Point((self.xmin + self.xmax) / 2.0, (self.ymin + self.ymax) / 2.0)

    def is_valid(self) -> bool:
        """True when the rectangle is non-degenerate (xmin<=xmax, ymin<=ymax)."""
        return self.xmin <= self.xmax and self.ymin <= self.ymax

    # ------------------------------------------------------------------
    # Predicates
    # ------------------------------------------------------------------
    def contains_point(self, p: Point) -> bool:
        return self.xmin <= p[0] <= self.xmax and self.ymin <= p[1] <= self.ymax

    def contains_rect(self, other: "Rect") -> bool:
        return (
            self.xmin <= other.xmin
            and self.ymin <= other.ymin
            and self.xmax >= other.xmax
            and self.ymax >= other.ymax
        )

    def intersects(self, other: "Rect") -> bool:
        return not (
            other.xmin > self.xmax
            or other.xmax < self.xmin
            or other.ymin > self.ymax
            or other.ymax < self.ymin
        )

    # ------------------------------------------------------------------
    # Combinations
    # ------------------------------------------------------------------
    def union(self, other: "Rect") -> "Rect":
        return Rect(
            min(self.xmin, other.xmin),
            min(self.ymin, other.ymin),
            max(self.xmax, other.xmax),
            max(self.ymax, other.ymax),
        )

    def union_point(self, p: Point) -> "Rect":
        return Rect(
            min(self.xmin, p[0]),
            min(self.ymin, p[1]),
            max(self.xmax, p[0]),
            max(self.ymax, p[1]),
        )

    def intersection(self, other: "Rect") -> "Rect | None":
        """The overlapping rectangle, or ``None`` when disjoint."""
        xmin = max(self.xmin, other.xmin)
        ymin = max(self.ymin, other.ymin)
        xmax = min(self.xmax, other.xmax)
        ymax = min(self.ymax, other.ymax)
        if xmin > xmax or ymin > ymax:
            return None
        return Rect(xmin, ymin, xmax, ymax)

    def enlargement(self, other: "Rect") -> float:
        """Area increase needed to absorb ``other`` (Guttman's criterion)."""
        return self.union(other).area - self.area

    def expanded(self, delta: float) -> "Rect":
        """The rectangle grown by ``delta`` on every side (Minkowski sum
        with a square); used to express MND regions conservatively."""
        return Rect(
            self.xmin - delta, self.ymin - delta, self.xmax + delta, self.ymax + delta
        )

    # ------------------------------------------------------------------
    # Distances
    # ------------------------------------------------------------------
    def min_dist_point(self, p: Point) -> float:
        """``minDist(p, M)``: distance from a point to the rectangle.

        Zero when the point lies inside or on the boundary.
        """
        dx = 0.0
        if p[0] < self.xmin:
            dx = self.xmin - p[0]
        elif p[0] > self.xmax:
            dx = p[0] - self.xmax
        dy = 0.0
        if p[1] < self.ymin:
            dy = self.ymin - p[1]
        elif p[1] > self.ymax:
            dy = p[1] - self.ymax
        return norm(dx, dy)

    def min_dist_sq_point(self, p: Point) -> float:
        """Squared ``minDist(p, M)``; preferred in best-first NN heaps."""
        dx = 0.0
        if p[0] < self.xmin:
            dx = self.xmin - p[0]
        elif p[0] > self.xmax:
            dx = p[0] - self.xmax
        dy = 0.0
        if p[1] < self.ymin:
            dy = self.ymin - p[1]
        elif p[1] > self.ymax:
            dy = p[1] - self.ymax
        return dx * dx + dy * dy

    def min_dist_rect(self, other: "Rect") -> float:
        """``minDist(M1, M2)``: smallest distance between any two points of
        the rectangles; zero when they intersect."""
        dx = 0.0
        if other.xmax < self.xmin:
            dx = self.xmin - other.xmax
        elif other.xmin > self.xmax:
            dx = other.xmin - self.xmax
        dy = 0.0
        if other.ymax < self.ymin:
            dy = self.ymin - other.ymax
        elif other.ymin > self.ymax:
            dy = other.ymin - self.ymax
        return norm(dx, dy)

    def max_dist_point(self, p: Point) -> float:
        """``maxDist(p, M)``: distance from a point to the farthest corner."""
        dx = max(abs(p[0] - self.xmin), abs(p[0] - self.xmax))
        dy = max(abs(p[1] - self.ymin), abs(p[1] - self.ymax))
        return norm(dx, dy)

    def corners(self) -> tuple[Point, Point, Point, Point]:
        """The four corner points, counter-clockwise from the lower-left."""
        return (
            Point(self.xmin, self.ymin),
            Point(self.xmax, self.ymin),
            Point(self.xmax, self.ymax),
            Point(self.xmin, self.ymax),
        )
