"""Circles — used for nearest-facility circles (NFCs).

The NFC of a client ``c`` is the circle centred at ``c`` whose radius is
``dnn(c, F)``, the distance to ``c``'s nearest existing facility.  A
potential location ``p`` reduces the NFD of ``c`` exactly when ``p`` lies
strictly inside ``NFC(c)`` (Section V of the paper).
"""

from __future__ import annotations

import math
from typing import NamedTuple

from repro.geometry.point import Point, norm
from repro.geometry.rect import Rect


class Circle(NamedTuple):
    """A circle given by its centre and radius."""

    center: Point
    radius: float

    def mbr(self) -> Rect:
        """The (square) minimum bounding rectangle of the circle.

        The RNN-tree of the NFC method stores exactly these MBRs; because
        they are squares, the radius can be recovered as half the edge
        length and the centre as the MBR centre — the arithmetic used at
        the leaves of Algorithm 4.
        """
        cx, cy = self.center
        r = self.radius
        return Rect(cx - r, cy - r, cx + r, cy + r)

    def contains_point(self, p: Point, strict: bool = True) -> bool:
        """Whether ``p`` is inside the circle.

        ``strict`` matches the paper's ``dist(c, p) < dnn(c, F)``: a point
        exactly on the boundary yields no distance reduction and is
        excluded by default.  The distance is :func:`norm`'s, as in every
        ``IS(p)`` test.
        """
        d = norm(p[0] - self.center[0], p[1] - self.center[1])
        if strict:
            return d < self.radius
        return d <= self.radius

    def intersects_rect(self, rect: Rect) -> bool:
        """Whether the circle and rectangle share at least one point."""
        return rect.min_dist_point(self.center) <= self.radius

    def point_at_angle(self, theta: float) -> Point:
        """The boundary point at angle ``theta`` (radians, from +x axis)."""
        return Point(
            self.center[0] + self.radius * math.cos(theta),
            self.center[1] + self.radius * math.sin(theta),
        )

    def candidate_furthest_points(self) -> tuple[Point, Point, Point, Point]:
        """The four CFPs of Section VI-A: the intersections of the
        horizontal and vertical lines through the centre with the circle,
        i.e. the axis-extreme boundary points."""
        cx, cy = self.center
        r = self.radius
        return (
            Point(cx - r, cy),
            Point(cx + r, cy),
            Point(cx, cy + r),
            Point(cx, cy - r),
        )
