"""Convex polygons via half-plane clipping (Sutherland–Hodgman).

The QVC method needs one polygon operation: start from the data-space
rectangle and clip it successively with the bisector half-planes.  The
result is always convex, so a simple Sutherland–Hodgman clip against each
half-plane suffices.
"""

from __future__ import annotations

from typing import Sequence

from repro.geometry.halfplane import HalfPlane
from repro.geometry.point import Point
from repro.geometry.rect import Rect


class ConvexPolygon:
    """A convex polygon given by its vertices in order, as ``(x, y)``
    float pairs.

    May be *empty* (no vertices) after clipping with incompatible
    half-planes; degenerate polygons (segments/points) are representable
    and behave consistently for MBR computation.
    """

    __slots__ = ("vertices",)

    def __init__(self, vertices: Sequence[tuple[float, float]]):
        self.vertices: tuple[tuple[float, float], ...] = tuple(
            (x, y) for x, y in vertices
        )

    @classmethod
    def from_rect(cls, rect: Rect) -> "ConvexPolygon":
        return cls(rect.corners())

    def is_empty(self) -> bool:
        return not self.vertices

    def clip(self, hp: HalfPlane) -> "ConvexPolygon":
        """The polygon intersected with the half-plane ``hp``.

        Runs on plain float pairs with the operations, and their order,
        of ``hp.signed_violation`` per vertex, so the vertices' bits do
        not depend on the representation.
        """
        if not self.vertices:
            return self
        a, b, c = hp
        vertices = self.vertices
        violations = [a * x + b * y - c for x, y in vertices]
        # Inside-tolerance scaled to the constraint terms: vertices
        # produced by an earlier clip sit *on* the boundary with rounding
        # noise proportional to |a*x| + |b*y| + |c|, which for
        # domain-sized coordinates dwarfs any fixed absolute epsilon.
        inside = [
            v <= 1e-9 * (abs(a * x) + abs(b * y) + abs(c) + 1.0)
            for v, (x, y) in zip(violations, vertices)
        ]
        kept: list[tuple[float, float]] = []
        n = len(vertices)
        for i in range(n):
            j = (i + 1) % n
            if inside[i]:
                kept.append(vertices[i])
            if inside[i] != inside[j]:
                # The edge crosses the boundary: add the intersection
                # point, clamped to the segment so a near-parallel edge
                # cannot extrapolate to a far-away spurious vertex.
                (x0, y0), (x1, y1) = vertices[i], vertices[j]
                cur_v = violations[i]
                t = min(1.0, max(0.0, cur_v / (cur_v - violations[j])))
                kept.append((x0 + t * (x1 - x0), y0 + t * (y1 - y0)))
        return ConvexPolygon(kept)

    def clip_all(self, halfplanes: Sequence[HalfPlane]) -> "ConvexPolygon":
        poly = self
        for hp in halfplanes:
            poly = poly.clip(hp)
            if poly.is_empty():
                break
        return poly

    def mbr(self) -> Rect:
        """The MBR of the polygon; raises ``ValueError`` when empty."""
        if not self.vertices:
            raise ValueError("empty polygon has no MBR")
        return Rect.from_points(self.vertices)

    def contains_point(self, p: Point, eps: float = 1e-9) -> bool:
        """Point-in-convex-polygon test (boundary counts as inside).

        Works for vertices in either orientation by checking that the
        point is on a consistent side of every edge.
        """
        n = len(self.vertices)
        if n == 0:
            return False
        if n == 1:
            return (
                abs(p[0] - self.vertices[0][0]) <= eps
                and abs(p[1] - self.vertices[0][1]) <= eps
            )
        sign = 0
        for i in range(n):
            ax, ay = self.vertices[i]
            bx, by = self.vertices[(i + 1) % n]
            cross = (bx - ax) * (p[1] - ay) - (by - ay) * (p[0] - ax)
            if cross > eps:
                if sign < 0:
                    return False
                sign = 1
            elif cross < -eps:
                if sign > 0:
                    return False
                sign = -1
        return True

    def area(self) -> float:
        """Unsigned polygon area (shoelace formula)."""
        n = len(self.vertices)
        if n < 3:
            return 0.0
        acc = 0.0
        for i in range(n):
            ax, ay = self.vertices[i]
            bx, by = self.vertices[(i + 1) % n]
            acc += ax * by - bx * ay
        return abs(acc) / 2.0
