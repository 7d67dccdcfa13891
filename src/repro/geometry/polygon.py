"""Convex polygons via half-plane clipping (Sutherland–Hodgman).

The QVC method needs one polygon operation: start from the data-space
rectangle and clip it successively with the bisector half-planes.  The
result is always convex, so a simple Sutherland–Hodgman clip against each
half-plane suffices.

:class:`ConvexPolygon` clips one polygon on Python floats.
:func:`clip_all_columns` clips many at once, one half-plane each, with the
same operations in the same order, so its vertices are
:meth:`ConvexPolygon.clip`'s bit for bit; :func:`mbr_columns` takes
their MBRs as :meth:`Rect.from_points` does.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

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


def _clip_columns(
    xs: np.ndarray,
    ys: np.ndarray,
    counts: np.ndarray,
    a: np.ndarray,
    b: np.ndarray,
    c: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Clip polygon ``i`` by the half-plane ``a_i*x + b_i*y <= c_i``.

    Polygon ``i``'s vertices, at least one, sit in the first
    ``counts[i]`` columns of row ``i`` of ``xs``/``ys``.  Returns the
    clipped polygons in the same form, as wide as the most vertices any
    of them keeps; a count of 0 is an empty polygon.  Each row is
    :meth:`ConvexPolygon.clip` bit for bit: the violation, the scaled
    tolerance, the clamped ``t`` and the interpolation, with the same
    operations in the same order (a zero denominator, where the loop
    raises, gives ``t`` = 0 or 1).
    """
    col = np.arange(xs.shape[1])
    valid = col < counts[:, None]
    ax, by = a[:, None] * xs, b[:, None] * ys
    cc = c[:, None]
    violation = ax + by - cc
    inside = valid & (violation <= 1e-9 * (np.abs(ax) + np.abs(by) + np.abs(cc) + 1.0))
    row = np.arange(len(xs))[:, None]
    nxt = np.where(col + 1 < counts[:, None], col + 1, 0)
    cross = valid & (inside != inside[row, nxt])
    with np.errstate(divide="ignore", invalid="ignore"):
        t = violation / (violation - violation[row, nxt])
    t = np.where(t > 0.0, t, 0.0)  # max(0.0, t)
    t = np.where(t < 1.0, t, 1.0)  # min(1.0, t)
    cx = xs + t * (xs[row, nxt] - xs)
    cy = ys + t * (ys[row, nxt] - ys)
    # Vertex i emits itself if inside, then the crossing if its edge
    # crosses: place each output at its running position in the row.
    emitted = inside.astype(np.intp) + cross
    ends = np.cumsum(emitted, axis=1)
    out_counts = ends[:, -1]
    out_x = np.zeros((len(xs), out_counts.max()))
    out_y = np.zeros_like(out_x)
    r, i = np.nonzero(inside)
    at = ends[r, i] - emitted[r, i]
    out_x[r, at], out_y[r, at] = xs[r, i], ys[r, i]
    r, i = np.nonzero(cross)
    at = ends[r, i] - 1
    out_x[r, at], out_y[r, at] = cx[r, i], cy[r, i]
    return out_x, out_y, out_counts


def clip_all_columns(
    xs: np.ndarray,
    ys: np.ndarray,
    counts: np.ndarray,
    halfplanes: Sequence[tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]],
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Clip polygons by successive half-planes, as
    :meth:`ConvexPolygon.clip_all` does one polygon.

    Each item of ``halfplanes`` is ``(rows, a, b, c)``: the half-planes
    ``a*x + b*y <= c`` of the polygons ``rows``, applied in turn.  A
    polygon that is already empty is skipped, as ``clip_all`` stops at
    an empty polygon.  Returns the polygons in :func:`_clip_columns`'
    form, widened when a clip adds vertices.
    """
    xs, ys, counts = xs.copy(), ys.copy(), counts.copy()
    for rows, a, b, c in halfplanes:
        live = counts[rows] > 0
        rows = rows[live]
        if not len(rows):
            continue
        cx, cy, counts[rows] = _clip_columns(
            xs[rows], ys[rows], counts[rows], a[live], b[live], c[live]
        )
        if cx.shape[1] > xs.shape[1]:
            pad = ((0, 0), (0, cx.shape[1] - xs.shape[1]))
            xs, ys = np.pad(xs, pad), np.pad(ys, pad)
        xs[rows, : cx.shape[1]] = cx
        ys[rows, : cy.shape[1]] = cy
    return xs, ys, counts


def mbr_columns(
    xs: np.ndarray, ys: np.ndarray, counts: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Each non-empty polygon's MBR as :meth:`Rect.from_points` takes it.

    ``Rect.from_points`` keeps the first of equal extremes, which
    decides between ``-0.0`` and ``0.0``; so does this.  Rows with a
    count of 0 get meaningless values.
    """
    valid = np.arange(xs.shape[1]) < counts[:, None]

    def first(values: np.ndarray, fill: float, reduce) -> np.ndarray:
        best = reduce(np.where(valid, values, fill), axis=1)
        at = np.argmax(valid & (values == best[:, None]), axis=1)
        return values[np.arange(len(values)), at]

    return (
        first(xs, np.inf, np.min),
        first(ys, np.inf, np.min),
        first(xs, -np.inf, np.max),
        first(ys, -np.inf, np.max),
    )
