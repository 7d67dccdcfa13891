"""Planar geometry kernel used by every other subsystem.

The module provides exactly the primitives the paper's algorithms need:

* :class:`~repro.geometry.point.Point` — 2-D points (clients, facilities,
  potential locations are all points in the Euclidean plane).
* :class:`~repro.geometry.rect.Rect` — axis-aligned rectangles, used as
  R-tree minimum bounding rectangles (MBRs) and window-query ranges.
* :class:`~repro.geometry.circle.Circle` — nearest-facility circles (NFCs).
* :class:`~repro.geometry.halfplane.HalfPlane` and
  :func:`~repro.geometry.halfplane.bisector_halfplane` — perpendicular
  bisectors used to build quasi-Voronoi cells.
* :class:`~repro.geometry.polygon.ConvexPolygon` — convex cells produced by
  half-plane clipping.
* :func:`~repro.geometry.maxmindist.max_min_dist_circle_rect` — the
  candidate-furthest-point computation of Theorems 2 and 3, the heart of
  the MND method.
"""

from repro.geometry.circle import Circle
from repro.geometry.halfplane import HalfPlane, bisector_halfplane
from repro.geometry.maxmindist import (
    max_min_dist_bruteforce,
    max_min_dist_circle_rect,
    mnd_of_circles,
    mnd_of_regions,
)
from repro.geometry.point import Point, dist, dist_sq, norm
from repro.geometry.polygon import ConvexPolygon
from repro.geometry.rect import Rect

__all__ = [
    "Circle",
    "ConvexPolygon",
    "HalfPlane",
    "Point",
    "Rect",
    "bisector_halfplane",
    "dist",
    "dist_sq",
    "max_min_dist_bruteforce",
    "max_min_dist_circle_rect",
    "mnd_of_circles",
    "mnd_of_regions",
    "norm",
]
