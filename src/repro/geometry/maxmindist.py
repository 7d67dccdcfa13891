"""Maximum NFC distance (MND) computation — Section VI-A of the paper.

The MND of an R-tree node ``N`` is the largest ``minDist`` from the node's
MBR to any point on the boundary of an NFC (leaf node) or of a child's MND
region (non-leaf node).  Computing it literally would require maximising a
piecewise function; Theorems 2 and 3 reduce it to checking four *candidate
furthest points* (CFPs) per child, which collapses to the closed-form
arithmetic implemented here.

Every region handled by the MND method has the same shape: a *rounded
rectangle* obtained by expanding an inner rectangle ``B`` by a radius
``r`` (for a client's NFC the inner rectangle is the degenerate rectangle
at the client; for a child node's MND region it is the child's MBR and
``r`` is the child's MND).  The functions below therefore take ``(B, r)``
pairs; :func:`max_min_dist_runs` evaluates the same closed form on
columns, one node per run of rows, for bulk loading.

All formulas assume the inner rectangle is contained in the enclosing MBR
``M`` — which always holds inside an R-tree, where a node's MBR covers its
children.  Results are clamped at zero: a region entirely inside ``M``
contributes nothing.
"""

from __future__ import annotations

import math

import numpy as np

from repro.geometry.circle import Circle
from repro.geometry.point import Point
from repro.geometry.rect import Rect


def max_min_dist_region_rect(inner: Rect, radius: float, m: Rect) -> float:
    """``maxMinDist`` from the rounded rectangle ``(inner, radius)`` to ``M``.

    This is Equation (1) of the paper generalised to both the leaf case
    (``inner`` degenerate at a client, ``radius = dnn(c, F)``) and the
    non-leaf case (``inner`` a child MBR, ``radius`` the child's MND).
    Requires ``inner ⊆ m``; the result is the largest distance from a
    boundary point of the region to ``m``, or 0 when the region lies
    entirely inside ``m``.
    """
    return max(
        0.0,
        m.xmin - (inner.xmin - radius),
        (inner.xmax + radius) - m.xmax,
        m.ymin - (inner.ymin - radius),
        (inner.ymax + radius) - m.ymax,
    )


def max_min_dist_runs(
    inner: np.ndarray, radii: np.ndarray, starts: np.ndarray, m: np.ndarray
) -> np.ndarray:
    """The MND of each run of rounded rectangles against its node MBR.

    Rows ``starts[k]:starts[k + 1]`` of the ``(n, 4)`` ``inner`` column
    array (with ``radii``) are the children of a node whose MBR is row
    ``k`` of ``m``.  Each child's four terms are the elementwise
    expressions of :func:`max_min_dist_region_rect`, so every term is
    bit-identical; a maximum is exact, and ``max(0.0, ...)`` with a
    strict ``>`` scan yields ``+0.0`` whenever no term is positive.
    """
    counts = np.diff(np.append(starts, len(inner)))

    def node(k: int) -> np.ndarray:
        return np.repeat(m[:, k], counts)

    value = np.maximum(node(0) - (inner[:, 0] - radii), (inner[:, 2] + radii) - node(2))
    value = np.maximum(value, node(1) - (inner[:, 1] - radii))
    value = np.maximum(value, (inner[:, 3] + radii) - node(3))
    best = np.maximum.reduceat(value, starts)
    return np.where(best > 0.0, best, 0.0)


def max_min_dist_circle_rect(circle: Circle, m: Rect) -> float:
    """``maxMinDist`` from a circle's boundary to ``M`` (Theorem 2 case).

    The circle's centre must lie inside ``m``.
    """
    return max_min_dist_region_rect(Rect.from_point(circle.center), circle.radius, m)


def mnd_of_circles(circles: list[Circle], m: Rect) -> float:
    """MND of a leaf node: the max ``maxMinDist`` over its clients' NFCs."""
    best = 0.0
    for circle in circles:
        value = max_min_dist_circle_rect(circle, m)
        if value > best:
            best = value
    return best


def mnd_of_regions(regions: list[tuple[Rect, float]], m: Rect) -> float:
    """MND of a non-leaf node from its children's ``(MBR, MND)`` pairs."""
    best = 0.0
    for inner, radius in regions:
        value = max_min_dist_region_rect(inner, radius, m)
        if value > best:
            best = value
    return best


def max_min_dist_bruteforce(
    inner: Rect, radius: float, m: Rect, samples: int = 4096
) -> float:
    """Reference implementation that samples the region boundary densely.

    Used only by the test-suite to validate the closed-form computation:
    the boundary of the rounded rectangle ``(inner, radius)`` is traced
    (four straight edges plus four quarter arcs) and the largest sampled
    ``minDist`` to ``m`` is returned.  This is a lower bound converging to
    the true maximum as ``samples`` grows.
    """
    boundary: list[Point] = []
    # Four straight edges, offset outward from the inner rectangle.
    n_edge = max(2, samples // 8)
    for i in range(n_edge + 1):
        t = i / n_edge
        x = inner.xmin + t * (inner.xmax - inner.xmin)
        boundary.append(Point(x, inner.ymax + radius))
        boundary.append(Point(x, inner.ymin - radius))
        y = inner.ymin + t * (inner.ymax - inner.ymin)
        boundary.append(Point(inner.xmax + radius, y))
        boundary.append(Point(inner.xmin - radius, y))
    # Four quarter arcs around the corners.
    corner_centers = inner.corners()
    start_angles = (math.pi, 1.5 * math.pi, 0.0, 0.5 * math.pi)
    n_arc = max(2, samples // 8)
    for (cx, cy), start in zip(corner_centers, start_angles):
        for i in range(n_arc + 1):
            theta = start + (i / n_arc) * (math.pi / 2.0)
            boundary.append(
                Point(cx + radius * math.cos(theta), cy + radius * math.sin(theta))
            )
    return max(m.min_dist_point(p) for p in boundary)
