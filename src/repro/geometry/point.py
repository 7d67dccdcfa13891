"""Points and distance helpers.

All data objects in the paper (clients, facilities, potential locations)
are points in the Euclidean plane, and the optimisation function is built
from pairwise L2 distances.  ``Point`` is a ``NamedTuple`` so instances are
plain tuples: hot loops can unpack them without attribute-access overhead
and they hash/compare structurally.
"""

from __future__ import annotations

import math
from typing import NamedTuple

#: The largest coordinate magnitude an instance or an update may hold.
#: Within it a coordinate difference is at most ``2**511``, its square at
#: most ``2**1022`` and the sum of two squares at most ``2**1023``, so
#: every :func:`norm` (and :func:`repro.kernels.norms`) stays finite.
#: Beyond it a ``dnn`` could overflow to ``inf``, and an infinite ``dnn``
#: would give every potential an infinite ``dr``.
COORD_LIMIT = 2.0**510


def norm(dx: float, dy: float) -> float:
    """``sqrt(dx*dx + dy*dy)``: the one distance formula, on Python floats.

    Two multiplies, one add and one square root, each correctly
    rounded, so it gives the bits of :func:`repro.kernels.norms`.
    """
    return math.sqrt(dx * dx + dy * dy)


class Point(NamedTuple):
    """A point in the 2-D Euclidean plane."""

    x: float
    y: float

    def distance_to(self, other: "Point") -> float:
        """Euclidean (L2) distance to ``other``."""
        return norm(self.x - other.x, self.y - other.y)

    def distance_sq_to(self, other: "Point") -> float:
        """Squared Euclidean distance to ``other`` (avoids the sqrt)."""
        dx = self.x - other.x
        dy = self.y - other.y
        return dx * dx + dy * dy

    def translated(self, dx: float, dy: float) -> "Point":
        """A copy of this point moved by ``(dx, dy)``."""
        return Point(self.x + dx, self.y + dy)

    def quadrant_relative_to(self, origin: "Point") -> int:
        """Quadrant (0..3) of this point in a frame centred at ``origin``.

        Quadrants follow the usual counter-clockwise convention with axes
        parallel to the original axes, exactly as in the QVC construction
        (Section IV of the paper).  Points on a positive axis belong to the
        lower-numbered adjacent quadrant; the origin itself maps to 0.
        """
        right = self.x >= origin.x
        top = self.y >= origin.y
        if right and top:
            return 0
        if not right and top:
            return 1
        if not right and not top:
            return 2
        return 3


def dist(a: Point, b: Point) -> float:
    """Euclidean distance between two points (free-function form)."""
    return norm(a[0] - b[0], a[1] - b[1])


def dist_sq(a: Point, b: Point) -> float:
    """Squared Euclidean distance between two points."""
    dx = a[0] - b[0]
    dy = a[1] - b[1]
    return dx * dx + dy * dy
