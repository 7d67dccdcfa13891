"""Uniform-grid NN join with expanding ring search.

Facilities are hashed into a uniform grid sized so the average cell
holds a handful of points.  For each client, cells are examined in rings
of increasing Chebyshev radius around the client's cell; the search
stops once the best distance found is no larger than the closest
possible point in the next unexplored ring.  Expected O(1) facility
comparisons per client under non-adversarial distributions, which makes
building paper-scale experiments (n_c up to 10^6) practical.

:func:`nn_join_columns` is the production join: the same grid, ring
order and stop rule as :class:`FacilityGrid`, run one ring at a time
for every still-searching client at once, over facility buckets stored
as CSR columns (facilities sorted by cell, plus per-cell counts and
offsets).

**Exactness.**  Each client examines exactly the facilities
:meth:`FacilityGrid.nearest` examines: the cell formula is the same
IEEE expression (truncated toward zero, then clamped), and the stop
test ``(ring - 1) * min_cell > sqrt(best_sq)`` runs on the same
``best_sq``, because a minimum of squared distances does not depend on
the order its candidates arrive in.  Every squared distance is
``dx*dx + dy*dy`` on facility-minus-client differences, each operation
correctly rounded, so each ``dnn`` is bit-identical to the pointwise
search.
"""

from __future__ import annotations

import math
from collections import defaultdict
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from repro.geometry.point import Point
from repro.geometry.rect import Rect

#: Client-cell pairs, and client-facility pairs, one step of the
#: vectorised ring search holds at most (about 1 MiB per int64 array).
#: Bounds the join's scratch memory at any client or facility count.
_STEP_PAIRS = 1 << 17


class _GridShape(NamedTuple):
    """Cell geometry shared by the pointwise and the vectorised search."""

    x0: float
    y0: float
    cell_w: float
    cell_h: float
    side: int


def _grid_shape(bounds: Rect, n: int, cells_hint: int | None = None) -> _GridShape:
    # Pad degenerate extents so cell size is never zero.
    width = max(bounds.width, 1e-9)
    height = max(bounds.height, 1e-9)
    # Aim for ~2 points per cell.
    target_cells = cells_hint if cells_hint is not None else max(1, n // 2)
    side = max(1, int(math.sqrt(target_cells)))
    return _GridShape(bounds.xmin, bounds.ymin, width / side, height / side, side)


class FacilityGrid:
    """A uniform grid over a point set supporting exact NN queries."""

    def __init__(self, facilities: Iterable[Point], cells_hint: int | None = None):
        self._points: list[Point] = [Point(*f) for f in facilities]
        if not self._points:
            raise ValueError("FacilityGrid requires at least one facility")
        shape = _grid_shape(
            Rect.from_points(self._points), len(self._points), cells_hint
        )
        self._origin = Point(shape.x0, shape.y0)
        self._cell_w = shape.cell_w
        self._cell_h = shape.cell_h
        self._side = shape.side
        self._cells: dict[tuple[int, int], list[Point]] = defaultdict(list)
        for p in self._points:
            self._cells[self._cell_of(p)].append(p)

    def _cell_of(self, p: Point) -> tuple[int, int]:
        i = int((p[0] - self._origin[0]) / self._cell_w)
        j = int((p[1] - self._origin[1]) / self._cell_h)
        return (min(max(i, 0), self._side - 1), min(max(j, 0), self._side - 1))

    def __len__(self) -> int:
        return len(self._points)

    # ------------------------------------------------------------------
    def nearest_distance(self, q: Point) -> float:
        """Exact distance from ``q`` to the nearest facility."""
        return self.nearest(q)[0]

    def nearest(self, q: Point) -> tuple[float, Point]:
        """The nearest facility to ``q`` and its distance."""
        qi, qj = self._cell_of(q)
        best_sq = math.inf
        best: Point | None = None
        min_cell = min(self._cell_w, self._cell_h)
        max_ring = 2 * self._side
        ring = 0
        while ring <= max_ring:
            # Once a candidate is found, one more ring beyond the radius
            # guarantee suffices: any point in ring r is at least
            # (r - 1) * min_cell away.
            if best is not None and (ring - 1) * min_cell > math.sqrt(best_sq):
                break
            for i, j in self._ring_cells(qi, qj, ring):
                for p in self._cells.get((i, j), ()):
                    # Squared via multiplication, not ``** 2``: libm's
                    # pow(x, 2.0) is not correctly rounded on every
                    # platform, while the product is — this keeps the
                    # search bit-identical to the vectorised join and
                    # the incremental maintenance paths.
                    dx = p[0] - q[0]
                    dy = p[1] - q[1]
                    d_sq = dx * dx + dy * dy
                    if d_sq < best_sq:
                        best_sq = d_sq
                        best = p
            ring += 1
        assert best is not None
        return math.sqrt(best_sq), best

    def nearest_two(self, q: Point) -> list[tuple[float, Point]]:
        """The two nearest facilities to ``q`` in distance order.

        Returns a single-element list when the grid holds one point.
        Duplicate points count separately, so a client sitting between
        two co-located facilities sees both at the same distance.
        """
        qi, qj = self._cell_of(q)
        best: list[tuple[float, Point]] = []  # up to 2, sorted by d_sq
        min_cell = min(self._cell_w, self._cell_h)
        max_ring = 2 * self._side
        ring = 0
        while ring <= max_ring:
            if len(best) == 2 and (ring - 1) * min_cell > math.sqrt(best[1][0]):
                break
            for i, j in self._ring_cells(qi, qj, ring):
                for p in self._cells.get((i, j), ()):
                    dx = p[0] - q[0]
                    dy = p[1] - q[1]
                    d_sq = dx * dx + dy * dy  # mul, not ** 2 (see nearest)
                    if len(best) < 2:
                        best.append((d_sq, p))
                        best.sort(key=lambda t: t[0])
                    elif d_sq < best[1][0]:
                        best[1] = (d_sq, p)
                        best.sort(key=lambda t: t[0])
            ring += 1
        return [(math.sqrt(d_sq), p) for d_sq, p in best]

    def _ring_cells(self, ci: int, cj: int, ring: int) -> Iterable[tuple[int, int]]:
        if ring == 0:
            if 0 <= ci < self._side and 0 <= cj < self._side:
                yield (ci, cj)
            return
        lo_i, hi_i = ci - ring, ci + ring
        lo_j, hi_j = cj - ring, cj + ring
        for i in range(lo_i, hi_i + 1):
            for j in (lo_j, hi_j):
                if 0 <= i < self._side and 0 <= j < self._side:
                    yield (i, j)
        for j in range(lo_j + 1, hi_j):
            for i in (lo_i, hi_i):
                if 0 <= i < self._side and 0 <= j < self._side:
                    yield (i, j)


# ----------------------------------------------------------------------
# The vectorised join
# ----------------------------------------------------------------------
def _cell_index(
    values: np.ndarray, origin: float, size: float, side: int
) -> np.ndarray:
    """``FacilityGrid._cell_of`` on a column: the quotient is clipped
    before the cast, which is the same as truncating toward zero and
    then clamping, and cannot overflow on huge coordinates."""
    return np.clip((values - origin) / size, 0, side - 1).astype(np.int64)


def _ring_offsets(ring: int) -> tuple[np.ndarray, np.ndarray]:
    """``(di, dj)`` of the cells at Chebyshev distance ``ring``."""
    if ring == 0:
        return np.zeros(1, np.int64), np.zeros(1, np.int64)
    edge = np.arange(-ring, ring + 1)
    inner = np.arange(-ring + 1, ring)
    di = np.concatenate(
        (edge, edge, np.full(len(inner), -ring), np.full(len(inner), ring))
    )
    dj = np.concatenate(
        (np.full(len(edge), -ring), np.full(len(edge), ring), inner, inner)
    )
    return di, dj


def _pieces(ends: np.ndarray, budget: int):
    """``[lo, hi)`` row ranges whose summed weights (cumulative ``ends``)
    stay near ``budget``; a row heavier than the budget gets its own."""
    lo = 0
    while lo < len(ends):
        base = ends[lo - 1] if lo else 0
        hi = max(lo + 1, int(np.searchsorted(ends, base + budget, side="right")))
        yield lo, hi
        lo = hi


def nn_join_columns(
    cx: np.ndarray, cy: np.ndarray, fx: np.ndarray, fy: np.ndarray
) -> np.ndarray:
    """``dnn(c, F)`` for every client, from coordinate columns.

    Bit-identical to :meth:`FacilityGrid.nearest` per client (see the
    module docstring).  Coordinates must be finite.
    """
    cx = np.asarray(cx, dtype=np.float64)
    cy = np.asarray(cy, dtype=np.float64)
    fx = np.asarray(fx, dtype=np.float64)
    fy = np.asarray(fy, dtype=np.float64)
    if not len(fx):
        raise ValueError("the NN join requires at least one facility")
    # np.min/np.max may differ from Rect.from_points only in the sign of
    # a zero bound, which moves neither a cell index nor a cell size.
    shape = _grid_shape(
        Rect(float(fx.min()), float(fy.min()), float(fx.max()), float(fy.max())),
        len(fx),
    )
    side = shape.side
    # CSR buckets: facilities sorted by cell, per-cell counts and offsets.
    fi = _cell_index(fx, shape.x0, shape.cell_w, side)
    fj = _cell_index(fy, shape.y0, shape.cell_h, side)
    fcell = fi * side + fj
    order = np.argsort(fcell, kind="stable")
    bx, by = fx[order], fy[order]
    counts = np.bincount(fcell, minlength=side * side)
    offsets = np.cumsum(counts) - counts

    qi = _cell_index(cx, shape.x0, shape.cell_w, side)
    qj = _cell_index(cy, shape.y0, shape.cell_h, side)
    best = np.full(len(cx), np.inf)
    active = np.arange(len(cx))
    min_cell = min(shape.cell_w, shape.cell_h)
    for ring in range(2 * side + 1):
        if ring >= 2:
            # The stop rule, per client; an empty best (inf) never stops.
            active = active[~((ring - 1) * min_cell > np.sqrt(best[active]))]
        if not len(active):
            break
        di, dj = _ring_offsets(ring)
        block = max(1, _STEP_PAIRS // len(di))
        for lo in range(0, len(active), block):
            who = active[lo : lo + block]
            ci = qi[who, None] + di
            cj = qj[who, None] + dj
            rows, cols = np.nonzero((ci >= 0) & (ci < side) & (cj >= 0) & (cj < side))
            cells = ci[rows, cols] * side + cj[rows, cols]
            cell_counts = counts[cells]
            ends = np.cumsum(cell_counts)
            for a, b in _pieces(ends, _STEP_PAIRS):
                n = cell_counts[a:b]
                total = int(n.sum())
                if not total:
                    continue
                # One row per (client, facility) candidate pair.
                owner = np.repeat(rows[a:b], n)
                start = np.repeat(offsets[cells[a:b]] - (np.cumsum(n) - n), n)
                facility = start + np.arange(total)
                client = who[owner]
                dx = bx[facility] - cx[client]
                dy = by[facility] - cy[client]
                d_sq = dx * dx + dy * dy
                # Rows arrive grouped by owner (np.nonzero is row-major).
                first = np.flatnonzero(np.r_[True, owner[1:] != owner[:-1]])
                target = client[first]
                best[target] = np.minimum(
                    best[target], np.minimum.reduceat(d_sq, first)
                )
    return np.sqrt(best)


def point_columns(points: Iterable[Point] | np.ndarray) -> np.ndarray:
    """``(n, 2)`` float64 coordinates of a point iterable or array."""
    if not isinstance(points, np.ndarray):
        points = list(points)
    return np.asarray(points, dtype=np.float64).reshape(-1, 2)


def nn_join_grid(clients: Sequence[Point], facilities: Sequence[Point]) -> list[float]:
    """``dnn(c, F)`` for every client via the vectorised grid join."""
    c, f = point_columns(clients), point_columns(facilities)
    return nn_join_columns(c[:, 0], c[:, 1], f[:, 0], f[:, 1]).tolist()
