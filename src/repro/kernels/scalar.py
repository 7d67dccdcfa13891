"""Scalar kernel backend: loop-per-record twin of :mod:`repro.kernels.vector`.

This backend exists to keep the vectorized fast path honest.  Every
function decodes or evaluates one record at a time — ``struct.unpack``
per record, nested Python loops per (candidate, client) pair — the way
the pre-columnar code did, and must return **bit-identical** arrays to
the vector backend.  Property tests drive both backends over random
inputs and compare exactly; the ``kernels`` bench suite re-runs whole
queries under this backend and asserts the same ``p*``, dr vectors and
I/O counts before recording a speedup.

Two exactness rules make bitwise parity achievable:

* distances call the ``np.hypot`` ufunc element-wise, never
  ``math.hypot`` (the two differ in the last ulp for about 1 in 160
  operand pairs) — except in :func:`min_dist_rects_point`, whose vector
  twin calls ``math.hypot`` too, to equal ``Rect.min_dist_point``;
* per-candidate reduction sums assemble the row of weighted clipped
  reductions first and then ``np.sum`` it, because numpy's pairwise
  summation over a contiguous row is bitwise equal to the vector
  backend's ``axis=1`` sum — a running ``+=`` accumulator would not be.

The struct formats are declared locally (matching the dtypes in
:mod:`repro.kernels.columnar` byte for byte) rather than imported from
:mod:`repro.storage.codecs`, keeping this package a dependency leaf;
the round-trip property tests pin the two layouts together.
"""

from __future__ import annotations

import math
import struct
from typing import Any

import numpy as np

from repro.kernels.columnar import BranchColumns, ClientColumns, RectColumns

_BRANCH = struct.Struct("<ddddI")
_BRANCH_MND = struct.Struct("<ddddId")

# ---------------------------------------------------------------------------
# Entry-at-a-time branch page decoding
# ---------------------------------------------------------------------------


def decode_branch_columns(
    data: bytes, count: int, with_mnd: bool = False, offset: int = 0
) -> BranchColumns:
    """Decode ``count`` branch entries one ``struct.unpack`` at a time."""
    fmt = _BRANCH_MND if with_mnd else _BRANCH
    xmin = np.empty(count, dtype=np.float64)
    ymin = np.empty(count, dtype=np.float64)
    xmax = np.empty(count, dtype=np.float64)
    ymax = np.empty(count, dtype=np.float64)
    children = np.empty(count, dtype=np.uint32)
    mnd = np.empty(count, dtype=np.float64) if with_mnd else None
    for i in range(count):
        fields = fmt.unpack_from(data, offset + i * fmt.size)
        xmin[i], ymin[i], xmax[i], ymax[i] = fields[:4]
        children[i] = fields[4]
        if with_mnd:
            mnd[i] = fields[5]
    return BranchColumns(RectColumns(xmin, ymin, xmax, ymax), children, mnd)


def circle_columns_from_rects(
    rects: RectColumns, ids: np.ndarray, weights: np.ndarray
) -> ClientColumns:
    """Reconstruct NFC circles from square MBRs, one rectangle at a time."""
    n = len(rects)
    xs = np.empty(n, dtype=np.float64)
    ys = np.empty(n, dtype=np.float64)
    radii = np.empty(n, dtype=np.float64)
    for i in range(n):
        xs[i] = (rects.xmin[i] + rects.xmax[i]) / 2.0
        ys[i] = (rects.ymin[i] + rects.ymax[i]) / 2.0
        radii[i] = (rects.xmax[i] - rects.xmin[i]) / 2.0
    return ClientColumns(ids, xs, ys, radii, weights)


# ---------------------------------------------------------------------------
# Pair-at-a-time geometry
# ---------------------------------------------------------------------------


def pairwise_distances(
    px: np.ndarray, py: np.ndarray, cx: np.ndarray, cy: np.ndarray
) -> np.ndarray:
    """``dist(p_i, c_j)`` per pair, one ``np.hypot`` call at a time."""
    out = np.empty((len(px), len(cx)), dtype=np.float64)
    for i in range(len(px)):
        x, y = px[i], py[i]
        for j in range(len(cx)):
            out[i, j] = np.hypot(x - cx[j], y - cy[j])
    return out


def accumulate_reductions(
    px: np.ndarray,
    py: np.ndarray,
    cx: np.ndarray,
    cy: np.ndarray,
    dnn: np.ndarray,
    weights: np.ndarray,
    p_offsets: np.ndarray | None = None,
    c_offsets: np.ndarray | None = None,
) -> np.ndarray:
    """Per-candidate ``dr`` contributions via nested (p, c) loops.

    With tile offsets, one tile at a time (see the vector twin)."""
    if p_offsets is None:
        return _accumulate_tile(px, py, cx, cy, dnn, weights)
    out = np.empty(len(px), dtype=np.float64)
    for t in range(len(p_offsets) - 1):
        p = slice(p_offsets[t], p_offsets[t + 1])
        c = slice(c_offsets[t], c_offsets[t + 1])
        out[p] = _accumulate_tile(px[p], py[p], cx[c], cy[c], dnn[c], weights[c])
    return out


def _accumulate_tile(
    px: np.ndarray,
    py: np.ndarray,
    cx: np.ndarray,
    cy: np.ndarray,
    dnn: np.ndarray,
    weights: np.ndarray,
) -> np.ndarray:
    n_p, n_c = len(px), len(cx)
    out = np.empty(n_p, dtype=np.float64)
    row = np.empty(n_c, dtype=np.float64)
    for i in range(n_p):
        x, y = px[i], py[i]
        for j in range(n_c):
            red = dnn[j] - np.hypot(x - cx[j], y - cy[j])
            row[j] = red * weights[j] if red > 0.0 else 0.0
        out[i] = np.sum(row)
    return out


def influence_matrix(
    px: np.ndarray,
    py: np.ndarray,
    cx: np.ndarray,
    cy: np.ndarray,
    dnn: np.ndarray,
) -> np.ndarray:
    """Boolean ``IS(p)`` membership, one comparison per (p, c) pair."""
    out = np.empty((len(px), len(cx)), dtype=bool)
    for i in range(len(px)):
        x, y = px[i], py[i]
        for j in range(len(cx)):
            out[i, j] = np.hypot(x - cx[j], y - cy[j]) < dnn[j]
    return out


def circles_contain_point(
    cx: np.ndarray, cy: np.ndarray, radii: np.ndarray, x: float, y: float
) -> np.ndarray:
    """Strict containment of ``(x, y)``, one circle at a time."""
    out = np.empty(len(cx), dtype=bool)
    for j in range(len(cx)):
        out[j] = np.hypot(x - cx[j], y - cy[j]) < radii[j]
    return out


def _gap(lo: float, hi: float, qlo: float, qhi: float) -> float:
    """One axis of ``Rect.min_dist_rect``'s comparison ladder."""
    if qhi < lo:
        return lo - qhi
    if qlo > hi:
        return qlo - hi
    return 0.0


def _combine(dx: float, dy: float) -> float:
    if dx == 0.0:
        return dy
    if dy == 0.0:
        return dx
    return np.hypot(dx, dy)


def min_dist_points_rect(xs: np.ndarray, ys: np.ndarray, rect: Any) -> np.ndarray:
    """``minDist(p_i, rect)`` one point at a time."""
    out = np.empty(len(xs), dtype=np.float64)
    for i in range(len(xs)):
        dx = _gap(rect.xmin, rect.xmax, xs[i], xs[i])
        dy = _gap(rect.ymin, rect.ymax, ys[i], ys[i])
        out[i] = _combine(dx, dy)
    return out


def max_dist_points_rect(xs: np.ndarray, ys: np.ndarray, rect: Any) -> np.ndarray:
    """``maxDist(p_i, rect)`` one point at a time."""
    out = np.empty(len(xs), dtype=np.float64)
    for i in range(len(xs)):
        dx = max(abs(xs[i] - rect.xmin), abs(xs[i] - rect.xmax))
        dy = max(abs(ys[i] - rect.ymin), abs(ys[i] - rect.ymax))
        out[i] = np.hypot(dx, dy)
    return out


def min_dist_rects_rect(rects: RectColumns, rect: Any) -> np.ndarray:
    """``minDist(rects_i, rect)`` one rectangle at a time."""
    out = np.empty(len(rects), dtype=np.float64)
    for i in range(len(rects)):
        dx = _gap(rects.xmin[i], rects.xmax[i], rect.xmin, rect.xmax)
        dy = _gap(rects.ymin[i], rects.ymax[i], rect.ymin, rect.ymax)
        out[i] = _combine(dx, dy)
    return out


def min_dist_rects_point(rects: RectColumns, x: float, y: float) -> np.ndarray:
    """``minDist((x, y), rects_i)`` one rectangle at a time, with
    ``math.hypot`` as in :meth:`Rect.min_dist_point`."""
    out = np.empty(len(rects), dtype=np.float64)
    for i in range(len(rects)):
        dx = _gap(rects.xmin[i], rects.xmax[i], x, x)
        dy = _gap(rects.ymin[i], rects.ymax[i], y, y)
        out[i] = dy if dx == 0.0 else dx if dy == 0.0 else math.hypot(dx, dy)
    return out


def pairwise_min_dist_rects(a: RectColumns, b: RectColumns) -> np.ndarray:
    """``minDist(a_i, b_j)`` one pair at a time."""
    out = np.empty((len(a), len(b)), dtype=np.float64)
    for i in range(len(a)):
        for j in range(len(b)):
            dx = _gap(a.xmin[i], a.xmax[i], b.xmin[j], b.xmax[j])
            dy = _gap(a.ymin[i], a.ymax[i], b.ymin[j], b.ymax[j])
            out[i, j] = _combine(dx, dy)
    return out


def rects_intersect_rect(rects: RectColumns, rect: Any) -> np.ndarray:
    """Closed-boundary intersection with ``rect``, one rectangle at a time."""
    out = np.empty(len(rects), dtype=bool)
    for i in range(len(rects)):
        out[i] = not (
            rects.xmin[i] > rect.xmax
            or rects.xmax[i] < rect.xmin
            or rects.ymin[i] > rect.ymax
            or rects.ymax[i] < rect.ymin
        )
    return out


def rect_intersect_matrix(a: RectColumns, b: RectColumns) -> np.ndarray:
    """Pairwise closed-boundary intersections, one pair at a time."""
    out = np.empty((len(a), len(b)), dtype=bool)
    for i in range(len(a)):
        for j in range(len(b)):
            out[i, j] = not (
                a.xmin[i] > b.xmax[j]
                or a.xmax[i] < b.xmin[j]
                or a.ymin[i] > b.ymax[j]
                or a.ymax[i] < b.ymin[j]
            )
    return out
