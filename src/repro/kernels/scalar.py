"""Reference kernels: the loop-per-record twin of :mod:`repro.kernels.vector`.

This module is the oracle that keeps the vectorized kernels honest;
no query runs on it outside :func:`installed`.  Every function decodes
or evaluates one record at a time — ``struct.unpack`` per record,
nested Python loops per (candidate, client) pair — the way the
pre-columnar code did, and must return **bit-identical** arrays to its
vector twin.  Property tests drive both over random inputs and compare
exactly; the parity tests and the ``kernels`` bench suite re-run whole
queries inside :func:`installed` and assert the same ``p*``, dr vectors
and I/O counts.

Two exactness rules make bitwise parity achievable:

* every distance is ``math.sqrt(dx * dx + dy * dy)`` on one pair, the
  arithmetic of the vector twin's ``norms``: each operation is
  correctly rounded, so the loop and the arrays give the same bits;
* :func:`accumulate_reductions` emits the same ``(row, term)`` pairs as
  its twin, in pair order, and both sets share one sum,
  :func:`repro.kernels.exact.exact_sums`, which depends on the terms
  alone.

The struct formats are declared locally (matching the dtypes in
:mod:`repro.kernels.columnar` byte for byte) rather than imported from
:mod:`repro.storage.codecs`, keeping this package a dependency leaf;
the round-trip property tests pin the two layouts together.
"""

from __future__ import annotations

import math
import struct
from contextlib import contextmanager
from typing import Any, Iterator

import numpy as np

from repro import kernels
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


def accumulate_reductions(
    px: np.ndarray,
    py: np.ndarray,
    cx: np.ndarray,
    cy: np.ndarray,
    dnn: np.ndarray,
    weights: np.ndarray,
    p_offsets: np.ndarray | None = None,
    c_offsets: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """The ``dr`` terms, one (candidate, client) pair at a time.

    Candidate ``i`` meets every client, or with tile offsets every
    client of its own tile (see the vector twin); each pair with
    ``d < dnn`` emits its row and term."""
    if p_offsets is None:
        p_offsets, c_offsets = [0, len(px)], [0, len(cx)]
    rows: list[int] = []
    terms: list[float] = []
    for t in range(len(p_offsets) - 1):
        for i in range(p_offsets[t], p_offsets[t + 1]):
            for j in range(c_offsets[t], c_offsets[t + 1]):
                d = _norm(px[i] - cx[j], py[i] - cy[j])
                if d < dnn[j]:
                    rows.append(i)
                    terms.append((dnn[j] - d) * weights[j])
    return np.array(rows, dtype=np.intp), np.array(terms, dtype=np.float64)


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
            out[i, j] = _norm(x - cx[j], y - cy[j]) < dnn[j]
    return out


def _gap(lo: float, hi: float, qlo: float, qhi: float) -> float:
    """One axis of ``Rect.min_dist_rect``'s comparison ladder."""
    if qhi < lo:
        return lo - qhi
    if qlo > hi:
        return qlo - hi
    return 0.0


def _norm(dx: float, dy: float) -> float:
    """One pair's distance: ``sqrt(dx*dx + dy*dy)``."""
    return math.sqrt(dx * dx + dy * dy)


def _row(rect: Any, i: int) -> tuple:
    """``xmin, ymin, xmax, ymax`` of ``rect``, or of its row ``i`` when
    it is a :class:`RectColumns` paired row for row with the batch."""
    if isinstance(rect, RectColumns):
        return rect.xmin[i], rect.ymin[i], rect.xmax[i], rect.ymax[i]
    return rect.xmin, rect.ymin, rect.xmax, rect.ymax


def min_dist_rects_rect(rects: RectColumns, rect: Any) -> np.ndarray:
    """``minDist(rects_i, rect)`` (or ``rect_i``) one rectangle at a time."""
    out = np.empty(len(rects), dtype=np.float64)
    for i in range(len(rects)):
        xmin, ymin, xmax, ymax = _row(rect, i)
        dx = _gap(rects.xmin[i], rects.xmax[i], xmin, xmax)
        dy = _gap(rects.ymin[i], rects.ymax[i], ymin, ymax)
        out[i] = _norm(dx, dy)
    return out


def paired_min_dist_point(
    rects: RectColumns, xs: np.ndarray, ys: np.ndarray
) -> np.ndarray:
    """``minDist((xs_i, ys_i), rects_i)`` one row at a time."""
    out = np.empty(len(rects), dtype=np.float64)
    for i in range(len(rects)):
        dx = _gap(rects.xmin[i], rects.xmax[i], xs[i], xs[i])
        dy = _gap(rects.ymin[i], rects.ymax[i], ys[i], ys[i])
        out[i] = _norm(dx, dy)
    return out


def pairwise_min_dist_rects(a: RectColumns, b: RectColumns) -> np.ndarray:
    """``minDist(a_i, b_j)`` one pair at a time."""
    out = np.empty((len(a), len(b)), dtype=np.float64)
    for i in range(len(a)):
        for j in range(len(b)):
            dx = _gap(a.xmin[i], a.xmax[i], b.xmin[j], b.xmax[j])
            dy = _gap(a.ymin[i], a.ymax[i], b.ymin[j], b.ymax[j])
            out[i, j] = _norm(dx, dy)
    return out


def rects_intersect_rect(rects: RectColumns, rect: Any) -> np.ndarray:
    """Closed-boundary intersection with ``rect`` (or ``rect_i``), one
    rectangle at a time."""
    out = np.empty(len(rects), dtype=bool)
    for i in range(len(rects)):
        xmin, ymin, xmax, ymax = _row(rect, i)
        out[i] = not (
            rects.xmin[i] > xmax
            or rects.xmax[i] < xmin
            or rects.ymin[i] > ymax
            or rects.ymax[i] < ymin
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


# ---------------------------------------------------------------------------
# The swap
# ---------------------------------------------------------------------------


@contextmanager
def installed() -> Iterator[None]:
    """Run the block on these reference kernels.

    Binds each kernel name of ``repro.kernels.__all__`` that this module
    defines onto the package, and restores the originals on exit, also
    after an exception.  It reaches every call because callers read
    ``kernels.<fn>`` at call time.  Like any module attribute the swap
    is process-wide and not synchronised against other threads, and it
    does not reach process-pool workers forked before the block began.
    """
    names = [
        name
        for name in kernels.__all__
        if getattr(globals().get(name), "__module__", None) == __name__
    ]
    saved = {name: getattr(kernels, name) for name in names}
    try:
        for name in names:
            setattr(kernels, name, globals()[name])
        yield
    finally:
        for name, fn in saved.items():
            setattr(kernels, name, fn)
