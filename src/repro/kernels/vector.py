"""Vectorized kernel backend: branch-page decoding + batch geometry.

This is the default backend behind the :mod:`repro.kernels` dispatch
layer.  Every function here has a loop-per-record twin in
:mod:`repro.kernels.scalar` that must return **bit-identical** arrays
(enforced by hypothesis property tests and at bench-record time), so
the formulas below are chosen for exactness, not just speed:

* branch-page decoding is a single ``np.frombuffer`` view over the
  packed entry layout (:data:`~repro.kernels.columnar.BRANCH_DTYPE`
  and its MND twin), copied field-wise into contiguous columns — the
  same IEEE-754 bytes ``struct.unpack`` would produce, without the
  ``n`` tuple allocations (leaf pages are stored as columns already,
  see :mod:`repro.storage.soa`);
* distances use ``np.hypot`` in both backends.  ``math.hypot`` is *not*
  interchangeable — it disagrees with ``np.hypot`` in the last ulp for
  about 1 in 160 random operand pairs — so the scalar backend calls
  the numpy ufunc element-wise rather than the stdlib function;
* rectangle ``minDist`` replicates the exact branch structure of
  :meth:`repro.geometry.rect.Rect.min_dist_rect` (return the other
  axis' gap when one axis overlaps; ``hypot`` only when both gaps are
  positive), so corner-vs-edge cases keep the same float results;
* ``IS(p)`` membership and ``dr`` accumulation evaluate only the pairs
  that can influence: a client reaches no candidate farther than its
  ``dnn`` along x, so above :data:`DENSE_PAIRS` pairs the candidates
  are sorted by x and each client's x-strip is found by binary search
  (:func:`_influencing_pairs`); cost follows the strip, not the page
  pair.  The reduction still sums each row that has an influencing
  client as a dense C-contiguous row along ``axis=1`` — bitwise equal
  to summing the row on its own, which is what the scalar twin does.

None of these kernels touch I/O accounting: they consume arrays that
the callers obtained through the usual charged ``read_*`` paths.
"""

from __future__ import annotations

import math
from typing import Any

import numpy as np

from repro.kernels.columnar import (
    BRANCH_DTYPE,
    BRANCH_MND_DTYPE,
    BranchColumns,
    ClientColumns,
    RectColumns,
)

# ---------------------------------------------------------------------------
# Branch page decoding
# ---------------------------------------------------------------------------


def decode_branch_columns(
    data: bytes, count: int, with_mnd: bool = False, offset: int = 0
) -> BranchColumns:
    """Decode ``count`` packed branch entries (``<ddddI`` or ``<ddddId``)."""
    dtype = BRANCH_MND_DTYPE if with_mnd else BRANCH_DTYPE
    raw = np.frombuffer(data, dtype=dtype, count=count, offset=offset)
    rects = RectColumns(
        xmin=np.ascontiguousarray(raw["xmin"]),
        ymin=np.ascontiguousarray(raw["ymin"]),
        xmax=np.ascontiguousarray(raw["xmax"]),
        ymax=np.ascontiguousarray(raw["ymax"]),
    )
    mnd = np.ascontiguousarray(raw["mnd"]) if with_mnd else None
    return BranchColumns(rects, np.ascontiguousarray(raw["child"]), mnd)


def circle_columns_from_rects(
    rects: RectColumns, ids: np.ndarray, weights: np.ndarray
) -> ClientColumns:
    """Reconstruct NFC circles (center + radius) from their square MBRs.

    The NFC tree stores each circle as its bounding square; center and
    radius fall out of the square's x-extent exactly as in the
    object-at-a-time reconstruction: ``cx = (xmin + xmax) / 2``,
    ``r = (xmax - xmin) / 2``.  The radius lands in the ``dnn`` column
    so the circles feed :func:`accumulate_reductions` unchanged.
    """
    return ClientColumns(
        ids=ids,
        xs=(rects.xmin + rects.xmax) / 2.0,
        ys=(rects.ymin + rects.ymax) / 2.0,
        dnn=(rects.xmax - rects.xmin) / 2.0,
        weights=weights,
    )


# ---------------------------------------------------------------------------
# Batch geometry
# ---------------------------------------------------------------------------


def pairwise_distances(
    px: np.ndarray, py: np.ndarray, cx: np.ndarray, cy: np.ndarray
) -> np.ndarray:
    """``dist(p_i, c_j)`` for every pair — shape ``(len(px), len(cx))``."""
    return np.hypot(px[:, None] - cx[None, :], py[:, None] - cy[None, :])


#: Below this many (candidate, client) pairs the dense formula is
#: cheaper than sorting the candidates and gathering the strips.
#: Measured on a 2-vCPU x86-64 container (numpy 2.4) over NFC/MND leaf
#: pairs trimmed to a target size: the dense kernel costs ~20-28 ns a
#: pair, the strip path a near-flat 30-50 µs, and the strip path won
#: 28% of calls at 1,200 pairs, 74% at 1,600 and 91% at 2,000.  QVC's
#: window leaves (~120 pairs) stay dense; SS blocks (~29K pairs) and
#: NFC/MND leaf pairs (~5-6K) take the strip.
DENSE_PAIRS = 2000

#: Relative widening of each client's x-strip beyond its ``dnn``.
STRIP_SLACK = 2.0**-40

#: In a many-tile call, tiles of at most this many candidates evaluate
#: every pair; the rest share one strip search, whose set-up the call
#: pays once.  Measured on captured QVC window tasks (2-vCPU x86-64,
#: numpy 2.4): with ``DENSE_PAIRS`` as the rule instead, tasks of 6–12
#: candidates a tile ran 20–80% slower and tasks of 1–2 no faster.
DENSE_ROWS = 4


def _influencing_pairs(
    px: np.ndarray,
    py: np.ndarray,
    cx: np.ndarray,
    cy: np.ndarray,
    dnn: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(i, j, d_ij)`` for every pair with ``d_ij = dist(p_i, c_j) < dnn_j``.

    Only pairs in client ``j``'s strip ``|px - cx_j| <= r_j`` with
    ``r_j = fl(dnn_j * (1 + STRIP_SLACK))`` are evaluated, and each
    ``d_ij`` is the same ``np.hypot`` of the same differences as
    :func:`pairwise_distances`.  Skipping the rest is exact: the strip
    bounds ``fl(cx_j ± r_j)`` are floats, so a ``px`` beyond one lies
    beyond ``cx_j ± r_j`` exactly, and since rounding is monotone
    ``|fl(px - cx_j)| >= r_j >= dnn_j``; ``np.hypot(a, b) >= |a|``
    (faithful rounding cannot fall below the float ``|a|``), so
    ``d_ij >= dnn_j`` and the pair does not influence.  The slack only
    adds margin against a less accurate ``hypot``.
    """
    order = np.argsort(px)
    xs = px[order]
    reach = dnn * (1.0 + STRIP_SLACK)
    lo = np.searchsorted(xs, cx - reach, side="left")
    counts = np.searchsorted(xs, cx + reach, side="right") - lo
    j = np.repeat(np.arange(len(cx)), counts)
    # Flattened pair k is client j's (k - first_j)-th strip candidate,
    # at sorted position lo_j + k - first_j (first_j = cumsum_j - counts_j).
    i = order[np.arange(len(j)) + (lo + counts - np.cumsum(counts))[j]]
    d = np.hypot(px[i] - cx[j], py[i] - cy[j])
    hit = d < dnn[j]
    return i[hit], j[hit], d[hit]


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
    """Per-candidate ``dr`` contribution of a batch of clients.

    Returns ``sum_j max(0, dnn_j - dist(p_i, c_j)) * w_j`` for each
    candidate ``p_i`` — the paper's distance-reduction sum restricted
    to one (page of candidates × page of clients) tile.

    Below :data:`DENSE_PAIRS` pairs this is the dense formula.  Above
    it, only the influencing pairs from :func:`_influencing_pairs` are
    evaluated, bit-identically: for weights with a clear sign bit a
    non-influencing pair's dense term ``clip(dnn_j - d_ij, 0) * w_j``
    is exactly ``+0.0``, and an influencing pair's is
    ``(dnn_j - d_ij) * w_j`` from the same ``d_ij``.  A row's
    pairwise ``axis=1`` sum depends only on that row, so each row with
    a hit is rebuilt as a dense row (``+0.0`` except at its
    influencing pairs) and summed as before; every other row sums to
    ``+0.0``.

    With ``p_offsets`` and ``c_offsets`` (``T + 1`` non-decreasing
    offsets from 0 each) the columns hold ``T`` tiles: candidates
    ``p_offsets[t]:p_offsets[t + 1]`` against clients
    ``c_offsets[t]:c_offsets[t + 1]``.  Each candidate row sums over
    its own tile only, bit for bit what one call per tile returns
    (:func:`_accumulate_tiles`).
    """
    if p_offsets is not None:
        return _accumulate_tiles(px, py, cx, cy, dnn, weights, p_offsets, c_offsets)
    if len(px) * len(cx) < DENSE_PAIRS:
        d = pairwise_distances(px, py, cx, cy)
        return (np.clip(dnn[None, :] - d, 0.0, None) * weights[None, :]).sum(axis=1)
    i, j, d = _influencing_pairs(px, py, cx, cy, dnn)
    out = np.zeros(len(px))
    rows = np.flatnonzero(np.bincount(i, minlength=len(px)))
    dense = np.zeros((len(rows), len(cx)))
    dense[np.searchsorted(rows, i), j] = (dnn[j] - d) * weights[j]
    out[rows] = dense.sum(axis=1)
    return out


def _accumulate_tiles(
    px: np.ndarray,
    py: np.ndarray,
    cx: np.ndarray,
    cy: np.ndarray,
    dnn: np.ndarray,
    weights: np.ndarray,
    p_offsets: np.ndarray,
    c_offsets: np.ndarray,
) -> np.ndarray:
    """The many-tile form of :func:`accumulate_reductions`.

    Tiles of at most :data:`DENSE_ROWS` candidates evaluate every
    pair, as a one-tile dense call does.  The others share one strip
    search: each candidate is keyed by the integer pair (strip tile's
    number among the strip tiles, rank of its x among the sorted
    distinct strip-candidate x values), and each client's strip bounds
    ``fl(cx_j ± r_j)`` become ranks the same way, so the keys between
    them are exactly the candidates of the client's own tile with
    ``fl(cx_j - r_j) <= px <= fl(cx_j + r_j)`` — the strip a one-tile
    call searches.  The keys under each bound are counted from a
    cumulative table over the whole key range, (strip tiles) × (distinct
    x + 1) entries.  On every many-tile call of a select of each method
    on the benchmark's workloads (``scan-100k``, ``churn-100k``,
    ``wire-small`` and the ``kernels`` suite's 4K and 8K rungs; 2-vCPU
    x86-64, numpy 2.4) the table held at most 13,680 entries and counted
    faster than a binary search over the sorted keys on every call
    (1.5–7× summed over a select's calls).  Each hit is then placed in
    a dense row at its tile's own client count, and rows of one width
    are summed together with the same contiguous ``axis=1`` sum, so
    every row's bits are those of the one-tile call (a dense-path row
    holds ``+0.0`` at every non-influencing pair).
    """
    out = np.zeros(len(px))
    p_offsets = np.asarray(p_offsets)
    c_offsets = np.asarray(c_offsets)
    n_tiles = len(p_offsets) - 1
    heights = np.diff(p_offsets)
    widths = np.diff(c_offsets)
    p_tile = np.repeat(np.arange(n_tiles), heights)
    c_tile = np.repeat(np.arange(n_tiles), widths)
    strip = heights > DENSE_ROWS
    # Dense tiles: candidate row k meets every client of its tile.
    rows = np.flatnonzero(~strip[p_tile])
    counts = widths[p_tile[rows]]
    i_dense = np.repeat(rows, counts)
    j_dense = _ranges(c_offsets[p_tile[rows]], counts)
    # Strip tiles: one search over (strip tile, x-rank) keys.
    strip_no = np.cumsum(strip) - 1
    rows = np.flatnonzero(strip[p_tile])
    clients = np.flatnonzero(strip[c_tile])
    xs, rank = np.unique(px[rows], return_inverse=True)
    span = len(xs) + 1
    key = strip_no[p_tile[rows]] * span + rank
    order = rows[np.argsort(key, kind="stable")]
    reach = dnn[clients] * (1.0 + STRIP_SLACK)
    base = strip_no[c_tile[clients]] * span
    # below[q] counts the keys under q.
    size = int(strip.sum()) * span
    below = np.concatenate(([0], np.cumsum(np.bincount(key, minlength=size))))
    lo = below[base + np.searchsorted(xs, cx[clients] - reach, side="left")]
    hi = below[base + np.searchsorted(xs, cx[clients] + reach, side="right")]
    i = np.concatenate((i_dense, order[_ranges(lo, hi - lo)]))
    j = np.concatenate((j_dense, np.repeat(clients, hi - lo)))
    d = np.hypot(px[i] - cx[j], py[i] - cy[j])
    hit = d < dnn[j]
    i, j, d = i[hit], j[hit], d[hit]
    terms = (dnn[j] - d) * weights[j]
    cols = j - c_offsets[c_tile[j]]
    row_width = widths[c_tile[j]]
    for width in np.unique(row_width):
        sel = row_width == width
        hit_rows = np.flatnonzero(np.bincount(i[sel], minlength=len(px)))
        matrix = np.zeros((len(hit_rows), width))
        matrix[np.searchsorted(hit_rows, i[sel]), cols[sel]] = terms[sel]
        out[hit_rows] = matrix.sum(axis=1)
    return out


def _ranges(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """``concatenate([arange(s, s + c) for s, c in zip(starts, counts)])``."""
    firsts = np.cumsum(counts) - counts
    return np.arange(counts.sum()) + np.repeat(starts - firsts, counts)


def influence_matrix(
    px: np.ndarray,
    py: np.ndarray,
    cx: np.ndarray,
    cy: np.ndarray,
    dnn: np.ndarray,
) -> np.ndarray:
    """Boolean ``IS(p)`` membership: ``dist(p_i, c_j) < dnn_j`` per pair.

    Built from :func:`_influencing_pairs`, so it evaluates only each
    client's strip and agrees with ``pairwise_distances(...) < dnn``.
    """
    i, j, _ = _influencing_pairs(px, py, cx, cy, dnn)
    out = np.zeros((len(px), len(cx)), dtype=bool)
    out[i, j] = True
    return out


def circles_contain_point(
    cx: np.ndarray, cy: np.ndarray, radii: np.ndarray, x: float, y: float
) -> np.ndarray:
    """Which circles strictly contain the point ``(x, y)``."""
    return np.hypot(x - cx, y - cy) < radii


def _axis_gaps(
    lo: np.ndarray | float, hi: np.ndarray | float, qlo: Any, qhi: Any
) -> np.ndarray:
    """Per-axis separation between intervals ``[lo, hi]`` and ``[qlo, qhi]``.

    Zero when the intervals overlap, matching the comparison structure
    of ``Rect.min_dist_rect`` so the selected subtraction (and thus the
    float result) is identical.
    """
    return np.where(
        np.less(qhi, lo),
        np.subtract(lo, qhi),
        np.where(np.greater(qlo, hi), np.subtract(qlo, hi), 0.0),
    )


def _combine_min_dist(dx: np.ndarray, dy: np.ndarray) -> np.ndarray:
    """``Rect.min_dist_*``'s final branch: other-axis gap, else hypot."""
    return np.where(dx == 0.0, dy, np.where(dy == 0.0, dx, np.hypot(dx, dy)))


def min_dist_points_rect(xs: np.ndarray, ys: np.ndarray, rect: Any) -> np.ndarray:
    """``minDist(p_i, rect)`` for a batch of points against one rectangle."""
    dx = _axis_gaps(rect.xmin, rect.xmax, xs, xs)
    dy = _axis_gaps(rect.ymin, rect.ymax, ys, ys)
    return _combine_min_dist(dx, dy)


def max_dist_points_rect(xs: np.ndarray, ys: np.ndarray, rect: Any) -> np.ndarray:
    """``maxDist(p_i, rect)`` for a batch of points against one rectangle."""
    dx = np.maximum(np.abs(xs - rect.xmin), np.abs(xs - rect.xmax))
    dy = np.maximum(np.abs(ys - rect.ymin), np.abs(ys - rect.ymax))
    return np.hypot(dx, dy)


def min_dist_rects_rect(rects: RectColumns, rect: Any) -> np.ndarray:
    """``minDist(rects_i, rect)`` for a batch of rectangles against one."""
    dx = _axis_gaps(rects.xmin, rects.xmax, rect.xmin, rect.xmax)
    dy = _axis_gaps(rects.ymin, rects.ymax, rect.ymin, rect.ymax)
    return _combine_min_dist(dx, dy)


#: Below this many rectangles :func:`min_dist_rects_point` runs the
#: ``Rect.min_dist_point`` ladder per rectangle in Python: its numpy
#: form costs ~25 µs a call, more than ~0.5 µs a rectangle in Python
#: below about 30 rectangles (2-vCPU x86-64, numpy 2.4).  A best-first
#: stream reads small branch nodes (``R_F``'s root holds 2–18 entries
#: in the benchmarks) once per query point.
SMALL_RECTS = 32


def min_dist_rects_point(rects: RectColumns, x: float, y: float) -> np.ndarray:
    """``minDist((x, y), rects_i)``, bitwise :meth:`Rect.min_dist_point`.

    The same comparison ladder as :func:`min_dist_rects_rect`, but the
    corner case takes ``math.hypot`` as the ``Rect`` method does: it is
    correctly rounded where ``np.hypot`` is not always, and a best-first
    stream whose distances moved by an ulp could pop tied entries in
    another order.  Below :data:`SMALL_RECTS` the ladder runs per
    rectangle on Python floats, with the same operations.
    """
    if len(rects) < SMALL_RECTS:
        return np.array(
            [
                _min_dist_point(*bounds, x, y)
                for bounds in zip(
                    rects.xmin.tolist(),
                    rects.ymin.tolist(),
                    rects.xmax.tolist(),
                    rects.ymax.tolist(),
                )
            ],
            dtype=np.float64,
        )
    dx = _axis_gaps(rects.xmin, rects.xmax, x, x)
    dy = _axis_gaps(rects.ymin, rects.ymax, y, y)
    out = np.where(dx == 0.0, dy, dx)
    corner = np.flatnonzero((dx != 0.0) & (dy != 0.0))
    out[corner] = np.fromiter(
        map(math.hypot, dx[corner].tolist(), dy[corner].tolist()),
        np.float64,
        len(corner),
    )
    return out


def _min_dist_point(
    xmin: float, ymin: float, xmax: float, ymax: float, x: float, y: float
) -> float:
    """``Rect.min_dist_point``'s ladder on one rectangle."""
    dx = xmin - x if x < xmin else x - xmax if x > xmax else 0.0
    dy = ymin - y if y < ymin else y - ymax if y > ymax else 0.0
    return dy if dx == 0.0 else dx if dy == 0.0 else math.hypot(dx, dy)


def pairwise_min_dist_rects(a: RectColumns, b: RectColumns) -> np.ndarray:
    """``minDist(a_i, b_j)`` for every pair — shape ``(len(a), len(b))``."""
    dx = _axis_gaps(
        a.xmin[:, None], a.xmax[:, None], b.xmin[None, :], b.xmax[None, :]
    )
    dy = _axis_gaps(
        a.ymin[:, None], a.ymax[:, None], b.ymin[None, :], b.ymax[None, :]
    )
    return _combine_min_dist(dx, dy)


def rects_intersect_rect(rects: RectColumns, rect: Any) -> np.ndarray:
    """Which rectangles intersect ``rect`` (closed-boundary semantics)."""
    return ~(
        (rects.xmin > rect.xmax)
        | (rects.xmax < rect.xmin)
        | (rects.ymin > rect.ymax)
        | (rects.ymax < rect.ymin)
    )


def rect_intersect_matrix(a: RectColumns, b: RectColumns) -> np.ndarray:
    """Pairwise intersection tests — shape ``(len(a), len(b))``."""
    return ~(
        (a.xmin[:, None] > b.xmax[None, :])
        | (a.xmax[:, None] < b.xmin[None, :])
        | (a.ymin[:, None] > b.ymax[None, :])
        | (a.ymax[:, None] < b.ymin[None, :])
    )
