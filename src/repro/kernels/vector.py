"""Vectorized kernels: branch-page decoding + batch geometry.

These are the kernels every query runs: :mod:`repro.kernels` exports
this module's public functions as they are.  Each has a loop-per-record
twin in :mod:`repro.kernels.scalar`, the reference, that must return
**bit-identical** arrays (enforced by hypothesis property tests and at
bench-record time), so the formulas below are chosen for exactness,
not just speed:

* branch-page decoding is a single ``np.frombuffer`` view over the
  packed entry layout (:data:`~repro.kernels.columnar.BRANCH_DTYPE`
  and its MND twin), copied field-wise into contiguous columns — the
  same IEEE-754 bytes ``struct.unpack`` would produce, without the
  ``n`` tuple allocations (leaf pages are stored as columns already,
  see :mod:`repro.storage.soa`);
* every distance is :func:`norms`, ``sqrt(dx*dx + dy*dy)``: two
  multiplies, one add and one square root, each correctly rounded, so
  the reference's pair loop and :func:`repro.geometry.point.norm` give
  the same bits, and so does the NN join that computes ``dnn``;
* rectangle ``minDist`` is :func:`norms` of the per-axis gaps, with
  the same comparisons as :meth:`repro.geometry.rect.Rect.min_dist_rect`
  choosing each gap's subtraction;
* ``IS(p)`` membership and the ``dr`` terms evaluate only the pairs
  that can influence: a client reaches no candidate farther than its
  ``dnn`` along x or y, so above :data:`DENSE_PAIRS` pairs the
  candidates are sorted by x (within y-bands when the clients are
  many) and each client's x-strip is searched
  (:func:`_influencing_pairs`); cost follows the strip, not the page
  pair.  :func:`accumulate_reductions` returns the terms of the pairs
  it finds, and :func:`repro.kernels.exact.exact_sums` rounds each
  potential's terms once, so no sum here has a grouping to keep.

None of these kernels touch I/O accounting: they consume arrays that
the callers obtained through the usual charged ``read_*`` paths.
"""

from __future__ import annotations

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
    radius fall out of the square's x-extent: ``cx = (xmin + xmax) / 2``,
    ``r = (xmax - xmin) / 2`` (Algorithm 4, lines 12–13).  NFC reads
    its leaves' exact client columns instead (DESIGN.md §8), since
    ``(xmin + xmax) / 2`` is not always ``x``; the kernel stays for
    callers of the pseudocode's reconstruction.
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


def norms(dx: Any, dy: Any) -> np.ndarray:
    """``sqrt(dx*dx + dy*dy)`` elementwise: the one distance formula.

    Each of its four operations is correctly rounded, so the bits do
    not depend on the platform's libm, and it equals the Python-float
    form :func:`repro.geometry.point.norm` on every pair.  Squares are
    products, never ``** 2``: ``pow(x, 2.0)`` is not correctly rounded
    on every platform.  With coordinates within
    :data:`~repro.geometry.point.COORD_LIMIT` no square overflows.
    """
    return np.sqrt(dx * dx + dy * dy)


def pairwise_distances(
    px: np.ndarray, py: np.ndarray, cx: np.ndarray, cy: np.ndarray
) -> np.ndarray:
    """``dist(p_i, c_j)`` for every pair — shape ``(len(px), len(cx))``."""
    return norms(px[:, None] - cx[None, :], py[:, None] - cy[None, :])


#: Below this many (candidate, client) pairs the dense formula is
#: cheaper than sorting the candidates and gathering the strips.
#: Measured on a 2-vCPU x86-64 container (numpy 2.4): the dense kernel
#: costs ~20-28 ns a pair, the strip path a near-flat 30-50 µs.  On
#: the captured shared-form calls of NFC and MND selects at 4K and 8K
#: clients, the few calls below 2,000 pairs ran 2–5× faster dense
#: (NFC's five at 4K: 0.09 against 0.43 ms, medians of 15 rounds); no
#: SS or MND call of a ``scan-100k``-shaped select is that small.
DENSE_PAIRS = 2000

#: Relative widening of each client's x-strip beyond its ``dnn``.
STRIP_SLACK = 2.0**-40

#: The least reach of a strip.  ``sqrt(fl(x*x)) == |x|`` holds wherever
#: ``x*x`` does not underflow (Boldo, *Stupid is as stupid does: taking
#: the square root of the square of a floating-point number*, 2015),
#: that is for ``|x| >= 2**-511``.  Below, a distance can round under
#: its own ``|dx|``: a client at (0, 0) and a candidate at (1e-160, 0)
#: are 9.99994e-161 apart.  A reach of at least this floor keeps every
#: ``|dx|`` it excludes in the range where ``d >= |dx|``.
REACH_FLOOR = 2.0**-511

#: In a tiled call, tiles of at most this many candidates evaluate
#: every pair; the rest share one strip search, whose set-up the call
#: pays once.  Measured on the captured QVC window calls of a
#: ``scan-100k``-shaped select (2-vCPU x86-64, numpy 2.4; medians of 15
#: rounds), where all 1,455 tiles hold at most 4 candidates: 6.5 ms,
#: against 10.0 ms with every tile in the strip search.
DENSE_ROWS = 4


#: Candidates per y-band of :func:`_influencing_pairs`.  Measured on
#: captured SS calls, one potential block against the whole client file
#: (2-vCPU x86-64, numpy 2.4; the fastest of 5–41 runs): 100 candidates
#: × 2K clients took 1.25 ms in 6 bands, 1.45 in 4 and 2.10 in one;
#: 200 × 20K took 7.0–7.4 ms in 6–12 bands, 9.3 in 16 and 20.9 in one;
#: 204 × 100K took 41.6–45.0 ms in 6–16 bands and 69 in one.
BAND_ROWS = 16

#: Clients per candidate from which the bands pay for their y search.
#: Measured on the same calls with the clients cut short (the pair
#: search alone): 100 candidates in 6 bands lost below 1,600 clients
#: and won at 1,600 (0.91 against 1.00 ms) and 3,200 (0.96 against
#: 1.58); 204 candidates in 12 bands lost at 3,264 clients (1.37
#: against 0.95 ms) and won at 6,528 (0.88 against 1.04).  NFC's and
#: MND's candidate-leaf calls on a ``scan-100k``-shaped select (45–55
#: clients a candidate, clustered round the leaf) take bands too, and
#: ran 5–9% slower in them than in one band (16.3 against 15.5 ms and
#: 18.5 against 16.9 ms a select, medians of 15 rounds).
BAND_CLIENTS = 16


def _y_bands(n_p: int, n_c: int) -> int:
    """How many y-bands of equal count :func:`_influencing_pairs` splits
    ``n_p`` candidates into when they meet ``n_c`` clients."""
    if n_c < BAND_CLIENTS * n_p:
        return 1
    return max(1, n_p // BAND_ROWS)


#: Grid cells per sorted value in :func:`_bounds`.  From 4 to 64 cells
#: the captured SS calls of the :data:`BAND_ROWS` measurement ran
#: within this machine's noise of each other.
GRID_CELLS = 16


def _bounds(
    values: np.ndarray, lo: np.ndarray, hi: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Index bounds into sorted ``values`` that take in every value in
    ``[lo_k, hi_k]``: ``np.searchsorted(values, lo, side="left")`` or
    less, and ``np.searchsorted(values, hi, side="right")`` or more.

    A binary search costs ~90 ns a bound against a few hundred values
    (2-vCPU x86-64, numpy 2.4), more than a few elementwise passes.  So
    when the bounds outnumber the grid, both sides are binned on a
    uniform grid of :data:`GRID_CELLS` cells per value over ``values``'
    range, and a bound becomes the count of values in lower cells
    (``lo``) or in lower and equal cells (``hi``).  The binning
    ``trunc(clip((v - values[0]) * scale, -1, m)) + 1`` rounds
    monotonically at every step, so a value ``>= lo_k`` never lands in
    a lower cell than ``lo_k``, nor a value ``<= hi_k`` in a higher one.
    """
    m = GRID_CELLS * len(values)
    scale = 0.0
    if GRID_CELLS < m < len(lo):
        with np.errstate(divide="ignore", over="ignore"):
            scale = m / (values[-1] - values[0])
    if not 0.0 < scale < np.inf:
        return (
            np.searchsorted(values, lo, side="left"),
            np.searchsorted(values, hi, side="right"),
        )

    def cell(v: np.ndarray) -> np.ndarray:
        return np.clip((v - values[0]) * scale, -1.0, m).astype(np.intp) + 1

    below = np.concatenate(([0], np.cumsum(np.bincount(cell(values), minlength=m + 2))))
    return below[cell(lo)], below[cell(hi) + 1]


def _strip_pairs(
    px: np.ndarray,
    group: np.ndarray | int,
    n_groups: int,
    cx: np.ndarray,
    reach: np.ndarray,
    first: np.ndarray | int,
    count: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """``(i, j)`` for every candidate ``i`` of client ``j``'s groups with
    ``fl(cx_j - r_j) <= px_i <= fl(cx_j + r_j)``, and maybe a few more.

    Client ``j`` searches group ``first_j``, or with ``count`` the groups
    ``first_j`` to ``first_j + count_j - 1``.  With one group, the
    candidates in x order are searched directly.  Otherwise each
    candidate is keyed by the integer pair (its group, rank of its x
    among the distinct x values), so the keys of one group between a
    client's two :func:`_bounds` ranks are that group's strip
    candidates; a candidate repeated over many tiles keeps one rank.
    The keys below each bound key are counted from a cumulative table
    over the whole key range, (groups) × (distinct x + 1) entries.  On
    every tiled call of a select of each method on the benchmark's
    workloads (``scan-100k``, ``churn-100k``, ``wire-small`` and the
    ``kernels`` suite's 4K and 8K rungs; 2-vCPU x86-64, numpy 2.4; E18,
    when NFC and MND made tiled calls too) such a table held at most
    13,680 entries and counted faster than a binary search over the
    sorted keys on every call (1.5–7× summed over a select's calls).
    """
    if n_groups == 1 and count is None:
        by_x = np.argsort(px)
        lo, hi = _bounds(px[by_x], cx - reach, cx + reach)
        counts = hi - lo
        j = np.repeat(np.arange(len(cx)), counts)
        # Pair k is client j's (k - first_j)-th strip candidate, at x-order
        # position lo_j + k - first_j (first_j = cumsum_j - counts_j).
        return by_x[np.arange(len(j)) + (lo + counts - np.cumsum(counts))[j]], j
    xs, rank = np.unique(px, return_inverse=True)
    span = len(xs) + 1
    key = group * span + rank
    # below[q] counts the keys under q.
    below = np.concatenate(
        ([0], np.cumsum(np.bincount(key, minlength=n_groups * span)))
    )
    lo_x, hi_x = _bounds(xs, cx - reach, cx + reach)
    if count is None:
        j = np.arange(len(cx))
        base = first * span
    else:
        j = np.repeat(np.arange(len(cx)), count)
        base = _ranges(first, count) * span
        lo_x, hi_x = lo_x[j], hi_x[j]
    lo = below[base + lo_x]
    counts = below[base + hi_x] - lo
    order = np.argsort(key, kind="stable")
    return order[_ranges(lo, counts)], np.repeat(j, counts)


def _influencing_pairs(
    px: np.ndarray,
    py: np.ndarray,
    cx: np.ndarray,
    cy: np.ndarray,
    dnn: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(i, j, d_ij)`` for every pair with ``d_ij = dist(p_i, c_j) < dnn_j``.

    Below :data:`DENSE_PAIRS` pairs every pair is evaluated.  Above,
    the candidates are split into :func:`_y_bands` bands of equal count
    by y.  Only pairs in client ``j``'s strip ``|px - cx_j| <= r_j``,
    with the reach ``r_j`` of :func:`_reach`, within the bands that
    hold a y in ``[fl(cy_j - r_j), fl(cy_j + r_j)]`` are evaluated (and
    perhaps a few more, see :func:`_bounds`), and each ``d_ij`` is the
    same :func:`norms` of the same differences as
    :func:`pairwise_distances`.  Skipping the rest is exact for any
    ``dnn``: the bounds ``fl(cx_j ± r_j)`` are floats, so a ``px``
    beyond one lies beyond ``cx_j ± r_j`` exactly, and since rounding
    is monotone ``a = |fl(px - cx_j)| >= r_j >= dnn_j``.  As ``a >=``
    :data:`REACH_FLOOR`, ``a*a`` does not underflow and
    ``sqrt(fl(a*a)) == a``; adding ``b*b`` and the square root are
    monotone, so ``d_ij >= a >= dnn_j`` and the pair does not
    influence.  The same holds for y.
    """
    n_p, n_c = len(px), len(cx)
    if n_p * n_c < DENSE_PAIRS:
        d = pairwise_distances(px, py, cx, cy)
        i, j = np.nonzero(d < dnn[None, :])
        return i, j, d[i, j]
    reach = _reach(dnn)
    bands = _y_bands(n_p, n_c)
    if bands == 1:
        i, j = _strip_pairs(px, 0, 1, cx, reach, 0)
    else:
        # Band b holds the candidates at y-order positions k with
        # k * bands // n_p == b.
        by_y = np.argsort(py, kind="stable")
        band = np.empty(n_p, dtype=np.intp)
        band[by_y] = np.arange(n_p) * bands // n_p
        lo, hi = _bounds(py[by_y], cy - reach, cy + reach)
        first = lo * bands // n_p
        count = (hi - 1) * bands // n_p - first + 1
        count[hi <= lo] = 0
        i, j = _strip_pairs(px, band, bands, cx, reach, first, count)
    d = norms(px[i] - cx[j], py[i] - cy[j])
    hit = d < dnn[j]
    return i[hit], j[hit], d[hit]


def _reach(dnn: np.ndarray) -> np.ndarray:
    """Each client's strip half-width: ``fl(dnn * (1 + STRIP_SLACK))``,
    and at least :data:`REACH_FLOOR`.  The slack only adds margin."""
    return np.maximum(dnn * (1.0 + STRIP_SLACK), REACH_FLOOR)


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
    """The ``dr`` terms of a batch of candidates and clients.

    Returns ``(rows, terms)``: one entry for every influencing pair,
    ``d_ij = dist(p_i, c_j) < dnn_j``, with its candidate row ``i`` and
    its term ``(dnn_j - d_ij) * w_j``, in no particular order.  Each
    ``d_ij`` is :func:`pairwise_distances`' :func:`norms` of the pair.
    A candidate's ``dr`` is the correctly rounded sum of its terms
    (:func:`~repro.kernels.exact.exact_sums`), so neither the order of
    the pairs nor how a query groups its calls changes a bit.

    Without offsets every candidate meets every client (the *shared*
    form), :data:`SHARED_CHUNK` clients at a time.  With ``p_offsets``
    and ``c_offsets`` (``T + 1`` non-decreasing offsets from 0 each)
    the columns hold ``T`` tiles, and candidates
    ``p_offsets[t]:p_offsets[t + 1]`` meet only clients
    ``c_offsets[t]:c_offsets[t + 1]`` (the *tiled* form,
    :func:`_tile_pairs`).
    """
    if p_offsets is None:
        found = []
        for k in range(0, max(len(cx), 1), SHARED_CHUNK):
            c = slice(k, k + SHARED_CHUNK)
            i, j, d = _influencing_pairs(px, py, cx[c], cy[c], dnn[c])
            found.append((i, j + k, d))
        i, j, d = (np.concatenate(parts) for parts in zip(*found))
    else:
        i, j = _tile_pairs(
            px, cx, dnn, np.asarray(p_offsets), np.asarray(c_offsets)
        )
        d = norms(px[i] - cx[j], py[i] - cy[j])
        hit = d < dnn[j]
        i, j, d = i[hit], j[hit], d[hit]
    return i, (dnn[j] - d) * weights[j]


#: Clients per chunk of a shared-form call.  Chunks bound the
#: temporaries of one call and keep them in cache.  Measured on the
#: captured SS calls of a 100K select (two potential blocks; 2-vCPU
#: x86-64, numpy 2.4; kernel time, then peak traced memory of a whole
#: select): 4K-client chunks ran 42 ms (3.6 MiB), 8K 34–39 ms
#: (4.1 MiB), 16K 36–41 ms (5.2 MiB), 32K 35 ms (7.2 MiB) and the whole
#: file at once 50 ms (15.6 MiB).  At 20K clients 8K chunks ran
#: 8.3–9.0 ms against 11.9–12.9 ms for 16K.
SHARED_CHUNK = 8192


def _tile_pairs(
    px: np.ndarray,
    cx: np.ndarray,
    dnn: np.ndarray,
    p_offsets: np.ndarray,
    c_offsets: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """The tiled form's candidate pairs ``(i, j)``: every pair of a tile
    that may influence, each with ``i`` and ``j`` in the same tile.

    Tiles of at most :data:`DENSE_ROWS` candidates give every pair.
    The others share one :func:`_strip_pairs` search with the tiles as
    its groups, so each client searches its own tile's x-strip, and
    nothing from another tile.
    """
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
    # Strip tiles: one search, each client in its own tile's group.
    rows = np.flatnonzero(strip[p_tile])
    clients = np.flatnonzero(strip[c_tile])
    strip_no = np.cumsum(strip) - 1
    i_strip, j_strip = _strip_pairs(
        px[rows],
        strip_no[p_tile[rows]],
        int(strip.sum()),
        cx[clients],
        _reach(dnn[clients]),
        strip_no[c_tile[clients]],
    )
    return (
        np.concatenate((i_dense, rows[i_strip])),
        np.concatenate((j_dense, clients[j_strip])),
    )


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


def min_dist_rects_rect(rects: RectColumns, rect: Any) -> np.ndarray:
    """``minDist(rects_i, rect)`` for a batch of rectangles against one,
    or ``minDist(rects_i, rect_i)`` when ``rect`` is a
    :class:`RectColumns` paired row for row with ``rects``.

    Either argument order gives the same bits: :func:`_axis_gaps`
    subtracts the same two bounds whichever interval comes first.
    """
    return norms(
        _axis_gaps(rects.xmin, rects.xmax, rect.xmin, rect.xmax),
        _axis_gaps(rects.ymin, rects.ymax, rect.ymin, rect.ymax),
    )


def paired_min_dist_point(
    rects: RectColumns, xs: np.ndarray, ys: np.ndarray
) -> np.ndarray:
    """``minDist((xs_i, ys_i), rects_i)`` for paired rows, bitwise
    :meth:`Rect.min_dist_point` per row.

    A best-first stream (:func:`repro.rtree.nn.best_first`) passes its
    query point on every row of a node; the batched quadrant-NN pass
    (:func:`repro.rtree.nn.quadrant_nearest_block`) evaluates many query
    points against many nodes in one call, one row per (query, entry)
    pair.
    """
    return norms(
        _axis_gaps(rects.xmin, rects.xmax, xs, xs),
        _axis_gaps(rects.ymin, rects.ymax, ys, ys),
    )


def pairwise_min_dist_rects(a: RectColumns, b: RectColumns) -> np.ndarray:
    """``minDist(a_i, b_j)`` for every pair — shape ``(len(a), len(b))``."""
    dx = _axis_gaps(
        a.xmin[:, None], a.xmax[:, None], b.xmin[None, :], b.xmax[None, :]
    )
    dy = _axis_gaps(
        a.ymin[:, None], a.ymax[:, None], b.ymin[None, :], b.ymax[None, :]
    )
    return norms(dx, dy)


def rects_intersect_rect(rects: RectColumns, rect: Any) -> np.ndarray:
    """Which rectangles intersect ``rect`` (closed-boundary semantics),
    or each ``rect_i`` when ``rect`` is a :class:`RectColumns` paired
    row for row with ``rects``."""
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
