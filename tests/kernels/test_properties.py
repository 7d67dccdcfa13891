"""Property tests: codec round trips and scalar ≡ vector exactness.

Two families of invariants:

* the binary codecs are lossless — a record survives its page image
  and an entry its packed layout, for every kind over arbitrary finite
  floats and 32-bit ids;
* the vector kernels and their scalar reference agree **bit for bit**
  — for every batch kernel and arbitrary inputs (including points
  sitting exactly on rectangle edges and zero-area rectangles) the two
  implementations return identical arrays, and the geometry kernels
  agree with the :class:`~repro.geometry.rect.Rect` methods;
* ``accumulate_reductions`` emits the influence terms of a batch in
  both its forms (every candidate against every client, and tiles):
  the vector kernel's ``(row, term)`` multiset equals the scalar
  twin's, and its nonzero terms are those of the dense oracle
  ``clip(dnn - d, 0) * w``; :class:`~repro.core.leafpairs.LeafPairs`
  maps the rows to potential ids in both of its groupings.
"""

from __future__ import annotations

import math
from contextlib import nullcontext
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.leafpairs import LeafPairs
from repro.core.types import Client, Site
from repro.geometry.point import Point
from repro.geometry.rect import Rect
from repro.kernels import scalar, vector
from repro.kernels.columnar import ClientColumns, RectColumns
from repro.storage.codecs import (
    ClientCodec,
    SiteCodec,
    decode_branch,
    decode_rect,
    encode_branch,
    encode_rect,
)
from tests.conftest import coords, rects

ids = st.integers(min_value=0, max_value=2**32 - 1)
weights = st.floats(min_value=0.0, max_value=10.0, allow_nan=False)
dnns = st.floats(min_value=0.0, max_value=2000.0, allow_nan=False)


@st.composite
def degenerate_rects(draw):
    """Rectangles that may collapse to a line or a single point."""
    x1 = draw(coords)
    y1 = draw(coords)
    x2 = draw(st.one_of(st.just(x1), coords))
    y2 = draw(st.one_of(st.just(y1), coords))
    (x1, x2), (y1, y2) = sorted((x1, x2)), sorted((y1, y2))
    return Rect(x1, y1, x2, y2)


@st.composite
def any_rects(draw):
    return draw(st.one_of(rects(), degenerate_rects()))


def rect_batches(max_size=6):
    return st.lists(any_rects(), min_size=1, max_size=max_size).map(
        RectColumns.from_rects
    )


def assert_matches_the_reference(kernel, *args):
    got_vector = getattr(vector, kernel)(*args)
    got_scalar = getattr(scalar, kernel)(*args)
    assert got_vector.dtype == got_scalar.dtype
    assert got_vector.shape == got_scalar.shape
    assert np.array_equal(got_vector, got_scalar), kernel
    if got_vector.dtype == np.float64:
        assert not np.isnan(got_vector).any()
    return got_vector


def _bits(values: np.ndarray) -> np.ndarray:
    return np.asarray(values, dtype=np.float64).view(np.int64)


def assert_same_terms(got, want):
    """Two ``(rows, terms)`` outputs hold the same multiset of (row,
    term bits) pairs."""
    canonical = []
    for rows, terms in (got, want):
        rows = np.asarray(rows, dtype=np.int64)
        bits = _bits(terms)
        order = np.lexsort((bits, rows))
        canonical.append((rows[order], bits[order]))
    (got_rows, got_bits), (want_rows, want_bits) = canonical
    assert np.array_equal(got_rows, want_rows)
    assert np.array_equal(got_bits, want_bits)


def dense_terms(px, py, cx, cy, dnn, w):
    """The dense oracle: every pair evaluated, ``d < dnn`` kept, and the
    nonzero entries of ``clip(dnn - d, 0) * w``."""
    d = vector.pairwise_distances(px, py, cx, cy)
    i, j = np.nonzero(d < dnn[None, :])
    nonzero = np.clip(dnn[None, :] - d, 0.0, None) * w[None, :]
    k, __ = np.nonzero(nonzero)
    return (i, (dnn[j] - d[i, j]) * w[j]), (k, nonzero[nonzero != 0])


def assert_terms_match_the_oracles(px, py, cx, cy, dnn, w, tiles=None):
    """The vector kernel's ``(row, term)`` multiset equals the scalar
    twin's and the dense oracle's, whose nonzero terms it holds.

    ``tiles`` (``p_offsets, c_offsets``) selects the tiled form; the
    oracle then evaluates each tile on its own."""
    kwargs = {}
    p_offsets, c_offsets = [0, len(px)], [0, len(cx)]
    if tiles is not None:
        p_offsets, c_offsets = tiles
        kwargs = {"p_offsets": p_offsets, "c_offsets": c_offsets}
    got = vector.accumulate_reductions(px, py, cx, cy, dnn, w, **kwargs)
    assert got[0].dtype == np.intp and got[1].dtype == np.float64
    assert_same_terms(
        got, scalar.accumulate_reductions(px, py, cx, cy, dnn, w, **kwargs)
    )
    pairs, nonzero = [], []
    for t in range(len(p_offsets) - 1):
        p = slice(p_offsets[t], p_offsets[t + 1])
        c = slice(c_offsets[t], c_offsets[t + 1])
        tile_pairs, tile_nonzero = dense_terms(px[p], py[p], cx[c], cy[c], dnn[c], w[c])
        pairs.append((tile_pairs[0] + p.start, tile_pairs[1]))
        nonzero.append((tile_nonzero[0] + p.start, tile_nonzero[1]))
    assert_same_terms(got, _joined(pairs))
    kept = got[1] != 0
    assert_same_terms((got[0][kept], got[1][kept]), _joined(nonzero))
    assert not np.signbit(got[1]).any()
    return got


def _joined(parts):
    """``(rows, terms)`` parts as one ``(rows, terms)``."""
    return tuple(np.concatenate(column) for column in zip(*parts))


# ---------------------------------------------------------------------------
# Codec round trips
# ---------------------------------------------------------------------------


class TestCodecRoundTrips:
    @given(sid=ids, x=coords, y=coords)
    def test_site(self, sid, x, y):
        codec = SiteCodec()
        image = codec.encode_soa(codec.columns_from_objects([Site(sid, x, y)]))
        assert codec.objects_from_columns(codec.decode_soa(image, 1)) == [
            Site(sid, x, y)
        ]

    @given(cid=ids, x=coords, y=coords, dnn=dnns)
    def test_client(self, cid, x, y, dnn):
        codec = ClientCodec()
        client = Client(cid, x, y, dnn, weight=3.0)
        image = codec.encode_soa(codec.columns_from_objects([client]))
        (got,) = codec.objects_from_columns(codec.decode_soa(image, 1))
        assert (got.cid, got.x, got.y, got.dnn) == (cid, x, y, dnn)
        assert got.weight == 1.0  # the layout carries no weight

    @given(rect=any_rects())
    def test_rect(self, rect):
        assert decode_rect(encode_rect(rect)) == rect

    @given(rect=any_rects(), child=ids, mnd=st.none() | dnns)
    def test_branch(self, rect, child, mnd):
        got = decode_branch(encode_branch(rect, child, mnd), mnd is not None)
        assert got == (rect, child, mnd)


# ---------------------------------------------------------------------------
# Scalar ≡ vector, and both ≡ the Rect reference
# ---------------------------------------------------------------------------


coord_batches = st.lists(coords, min_size=1, max_size=8).map(np.array)


@st.composite
def client_batches(draw):
    n = draw(st.integers(min_value=1, max_value=8))
    batch = st.lists(st.tuples(coords, coords, dnns, weights), min_size=n, max_size=n)
    rows = draw(batch)
    return tuple(np.array(col) for col in zip(*rows))


@st.composite
def strip_batches(draw):
    """(candidate, client) batches on both sides of the strip kernel's
    size rule, built to reach the strip path's edge cases.

    Clients sit in a few tight clusters with short ``dnn``, so some
    candidate rows are influenced and most are not.  Single pairs are
    then rigged into the cases the exactness argument must survive: a
    ``dnn`` equal to the distance of the client's offset to a candidate
    or one ulp above it (an exact tie or the nearest influence, also on
    the strip's x-edge), coincident points and duplicate candidates, a
    zero or subnormal ``dnn``, zero weights, and a pair whose square
    underflows, so its distance rounds under its own ``|dx|`` (a client
    at the origin, a candidate 1e-160 away on an axis, and a ``dnn``
    between the two; the strip's reach floor must take it in) — all
    around an origin that may sit at ±1e6.
    """
    root = math.isqrt(vector.DENSE_PAIRS - 1)
    small = draw(st.booleans())
    sizes = st.integers(1, root) if small else st.integers(root + 1, root + 20)
    n_p, n_c = draw(sizes), draw(sizes)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    origin = draw(st.sampled_from([0.0, 1e6, -1e6]))
    spread = draw(st.sampled_from([1.0, 100.0]))
    centers = rng.uniform(0.0, 10 * spread, (draw(st.integers(1, 4)), 2))
    c = centers[rng.integers(len(centers), size=n_c)]
    c += rng.normal(0.0, spread, (n_c, 2))
    cx, cy = c[:, 0] + origin, c[:, 1] + origin
    px, py = rng.uniform(0.0, 10 * spread, (2, n_p)) + origin
    dnn = rng.exponential(spread / 2, n_c)
    w = rng.uniform(0.0, 10.0, n_c)

    def pick():
        return rng.integers(n_p), rng.integers(n_c)

    for __ in range(draw(st.integers(0, 4))):  # ties, and one ulp past them
        i, j = pick()
        if draw(st.booleans()):
            py[i] = cy[j]  # on the strip's x-edge: d == |px - cx|
        tie = vector.norms(px[i] - cx[j], py[i] - cy[j])
        dnn[j] = draw(st.sampled_from([tie, np.nextafter(tie, np.inf)]))
    for __ in range(draw(st.integers(0, 3))):  # coincident points
        i, j = pick()
        px[i], py[i] = cx[j], cy[j]
        dnn[j] = draw(st.sampled_from([0.0, 5e-324, 1e-310, dnn[j]]))
        k = rng.integers(n_p)
        px[k], py[k] = px[i], py[i]
    for __ in range(draw(st.integers(0, 3))):  # zero or subnormal dnn
        dnn[rng.integers(n_c)] = draw(st.sampled_from([0.0, 5e-324, 1e-310]))
    w[rng.random(n_c) < draw(st.sampled_from([0.0, 0.3]))] = 0.0
    if draw(st.booleans()):  # d = 9.99994e-161 < dnn < |dx| = 1e-160
        i, j = pick()
        cx[j] = cy[j] = 0.0
        px[i], py[i] = draw(st.sampled_from(UNDERFLOW_OFFSETS))
        dnn[j] = UNDERFLOW_DNN
    return px, py, cx, cy, dnn, w


#: A candidate's offsets from a client at the origin whose squares
#: underflow, and a ``dnn`` between the distance and ``|dx|``.
UNDERFLOW_OFFSETS = [(1e-160, 0.0), (-1e-160, 0.0), (0.0, 1e-160), (0.0, -1e-160)]
UNDERFLOW_DNN = 9.99997e-161


def underflow_batch(n_p, n_c, offset):
    """A strip-path batch (``n_p * n_c >= DENSE_PAIRS``) whose candidate 0
    sits at ``offset`` from client 0 at the origin, with
    :data:`UNDERFLOW_DNN`: only the strip's reach floor takes the pair
    in.  At 40 × 640 the candidates fall in two y-bands, and the bounds
    are searched, not binned (binning widens a strip to a whole cell)."""
    rng = np.random.default_rng(11)
    px, py = rng.uniform(1.0, 10.0, (2, n_p))
    cx, cy = rng.uniform(1.0, 10.0, (2, n_c))
    dnn = rng.exponential(0.5, n_c)
    w = rng.uniform(0.5, 10.0, n_c)
    (px[0], py[0]), cx[0], cy[0], dnn[0] = offset, 0.0, 0.0, UNDERFLOW_DNN
    return px, py, cx, cy, dnn, w


class TestBackendEquivalence:
    @given(batch=strip_batches())
    @example(batch=underflow_batch(50, 50, UNDERFLOW_OFFSETS[0]))
    @settings(max_examples=80, deadline=None)
    def test_strip_path_matches_the_scalar_twin(self, batch):
        px, py, cx, cy, dnn, w = batch
        assert_terms_match_the_oracles(px, py, cx, cy, dnn, w)
        inf = assert_matches_the_reference("influence_matrix", px, py, cx, cy, dnn)
        assert np.array_equal(
            inf, vector.pairwise_distances(px, py, cx, cy) < dnn[None, :]
        )

    @given(px=coord_batches, py=coord_batches, c=client_batches())
    @example(  # the weight's term underflows to +0.0: it still influences
        px=np.array([0.0]),
        py=np.array([0.0]),
        c=tuple(np.array([v]) for v in (0.0, 0.0, 0.5, 5e-324)),
    )
    @settings(max_examples=60)
    def test_distance_and_reduction_kernels(self, px, py, c):
        n = min(len(px), len(py))
        px, py = px[:n], py[:n]
        cx, cy, dnn, w = c
        d = vector.pairwise_distances(px, py, cx, cy)
        rows, terms = assert_terms_match_the_oracles(px, py, cx, cy, dnn, w)
        inf = assert_matches_the_reference("influence_matrix", px, py, cx, cy, dnn)
        # Cross-kernel consistency: influence is exactly d < dnn; every
        # nonzero dense term comes from an influencing pair, and each
        # influencing pair's term is exactly fl((dnn - d) * w), which
        # may be +0.0 (a zero weight, or an underflow).
        assert np.array_equal(inf, d < dnn[None, :])
        dense = np.clip(dnn[None, :] - d, 0.0, None) * w[None, :]
        assert not dense[~inf].any()
        i, j = np.nonzero(inf)
        assert_same_terms((rows, terms), (i, (dnn[j] - d[i, j]) * w[j]))

    @given(batch=rect_batches(), rect=any_rects())
    @settings(max_examples=60)
    def test_rects_vs_one_rect_match_the_reference(self, batch, rect):
        mind = assert_matches_the_reference("min_dist_rects_rect", batch, rect)
        hits = assert_matches_the_reference("rects_intersect_rect", batch, rect)
        for i in range(len(batch)):
            other = Rect(
                batch.xmin[i], batch.ymin[i], batch.xmax[i], batch.ymax[i]
            )
            assert mind[i] == pytest.approx(other.min_dist_rect(rect), rel=1e-12)
            assert hits[i] == other.intersects(rect)
            if hits[i]:
                assert mind[i] == 0.0

    @given(pairs=st.lists(st.tuples(any_rects(), any_rects()), min_size=1, max_size=8))
    @settings(max_examples=60)
    def test_paired_rows_are_per_row_calls(self, pairs):
        """With a :class:`RectColumns` as ``rect``, row ``i`` meets
        ``rect_i``: bit for bit one call per row, on both kernel sets,
        and swapping the two arguments changes no bit."""
        a = RectColumns.from_rects(p for p, __ in pairs)
        b = RectColumns.from_rects(q for __, q in pairs)
        for kernel in ("min_dist_rects_rect", "rects_intersect_rect"):
            paired = assert_matches_the_reference(kernel, a, b)
            for module in (vector, scalar):
                fn = getattr(module, kernel)
                rows = [
                    fn(RectColumns.from_rects([p]), q) for p, q in pairs
                ]
                for got in (fn(a, b), fn(b, a), np.concatenate(rows)):
                    assert got.dtype == paired.dtype
                    assert got.tobytes() == paired.tobytes(), (module, kernel)

    @given(
        n=st.sampled_from([1, 3, 32, 200]),
        seed=st.integers(0, 2**32 - 1),
        snap=st.sampled_from(["free", "edge", "corner"]),
    )
    @settings(max_examples=40, deadline=None)
    def test_rects_vs_one_point_match_the_reference_bitwise(self, n, seed, snap):
        """``paired_min_dist_point`` with one query point on every row, as
        a best-first stream calls it, is ``Rect.min_dist_point`` bit for
        bit, also for points on an edge or a corner of some rectangle, and
        for point rectangles; twenty query points a batch."""
        rng = np.random.default_rng(seed)
        lo = rng.uniform(-100.0, 1100.0, (n, 2))
        size = rng.exponential(20.0, (n, 2)) * (rng.random((n, 1)) < 0.7)
        boxes = [Rect(x, y, x + w, y + h) for (x, y), (w, h) in zip(lo, size)]
        batch = RectColumns.from_rects(boxes)
        for x, y in rng.uniform(-100.0, 1100.0, (20, 2)).tolist():
            box = boxes[rng.integers(n)]
            if snap != "free":
                x = box.xmax
            if snap == "corner":
                y = box.ymin
            got = assert_matches_the_reference(
                "paired_min_dist_point", batch, np.full(n, x), np.full(n, y)
            )
            want = [box.min_dist_point(Point(x, y)) for box in boxes]
            assert [float(d).hex() for d in got] == [float(d).hex() for d in want]

    @given(
        n=st.sampled_from([1, 3, 50, 400]),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=40, deadline=None)
    def test_paired_rects_and_points_match_the_reference_bitwise(self, n, seed):
        """``paired_min_dist_point`` is ``Rect.min_dist_point`` bit for
        bit on every row, including points on an edge or a corner of
        their rectangle, inside it, and point rectangles."""
        rng = np.random.default_rng(seed)
        lo = rng.uniform(-100.0, 1100.0, (n, 2))
        size = rng.exponential(20.0, (n, 2)) * (rng.random((n, 1)) < 0.7)
        boxes = [Rect(x, y, x + w, y + h) for (x, y), (w, h) in zip(lo, size)]
        xs, ys = rng.uniform(-100.0, 1100.0, (2, n))
        snap = rng.integers(0, 4, n)  # free, edge, corner, inside
        for i, box in enumerate(boxes):
            if snap[i] in (1, 2):
                xs[i] = box.xmax
            if snap[i] == 2:
                ys[i] = box.ymin
            if snap[i] == 3:
                xs[i], ys[i] = box.xmin, box.ymax
        got = assert_matches_the_reference(
            "paired_min_dist_point", RectColumns.from_rects(boxes), xs, ys
        )
        want = [box.min_dist_point(Point(x, y)) for box, x, y in zip(boxes, xs, ys)]
        assert [float(d).hex() for d in got] == [float(d).hex() for d in want]

    @given(a=rect_batches(max_size=4), b=rect_batches(max_size=4))
    @settings(max_examples=60)
    def test_pairwise_rect_kernels_match_the_reference(self, a, b):
        mind = assert_matches_the_reference("pairwise_min_dist_rects", a, b)
        hits = assert_matches_the_reference("rect_intersect_matrix", a, b)
        for i in range(len(a)):
            ra = Rect(a.xmin[i], a.ymin[i], a.xmax[i], a.ymax[i])
            for j in range(len(b)):
                rb = Rect(b.xmin[j], b.ymin[j], b.xmax[j], b.ymax[j])
                assert mind[i, j] == pytest.approx(ra.min_dist_rect(rb), rel=1e-12)
                assert hits[i, j] == ra.intersects(rb)

    @given(batch=rect_batches(), cid_seed=ids)
    @settings(max_examples=40)
    def test_circle_reconstruction(self, batch, cid_seed):
        n = len(batch)
        cids = np.arange(cid_seed % 1000, cid_seed % 1000 + n, dtype=np.uint32)
        w = np.ones(n)
        got_v = vector.circle_columns_from_rects(batch, cids, w)
        got_s = scalar.circle_columns_from_rects(batch, cids, w)
        for field in ("ids", "xs", "ys", "dnn", "weights"):
            assert np.array_equal(getattr(got_v, field), getattr(got_s, field))


# ---------------------------------------------------------------------------
# Both kernel forms, and LeafPairs
# ---------------------------------------------------------------------------


@st.composite
def tiled_strip_batches(draw):
    """A :func:`strip_batches` batch cut into tiles at drawn points, so a
    tile may be empty, hold one row, or sit on either side of
    ``DENSE_ROWS``; returns the batch and ``(p_offsets, c_offsets)``."""
    batch = draw(strip_batches())
    n_tiles = draw(st.integers(1, 5))

    def offsets(n):
        cuts = st.lists(st.integers(0, n), min_size=n_tiles - 1, max_size=n_tiles - 1)
        return np.array([0] + sorted(draw(cuts)) + [n])

    return batch, (offsets(len(batch[0])), offsets(len(batch[2])))


@st.composite
def tile_lists(draw):
    """Lists of ``(ids, px, py, clients)`` tiles around one origin.

    Tile sizes include 0 and 1 and cross both size rules (``DENSE_ROWS``
    and ``DENSE_PAIRS``), so a list mixes widths and evaluation paths.
    Candidates are drawn from a small pool of ids and positions: the
    same id recurs across tiles, and coincident candidates sit in one
    tile and across tiles.  Clients cluster on candidates with a wide
    ``dnn``, so many rows take three or more hits, and pairs are rigged
    into exact ties and one ulp past them (also on the strip's x-edge),
    coincident points, zero and subnormal ``dnn``, and zero weights —
    around an origin that may sit at ±1e6.
    """
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    origin = draw(st.sampled_from([0.0, 1e6, -1e6]))
    spread = draw(st.sampled_from([1.0, 100.0]))
    n_ids = 64
    spots = rng.uniform(0.0, 10 * spread, (12, 2)) + origin
    tiles = []
    for __ in range(draw(st.integers(1, 6))):
        if draw(st.booleans()):  # around DENSE_ROWS
            n_p, n_c = draw(st.integers(0, 7)), draw(st.integers(0, 40))
        else:
            n_p, n_c = draw(st.integers(40, 60)), draw(st.integers(40, 60))
        ids = rng.choice(n_ids, size=n_p, replace=False).astype(np.uint32)
        p = spots[rng.integers(len(spots), size=n_p)]
        moved = rng.random(n_p) < 0.5
        p[moved] += rng.normal(0.0, spread, (int(moved.sum()), 2))
        px, py = p[:, 0].copy(), p[:, 1].copy()
        c = spots[rng.integers(len(spots), size=n_c)]
        c += rng.normal(0.0, spread / 2, (n_c, 2))
        cx, cy = c[:, 0].copy(), c[:, 1].copy()
        dnn = rng.exponential(spread, n_c)
        w = rng.uniform(0.0, 10.0, n_c)
        if n_p and n_c:
            for __ in range(draw(st.integers(0, 3))):  # ties, one ulp past
                i, j = rng.integers(n_p), rng.integers(n_c)
                if draw(st.booleans()):
                    py[i] = cy[j]  # on the strip's x-edge
                tie = vector.norms(px[i] - cx[j], py[i] - cy[j])
                dnn[j] = draw(st.sampled_from([tie, np.nextafter(tie, np.inf)]))
            for __ in range(draw(st.integers(0, 2))):  # coincident points
                i, j = rng.integers(n_p), rng.integers(n_c)
                px[i], py[i] = cx[j], cy[j]
                dnn[j] = draw(st.sampled_from([0.0, 5e-324, dnn[j]]))
        if n_c:
            for __ in range(draw(st.integers(0, 2))):  # zero or subnormal dnn
                dnn[rng.integers(n_c)] = draw(st.sampled_from([0.0, 5e-324, 1e-310]))
            w[rng.random(n_c) < draw(st.sampled_from([0.0, 0.3]))] = 0.0
        clients = ClientColumns(np.arange(n_c, dtype=np.uint32), cx, cy, dnn, w)
        tiles.append((ids, px, py, clients))
    return n_ids, tiles


def _many_tile_args(tiles):
    p_offsets = np.cumsum([0] + [len(t[0]) for t in tiles])
    c_offsets = np.cumsum([0] + [len(t[3]) for t in tiles])
    cols = [
        np.concatenate([getattr(t[3], field) for t in tiles])
        for field in ("xs", "ys", "dnn", "weights")
    ]
    px = np.concatenate([t[1] for t in tiles])
    py = np.concatenate([t[2] for t in tiles])
    return (px, py, *cols), p_offsets, c_offsets


def _many_tile_args(tiles):
    p_offsets = np.cumsum([0] + [len(t[0]) for t in tiles])
    c_offsets = np.cumsum([0] + [len(t[3]) for t in tiles])
    cols = [
        np.concatenate([getattr(t[3], field) for t in tiles])
        for field in ("xs", "ys", "dnn", "weights")
    ]
    px = np.concatenate([t[1] for t in tiles])
    py = np.concatenate([t[2] for t in tiles])
    return (px, py, *cols), p_offsets, c_offsets


@st.composite
def shared_calls(draw):
    """Candidates and clients for the shared form.

    Half the draws hold enough clients per candidate for the y-bands
    (:func:`~repro.kernels.vector._y_bands`) and the binned bounds, half
    too few.  Clients cluster on the candidates with a wide ``dnn``, so
    a candidate takes 0, 1, 2 or many hits.  Pairs are rigged into exact
    ties and one ulp past them on the x-strip edge (``py == cy``) and on
    the y edge (``px == cx``); clients sit on or just off the candidates
    at the edges of the y-bands with a tiny ``dnn``, so only that
    candidate can count; candidates are duplicated and clients
    coincident; and ``dnn`` may be zero or subnormal and weights zero —
    all around an origin that may sit at ±1e6.
    """
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    origin = draw(st.sampled_from([0.0, 1e6, -1e6]))
    spread = draw(st.sampled_from([1.0, 100.0]))
    if draw(st.booleans()):  # enough clients a candidate for the y-bands
        n_p = draw(st.integers(2 * vector.BAND_ROWS, 3 * vector.BAND_ROWS))
        n_c = vector.BAND_CLIENTS * n_p + draw(st.integers(0, 200))
    else:
        n_p, n_c = draw(st.integers(1, 40)), draw(st.integers(0, 300))
    spots = rng.uniform(0.0, 10 * spread, (8, 2)) + origin
    p = spots[rng.integers(len(spots), size=n_p)]
    p += rng.normal(0.0, spread, (n_p, 2))
    dup = rng.random(n_p) < 0.1  # duplicate candidates
    p[dup] = p[rng.integers(n_p, size=int(dup.sum()))]
    px, py = p[:, 0].copy(), p[:, 1].copy()
    c = spots[rng.integers(len(spots), size=n_c)]
    c += rng.normal(0.0, spread / 2, (n_c, 2))
    cx, cy = c[:, 0].copy(), c[:, 1].copy()
    dnn = rng.exponential(spread / 2, n_c)
    w = rng.uniform(0.0, 10.0, n_c)
    if n_c:
        for __ in range(draw(st.integers(0, 6))):  # ties, one ulp past
            i, j = rng.integers(n_p), rng.integers(n_c)
            if draw(st.booleans()):
                py[i] = cy[j]  # on the x-strip's edge: d == |px - cx|
            else:
                px[i] = cx[j]  # on the y edge: d == |py - cy|
            tie = vector.norms(px[i] - cx[j], py[i] - cy[j])
            dnn[j] = draw(st.sampled_from([tie, np.nextafter(tie, np.inf)]))
        # Clients on or just off the candidates at the band edges.
        bands = vector._y_bands(n_p, n_c)
        by_y = np.argsort(py, kind="stable")
        last = np.flatnonzero(np.diff(np.arange(n_p) * bands // n_p))
        for k in set(last) | set(last + 1):
            j = rng.integers(n_c)
            i = by_y[k]
            step = draw(st.sampled_from([0.0, 1e-9 * spread]))
            cx[j], cy[j] = px[i], py[i] + step
            dnn[j] = np.nextafter(step, np.inf)
        for __ in range(draw(st.integers(0, 3))):  # coincident points
            i, j = rng.integers(n_p), rng.integers(n_c)
            cx[j], cy[j] = px[i], py[i]
            dnn[j] = draw(st.sampled_from([0.0, 5e-324, 1e-310, dnn[j]]))
        for __ in range(draw(st.integers(0, 3))):  # zero or subnormal dnn
            dnn[rng.integers(n_c)] = draw(st.sampled_from([0.0, 5e-324, 1e-310]))
        w[rng.random(n_c) < draw(st.sampled_from([0.0, 0.3]))] = 0.0
    return px, py, cx, cy, dnn, w


class TestSharedCandidates:
    @given(drawn=shared_calls(), chunk=st.sampled_from([None, 1, 50, 300]))
    @example(drawn=underflow_batch(40, 640, UNDERFLOW_OFFSETS[2]), chunk=None)
    @example(drawn=underflow_batch(40, 640, UNDERFLOW_OFFSETS[1]), chunk=None)
    @settings(max_examples=60, deadline=None)
    def test_terms_match_the_oracles(self, drawn, chunk):
        """On both sides of the y-band rule, also with the clients cut
        into smaller chunks (down to one client a chunk)."""
        with mock.patch.object(vector, "SHARED_CHUNK", chunk or vector.SHARED_CHUNK):
            assert_terms_match_the_oracles(*drawn)

    @given(drawn=shared_calls())
    @settings(max_examples=30, deadline=None)
    def test_influence_matches_the_dense_test(self, drawn):
        px, py, cx, cy, dnn, __ = drawn
        assert np.array_equal(
            vector.influence_matrix(px, py, cx, cy, dnn),
            vector.pairwise_distances(px, py, cx, cy) < dnn[None, :],
        )


class TestTiledForm:
    @given(drawn=tiled_strip_batches())
    @example(
        drawn=(
            underflow_batch(40, 640, UNDERFLOW_OFFSETS[0]),
            (np.array([0, 40]), np.array([0, 640])),
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_strip_batches_in_tiles(self, drawn):
        batch, tiles = drawn
        assert_terms_match_the_oracles(*batch, tiles=tiles)

    @given(drawn=tile_lists())
    @settings(max_examples=60, deadline=None)
    def test_tile_lists(self, drawn):
        __, tiles = drawn
        args, p_offsets, c_offsets = _many_tile_args(tiles)
        assert_terms_match_the_oracles(*args, tiles=(p_offsets, c_offsets))


class TestLeafPairs:
    @given(drawn=tile_lists(), leaves=st.integers(1, 3))
    @settings(max_examples=60, deadline=None)
    def test_both_groupings_give_each_tiles_terms_by_id(self, drawn, leaves):
        """``terms`` (one tiled call) and ``leaf_terms`` (one shared call
        per candidate leaf) both give the ids and terms of one call per
        tile, on either kernel set.  Tile ``t`` comes from candidate leaf
        ``t % leaves`` and carries that leaf's candidates, as a join's
        tiles of one ``R_P`` leaf do."""
        __, tiles = drawn
        pairs = LeafPairs()
        leaf_rows: dict[int, tuple] = {}
        expected = [(np.zeros(0, dtype=np.intp), np.zeros(0))]
        for t, (ids, px, py, c) in enumerate(tiles):
            ids, px, py = leaf_rows.setdefault(t % leaves, (ids, px, py))
            pairs.add(ids, px, py, c, leaf=t % leaves)
            rows, terms = vector.accumulate_reductions(
                px, py, c.xs, c.ys, c.dnn, c.weights
            )
            expected.append((ids[rows], terms))
        for kernel_set in (nullcontext, scalar.installed):
            with kernel_set():
                assert_same_terms(pairs.terms(), _joined(expected))
                assert_same_terms(pairs.leaf_terms(), _joined(expected))
        assert pairs.candidates == sum(len(ids) for ids in pairs.ids)
