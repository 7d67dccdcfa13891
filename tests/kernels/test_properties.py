"""Property tests: codec round trips and scalar ≡ vector exactness.

Two families of invariants:

* the binary codecs are lossless — a record survives its page image
  and an entry its packed layout, for every kind over arbitrary finite
  floats and 32-bit ids;
* the two kernel backends are interchangeable **bit for bit** — for
  every batch kernel and arbitrary inputs (including points sitting
  exactly on rectangle edges and zero-area rectangles) the vector and
  scalar implementations return identical arrays, and the geometry
  kernels agree with the scalar :class:`~repro.geometry.rect.Rect`
  reference methods.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.types import Client, Site
from repro.geometry.point import Point
from repro.geometry.rect import Rect
from repro.kernels import scalar, vector
from repro.kernels.columnar import RectColumns
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


@st.composite
def point_batches(draw, rect):
    """A batch of points biased toward the edges/corners of ``rect``.

    Plain random coordinates almost never land exactly on a rectangle
    boundary, which is precisely where the min/max-dist branch structure
    matters; so each point is drawn either freely or snapped to one of
    the rectangle's edge coordinates.
    """
    edge_x = st.sampled_from([rect.xmin, rect.xmax])
    edge_y = st.sampled_from([rect.ymin, rect.ymax])
    x = st.one_of(coords, edge_x)
    y = st.one_of(coords, edge_y)
    pts = draw(st.lists(st.tuples(x, y), min_size=1, max_size=8))
    xs = np.array([p[0] for p in pts])
    ys = np.array([p[1] for p in pts])
    return xs, ys


def rect_batches(max_size=6):
    return st.lists(any_rects(), min_size=1, max_size=max_size).map(
        RectColumns.from_rects
    )


def assert_backends_bitwise_equal(kernel, *args):
    got_vector = getattr(vector, kernel)(*args)
    got_scalar = getattr(scalar, kernel)(*args)
    assert got_vector.dtype == got_scalar.dtype
    assert got_vector.shape == got_scalar.shape
    assert np.array_equal(got_vector, got_scalar), kernel
    if got_vector.dtype == np.float64:
        assert not np.isnan(got_vector).any()
    return got_vector


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
    ``dnn`` equal to ``np.hypot`` of the client's offset to a candidate
    or one ulp above it (an exact tie or the nearest influence, also on
    the strip's x-edge), coincident points and duplicate candidates, a
    zero or subnormal ``dnn``, and zero weights — all around an origin
    that may sit at ±1e6.
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
        tie = np.hypot(px[i] - cx[j], py[i] - cy[j])
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
    return px, py, cx, cy, dnn, w


class TestBackendEquivalence:
    @given(batch=strip_batches())
    @settings(max_examples=80, deadline=None)
    def test_strip_path_matches_the_scalar_twin(self, batch):
        px, py, cx, cy, dnn, w = batch
        acc = assert_backends_bitwise_equal(
            "accumulate_reductions", px, py, cx, cy, dnn, w
        )
        assert not np.signbit(acc).any()
        inf = assert_backends_bitwise_equal("influence_matrix", px, py, cx, cy, dnn)
        assert np.array_equal(
            inf, vector.pairwise_distances(px, py, cx, cy) < dnn[None, :]
        )

    @given(px=coord_batches, py=coord_batches, c=client_batches())
    @settings(max_examples=60)
    def test_distance_and_reduction_kernels(self, px, py, c):
        n = min(len(px), len(py))
        px, py = px[:n], py[:n]
        cx, cy, dnn, w = c
        d = assert_backends_bitwise_equal("pairwise_distances", px, py, cx, cy)
        acc = assert_backends_bitwise_equal(
            "accumulate_reductions", px, py, cx, cy, dnn, w
        )
        inf = assert_backends_bitwise_equal("influence_matrix", px, py, cx, cy, dnn)
        # Cross-kernel consistency: influence is exactly d < dnn, and a
        # client reduces a candidate iff it influences it.
        assert np.array_equal(inf, d < dnn[None, :])
        assert acc.shape == (n,)
        positive = (np.clip(dnn[None, :] - d, 0.0, None) * w[None, :]) > 0
        assert np.array_equal(positive, inf & (w[None, :] > 0))

    @given(c=client_batches(), x=coords, y=coords)
    @settings(max_examples=60)
    def test_circle_containment(self, c, x, y):
        cx, cy, dnn, __ = c
        got = assert_backends_bitwise_equal(
            "circles_contain_point", cx, cy, dnn, x, y
        )
        for j in range(len(cx)):
            assert got[j] == (math.hypot(x - cx[j], y - cy[j]) < dnn[j])

    @given(rect=any_rects(), data=st.data())
    @settings(max_examples=60)
    def test_point_rect_kernels_match_the_reference(self, rect, data):
        xs, ys = data.draw(point_batches(rect))
        mind = assert_backends_bitwise_equal("min_dist_points_rect", xs, ys, rect)
        maxd = assert_backends_bitwise_equal("max_dist_points_rect", xs, ys, rect)
        for i in range(len(xs)):
            p = Point(xs[i], ys[i])
            # np.hypot and math.hypot can differ in the final ulp, so
            # the reference comparison is approximate; the backends
            # themselves are compared bitwise above.
            assert mind[i] == pytest.approx(rect.min_dist_point(p), rel=1e-12)
            assert maxd[i] == pytest.approx(rect.max_dist_point(p), rel=1e-12)
            assert mind[i] <= maxd[i]
            if rect.contains_point(p):
                assert mind[i] == 0.0

    @given(batch=rect_batches(), rect=any_rects())
    @settings(max_examples=60)
    def test_rects_vs_one_rect_match_the_reference(self, batch, rect):
        mind = assert_backends_bitwise_equal("min_dist_rects_rect", batch, rect)
        hits = assert_backends_bitwise_equal("rects_intersect_rect", batch, rect)
        for i in range(len(batch)):
            other = Rect(
                batch.xmin[i], batch.ymin[i], batch.xmax[i], batch.ymax[i]
            )
            assert mind[i] == pytest.approx(other.min_dist_rect(rect), rel=1e-12)
            assert hits[i] == other.intersects(rect)
            if hits[i]:
                assert mind[i] == 0.0

    @given(a=rect_batches(max_size=4), b=rect_batches(max_size=4))
    @settings(max_examples=60)
    def test_pairwise_rect_kernels_match_the_reference(self, a, b):
        mind = assert_backends_bitwise_equal("pairwise_min_dist_rects", a, b)
        hits = assert_backends_bitwise_equal("rect_intersect_matrix", a, b)
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
