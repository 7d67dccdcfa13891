"""Tests for the binary record/entry codecs."""

from hypothesis import given
from hypothesis import strategies as st

from repro.core.types import Client, Site
from repro.geometry.rect import Rect
from repro.storage.codecs import (
    BRANCH_MND_SIZE,
    BRANCH_SIZE,
    RECT_SIZE,
    ClientCodec,
    SiteCodec,
    decode_branch,
    decode_rect,
    encode_branch,
    encode_rect,
)

finite = st.floats(allow_nan=False, allow_infinity=False, width=64)


def page_image(codec, payloads) -> bytes:
    return codec.encode_soa(codec.columns_from_objects(payloads))


def page_round_trip(codec, payloads) -> list:
    image = page_image(codec, payloads)
    return codec.objects_from_columns(codec.decode_soa(image, len(payloads)))


class TestSizes:
    def test_declared_sizes_match_struct(self):
        assert RECT_SIZE == 32
        assert BRANCH_SIZE == 36  # RTREE_ENTRY layout
        assert BRANCH_MND_SIZE == 44  # MND_ENTRY layout

    def test_encoded_lengths(self):
        # the paper's 20-byte point record and the 28-byte client record
        assert len(page_image(SiteCodec(), [Site(1, 2.0, 3.0)])) == 20
        assert len(page_image(ClientCodec(), [Client(1, 2.0, 3.0, 4.0)])) == 28


class TestRoundTrips:
    @given(st.integers(min_value=0, max_value=2**32 - 1), finite, finite)
    def test_site_roundtrip(self, sid, x, y):
        assert page_round_trip(SiteCodec(), [Site(sid, x, y)]) == [Site(sid, x, y)]

    @given(st.integers(min_value=0, max_value=2**32 - 1), finite, finite, finite)
    def test_client_roundtrip(self, cid, x, y, dnn):
        (client,) = page_round_trip(ClientCodec(), [Client(cid, x, y, dnn)])
        assert (client.cid, client.x, client.y, client.dnn) == (cid, x, y, dnn)

    @given(finite, finite, finite, finite)
    def test_rect_roundtrip(self, a, b, c, d):
        rect = Rect(a, b, c, d)
        assert decode_rect(encode_rect(rect)) == rect

    @given(
        st.integers(min_value=0, max_value=2**32 - 1),
        st.floats(min_value=0, max_value=1e9, allow_nan=False),
    )
    def test_branch_roundtrip_with_and_without_mnd(self, child, mnd):
        rect = Rect(1.5, 2.5, 3.5, 4.5)
        plain = decode_branch(encode_branch(rect, child, None), with_mnd=False)
        assert plain == (rect, child, None)
        augmented = decode_branch(encode_branch(rect, child, mnd), with_mnd=True)
        assert augmented[0] == rect
        assert augmented[1] == child
        assert augmented[2] == mnd

    def test_nan_free_exact_floats(self):
        """Binary codecs must be bit-exact (no text round-off)."""
        site = Site(5, 0.1 + 0.2, 1 / 3)
        assert page_round_trip(SiteCodec(), [site]) == [site]
