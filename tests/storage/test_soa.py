"""Tests for the structure-of-arrays page layouts."""

import numpy as np
import pytest

from repro.core.types import Client, Site
from repro.kernels.columnar import ClientColumns, SiteColumns
from repro.storage import soa
from repro.storage.codecs import ClientCodec, SiteCodec


def site_columns(n, seed=0):
    rng = np.random.default_rng(seed)
    return SiteColumns.from_sites(
        [Site(i, x, y) for i, (x, y) in enumerate(rng.random((n, 2)) * 1000)]
    )


def client_columns(n, seed=0):
    rng = np.random.default_rng(seed)
    return ClientColumns.from_clients(
        [
            Client(i, x, y, d)
            for i, (x, y, d) in enumerate(rng.random((n, 3)) * 1000)
        ]
    )


class TestLeafRoundTrip:
    def test_site_round_trip(self):
        cols = site_columns(37)
        data = soa.encode_site_columns(cols)
        assert len(data) == 20 * 37  # bytes/record match the point record
        back = soa.decode_site_columns_soa(data, 37)
        assert back.ids.dtype == np.uint32
        assert back.xs.dtype == back.ys.dtype == np.float64
        np.testing.assert_array_equal(back.ids, cols.ids)
        np.testing.assert_array_equal(back.xs, cols.xs)
        np.testing.assert_array_equal(back.ys, cols.ys)

    def test_client_round_trip(self):
        cols = client_columns(29)
        data = soa.encode_client_columns(cols)
        assert len(data) == 28 * 29
        back = soa.decode_client_columns_soa(data, 29)
        np.testing.assert_array_equal(back.ids, cols.ids)
        np.testing.assert_array_equal(back.xs, cols.xs)
        np.testing.assert_array_equal(back.ys, cols.ys)
        np.testing.assert_array_equal(back.dnn, cols.dnn)
        np.testing.assert_array_equal(back.weights, np.ones(29))

    def test_decode_at_offset_over_memoryview(self):
        """Decoding must honor ``offset`` against raw buffer views, the
        way a mapped page (header + payload) is actually consumed."""
        cols = client_columns(11, seed=3)
        page = b"\x07\x00\x0b\x00" + soa.encode_client_columns(cols)
        back = soa.decode_client_columns_soa(memoryview(page), 11, offset=4)
        np.testing.assert_array_equal(back.xs, cols.xs)
        np.testing.assert_array_equal(back.ids, cols.ids)

    def test_decoded_arrays_are_views(self):
        data = soa.encode_site_columns(site_columns(8))
        back = soa.decode_site_columns_soa(data, 8)
        assert not back.xs.flags.owndata
        assert not back.ids.flags.owndata

    def test_codec_delegation_matches_module(self):
        scols = site_columns(5, seed=1)
        ccols = client_columns(5, seed=1)
        assert SiteCodec().encode_soa(scols) == soa.encode_site_columns(scols)
        assert ClientCodec().encode_soa(ccols) == soa.encode_client_columns(ccols)


class TestColumnBlock:
    def setup_method(self):
        rng = np.random.default_rng(42)
        self.matrix = rng.random((23, 4))
        self.block = soa.decode_block_columns(soa.encode_block_columns(self.matrix))

    def test_len_and_shape(self):
        assert len(self.block) == 23
        assert self.block.shape == (23, 4)

    def test_column_selection(self):
        for j in range(4):
            np.testing.assert_array_equal(self.block[:, j], self.matrix[:, j])

    def test_fancy_row_column_selection(self):
        idx = np.array([1, 5, 8])
        np.testing.assert_array_equal(self.block[idx, 2], self.matrix[idx, 2])

    def test_row_slice_yields_row_tuples(self):
        rows = self.block[3:6]
        assert [list(r) for r in rows] == self.matrix[3:6].tolist()

    def test_single_row(self):
        assert list(self.block[7]) == self.matrix[7].tolist()

    def test_iteration(self):
        assert [list(r) for r in self.block] == self.matrix.tolist()


class TestBlockPages:
    def test_columns_decode_at_offset(self):
        matrix = np.arange(12.0).reshape(4, 3)
        data = b"ZZZZ" + soa.encode_block_columns(matrix)
        block = soa.decode_block_columns(memoryview(data), offset=4)
        np.testing.assert_array_equal(np.column_stack(block.columns), matrix)


class TestCodecDecodeColumnsOffsets:
    """The codecs' column decode (``decode_soa``) against raw-buffer views
    at arbitrary offsets — the exact shape of a disk page with its header."""

    @pytest.mark.parametrize("offset", [0, 4, 20])
    def test_site_decode_columns_offset(self, offset):
        codec = SiteCodec()
        cols = site_columns(13, seed=9)
        data = bytes(offset) + codec.encode_soa(cols)
        for buf in (data, memoryview(data)):
            back = codec.decode_soa(buf, 13, offset=offset)
            np.testing.assert_array_equal(back.ids, cols.ids)
            np.testing.assert_array_equal(back.xs, cols.xs)

    @pytest.mark.parametrize("offset", [0, 4, 20])
    def test_client_decode_columns_offset(self, offset):
        codec = ClientCodec()
        cols = client_columns(13, seed=9)
        data = bytes(offset) + codec.encode_soa(cols)
        for buf in (data, memoryview(data)):
            back = codec.decode_soa(buf, 13, offset=offset)
            np.testing.assert_array_equal(back.dnn, cols.dnn)
            np.testing.assert_array_equal(back.ids, cols.ids)
