"""Columnar buffers vs the storage layouts.

The branch dtypes in :mod:`repro.kernels.columnar` claim to mirror the
packed entry layout byte for byte; these tests pin that claim from both
directions: ``to_bytes`` must equal ``encode_branch`` entry by entry,
and bulk decode, on the vector kernel and on its scalar reference, must
reproduce the entries bit for bit.
Leaf columns are stored as-is (see ``tests/storage/test_soa.py``), at
the same bytes per record as the packed record layouts.
"""

from __future__ import annotations

from contextlib import nullcontext

import numpy as np
import pytest

from repro import kernels
from repro.core.types import Client, Site
from repro.geometry.rect import Rect
from repro.kernels import scalar
from repro.kernels.columnar import (
    BRANCH_DTYPE,
    BRANCH_MND_DTYPE,
    BranchColumns,
    ClientColumns,
    RectColumns,
    SiteColumns,
)
from repro.rtree.entry import BranchEntry
from repro.storage.codecs import (
    BRANCH_MND_SIZE,
    BRANCH_SIZE,
    ClientCodec,
    SiteCodec,
    encode_branch,
)
from repro.storage.records import CLIENT_RECORD, POINT_RECORD

SITES = [Site(7, 1.5, -2.25), Site(0, 0.0, 0.0), Site(2**32 - 1, 1e-300, 1e300)]
CLIENTS = [
    Client(3, 10.0, 20.0, 5.5),
    Client(0, -1.0, 1.0, 0.0),
    Client(99, 0.1, 0.2, 0.3),
]
ENTRIES = [
    BranchEntry(Rect(0.0, 0.0, 10.0, 10.0), 4),
    BranchEntry(Rect(-5.0, 2.0, -1.0, 3.5), 11),
]
MND_ENTRIES = [
    BranchEntry(Rect(0.0, 0.0, 10.0, 10.0), 4, mnd=2.5),
    BranchEntry(Rect(-5.0, 2.0, -1.0, 3.5), 11, mnd=0.0),
]


class TestDtypeLayouts:
    def test_itemsizes_match_codec_record_sizes(self):
        site_image = SiteCodec().encode_soa(SiteColumns.from_sites(SITES))
        assert POINT_RECORD.record_size == 20
        assert len(site_image) == len(SITES) * POINT_RECORD.record_size
        client_image = ClientCodec().encode_soa(ClientColumns.from_clients(CLIENTS))
        assert CLIENT_RECORD.record_size == 28
        assert len(client_image) == len(CLIENTS) * CLIENT_RECORD.record_size
        assert BRANCH_DTYPE.itemsize == BRANCH_SIZE == 36
        assert BRANCH_MND_DTYPE.itemsize == BRANCH_MND_SIZE == 44


@pytest.fixture(params=["vector", "scalar"])
def implementation(request):
    """The block runs on the vector kernels, or on the reference."""
    with scalar.installed() if request.param == "scalar" else nullcontext():
        yield request.param


class TestClientRoundTrip:
    def test_from_clients_keeps_in_memory_weights(self):
        weighted = [Client(1, 0.0, 0.0, 1.0, weight=2.5)]
        cols = ClientColumns.from_clients(weighted)
        assert cols.weights[0] == 2.5


class TestBranchRoundTrip:
    @pytest.mark.parametrize("entries", [ENTRIES, MND_ENTRIES])
    def test_to_bytes_matches_encode_branch(self, entries):
        cols = BranchColumns.from_entries(entries)
        assert cols.to_bytes() == b"".join(
            encode_branch(e.mbr, e.child_id, e.mnd) for e in entries
        )

    @pytest.mark.parametrize("entries", [ENTRIES, MND_ENTRIES])
    def test_bulk_decode_round_trips(self, implementation, entries):
        with_mnd = entries[0].mnd is not None
        data = b"".join(encode_branch(e.mbr, e.child_id, e.mnd) for e in entries)
        cols = kernels.decode_branch_columns(data, len(entries), with_mnd=with_mnd)
        assert len(cols) == len(entries)
        for i, e in enumerate(entries):
            assert cols.children[i] == e.child_id
            assert (
                cols.rects.xmin[i],
                cols.rects.ymin[i],
                cols.rects.xmax[i],
                cols.rects.ymax[i],
            ) == tuple(e.mbr)
            if with_mnd:
                assert cols.mnd[i] == e.mnd
        if not with_mnd:
            assert cols.mnd is None


class TestRectColumns:
    def test_from_rects_unpacks_any_4_tuple(self):
        rects = [Rect(0.0, 1.0, 2.0, 3.0), (4.0, 5.0, 6.0, 7.0)]
        cols = RectColumns.from_rects(rects)
        assert len(cols) == 2
        assert list(cols.xmin) == [0.0, 4.0]
        assert list(cols.ymax) == [3.0, 7.0]

    def test_empty_input_gives_empty_columns(self):
        cols = RectColumns.from_rects([])
        assert len(cols) == 0
        assert kernels.rects_intersect_rect(cols, Rect(0, 0, 1, 1)).shape == (0,)


class TestCircleReconstruction:
    def test_circles_from_square_mbrs(self, implementation):
        # An NFC's square MBR: centre (3, 4), radius 2.
        rects = RectColumns.from_rects([Rect(1.0, 2.0, 5.0, 6.0)])
        ids = np.array([42], dtype=np.uint32)
        weights = np.array([1.0])
        circles = kernels.circle_columns_from_rects(rects, ids, weights)
        assert circles.ids[0] == 42
        assert (circles.xs[0], circles.ys[0]) == (3.0, 4.0)
        assert circles.dnn[0] == 2.0
