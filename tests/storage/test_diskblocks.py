"""Tests for disk-backed block files (the SS/QVC data files on disk)."""

import numpy as np
import pytest

from repro.storage import soa
from repro.storage.blockfile import BlockFile
from repro.storage.diskblocks import DiskBlockFile, save_block_file
from repro.storage.diskfile import PageFileError
from repro.storage.records import CLIENT_RECORD, PAGE_SIZE
from repro.storage.stats import IOStats


@pytest.fixture(scope="module")
def matrix():
    rng = np.random.default_rng(11)
    return rng.random((500, 4)) * 1000


@pytest.fixture(scope="module")
def saved(matrix, tmp_path_factory):
    path = tmp_path_factory.mktemp("blocks") / "blocks.pages"
    save_block_file(path, matrix, 146)
    return path


@pytest.fixture()
def opened(saved):
    f = DiskBlockFile("file.C", saved, IOStats())
    yield f
    f.close()


class TestDiskBlockFile:
    def test_geometry(self, opened, matrix):
        assert opened.num_records == 500
        assert opened.records_per_block == 146
        assert opened.num_blocks == 4  # ceil(500 / 146)
        assert opened.ncols == 4

    def test_blocks_match_source(self, opened, matrix):
        for b in range(opened.num_blocks):
            block = opened.peek_block(b)
            lo = b * 146
            want = matrix[lo : lo + 146]
            assert len(block) == len(want)
            for j in range(4):
                column = block[:, j]
                assert not column.flags.owndata  # a view of the mapped page
                np.testing.assert_array_equal(column, want[:, j])

    def test_row_slices_for_planners(self, opened, matrix):
        block = opened.peek_block(0)
        rows = block[2:5]
        assert [list(r) for r in rows] == matrix[2:5].tolist()

    def test_read_accounting_matches_memory_blockfile(self, matrix, opened):
        mem = BlockFile("file.C", matrix, CLIENT_RECORD, IOStats())
        assert mem.num_blocks == opened.num_blocks
        for f in (mem, opened):
            f.read_block(0)
            f.read_block(2)
            f.peek_block(1)  # uncharged
        assert opened.stats.snapshot() == mem.stats.snapshot() == {"file.C": 2}

    def test_private_stats_redirect(self, opened):
        private = IOStats()
        opened.read_block(1, stats=private)
        assert private.snapshot() == {"file.C": 1}

    def test_out_of_range_block(self, opened):
        with pytest.raises(PageFileError, match="out of range"):
            opened.read_block(4)

    def test_iter_records(self, opened, matrix):
        got = np.array([list(r) for r in opened.iter_records()])
        np.testing.assert_array_equal(got, matrix)


class TestSaveAndConvert:
    def test_bad_capacity_rejected(self, tmp_path, matrix):
        with pytest.raises(ValueError, match="must be positive"):
            save_block_file(tmp_path / "x.pages", matrix, 0)

    def test_non_matrix_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="2-D"):
            save_block_file(tmp_path / "x.pages", np.zeros(5), 10)

    def test_oversized_block_widens_page(self, tmp_path, matrix):
        # 146 clients x 4 doubles + header > 4096: the physical page
        # grows, the logical block count (and io story) does not.
        path = tmp_path / "wide.pages"
        save_block_file(path, matrix, 146)
        f = DiskBlockFile("file.C", path, IOStats())
        assert f._file.page_size > PAGE_SIZE
        assert f._file.page_size % 8 == 0
        assert f.num_blocks == 4
        f.close()

    def test_truncated_file_detected(self, tmp_path, matrix):
        path = tmp_path / "t.pages"
        save_block_file(path, matrix, 146)
        data = path.read_bytes()
        path.write_bytes(data[: len(data) // 2])
        with pytest.raises(PageFileError, match="promises"):
            DiskBlockFile("file.C", path, IOStats())

    def test_metadata_block_count_mismatch_detected(self, tmp_path, matrix):
        import struct

        from repro.storage.diskfile import HEADER_SIZE

        path = tmp_path / "m.pages"
        save_block_file(path, matrix, 146)
        data = bytearray(path.read_bytes())
        # lie about num_records in the metadata page
        struct.pack_into("<Q", data, HEADER_SIZE, 10_000)
        path.write_bytes(bytes(data))
        with pytest.raises(PageFileError, match="metadata promises"):
            DiskBlockFile("file.C", path, IOStats())


class TestDecodeOnce:
    """Each block decodes at most once per open file; reads still charge."""

    @pytest.fixture()
    def decodes(self, monkeypatch):
        decoded = []
        decode = soa.decode_block_columns

        def counting(data, offset=0):
            decoded.append(1)
            return decode(data, offset)

        monkeypatch.setattr(soa, "decode_block_columns", counting)
        return decoded

    def test_repeated_read_charges_and_decodes_nothing(self, saved, decodes):
        stats = IOStats()
        with DiskBlockFile("file.C", saved, stats) as f:
            first = f.read_block(1)
            decodes.clear()
            assert f.peek_block(1) is first
            private = IOStats()
            assert f.read_block(1) is first
            assert f.read_block(1, stats=private) is first
            assert decodes == []
            assert stats.reads == {"file.C": 2}
            assert private.reads == {"file.C": 1}

    def test_drop_decoded_makes_the_next_read_decode(self, saved, decodes):
        with DiskBlockFile("file.C", saved, IOStats()) as f:
            first = f.read_block(0)
            f.drop_decoded()
            again = f.read_block(0)
            assert again is not first
            assert len(decodes) == 2
            np.testing.assert_array_equal(again[:, 2], first[:, 2])

    def test_close_releases_the_map(self, saved):
        f = DiskBlockFile("file.C", saved, IOStats())
        for b in range(f.num_blocks):
            f.read_block(b)
        mapped = f._file._mm
        f.close()
        assert mapped.closed  # no decoded block still holds a view
