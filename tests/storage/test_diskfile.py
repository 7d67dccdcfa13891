"""Tests for the on-disk page files: error paths, mmap views, versions."""

import gc
import struct
import warnings

import numpy as np
import pytest

from repro.storage.diskfile import FORMAT_VERSION, HEADER_SIZE, PageFile, PageFileError


def make_file(path, pages=None, root=0, page_size=256):
    if pages is None:
        pages = [bytes([i]) * 16 for i in range(4)]
    pf = PageFile(path, page_size=page_size)
    pf.create(pages, root)
    return path


class TestPageFileErrors:
    def test_missing_file(self, tmp_path):
        with pytest.raises(PageFileError, match="no such page file"):
            PageFile(tmp_path / "nope.pages").open()

    def test_truncated_mid_file(self, tmp_path):
        path = make_file(tmp_path / "t.pages")
        data = path.read_bytes()
        path.write_bytes(data[: HEADER_SIZE + 100])  # half of page 0
        with pytest.raises(PageFileError, match="header promises"):
            PageFile(path).open()

    def test_trailing_bytes_rejected(self, tmp_path):
        path = make_file(tmp_path / "t.pages")
        path.write_bytes(path.read_bytes() + b"\x00" * 7)
        with pytest.raises(PageFileError, match="7 trailing byte"):
            PageFile(path).open()

    def test_out_of_range_page_id(self, tmp_path):
        path = make_file(tmp_path / "t.pages")
        with PageFile(path).open() as pf:
            with pytest.raises(PageFileError, match="out of range"):
                pf.read_page(4)
            with pytest.raises(PageFileError, match="out of range"):
                pf.read_page(-1)

    def test_read_before_open(self, tmp_path):
        path = make_file(tmp_path / "t.pages")
        with pytest.raises(PageFileError, match="not open"):
            PageFile(path).read_page(0)

    def test_read_after_close(self, tmp_path):
        path = make_file(tmp_path / "t.pages")
        pf = PageFile(path).open()
        pf.close()
        with pytest.raises(PageFileError, match="not open"):
            pf.read_page(0)

    @pytest.mark.parametrize(
        "corrupt",
        [
            lambda data: b"XXXX" + data[4:],
            lambda data: data[: HEADER_SIZE - 1],
            lambda data: data[:4] + struct.pack("<I", 1) + data[8:],
            lambda data: data + b"\x00",
        ],
        ids=["bad-magic", "short-header", "version-1", "size-mismatch"],
    )
    def test_rejected_open_leaves_no_file_open(self, tmp_path, corrupt):
        path = make_file(tmp_path / "t.pages")
        path.write_bytes(corrupt(path.read_bytes()))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(PageFileError):
                PageFile(path).open()
            gc.collect()
        assert not [w for w in caught if issubclass(w.category, ResourceWarning)]


class TestMappedParity:
    """Mapped reads hand back exactly the page images that were written."""

    def test_pages_byte_identical(self, tmp_path):
        pages = [bytes([i]) * 100 for i in range(5)]
        path = make_file(tmp_path / "t.pages", pages, root=2)
        with PageFile(path).open() as mapped:
            assert mapped.num_pages == 5
            assert mapped.root_page == 2
            for i, page in enumerate(pages):
                assert bytes(mapped.read_page(i)) == page.ljust(256, b"\x00")

    def test_mapped_page_is_zero_copy_view(self, tmp_path):
        path = make_file(tmp_path / "t.pages")
        with PageFile(path).open() as mapped:
            page = mapped.read_page(1)
            assert isinstance(page, memoryview)
            # numpy builds views straight over the map, no copies
            arr = np.frombuffer(page, dtype=np.uint8, count=16)
            assert not arr.flags.owndata
            assert arr.tolist() == [1] * 16

    def test_close_tolerates_outstanding_views(self, tmp_path):
        path = make_file(tmp_path / "t.pages")
        mapped = PageFile(path).open()
        arr = np.frombuffer(mapped.read_page(0), dtype=np.uint8, count=16)
        mapped.close()  # must not raise BufferError
        assert arr[0] == 0  # the view stays readable until collected

    def test_format_version_survives_reopen(self, tmp_path):
        path = make_file(tmp_path / "t.pages")
        __, version, *__ = struct.unpack_from("<4sIIII", path.read_bytes())
        assert version == FORMAT_VERSION == 2
        with PageFile(path).open() as pf:
            assert pf.num_pages == 4
