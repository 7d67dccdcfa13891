"""Real on-disk page files.

``PageFile`` is a plain file of fixed-size pages with a small header,
giving the simulation's storage layer an actual byte-level backing:
indexes serialized through :mod:`repro.rtree.persist` can be closed,
reopened (by another process, even) and queried, with every page read
counted exactly as in the in-memory pager.

Reading is zero-copy: ``open`` validates the header and ``mmap``-s the
whole file once, and every ``read_page`` returns a ``memoryview`` slice
of the map — no per-read syscall, no bytes copy.  Consumers that run
``struct.unpack_from`` or ``np.frombuffer`` over the page operate
directly on the mapped region.  A page file charges nothing: the
disk tree and block file over it charge their reads exactly as their
in-memory twins do.

The header declares format version :data:`FORMAT_VERSION` (2): leaf
and block pages hold structure-of-arrays column blocks
(:mod:`repro.storage.soa`), decodable as zero-copy numpy views, while
branch pages keep their packed entry layout.  What the pages mean is up
to the writer (:mod:`repro.rtree.persist`,
:mod:`repro.storage.diskblocks`).  Files of any other version — the
retired packed-row version 1 included — are rejected at ``open``.
"""

from __future__ import annotations

import mmap
import os
import struct
from pathlib import Path
from typing import Optional

from repro.storage.records import PAGE_SIZE

#: File magic + format version.
_MAGIC = b"MDLS"
_HEADER = struct.Struct("<4sIIII")  # magic, version, page_size, num_pages, root
HEADER_SIZE = _HEADER.size
#: The one on-disk format: leaf/block pages hold column blocks.
FORMAT_VERSION = 2


class PageFileError(RuntimeError):
    """Raised for malformed or mismatched page files."""


class PageFile:
    """A header plus ``num_pages`` fixed-size binary pages.

    ``read_page`` returns a ``memoryview`` slice of one ``mmap`` of the
    file.  Numpy arrays built over such a slice (``np.frombuffer``)
    reference the mapped memory directly; the map therefore stays alive
    until the last such view is garbage collected, even after
    :meth:`close`.
    """

    def __init__(self, path: str | Path, page_size: int = PAGE_SIZE):
        self.path = Path(path)
        self.page_size = page_size
        self.num_pages = 0
        self.root_page = 0
        self._mm: Optional[mmap.mmap] = None
        self._view: Optional[memoryview] = None

    # ------------------------------------------------------------------
    # Writing
    # ------------------------------------------------------------------
    def create(self, pages: list[bytes], root_page: int) -> None:
        """Write a fresh file with the given page images."""
        for i, page in enumerate(pages):
            if len(page) > self.page_size:
                raise PageFileError(
                    f"page {i} is {len(page)} bytes > page size {self.page_size}"
                )
        with open(self.path, "wb") as f:
            f.write(
                _HEADER.pack(
                    _MAGIC, FORMAT_VERSION, self.page_size, len(pages), root_page
                )
            )
            for page in pages:
                f.write(page.ljust(self.page_size, b"\x00"))
        self.num_pages = len(pages)
        self.root_page = root_page

    # ------------------------------------------------------------------
    # Reading
    # ------------------------------------------------------------------
    def open(self) -> "PageFile":
        """Validate the header and file size, then map the file."""
        if not self.path.exists():
            raise PageFileError(f"{self.path}: no such page file")
        # The map keeps its own reference to the file, so the handle is
        # closed on every path out of this block, raising ones included.
        with open(self.path, "rb") as fh:
            header = fh.read(HEADER_SIZE)
            if len(header) < HEADER_SIZE:
                raise PageFileError(f"{self.path}: truncated header")
            magic, version, page_size, num_pages, root = _HEADER.unpack(header)
            if magic != _MAGIC:
                raise PageFileError(f"{self.path}: bad magic {magic!r}")
            if version != FORMAT_VERSION:
                raise PageFileError(
                    f"{self.path}: unsupported format version {version} "
                    f"(only version {FORMAT_VERSION} is readable)"
                )
            expected = HEADER_SIZE + num_pages * page_size
            actual = os.fstat(fh.fileno()).st_size
            if actual < expected:
                raise PageFileError(
                    f"{self.path}: file is {actual} bytes, header promises {expected}"
                )
            if actual > expected:
                # Trailing garbage means the header and the writer disagree
                # about the page count — refuse rather than serve a file
                # whose tail silently never existed.
                raise PageFileError(
                    f"{self.path}: {actual - expected} trailing byte(s) beyond "
                    f"the {num_pages} page(s) the header promises"
                )
            self._mm = mmap.mmap(fh.fileno(), 0, access=mmap.ACCESS_READ)
        self._view = memoryview(self._mm)
        self.page_size = page_size
        self.num_pages = num_pages
        self.root_page = root
        return self

    def read_page(self, page_id: int) -> memoryview:
        if self._view is None:
            raise PageFileError("page file is not open")
        if not 0 <= page_id < self.num_pages:
            raise PageFileError(
                f"page {page_id} out of range 0..{self.num_pages - 1}"
            )
        start = HEADER_SIZE + page_id * self.page_size
        return self._view[start : start + self.page_size]

    def close(self) -> None:
        if self._view is not None:
            self._view.release()
            self._view = None
        if self._mm is not None:
            try:
                self._mm.close()
            except BufferError:
                # Live zero-copy views still reference the map; it is
                # unmapped when the last of them is collected.
                pass
            self._mm = None

    def __enter__(self) -> "PageFile":
        return self.open()

    def __exit__(self, *exc) -> None:
        self.close()
