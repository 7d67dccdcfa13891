"""Disk-backed sequential block files.

The on-disk twin of :class:`~repro.storage.blockfile.BlockFile`: the SS
scan's client/potential files persisted as real page files
(:mod:`repro.storage.diskfile`) and read back block-at-a-time with the
exact same I/O accounting.  Page 0 holds the file metadata; logical
block ``b`` lives on page ``b + 1``.

Records are float64 matrices — ``(x, y, dnn, w)`` rows for the client
file, ``(x, y)`` for the potential file — stored as the columnar block
pages of :mod:`repro.storage.soa`: one contiguous f8 column per field,
decoded as a zero-copy :class:`~repro.storage.soa.ColumnBlock`.  That
decode shape satisfies every access the SS/QVC hot paths make
(``len(block)``, ``block[:, j]``, ``block[a:b]`` row tuples), so the
methods run unchanged over it.

**Accounting invariant**: ``records_per_block`` is pinned to the
*logical* page capacity of the in-memory layout (146 clients / 204
points per 4 KiB page, from :mod:`repro.storage.records`), so block
counts — and with them ``io_total`` and every per-file read split —
are identical to the in-memory workspace, even though the physical
page may be a few bytes wider to carry the block header.
"""

from __future__ import annotations

import struct
from pathlib import Path
from typing import Optional

import numpy as np

from repro.storage import soa
from repro.storage.blockfile import BlockReads
from repro.storage.diskfile import PageFile, PageFileError
from repro.storage.records import PAGE_SIZE
from repro.storage.stats import IOStats

#: Metadata page: total records, records per block, columns per record.
_META = struct.Struct("<QII")


def _physical_page_size(records_per_block: int, ncols: int) -> int:
    """The smallest 8-byte-aligned page that fits one full block.

    At least :data:`~repro.storage.records.PAGE_SIZE`; wider when the
    block header pushes a full logical block past 4 KiB (the client
    block: ``146 · 4 · 8 + 4`` bytes).  Keeping the size a multiple of
    8 keeps every column 8-byte aligned in the file (the 20-byte
    file header plus the 4-byte block header is 24)."""
    needed = soa.BLOCK_HEADER_SIZE + records_per_block * ncols * 8
    return max(PAGE_SIZE, (needed + 7) // 8 * 8)


def save_block_file(
    path: str | Path, matrix: np.ndarray, records_per_block: int
) -> int:
    """Persist a float64 record matrix as a block page file.

    Returns the number of pages written (including the metadata page).
    """
    if records_per_block <= 0:
        raise ValueError(f"records_per_block must be positive, got {records_per_block}")
    arr = np.ascontiguousarray(matrix, dtype=np.float64)
    if arr.ndim != 2:
        raise ValueError(f"expected a 2-D record matrix, got shape {arr.shape}")
    num_records, ncols = arr.shape
    pages = [_META.pack(num_records, records_per_block, ncols)]
    for start in range(0, num_records, records_per_block):
        pages.append(soa.encode_block_columns(arr[start : start + records_per_block]))
    page_file = PageFile(path, page_size=_physical_page_size(records_per_block, ncols))
    page_file.create(pages, 0)
    return len(pages)


class DiskBlockFile(BlockReads):
    """A read-only block file served from a page file on disk.

    Interchangeable with :class:`~repro.storage.blockfile.BlockFile`
    for every consumer in :mod:`repro.core`: same properties, same
    read path (:class:`~repro.storage.blockfile.BlockReads`).  Blocks
    come back as zero-copy views over one ``mmap`` of the file, each
    decoded at most once per open file and shared by every reader, as
    are the whole-file :meth:`columns` (:meth:`drop_decoded` forgets
    both; :meth:`close` drops them before unmapping).
    """

    def __init__(self, name: str, path: str | Path, stats: IOStats):
        self.name = name
        self.stats = stats
        self._file = PageFile(path).open()
        self._decoded: dict[int, soa.ColumnBlock] = {}
        self._columns: Optional[tuple[np.ndarray, ...]] = None
        meta = bytes(self._file.read_page(0)[: _META.size])
        self._num_records, self._records_per_block, self._ncols = _META.unpack(meta)
        expected = (
            self._num_records + self._records_per_block - 1
        ) // self._records_per_block
        if self._file.num_pages - 1 != expected:
            self._file.close()
            raise PageFileError(
                f"{path}: metadata promises {expected} block(s) for "
                f"{self._num_records} record(s), file has {self._file.num_pages - 1}"
            )

    # ------------------------------------------------------------------
    @property
    def num_records(self) -> int:
        return self._num_records

    @property
    def num_blocks(self) -> int:
        return self._file.num_pages - 1  # minus the metadata page

    @property
    def records_per_block(self) -> int:
        return self._records_per_block

    @property
    def ncols(self) -> int:
        return self._ncols

    # ------------------------------------------------------------------
    def peek_block(self, block_id: int) -> soa.ColumnBlock:
        """Fetch a block *without* I/O accounting (see BlockFile.peek_block):
        the block decoded at its first fetch, the page sliced only then.
        The first decode wins if two threads decode one block at once."""
        block = self._decoded.get(block_id)
        if block is None:
            self._check_block_id(block_id)
            data = self._file.read_page(block_id + 1)
            block = self._decoded.setdefault(block_id, soa.decode_block_columns(data))
        return block

    def drop_decoded(self) -> None:
        """Forget every decoded block and the gathered columns; the next
        read of a block decodes it."""
        self._decoded.clear()
        self._columns = None

    def _check_block_id(self, block_id: int) -> None:
        if not 0 <= block_id < self.num_blocks:
            raise PageFileError(
                f"block {block_id} out of range 0..{self.num_blocks - 1}"
            )

    def close(self) -> None:
        self.drop_decoded()  # its blocks are views of the map
        self._file.close()

    def __enter__(self) -> "DiskBlockFile":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
