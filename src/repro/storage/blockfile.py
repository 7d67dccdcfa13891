"""Sequential block files.

The SS method scans the client and potential-location datasets as flat
files, one block at a time (``ReadBlock`` in Algorithm 1); the QVC method
likewise reads ``P`` in blocks.  ``BlockFile`` chunks a record list into
pages on a :class:`~repro.storage.pager.Pager` and serves them back with
one counted I/O per block.

:class:`BlockReads` is the read path ``BlockFile`` shares with its
on-disk twin :class:`~repro.storage.diskblocks.DiskBlockFile`: a
charged ``read_block`` is the uncharged ``peek_block`` plus
:meth:`~BlockReads.charge`, which charges any number of block reads in
one call (the SS client pass charges the whole file that way).
"""

from __future__ import annotations

from typing import Any, Iterator, Optional, Sequence, Sized

import numpy as np

from repro.storage import soa
from repro.storage.pager import Pager
from repro.storage.records import PAGE_SIZE, RecordLayout
from repro.storage.stats import IOStats


class BlockReads:
    """The charged read path of a block file.

    A subclass sets ``name``, ``stats`` and ``_columns`` (None), and
    provides ``num_blocks`` and the uncharged ``peek_block``.
    """

    name: str
    stats: IOStats
    _columns: Optional[tuple[np.ndarray, ...]]

    def read_block(self, block_id: int, stats: Optional[IOStats] = None) -> Any:
        """Read one block (one counted I/O, charged to ``stats`` if given)."""
        block = self.peek_block(block_id)
        self.charge((block_id,), stats)
        return block

    def charge(self, block_ids: Sized, stats: Optional[IOStats] = None) -> None:
        """Charge one read per id in ``block_ids`` with one call, to
        ``stats`` if given (a task's private accounting), else to the
        file's own.  No ids charge nothing."""
        reads = len(block_ids)
        if reads:
            (self.stats if stats is None else stats).record_read(self.name, reads)

    def columns(self) -> tuple[np.ndarray, ...]:
        """The whole file as columns, one array per field
        (:func:`~repro.storage.soa.gather_block_columns`).

        Gathered from uncharged peeks on first use and kept, since the
        file is read-only; callers charge the block reads they stand
        for.  Needs blocks of rows (numpy matrices).
        """
        if self._columns is None:
            self._columns = soa.gather_block_columns(
                [self.peek_block(b) for b in range(self.num_blocks)]
            )
        return self._columns

    def iter_blocks(self) -> Iterator[Any]:
        """Scan the file front to back, one I/O per block."""
        for block_id in range(self.num_blocks):
            yield self.read_block(block_id)

    def iter_records(self) -> Iterator[Any]:
        """Scan all records (I/O still counted per block, not per record)."""
        for block in self.iter_blocks():
            yield from block


class BlockFile(BlockReads):
    """A read-only sequential file of fixed-size records."""

    def __init__(
        self,
        name: str,
        records: Sequence[Any],
        layout: RecordLayout,
        stats: IOStats,
        page_size: int = PAGE_SIZE,
    ):
        self.name = name
        self.stats = stats
        self._pager = Pager(name, layout, stats, page_size)
        capacity = self._pager.capacity
        # Blocks are stored as slices of the input sequence so that both
        # plain lists and numpy arrays (used by the vectorised SS scan)
        # work; callers must treat blocks as read-only.
        for start in range(0, len(records), capacity):
            self._pager.allocate(records[start : start + capacity])
        self._num_records = len(records)
        self._columns: Optional[tuple[np.ndarray, ...]] = None

    # ------------------------------------------------------------------
    @property
    def num_records(self) -> int:
        return self._num_records

    @property
    def num_blocks(self) -> int:
        return self._pager.num_pages

    @property
    def records_per_block(self) -> int:
        return self._pager.capacity

    @property
    def size_bytes(self) -> int:
        return self._pager.size_bytes

    # ------------------------------------------------------------------
    def peek_block(self, block_id: int) -> list[Any]:
        """Fetch a block *without* I/O accounting.

        For re-visiting a block whose read was already charged once by
        the owner of the traversal (the execution engine charges a
        potential-location block at planning time, then the scan tasks
        re-use it for free — mirroring the serial loop, which holds the
        block in memory across the inner scan).
        """
        return self._pager.peek(block_id)
