"""The simulated paged disk.

A :class:`Pager` is a named collection of pages.  Pages hold arbitrary
Python objects (we simulate the *access pattern*, not the byte encoding),
but callers declare a :class:`~repro.storage.records.RecordLayout` so the
pager can enforce capacity — a page can never hold more records than
would physically fit in ``PAGE_SIZE`` bytes.

The pager stores and serves pages and charges no reads: its owners
charge the reads a query makes, in one call per pass where they can
(:meth:`~repro.storage.blockfile.BlockReads.charge` for block files,
:meth:`~repro.rtree.rtree.TreeReads.charge` for trees).  Writes are
charged to the pager's :class:`~repro.storage.stats.IOStats`.
Allocation volume feeds the process-wide ``storage.pages_allocated``
metric (:mod:`repro.obs.registry`); read/write totals flow into the
registry through :class:`IOStats` itself.
"""

from __future__ import annotations

from typing import Any

from repro.obs.registry import REGISTRY
from repro.storage.records import PAGE_SIZE, RecordLayout
from repro.storage.stats import IOStats

_PAGES_ALLOCATED = REGISTRY.counter("storage.pages_allocated")


class Pager:
    """A paged file: pages, their capacity and their write accounting."""

    __slots__ = ("name", "layout", "stats", "_pages", "page_size")

    def __init__(
        self,
        name: str,
        layout: RecordLayout,
        stats: IOStats,
        page_size: int = PAGE_SIZE,
    ):
        self.name = name
        self.layout = layout
        self.stats = stats
        self.page_size = page_size
        self._pages: list[Any] = []

    # ------------------------------------------------------------------
    @property
    def capacity(self) -> int:
        """Records (entries) per page for this pager's layout."""
        return self.layout.capacity(self.page_size)

    @property
    def num_pages(self) -> int:
        return len(self._pages)

    @property
    def size_bytes(self) -> int:
        return self.num_pages * self.page_size

    # ------------------------------------------------------------------
    def allocate(self, payload: Any = None) -> int:
        """Allocate a fresh page holding ``payload``; returns its id."""
        self._pages.append(payload)
        _PAGES_ALLOCATED.inc()
        return len(self._pages) - 1

    def write(self, page_id: int, payload: Any) -> None:
        """Overwrite a page in place (counted as a page write)."""
        self._pages[page_id] = payload
        self.stats.record_write(self.name)

    def peek(self, page_id: int) -> Any:
        """A page, uncharged; the owner charges the reads a query makes."""
        return self._pages[page_id]
