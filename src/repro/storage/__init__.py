"""Simulated disk storage with explicit I/O accounting.

The paper evaluates its methods on disk-resident data and reports the
*number of I/Os* — page reads — as a primary metric.  This package
reproduces that environment in memory:

* :mod:`~repro.storage.records` — byte-accurate record and entry layouts;
  page capacities (the paper's ``C_m``) are derived from them.
* :mod:`~repro.storage.stats` — hierarchical I/O counters.
* :mod:`~repro.storage.pager` — a paged "disk"; its owners charge every
  page read a query makes against a cold disk, as the paper counts.
* :mod:`~repro.storage.blockfile` — sequential files read one block at a
  time, used by the SS and QVC methods to scan the flat datasets.
"""

from repro.storage.blockfile import BlockFile
from repro.storage.leafcache import DecodedLeafCache
from repro.storage.pager import Pager
from repro.storage.records import (
    CLIENT_RECORD,
    MND_ENTRY,
    PAGE_SIZE,
    POINT_RECORD,
    RTREE_ENTRY,
    RNN_ENTRY,
    RecordLayout,
)
from repro.storage.stats import IOStats

__all__ = [
    "BlockFile",
    "CLIENT_RECORD",
    "DecodedLeafCache",
    "IOStats",
    "MND_ENTRY",
    "PAGE_SIZE",
    "POINT_RECORD",
    "Pager",
    "RNN_ENTRY",
    "RTREE_ENTRY",
    "RecordLayout",
]
