"""Tests for the paged disk simulation."""

from repro.storage.blockfile import BlockFile
from repro.storage.pager import Pager
from repro.storage.records import POINT_RECORD, RTREE_ENTRY
from repro.storage.stats import IOStats


class TestPagerBasics:
    def test_allocate_and_read(self):
        """The pager's pages are read, and charged, through their owner:
        here a block file, whose ``read_block`` charges one read."""
        stats = IOStats()
        blocks = BlockFile("f", ["a", "b", "c"], POINT_RECORD, stats)
        assert blocks.read_block(0) == ["a", "b", "c"]
        assert stats.reads["f"] == 1

    def test_peek_is_not_counted(self):
        stats = IOStats()
        pager = Pager("f", POINT_RECORD, stats)
        pid = pager.allocate(42)
        assert pager.peek(pid) == 42
        assert stats.total_reads == 0

    def test_write_counts_as_write(self):
        stats = IOStats()
        pager = Pager("f", POINT_RECORD, stats)
        pid = pager.allocate(None)
        pager.write(pid, "new")
        assert stats.writes["f"] == 1
        assert pager.peek(pid) == "new"

    def test_capacity_follows_layout(self):
        pager = Pager("f", RTREE_ENTRY, IOStats())
        assert pager.capacity == 113

    def test_size_accounting(self):
        pager = Pager("f", POINT_RECORD, IOStats(), page_size=4096)
        for i in range(3):
            pager.allocate(i)
        assert pager.num_pages == 3
        assert pager.size_bytes == 3 * 4096
