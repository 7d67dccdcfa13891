"""Tests for sequential block files."""

import numpy as np

from repro.storage.blockfile import BlockFile
from repro.storage.records import POINT_RECORD, RecordLayout
from repro.storage.stats import IOStats

SMALL = RecordLayout("small", {"v": 1024})  # 4 records per 4K page


class TestChunking:
    def test_block_count(self):
        f = BlockFile("f", list(range(10)), SMALL, IOStats())
        assert f.num_blocks == 3
        assert f.records_per_block == 4
        assert f.num_records == 10

    def test_exact_multiple(self):
        f = BlockFile("f", list(range(8)), SMALL, IOStats())
        assert f.num_blocks == 2

    def test_empty_file(self):
        f = BlockFile("f", [], SMALL, IOStats())
        assert f.num_blocks == 0
        assert list(f.iter_blocks()) == []


class TestIteration:
    def test_iter_records_preserves_order(self):
        f = BlockFile("f", list(range(10)), SMALL, IOStats())
        assert list(f.iter_records()) == list(range(10))

    def test_one_io_per_block(self):
        stats = IOStats()
        f = BlockFile("f", list(range(10)), SMALL, stats)
        list(f.iter_blocks())
        assert stats.reads["f"] == 3

    def test_repeated_scan_counts_again(self):
        stats = IOStats()
        f = BlockFile("f", list(range(10)), SMALL, stats)
        list(f.iter_blocks())
        list(f.iter_blocks())
        assert stats.reads["f"] == 6

    def test_read_block_by_id(self):
        f = BlockFile("f", list(range(10)), SMALL, IOStats())
        assert list(f.read_block(2)) == [8, 9]


class TestCharge:
    def test_one_charge_stands_for_many_block_reads(self):
        stats = IOStats()
        f = BlockFile("f", list(range(10)), SMALL, stats)
        f.charge(range(f.num_blocks))
        assert stats.snapshot() == {"f": 3}

    def test_charging_no_blocks_records_nothing(self):
        stats = IOStats()
        BlockFile("f", [], SMALL, stats).charge(range(0))
        assert stats.snapshot() == {}

    def test_private_stats_redirect(self):
        shared, private = IOStats(), IOStats()
        f = BlockFile("f", list(range(10)), SMALL, shared)
        f.charge([0, 2], stats=private)
        f.read_block(1, stats=private)
        assert private.snapshot() == {"f": 3}
        assert shared.snapshot() == {}


class TestNumpyBacked:
    def test_numpy_blocks_are_arrays(self):
        data = np.arange(20.0).reshape(10, 2)
        f = BlockFile("f", data, SMALL, IOStats())
        block = f.read_block(0)
        assert isinstance(block, np.ndarray)
        assert block.shape == (4, 2)

    def test_paper_capacity_for_points(self):
        data = np.zeros((500, 2))
        f = BlockFile("P", data, POINT_RECORD, IOStats())
        assert f.records_per_block == 204
        assert f.num_blocks == 3
