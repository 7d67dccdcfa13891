"""Tests specific to the SS (sequential scan) method."""

import math

import numpy as np
import pytest

from repro.core.ss import SequentialScan
from repro.core.workspace import Workspace
from repro.datasets.generators import make_instance


class TestSSIOModel:
    def test_io_count_is_exactly_block_nested_loop(self):
        """SS must read each client block once per potential block plus
        the potential file itself — Table III's IO_s."""
        inst = make_instance(2000, 50, 700, rng=1)
        ws = Workspace(inst)
        result = SequentialScan(ws).select()
        p_blocks = math.ceil(700 / 204)
        c_blocks = math.ceil(2000 / 146)
        assert result.io_total == p_blocks * c_blocks + p_blocks

    def test_io_breakdown_names_files(self):
        ws = Workspace(make_instance(300, 10, 50, rng=2))
        result = SequentialScan(ws).select()
        assert set(result.io_reads) == {"file.C", "file.P"}

    def test_no_index(self):
        ws = Workspace(make_instance(100, 5, 10, rng=3))
        assert SequentialScan(ws).select().index_pages == 0

    def test_io_grows_linearly_in_clients(self):
        """No pruning: doubling |C| doubles SS's client-file reads."""
        io = []
        for n_c in (2000, 4000):
            ws = Workspace(make_instance(n_c, 20, 300, rng=4))
            result = SequentialScan(ws).select()
            io.append(result.io_reads["file.C"])
        assert io[1] == pytest.approx(2 * io[0], rel=0.05)

    def test_io_unaffected_by_facility_count(self):
        """SS never touches F at query time (dnn is precomputed)."""
        io = []
        for n_f in (5, 500):
            ws = Workspace(make_instance(1000, n_f, 200, rng=5))
            io.append(SequentialScan(ws).select().io_total)
        assert io[0] == io[1]

    def test_empty_client_file(self, tmp_path):
        """No clients: every dr is +0.0 and only the potential file is read,
        in memory and from persisted pages."""
        from repro.core.diskmode import DiskWorkspace, persist_indexes
        from repro.datasets.generators import SpatialInstance

        inst = make_instance(50, 5, 300, rng=6)
        empty = SpatialInstance(
            "empty", [], inst.facilities, inst.potentials, domain=inst.domain
        )
        ws = Workspace(empty)
        with DiskWorkspace(persist_indexes(ws, tmp_path)) as disk:
            for served in (ws, disk):
                selector = SequentialScan(served)
                result = selector.select()
                dr = selector.distance_reductions()
                assert result.io_reads == {"file.P": math.ceil(300 / 204)}
                assert len(dr) == 300 and not dr.any()
                assert not np.signbit(dr).any()


class TestGatheredClientColumns:
    """A select's tasks share the client file's columns, gathered once per
    file object; every block read is still charged, in order, with one
    charge per task."""

    @staticmethod
    def count_gathers(monkeypatch):
        from repro.storage import soa

        calls = []
        gather = soa.gather_block_columns

        def counted(blocks):
            calls.append(len(blocks))
            return gather(blocks)

        monkeypatch.setattr(soa, "gather_block_columns", counted)
        return calls

    def test_second_select_charges_the_same_reads_and_gathers_nothing(
        self, tmp_path, monkeypatch
    ):
        from repro.core.diskmode import DiskWorkspace, persist_indexes
        from repro.core.types import fingerprint

        ws = Workspace(make_instance(2000, 30, 450, rng=7))
        with DiskWorkspace(persist_indexes(ws, tmp_path)) as disk:
            for served in (ws, disk):
                calls = self.count_gathers(monkeypatch)
                first = SequentialScan(served).select()
                assert calls == [math.ceil(2000 / 146)]
                log = []
                charge = served.client_file.charge

                def logged(block_ids, stats=None):
                    log.append(list(block_ids))
                    charge(block_ids, stats=stats)

                monkeypatch.setattr(served.client_file, "charge", logged)
                second = SequentialScan(served).select()
                assert calls == [math.ceil(2000 / 146)]
                assert second.io_reads == first.io_reads
                assert fingerprint(second) == fingerprint(first)
                blocks = list(range(served.client_file.num_blocks))
                assert log == [blocks] * math.ceil(450 / 204)

    def test_dropped_decodes_drop_the_columns(self, tmp_path, monkeypatch):
        from repro.core.diskmode import DiskWorkspace, persist_indexes

        ws = Workspace(make_instance(600, 10, 50, rng=8))
        with DiskWorkspace(persist_indexes(ws, tmp_path)) as disk:
            calls = self.count_gathers(monkeypatch)
            SequentialScan(disk).select()
            SequentialScan(disk).select()
            assert len(calls) == 1
            disk.invalidate_leaf_cache()
            SequentialScan(disk).select()
            assert len(calls) == 2

    def test_select_after_add_client_sees_the_new_client(self):
        from repro.core import naive
        from repro.core.dynamic import DynamicWorkspace

        ws = DynamicWorkspace(make_instance(600, 10, 40, rng=9))
        before = SequentialScan(ws).distance_reductions()
        p = ws.potentials[0]
        ws.add_client((p.x, p.y + 1e-3), weight=5.0)
        after = SequentialScan(ws).distance_reductions()
        assert len(ws.client_file.columns()[0]) == 601
        assert after[0] > before[0]
        np.testing.assert_allclose(after, naive.distance_reductions(ws), rtol=1e-12)
