"""Tests for running the four methods from persisted indexes."""

import struct
from dataclasses import replace

import numpy as np
import pytest

from repro.core import Workspace, diskmode
from repro.core.diskmode import (
    DiskWorkspace,
    WeightedPersistError,
    load_persisted,
    persist_indexes,
)
from repro.core.mnd import MaximumNFCDistance
from repro.core.types import fingerprint
from repro.datasets.generators import make_instance
from repro.rtree.persist import DiskRTree
from repro.storage.diskfile import PageFileError


@pytest.fixture(scope="module")
def mem_ws():
    return Workspace(make_instance(3000, 150, 200, rng=131))


@pytest.fixture()
def persisted(mem_ws, tmp_path):
    return persist_indexes(mem_ws, tmp_path)


class TestDiskMode:
    def test_same_answer_as_memory(self, mem_ws, persisted):
        mem_result = MaximumNFCDistance(mem_ws).select()
        with DiskWorkspace(persisted) as frozen:
            disk_result = MaximumNFCDistance(frozen).select()
        assert disk_result.location.sid == mem_result.location.sid
        assert disk_result.dr == pytest.approx(mem_result.dr, abs=1e-9)

    def test_same_dr_vector(self, mem_ws, persisted):
        mem_vec = MaximumNFCDistance(mem_ws).distance_reductions()
        with DiskWorkspace(persisted) as frozen:
            disk_vec = MaximumNFCDistance(frozen).distance_reductions()
        np.testing.assert_allclose(disk_vec, mem_vec, atol=1e-9)

    def test_same_io_count(self, mem_ws, persisted):
        """The disk traversal must read exactly the pages the in-memory
        one does — the simulation and the real files agree byte for
        byte on structure."""
        mem_io = MaximumNFCDistance(mem_ws).select().io_total
        with DiskWorkspace(persisted) as frozen:
            disk_io = MaximumNFCDistance(frozen).select().io_total
        assert disk_io == mem_io

    def test_candidate_table_restored_in_order(self, mem_ws, persisted):
        with DiskWorkspace(persisted) as frozen:
            assert [s.sid for s in frozen.potentials] == [
                s.sid for s in mem_ws.potentials
            ]

    def test_files_exist_on_disk(self, persisted):
        assert persisted.mnd_tree_path.stat().st_size > 4096
        assert persisted.r_p_path.stat().st_size > 4096

    def test_corrupt_metadata_detected(self, mem_ws, tmp_path):
        persisted = persist_indexes(mem_ws, tmp_path / "x")
        bad = replace(persisted, n_p=persisted.n_p + 5)
        with pytest.raises(ValueError, match="promises"):
            DiskWorkspace(bad)

    def test_failed_open_closes_what_it_opened(self, mem_ws, tmp_path, monkeypatch):
        opened = []

        class TrackedTree(DiskRTree):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                opened.append(self)

        monkeypatch.setattr(diskmode, "DiskRTree", TrackedTree)
        persisted = persist_indexes(mem_ws, tmp_path / "x")
        with pytest.raises(ValueError, match="promises"):
            DiskWorkspace(replace(persisted, n_p=persisted.n_p + 5))
        assert len(opened) == 2  # R_C^m and R_P, both failed the count
        persisted.r_p_path.write_bytes(b"XXXX" + bytes(60))
        with pytest.raises(PageFileError, match="magic"):
            DiskWorkspace(persisted)
        assert len(opened) == 3  # R_C^m only: R_P never opened
        assert all(tree._file._mm is None for tree in opened)

    def test_v1_directory_rejected_naming_the_version(self, mem_ws, tmp_path):
        """A directory of retired version-1 files fails at open."""
        persisted = persist_indexes(mem_ws, tmp_path / "v1")
        for path in persisted.directory.glob("*.pages"):
            data = bytearray(path.read_bytes())
            struct.pack_into("<I", data, 4, 1)  # the header's version field
            path.write_bytes(bytes(data))
        with pytest.raises(PageFileError, match="version 1"):
            DiskWorkspace(load_persisted(persisted.directory))


class TestWeightedRefusal:
    """Leaf pages carry no weight field: on this instance disk QVC, NFC
    and MND summed unit-weight terms (dr 9864.172…) while SS and every
    in-memory method summed weighted ones (dr 27366.957…)."""

    def weighted(self) -> Workspace:
        instance = make_instance(3000, 40, 60, rng=3)
        weights = np.random.default_rng(3).uniform(0, 5, len(instance.clients))
        return Workspace(replace(instance, client_weights=weights.tolist()))

    def test_refused_before_anything_is_written(self, tmp_path):
        target = tmp_path / "weighted"
        with pytest.raises(WeightedPersistError, match="weight"):
            persist_indexes(self.weighted(), target)
        assert not target.exists()

    def test_is_a_value_error(self):
        assert issubclass(WeightedPersistError, ValueError)

    def test_unit_weights_persist(self, tmp_path):
        instance = make_instance(300, 10, 20, rng=3)
        ones = [1.0] * len(instance.clients)
        ws = Workspace(replace(instance, client_weights=ones))
        with DiskWorkspace(persist_indexes(ws, tmp_path)) as disk:
            assert disk.n_c == ws.n_c


@pytest.fixture(scope="module")
def full_dir(mem_ws, tmp_path_factory):
    """One full persist shared across the parity tests."""
    return persist_indexes(mem_ws, tmp_path_factory.mktemp("full"))


def run_method(ws, method):
    from repro.core.registry import make_selector

    ws.invalidate_leaf_cache()
    sel = make_selector(ws, method)
    result = sel.select()
    return result, sel.distance_reductions()


class TestFullPersistence:
    def test_all_files_exist(self, full_dir):
        for attr in (
            "mnd_tree_path",
            "r_p_path",
            "r_c_path",
            "r_f_path",
            "rnn_tree_path",
            "client_file_path",
            "potential_file_path",
        ):
            assert getattr(full_dir, attr).exists(), attr

    def test_manifest_round_trip(self, full_dir):
        assert load_persisted(full_dir.directory) == full_dir

    def test_manifest_missing(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_persisted(tmp_path)

    def test_counts_and_bounds(self, mem_ws, full_dir):
        with DiskWorkspace(full_dir) as frozen:
            assert frozen.n_c == mem_ws.n_c
            assert frozen.n_f == mem_ws.n_f
            assert frozen.n_p == mem_ws.n_p
            assert frozen.data_bounds == mem_ws.data_bounds


class TestDecodedPages:
    def test_invalidate_drops_every_decode(self, full_dir):
        with DiskWorkspace(full_dir) as frozen:
            run_method(frozen, "SS")
            run_method(frozen, "NFC")
            node = frozen.rnn_tree.read_node(frozen.rnn_tree.root_id)
            block = frozen.client_file.read_block(0)
            assert frozen.rnn_tree.read_node(frozen.rnn_tree.root_id) is node
            assert frozen.client_file.read_block(0) is block
            frozen.invalidate_leaf_cache()
            assert len(frozen.leaf_cache) == 0
            assert frozen.rnn_tree.read_node(frozen.rnn_tree.root_id) is not node
            assert frozen.client_file.read_block(0) is not block

    def test_close_releases_every_map(self, full_dir):
        frozen = DiskWorkspace(full_dir)
        for method in ("SS", "QVC", "NFC", "MND"):
            run_method(frozen, method)
        maps = [opened._file._mm for opened in frozen._opened()]
        assert len(maps) == 7
        frozen.close()
        assert all(mapped.closed for mapped in maps)


class TestAllMethodsParity:
    """Memory vs the mmap-served disk workspace, byte-identical everything."""

    @pytest.mark.parametrize("method", ["SS", "QVC", "NFC", "MND"])
    def test_serial_parity(self, mem_ws, full_dir, method):
        ref, ref_dr = run_method(mem_ws, method)
        with DiskWorkspace(full_dir) as frozen:
            got, got_dr = run_method(frozen, method)
        assert fingerprint(got) == fingerprint(ref)
        np.testing.assert_array_equal(got_dr, ref_dr)

    @pytest.mark.parametrize("method", ["SS", "QVC", "NFC", "MND"])
    def test_engine_parallel_parity(self, mem_ws, full_dir, method):
        from repro.exec.engine import QueryEngine

        ref, __ref_dr = run_method(mem_ws, method)
        with DiskWorkspace(full_dir) as frozen:
            with QueryEngine(frozen, workers=2, executor="thread") as engine:
                got = engine.run(method)
        assert fingerprint(got) == fingerprint(ref)
