"""End-to-end tests of `mindist pages info`."""

from __future__ import annotations

import random
import struct

import numpy as np
import pytest

from repro.cli import main
from repro.core.types import Client
from repro.rtree.bulk import bulk_load
from repro.rtree.rtree import RTree
from repro.storage.codecs import ClientCodec
from repro.storage.diskblocks import save_block_file
from repro.storage.stats import IOStats


@pytest.fixture()
def client_tree_path(tmp_path):
    from repro.geometry.rect import Rect
    from repro.rtree.persist import save_rtree

    rng = random.Random(33)
    clients = [
        Client(i, rng.uniform(0, 1000), rng.uniform(0, 1000), rng.uniform(0, 20))
        for i in range(120)
    ]
    tree = RTree("t", IOStats(), max_leaf_entries=16, max_branch_entries=16)
    bulk_load(tree, [Rect(c.x, c.y, c.x, c.y) for c in clients], clients)
    path = tmp_path / "clients.pages"
    save_rtree(tree, path, ClientCodec())
    return path


class TestInfo:
    def test_info_on_v1_rtree(self, client_tree_path, capsys):
        """A retired version-1 file is reported, not misread."""
        data = bytearray(client_tree_path.read_bytes())
        struct.pack_into("<I", data, 4, 1)  # the header's version field
        client_tree_path.write_bytes(bytes(data))
        assert main(["pages", "info", str(client_tree_path)]) == 2
        assert "unsupported format version 1" in capsys.readouterr().err

    def test_info_on_v2_rtree(self, client_tree_path, capsys):
        assert main(["pages", "info", str(client_tree_path)]) == 0
        out = capsys.readouterr().out
        assert "format:       v2 (columns (SoA))" in out
        assert "page size:    4096" in out
        assert "num_entries=120" in out

    def test_info_on_block_file(self, tmp_path, capsys):
        path = tmp_path / "blocks.pages"
        save_block_file(path, np.ones((300, 2)), 204)
        assert main(["pages", "info", str(path)]) == 0
        out = capsys.readouterr().out
        assert "num_records=300" in out
        assert "records_per_block=204" in out

    def test_info_missing_file_exits_2(self, tmp_path, capsys):
        assert main(["pages", "info", str(tmp_path / "nope.pages")]) == 2
        assert "error" in capsys.readouterr().err
