"""Tests for R-tree persistence (binary page files)."""

import random
import struct
import sys
import threading

import pytest

from repro.core.types import Client, Site
from repro.geometry.point import Point
from repro.geometry.rect import Rect
from repro.obs import REGISTRY, Tracer
from repro.rtree.bulk import bulk_load
from repro.rtree.mnd_tree import MNDTree
from repro.rtree.nn import nearest_neighbor
from repro.rtree.persist import DiskRTree, ReadOnlyTreeError, save_rtree
from repro.rtree.rtree import RTree
from repro.rtree.window import window_query
from repro.storage.codecs import ClientCodec, SiteCodec
from repro.storage.diskfile import PageFile, PageFileError
from repro.storage.stats import IOStats


def random_sites(n, seed=0):
    rng = random.Random(seed)
    return [Site(i, rng.uniform(0, 1000), rng.uniform(0, 1000)) for i in range(n)]


def build_site_tree(sites, max_entries=8, stats=None):
    tree = RTree(
        "t",
        stats or IOStats(),
        max_leaf_entries=max_entries,
        max_branch_entries=max_entries,
    )
    bulk_load(tree, [Rect(s.x, s.y, s.x, s.y) for s in sites], sites)
    return tree


class TestRoundTrip:
    def test_leaf_payloads_survive(self, tmp_path):
        sites = random_sites(300)
        tree = build_site_tree(sites)
        path = tmp_path / "tree.pages"
        save_rtree(tree, path, SiteCodec())
        disk = DiskRTree("d", path, SiteCodec(), IOStats())
        assert len(disk) == 300
        assert disk.height == tree.height
        assert sorted(e.payload for e in disk.iter_leaf_entries()) == sorted(sites)
        disk.close()

    def test_queries_match_memory_tree(self, tmp_path):
        tree = build_site_tree(random_sites(400, seed=1))
        path = tmp_path / "tree.pages"
        save_rtree(tree, path, SiteCodec())
        with DiskRTree("d", path, SiteCodec(), IOStats()) as disk:
            w = Rect(100, 100, 400, 400)
            assert sorted(window_query(disk, w)) == sorted(window_query(tree, w))
            q = Point(777, 333)
            assert nearest_neighbor(disk, q) == nearest_neighbor(tree, q)

    def test_site_codec_round_trip(self, tmp_path):
        sites = random_sites(50, seed=2)
        tree = RTree("t", IOStats(), max_leaf_entries=4, max_branch_entries=4)
        bulk_load(tree, [Rect(s.x, s.y, s.x, s.y) for s in sites], sites)
        path = tmp_path / "sites.pages"
        save_rtree(tree, path, SiteCodec())
        with DiskRTree("d", path, SiteCodec(), IOStats()) as disk:
            got = sorted(e.payload for e in disk.iter_leaf_entries())
            assert got == sorted(sites)

    def test_mnd_tree_round_trip(self, tmp_path):
        rng = random.Random(3)
        clients = [
            Client(i, rng.uniform(0, 1000), rng.uniform(0, 1000), rng.uniform(0, 40))
            for i in range(200)
        ]
        tree = MNDTree(
            "m",
            IOStats(),
            radius_of=lambda c: c.dnn,
            max_leaf_entries=8,
            max_branch_entries=8,
        )
        bulk_load(tree, [Rect(c.x, c.y, c.x, c.y) for c in clients], clients)
        path = tmp_path / "mnd.pages"
        save_rtree(tree, path, ClientCodec())
        with DiskRTree(
            "d", path, ClientCodec(), IOStats(), radius_of=lambda c: c.dnn
        ) as disk:
            assert disk.has_mnd
            # Stored MND values equal the in-memory ones, node by node.
            mem_root = tree.root
            disk_root = disk.root
            mem_mnds = sorted(e.mnd for e in mem_root.entries)
            disk_mnds = sorted(e.mnd for e in disk_root.entries)
            assert mem_mnds == pytest.approx(disk_mnds)
            assert disk.root_mnd() == pytest.approx(tree.root_mnd())

    def test_empty_tree_round_trip(self, tmp_path):
        tree = RTree("t", IOStats(), max_leaf_entries=4, max_branch_entries=4)
        path = tmp_path / "empty.pages"
        save_rtree(tree, path, SiteCodec())
        with DiskRTree("d", path, SiteCodec(), IOStats()) as disk:
            assert len(disk) == 0
            assert list(disk.iter_leaf_entries()) == []


class TestIOAccounting:
    def test_disk_reads_are_counted(self, tmp_path):
        tree = build_site_tree(random_sites(500, seed=4))
        path = tmp_path / "tree.pages"
        save_rtree(tree, path, SiteCodec())
        stats = IOStats()
        with DiskRTree("d", path, SiteCodec(), stats) as disk:
            list(window_query(disk, Rect(0, 0, 1000, 1000)))
            assert stats.reads["d"] == disk.num_nodes

    def test_disk_io_count_matches_memory_io_count(self, tmp_path):
        """The same query must cost the same I/Os on disk and in memory."""
        mem_stats = IOStats()
        tree = build_site_tree(random_sites(500, seed=5), stats=mem_stats)
        path = tmp_path / "tree.pages"
        save_rtree(tree, path, SiteCodec())

        w = Rect(200, 200, 380, 420)
        mem_stats.reset()
        list(window_query(tree, w))
        mem_io = mem_stats.total_reads

        disk_stats = IOStats()
        with DiskRTree("d", path, SiteCodec(), disk_stats) as disk:
            list(window_query(disk, w))
        assert disk_stats.total_reads == mem_io

    def test_private_stats_redirect(self, tmp_path):
        """A read charged to a task's private stats leaves the tree's own
        stats untouched."""
        tree = build_site_tree(random_sites(100, seed=4))
        path = tmp_path / "tree.pages"
        save_rtree(tree, path, SiteCodec())
        shared, private = IOStats(), IOStats()
        with DiskRTree("d", path, SiteCodec(), shared) as disk:
            disk.read_node(disk.root_id, stats=private)
            assert private.snapshot() == {"d": 1}
            assert shared.snapshot() == {}
            disk.read_node(disk.root_id)
            assert private.snapshot() == shared.snapshot() == {"d": 1}


def node_ids(tree):
    """Every node id of ``tree``, fetched uncharged."""
    ids, stack = [], [tree.root_id]
    while stack:
        node_id = stack.pop()
        ids.append(node_id)
        node = tree.node(node_id)
        if not node.is_leaf:
            stack.extend(entry.child_id for entry in node.entries)
    return ids


class TestCharge:
    """One charge rule for the memory and the disk tree."""

    @pytest.fixture
    def trees(self, tmp_path):
        """The same tree in memory and mapped from its page file."""
        tree = build_site_tree(random_sites(300, seed=9))
        save_rtree(tree, tmp_path / "t.pages", SiteCodec())
        with DiskRTree("t", tmp_path / "t.pages", SiteCodec(), IOStats()) as disk:
            yield tree, disk

    @staticmethod
    def traced(tree, charge):
        """``charge(stats)`` under a bound tracer: the stats, the span's
        reads and counters, and the ``rtree.node_reads`` advance."""
        node_reads = REGISTRY.counter("rtree.node_reads")
        stats, tracer = IOStats(), Tracer()
        stats.bind_tracer(tracer)
        before = node_reads.value
        with tracer.span("q") as span:
            charge(stats)
        return stats.snapshot(), span.reads, span.counters, node_reads.value - before

    def test_one_charge_counts_as_its_reads_one_by_one(self, trees):
        for tree in trees:
            ids = node_ids(tree)
            one_by_one = self.traced(
                tree, lambda s: [tree.read_node(i, stats=s) for i in ids]
            )
            at_once = self.traced(tree, lambda s: tree.charge(ids, stats=s))
            assert at_once == one_by_one
            __, reads, counters, node_reads = at_once
            assert reads == {"t": len(ids)} and node_reads == len(ids)
            assert counters["reads.t.leaf"] > 0 and counters["reads.t.branch"] > 0
            assert sum(counters.values()) == len(ids)

    def test_charging_no_nodes_records_nothing(self, trees):
        for tree in trees:
            nothing = self.traced(tree, lambda s: tree.charge([], stats=s))
            assert nothing == ({}, {}, {}, 0)


class TestReadOnly:
    def test_mutations_rejected(self, tmp_path):
        tree = build_site_tree(random_sites(20, seed=6))
        path = tmp_path / "tree.pages"
        save_rtree(tree, path, SiteCodec())
        with DiskRTree("d", path, SiteCodec(), IOStats()) as disk:
            with pytest.raises(ReadOnlyTreeError):
                disk.insert(Rect(0, 0, 1, 1), Site(99, 0, 0))
            with pytest.raises(ReadOnlyTreeError):
                disk.delete(Rect(0, 0, 1, 1), Site(99, 0, 0))

    def test_mnd_on_plain_tree_rejected(self, tmp_path):
        tree = build_site_tree(random_sites(20, seed=7))
        path = tmp_path / "tree.pages"
        save_rtree(tree, path, SiteCodec())
        with DiskRTree("d", path, SiteCodec(), IOStats()) as disk:
            with pytest.raises(ReadOnlyTreeError):
                disk.root_mnd()


class TestFileFormat:
    def test_missing_file(self, tmp_path):
        with pytest.raises(PageFileError, match="no such"):
            PageFile(tmp_path / "nope.pages").open()

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.pages"
        path.write_bytes(b"XXXX" + b"\x00" * 100)
        with pytest.raises(PageFileError, match="magic"):
            PageFile(path).open()

    def test_truncated_file(self, tmp_path):
        tree = build_site_tree(random_sites(100, seed=8))
        path = tmp_path / "trunc.pages"
        save_rtree(tree, path, SiteCodec())
        data = path.read_bytes()
        path.write_bytes(data[: len(data) // 2])
        with pytest.raises(PageFileError, match="promises"):
            PageFile(path).open()

    def test_unsupported_version(self, tmp_path):
        # Version 1 (packed-row leaves) is retired like any unknown one.
        path = tmp_path / "version.pages"
        for version in (99, 1):
            header = struct.pack("<4sIIII", b"MDLS", version, 4096, 0, 0)
            path.write_bytes(header)
            with pytest.raises(PageFileError, match=f"version {version}"):
                PageFile(path).open()

    def test_out_of_range_page(self, tmp_path):
        tree = build_site_tree(random_sites(10, seed=9))
        path = tmp_path / "range.pages"
        save_rtree(tree, path, SiteCodec())
        pf = PageFile(path).open()
        with pytest.raises(PageFileError, match="out of range"):
            pf.read_page(999)
        pf.close()

    def test_node_capacity_respects_page_size(self, tmp_path):
        """Pages written with the layout-derived fanout always fit in
        4 KiB: 113 branch entries x 36 B + header < 4096."""
        tree = build_site_tree(random_sites(3000, seed=10), max_entries=113)
        path = tmp_path / "full.pages"
        save_rtree(tree, path, SiteCodec())
        pf = PageFile(path).open()
        assert pf.page_size == 4096
        pf.close()


class TestRNNTreeOnDisk:
    def test_rnn_tree_round_trip_with_derived_square_mbrs(self, tmp_path):
        """An RNN-tree reopens from disk with its NFC squares rebuilt
        from the client records (centre = client, half-edge = dnn)."""
        from repro.rtree.rnn_tree import build_rnn_tree

        rng = random.Random(11)
        clients = [
            Client(i, rng.uniform(0, 1000), rng.uniform(0, 1000), rng.uniform(0, 50))
            for i in range(150)
        ]
        tree = build_rnn_tree(
            "rnn",
            IOStats(),
            clients,
            [(c.x, c.y, c.dnn) for c in clients],
        )
        path = tmp_path / "rnn.pages"
        save_rtree(tree, path, ClientCodec())
        with DiskRTree(
            "d", path, ClientCodec(), IOStats(), leaf_shape="circle"
        ) as disk:
            mem = {(e.payload.cid, e.mbr) for e in tree.iter_leaf_entries()}
            got = {(e.payload.cid, e.mbr) for e in disk.iter_leaf_entries()}
            assert got == mem
            # Point queries match too.
            q = Rect.from_point(Point(500, 500))
            mem_hits = sorted(c.cid for c in window_query(tree, q))
            disk_hits = sorted(c.cid for c in window_query(disk, q))
            assert disk_hits == mem_hits


class TestColumnarLeaves:
    """Structure-of-arrays leaves: zero-copy columns, lazy entries."""

    def make_site_tree(self, n=300, seed=20):
        rng = random.Random(seed)
        sites = [
            Site(i, rng.uniform(0, 1000), rng.uniform(0, 1000)) for i in range(n)
        ]
        tree = RTree("t", IOStats(), max_leaf_entries=16, max_branch_entries=16)
        bulk_load(tree, [Rect(s.x, s.y, s.x, s.y) for s in sites], sites)
        return tree, sites

    def make_client_tree(self, n=250, seed=21):
        rng = random.Random(seed)
        clients = [
            Client(i, rng.uniform(0, 1000), rng.uniform(0, 1000), rng.uniform(0, 40))
            for i in range(n)
        ]
        tree = MNDTree(
            "m",
            IOStats(),
            radius_of=lambda c: c.dnn,
            max_leaf_entries=16,
            max_branch_entries=16,
        )
        bulk_load(tree, [Rect(c.x, c.y, c.x, c.y) for c in clients], clients)
        return tree, clients

    def test_site_v2_round_trip(self, tmp_path):
        tree, sites = self.make_site_tree()
        path = tmp_path / "v2.pages"
        save_rtree(tree, path, SiteCodec())
        with DiskRTree("d", path, SiteCodec(), IOStats()) as disk:
            assert len(disk) == len(sites)
            got = sorted(e.payload for e in disk.iter_leaf_entries())
            assert got == sorted(sites)

    def test_mnd_v2_round_trip(self, tmp_path):
        tree, __ = self.make_client_tree()
        path = tmp_path / "mnd2.pages"
        save_rtree(tree, path, ClientCodec())
        with DiskRTree(
            "d", path, ClientCodec(), IOStats(), radius_of=lambda c: c.dnn
        ) as disk:
            assert disk.has_mnd
            assert disk.root_mnd() == pytest.approx(tree.root_mnd())

    def test_column_mbrs_bit_identical_point_and_circle(self, tmp_path):
        """A v2 leaf's vectorised MBR equals the sequential Rect union
        of its entry MBRs for both leaf shapes."""
        from repro.rtree.rnn_tree import build_rnn_tree

        tree, clients = self.make_client_tree(seed=23)
        point_path = tmp_path / "p.pages"
        save_rtree(tree, point_path, ClientCodec())
        with DiskRTree(
            "d", point_path, ClientCodec(), IOStats(), radius_of=lambda c: c.dnn
        ) as disk:
            order = list(tree.iter_nodes())
            leaves = [
                (i + 1, n) for i, n in enumerate(order) if n.is_leaf and n.entries
            ]
            assert leaves  # sanity: tree has leaves
            for page_id, mem_node in leaves:
                assert disk.node(page_id).mbr() == mem_node.mbr()

        rnn = build_rnn_tree(
            "rnn",
            IOStats(),
            clients,
            [(c.x, c.y, c.dnn) for c in clients],
        )
        circle_path = tmp_path / "c.pages"
        save_rtree(rnn, circle_path, ClientCodec())
        with DiskRTree(
            "d", circle_path, ClientCodec(), IOStats(), leaf_shape="circle"
        ) as disk:
            order = list(rnn.iter_nodes())
            for i, mem_node in enumerate(order):
                if not mem_node.is_leaf:
                    continue
                assert disk.node(i + 1).mbr() == mem_node.mbr()

    def test_lazy_entries_defer_materialisation(self, tmp_path):
        tree, __ = self.make_site_tree(n=100, seed=24)
        path = tmp_path / "lazy.pages"
        save_rtree(tree, path, SiteCodec())
        with DiskRTree("d", path, SiteCodec(), IOStats()) as disk:
            order = list(tree.iter_nodes())
            leaf_page = next(
                i + 1 for i, n in enumerate(order) if n.is_leaf and n.entries
            )
            node = disk.node(leaf_page)
            lazy = node.entries
            # len()/bool() work without building Entry objects
            assert len(lazy) == len(order[leaf_page - 1].entries)
            assert bool(lazy)
            assert lazy._items is None
            first = lazy[0]
            assert lazy._items is not None  # indexing materialises
            assert first.payload == order[leaf_page - 1].entries[0].payload

    def test_empty_column_leaf_mbr_raises(self):
        from repro.rtree.persist import ColumnLeafNode, _LazyEntries

        node = ColumnLeafNode(
            7, _LazyEntries(0, list), lambda: (_ for _ in ()).throw(AssertionError)
        )
        with pytest.raises(ValueError, match="no entries"):
            node.mbr()

    def test_leaf_columns_api(self, tmp_path):
        """A leaf read carries its zero-copy payload columns; a branch
        node carries the columns of its packed entries."""
        tree, __ = self.make_site_tree(n=80, seed=25)
        path = tmp_path / "v2.pages"
        save_rtree(tree, path, SiteCodec())
        order = list(tree.iter_nodes())
        leaf_page = next(i + 1 for i, n in enumerate(order) if n.is_leaf)
        with DiskRTree("d", path, SiteCodec(), IOStats()) as disk:
            cols = disk.node(leaf_page).columns
            assert not cols.xs.flags.owndata  # a view of the mapped page
            mem_ids = sorted(e.payload.sid for e in order[leaf_page - 1].entries)
            assert sorted(cols.ids.tolist()) == mem_ids
            if tree.height > 1:
                branch_page = next(
                    i + 1 for i, n in enumerate(order) if not n.is_leaf
                )
                branch = disk.node(branch_page)
                assert branch.columns.children.tolist() == [
                    e.child_id for e in branch.entries
                ]
                for field in ("xmin", "ymin", "xmax", "ymax"):
                    assert getattr(branch.columns.rects, field).tolist() == [
                        getattr(e.mbr, field) for e in branch.entries
                    ]

    def test_unknown_leaf_shape_rejected(self, tmp_path):
        tree, __ = self.make_site_tree(n=10, seed=28)
        path = tmp_path / "x.pages"
        save_rtree(tree, path, SiteCodec())
        with pytest.raises(ValueError, match="leaf shape"):
            DiskRTree("d", path, SiteCodec(), IOStats(), leaf_shape="zigzag")


class TestDecodeOnce:
    """Each page decodes at most once per open file; reads still charge."""

    @pytest.fixture()
    def disk(self, tmp_path):
        tree = build_site_tree(random_sites(400, seed=41), max_entries=16)
        path = tmp_path / "tree.pages"
        save_rtree(tree, path, SiteCodec())
        disk = DiskRTree("d", path, SiteCodec(), IOStats())
        yield disk
        disk.close()

    @staticmethod
    def count_decodes(disk, monkeypatch) -> list:
        decoded = []
        decode = disk._decode

        def counting(page_id, data):
            decoded.append(page_id)
            return decode(page_id, data)

        monkeypatch.setattr(disk, "_decode", counting)
        return decoded

    def test_repeated_read_charges_and_decodes_nothing(self, disk, monkeypatch):
        decoded = self.count_decodes(disk, monkeypatch)
        leaf = next(p for p in range(1, disk.num_nodes + 1) if disk.node(p).is_leaf)
        branch = disk.root_id
        assert not disk.node(branch).is_leaf
        decoded.clear()
        stats = IOStats()
        first = {p: disk.read_node(p, stats=stats) for p in (leaf, branch)}
        again = {p: disk.read_node(p, stats=stats) for p in (leaf, branch)}
        assert decoded == []
        assert stats.reads == {"d": 4}
        for page in first:
            assert again[page] is first[page]
        assert first[branch].columns.children.tolist() == [
            e.child_id for e in first[branch].entries
        ]

    def test_drop_decoded_makes_the_next_read_decode(self, disk, monkeypatch):
        decoded = self.count_decodes(disk, monkeypatch)
        node = disk.read_node(disk.root_id)
        disk.drop_decoded()
        assert disk.read_node(disk.root_id) is not node
        assert decoded == [disk.root_id, disk.root_id]

    def test_close_releases_the_map(self, tmp_path):
        tree = build_site_tree(random_sites(300, seed=42), max_entries=16)
        path = tmp_path / "tree.pages"
        save_rtree(tree, path, SiteCodec())
        disk = DiskRTree("d", path, SiteCodec(), IOStats())
        for page in range(1, disk.num_nodes + 1):
            disk.read_node(page)
        mapped = disk._file._mm
        disk.close()
        assert mapped.closed  # no decoded page still holds a view

    def test_threads_share_one_decode(self, tmp_path):
        tree = build_site_tree(random_sites(2000, seed=43), max_entries=16)
        path = tmp_path / "tree.pages"
        save_rtree(tree, path, SiteCodec())
        with DiskRTree("ref", path, SiteCodec(), IOStats()) as ref:
            pages = range(1, ref.num_nodes + 1)
            leaves = [p for p in pages if ref.node(p).is_leaf]
            want = {p: ref.node(p).columns.xs.tolist() for p in leaves}
            entries = {p: [e.payload for e in ref.node(p).entries] for p in want}
        disk = DiskRTree("d", path, SiteCodec(), IOStats())
        rounds, n_threads = 20, 8
        results = [None] * n_threads

        def reader(k: int) -> None:
            stats, seen = IOStats(), []
            for r in range(rounds):
                for p in pages if (k + r) % 2 else reversed(pages):
                    node = disk.read_node(p, stats=stats)
                    if node.is_leaf:
                        seen.append((p, node.columns.xs.tolist(), list(node.entries)))
            results[k] = (stats.reads.get("d", 0), seen)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [
                threading.Thread(target=reader, args=(k,)) for k in range(n_threads)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
                assert not thread.is_alive()
        finally:
            sys.setswitchinterval(interval)
        try:
            for reads, seen in results:
                assert reads == rounds * len(pages)
                assert len(seen) == rounds * len(want)
                for page, xs, items in seen:
                    assert xs == want[page]
                    assert [e.payload for e in items] == entries[page]
            # One decode per page, and one entry list per leaf, shared by all.
            for page in want:
                node = disk.node(page)
                assert all(
                    items[0] is node.entries[0]
                    for __, seen in results
                    for p, __, items in seen
                    if p == page
                )
        finally:
            disk.close()
