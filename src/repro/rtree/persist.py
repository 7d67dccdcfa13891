"""R-tree persistence: byte-accurate page files on real disk.

``save_rtree`` serialises any tree built by this package (plain,
RNN-tree or MND-augmented) into a :class:`~repro.storage.diskfile.PageFile`;
``DiskRTree`` reopens such a file as a *read-only* index that answers
the same window / NN / join queries with identical results and I/O
accounting — every node read is served from the mapped file and
counted, exactly like a database reading from disk.

Page 0 is a metadata page; tree nodes occupy pages 1..n.

Leaf pages store *only* the payload records, as the structure-of-arrays
column blocks of :mod:`repro.storage.soa`; the entry MBRs are derived
from the columns at read time according to the tree's ``leaf_shape``
(a point record's MBR is the degenerate point rectangle; an RNN-tree
entry's MBR is the square around its NFC).  This mirrors real systems —
and keeps every full node within one 4 KiB page, since the in-memory
capacities are derived from 36/44-byte entry layouts while a
self-contained "MBR + record" encoding would be wider.  A leaf read
decodes as zero-copy numpy views (no per-record work at all), and the
returned node materialises its entry objects lazily — the join and
window hot paths only ever touch the columns and the node MBR.

``save_rtree`` gathers each leaf's columns from that leaf's payloads
alone: a leaf's records sit far apart in memory, and reading their
fields leaf by leaf keeps them in cache, which measured faster than one
gather over a whole tree's leaves followed by per-leaf slices.

Branch pages keep the packed entry layout (they are small, and
traversal needs their entry objects anyway); a branch node carries both
its entry objects and the ``BranchColumns`` decoded from the page.

Each page is decoded at most once per open file, and sliced from the
map only then.  Every read is still charged, and then served the node
decoded at the page's first fetch.

File layout per node page::

    level:  u16     (0 = leaf)
    count:  u16
    then the leaf column block, or `count` branch entries:
    mbr (4 doubles) + child page (u32) [+ mnd (double)]
"""

from __future__ import annotations

import struct
import threading
from pathlib import Path
from typing import Any, Callable, Optional

import numpy as np

from repro import kernels
from repro.geometry.maxmindist import max_min_dist_region_rect
from repro.geometry.rect import Rect
from repro.rtree.entry import BranchEntry, LeafEntry
from repro.rtree.mnd_tree import MNDTree
from repro.rtree.node import Node
from repro.rtree.rtree import RTree, TreeReads
from repro.storage.codecs import PayloadCodec, encode_branch
from repro.storage.diskfile import PageFile, PageFileError
from repro.storage.stats import IOStats

_NODE_HEADER = struct.Struct("<HH")

#: How a leaf derives its entry MBRs from the payload columns.
LEAF_SHAPES = ("point", "circle")

_META = struct.Struct("<IIB")  # num_entries, height, flags
_FLAG_MND = 1


class ReadOnlyTreeError(RuntimeError):
    """Raised when mutating a disk-backed tree."""


def save_rtree(tree: RTree, path: str | Path, codec: PayloadCodec) -> int:
    """Serialise ``tree`` to ``path``; returns the number of pages written
    (including the metadata page)."""
    has_mnd = isinstance(tree, MNDTree)
    # Assign page ids in DFS order; page 0 is metadata, root gets page 1.
    order: list[Node] = list(tree.iter_nodes())
    page_of: dict[int, int] = {node.node_id: i + 1 for i, node in enumerate(order)}

    page_file = PageFile(path, page_size=tree._pager.page_size)
    pages = [_META.pack(tree.num_entries, tree.height, _FLAG_MND if has_mnd else 0)]
    for node in order:
        parts = [_NODE_HEADER.pack(node.level, len(node.entries))]
        if node.is_leaf:
            payloads = [entry.payload for entry in node.entries]
            parts.append(codec.encode_soa(codec.columns_from_objects(payloads)))
        else:
            for entry in node.entries:
                parts.append(
                    encode_branch(
                        entry.mbr,
                        page_of[entry.child_id],
                        entry.mnd if has_mnd else None,
                    )
                )
        image = b"".join(parts)
        if len(image) > page_file.page_size:
            raise PageFileError(
                f"node {node.node_id} serialises to {len(image)} bytes "
                f"> page size {page_file.page_size}"
            )
        pages.append(image)

    root_page = page_of[tree.root_id] if order else 0
    page_file.create(pages, root_page)
    return len(pages)


#: Serialises entry materialisation: a decoded node is shared by every
#: reader of the tree, engine threads included.
_MATERIALISE = threading.Lock()


class _LazyEntries:
    """A leaf entry list materialised on first element access.

    ``len()`` (the hot-path counters) and truthiness never materialise;
    iterating or indexing builds the entry objects once per node object,
    under a lock so concurrent readers of a shared node get one list.
    """

    __slots__ = ("_count", "_load", "_items")

    def __init__(self, count: int, load: Callable[[], list]):
        self._count = count
        self._load = load
        self._items: Optional[list] = None

    def _force(self) -> list:
        items = self._items
        if items is None:
            with _MATERIALISE:
                if self._items is None:
                    self._items = self._load()
                items = self._items
        return items

    def __len__(self) -> int:
        return self._count

    def __bool__(self) -> bool:
        return self._count > 0

    def __getitem__(self, index):
        return self._force()[index]

    def __iter__(self):
        return iter(self._force())

    def __repr__(self) -> str:
        state = "materialised" if self._items is not None else "lazy"
        return f"_LazyEntries(n={self._count}, {state})"


class ColumnLeafNode(Node):
    """A leaf served from column views; entries materialise lazily.

    The join/window hot paths consume leaves through
    :mod:`repro.rtree.columns`, ``len(node.entries)`` and ``node.mbr()``
    — none of which need per-entry Python objects.  The MBR comes
    vectorised from the columns (running ``min``/``max`` over floats is
    exact, so it is bit-identical to the entry-by-entry union).

    ``columns`` carries the decoded payload column views so consumers
    that already hold the node never re-peek and re-slice the page.  The
    MBR is computed on first use and kept, like the rest of the decode."""

    __slots__ = ("_mbr_fn", "_mbr", "columns")

    def __init__(self, node_id: int, entries: _LazyEntries, mbr_fn, columns=None):
        super().__init__(node_id, 0, entries)
        self._mbr_fn = mbr_fn
        self._mbr: Optional[Rect] = None
        self.columns = columns

    def mbr(self) -> Rect:
        if not self.entries:
            raise ValueError(f"node {self.node_id} has no entries")
        if self._mbr is None:
            self._mbr = self._mbr_fn()
        return self._mbr


class ColumnBranchNode(Node):
    """A branch node with its entries and its decoded ``BranchColumns``,
    which :func:`repro.rtree.columns.branch_columns` hands to the
    kernels as the leaves' ``columns`` are."""

    __slots__ = ("columns",)

    def __init__(self, node_id: int, level: int, entries: list, columns):
        super().__init__(node_id, level, entries)
        self.columns = columns


class _DecodedNodes(dict):
    """Page id -> node, each page sliced from the map and decoded at its
    first fetch; the first decode wins if two threads decode one page
    at once."""

    __slots__ = ("_decode",)

    def __init__(self, decode: Callable[[int], Node]):
        super().__init__()
        self._decode = decode

    def __missing__(self, page_id: int) -> Node:
        return self.setdefault(page_id, self._decode(page_id))


class DiskRTree(TreeReads):
    """A read-only R-tree served from a page file.

    Interchangeable with :class:`~repro.rtree.rtree.RTree` for all
    query paths (``read_node`` / ``charge`` / ``node`` / ``root_id`` /
    ``num_entries``; both charge their reads by the one
    :class:`~repro.rtree.rtree.TreeReads` rule), so
    :func:`~repro.rtree.window.window_query`,
    :func:`~repro.rtree.nn.nearest_neighbor`,
    :func:`~repro.rtree.join.intersection_join` and the method joins of
    :mod:`repro.core` all work unchanged on disk-backed indexes.

    Each page is decoded at most once per open file: ``read_node``
    charges every read, and returns the node decoded at the page's
    first fetch.  The decoded nodes are shared by every reader, engine
    threads included, and are read-only.  :meth:`drop_decoded` forgets
    them, and :meth:`close` drops them before unmapping the file.
    """

    def __init__(
        self,
        name: str,
        path: str | Path,
        codec: PayloadCodec,
        stats: IOStats,
        radius_of: Optional[Callable[[Any], float]] = None,
        leaf_shape: str = "point",
    ):
        """``leaf_shape`` is how a leaf derives its entry MBRs from its
        columns: ``"point"`` (degenerate point rectangles) or
        ``"circle"`` (the square of radius ``dnn`` around each point,
        i.e. an RNN-tree).  ``radius_of`` gives a payload's radius for
        leaf-level MND (an MND-augmented client tree)."""
        if leaf_shape not in LEAF_SHAPES:
            raise ValueError(f"unknown leaf shape {leaf_shape!r}")
        super().__init__(
            name,
            stats,
            _DecodedNodes(lambda page: self._decode(page, self._file.read_page(page))),
        )
        self._file = PageFile(path).open()
        self._codec = codec
        self._radius_of = radius_of
        self._leaf_shape = leaf_shape
        meta = self._file.read_page(0)[: _META.size]
        self.num_entries, self.height, flags = _META.unpack(bytes(meta))
        self.has_mnd = bool(flags & _FLAG_MND)
        self.root_id = self._file.root_page
        # Read-only trees never mutate, so decoded-leaf caches keyed on
        # (name, version) stay valid for the file's lifetime.
        self.version = 0

    # ------------------------------------------------------------------
    # Decoding
    # ------------------------------------------------------------------
    def _decode(self, page_id: int, data) -> Node:
        level, count = _NODE_HEADER.unpack_from(data)
        offset = _NODE_HEADER.size
        if level == 0:
            return self._column_leaf(page_id, count, data, offset)
        cols = kernels.decode_branch_columns(
            data, count, with_mnd=self.has_mnd, offset=offset
        )
        rects = cols.rects
        mnds = cols.mnd.tolist() if cols.mnd is not None else [None] * count
        entries = [
            BranchEntry(Rect(x1, y1, x2, y2), child, mnd)
            for x1, y1, x2, y2, child, mnd in zip(
                rects.xmin.tolist(),
                rects.ymin.tolist(),
                rects.xmax.tolist(),
                rects.ymax.tolist(),
                cols.children.tolist(),
                mnds,
            )
        ]
        return ColumnBranchNode(page_id, level, entries, cols)

    def _entry_bounds(self, cols) -> tuple:
        """``(xmin, ymin, xmax, ymax)`` arrays of a leaf's entry MBRs.

        Elementwise float arithmetic, so each value is bit-identical to
        the scalar ``Rect`` the in-memory tree stores (``Circle.mbr``
        for the circle shape)."""
        if self._leaf_shape == "circle":
            return (
                cols.xs - cols.dnn,
                cols.ys - cols.dnn,
                cols.xs + cols.dnn,
                cols.ys + cols.dnn,
            )
        return cols.xs, cols.ys, cols.xs, cols.ys

    def _column_leaf(self, page_id: int, count: int, data, offset: int) -> Node:
        """A leaf: zero decode now, lazy entry objects if ever needed."""
        cols = self._codec.decode_soa(data, count, offset=offset)

        def load_entries() -> list:
            bounds = zip(*(column.tolist() for column in self._entry_bounds(cols)))
            return [
                LeafEntry(Rect(*rect), payload)
                for rect, payload in zip(
                    bounds, self._codec.objects_from_columns(cols)
                )
            ]

        def column_mbr() -> Rect:
            xmin, ymin, xmax, ymax = self._entry_bounds(cols)
            return Rect(
                float(np.min(xmin)),
                float(np.min(ymin)),
                float(np.max(xmax)),
                float(np.max(ymax)),
            )

        return ColumnLeafNode(
            page_id, _LazyEntries(count, load_entries), column_mbr, cols
        )

    # ------------------------------------------------------------------
    # RTree-compatible query interface
    # ------------------------------------------------------------------
    def drop_decoded(self) -> None:
        """Forget every decoded node; the next read of a page decodes it."""
        self._nodes.clear()

    @property
    def root(self) -> Node:
        return self.node(self.root_id)

    @property
    def num_nodes(self) -> int:
        return self._file.num_pages - 1  # minus the metadata page

    @property
    def size_pages(self) -> int:
        return self.num_nodes

    def __len__(self) -> int:
        return self.num_entries

    def iter_leaf_entries(self):
        stack = [self.root_id]
        while stack:
            node = self.node(stack.pop())
            if node.is_leaf:
                yield from node.entries
            else:
                stack.extend(e.child_id for e in node.entries)

    # ------------------------------------------------------------------
    # MND support (for running the MND join on a disk-backed R_C^m)
    # ------------------------------------------------------------------
    def compute_mnd(self, node: Node) -> float:
        if not self.has_mnd:
            raise ReadOnlyTreeError(f"{self.name} carries no MND augmentation")
        mbr = node.mbr()
        best = 0.0
        if node.is_leaf:
            if self._radius_of is None:
                raise ReadOnlyTreeError(
                    "leaf-level MND needs radius_of at DiskRTree construction"
                )
            for entry in node.entries:
                value = max_min_dist_region_rect(
                    entry.mbr, self._radius_of(entry.payload), mbr
                )
                best = max(best, value)
        else:
            for entry in node.entries:
                value = max_min_dist_region_rect(entry.mbr, entry.mnd, mbr)
                best = max(best, value)
        return best

    def root_mnd(self) -> float:
        root = self.root
        if not root.entries:
            return 0.0
        return self.compute_mnd(root)

    # ------------------------------------------------------------------
    # Mutations are rejected
    # ------------------------------------------------------------------
    def insert(self, mbr: Rect, payload: Any) -> None:
        raise ReadOnlyTreeError(f"{self.name} is a read-only disk tree")

    def delete(self, mbr: Rect, payload: Any) -> bool:
        raise ReadOnlyTreeError(f"{self.name} is a read-only disk tree")

    def close(self) -> None:
        self._nodes.clear()  # its leaves are views of the map
        self._file.close()

    def __enter__(self) -> "DiskRTree":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
