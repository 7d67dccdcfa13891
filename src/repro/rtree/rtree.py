"""The R-tree proper (Guttman, SIGMOD 1984).

One node == one simulated disk page, so the node reads a query charges
measure exactly the "number of I/Os" the paper reports.  Query code must
access nodes through :meth:`~TreeReads.read_node` (counted), or fetch
them with the uncounted :meth:`RTree.node` and charge the reads it
stands for with one :meth:`~TreeReads.charge`; construction and
maintenance use ``node`` alone, because the paper excludes index
building from query costs.  :class:`TreeReads` is the one charge rule,
shared with the on-disk :class:`~repro.rtree.persist.DiskRTree`.

Subclasses customise the directory entries through two hooks —
:meth:`RTree._entry_for_child` and :meth:`RTree._refresh_entry` — which is
all the MND variant needs to keep its augmentation consistent during
inserts, deletes and in-place entry updates; bulk loading, which works
on columns, asks for a whole level's values through
:meth:`RTree._bulk_mnds`.
"""

from __future__ import annotations

from typing import Any, Iterable, Iterator, Optional, Sequence

from repro.geometry.rect import Rect
from repro.obs.registry import REGISTRY
from repro.rtree.entry import BranchEntry, LeafEntry
from repro.rtree.node import Node
from repro.rtree.split import quadratic_split
from repro.storage.pager import Pager
from repro.storage.records import PAGE_SIZE, RTREE_ENTRY, RecordLayout
from repro.storage.stats import IOStats


class TreeReads:
    """The charge rule for tree reads, and the query-time read path.

    A charge of ``n`` node reads is one ``record_read(name, n)`` on the
    per-query :class:`IOStats`, one ``rtree.node_reads`` registry
    increment of ``n`` and — only while a tracer is bound — one count
    each of the leaves and branches among them on the open span
    (``reads.<name>.leaf`` / ``.branch``), so profiles separate
    directory descent from leaf scans.

    ``nodes`` maps a node id to its node: the in-memory tree's page
    list, or the disk tree's pages decoded on first fetch.
    """

    def __init__(self, name: str, stats: IOStats, nodes):
        self.name = name
        self.stats = stats
        self._nodes = nodes
        self._reg_node_reads = REGISTRY.counter("rtree.node_reads")
        self._leaf_read_key = f"reads.{name}.leaf"
        self._branch_read_key = f"reads.{name}.branch"

    def node(self, node_id: int) -> Node:
        """Fetch a node without accounting: for construction and
        maintenance, and for passes that charge their reads at once."""
        return self._nodes[node_id]

    def read_node(self, node_id: int, stats: Optional[IOStats] = None) -> Node:
        """Fetch a node with I/O accounting — one uncharged fetch and one
        :meth:`charge`."""
        node = self._nodes[node_id]
        self.charge((node_id,), stats)
        return node

    def charge(self, node_ids: Sequence[int], stats: Optional[IOStats] = None) -> None:
        """Charge the reads of ``node_ids`` at once; no ids charge nothing.

        ``stats`` redirects the charge (and the leaf/branch span
        counts) to a caller-private accounting; parallel tasks use this
        so the engine can merge per-task partials determinately.
        """
        reads = len(node_ids)
        if not reads:
            return
        stats = self.stats if stats is None else stats
        stats.record_read(self.name, reads)
        self._reg_node_reads.inc(reads)
        tracer = stats._tracer
        if tracer is not None:
            nodes, leaves = self._nodes, 0
            for node_id in node_ids:
                leaves += nodes[node_id].level == 0
            if leaves:
                tracer.count(self._leaf_read_key, leaves)
            if leaves < reads:
                tracer.count(self._branch_read_key, reads - leaves)


class RTree(TreeReads):
    """A disk-based R-tree over ``(Rect, payload)`` data entries."""

    def __init__(
        self,
        name: str,
        stats: IOStats,
        leaf_layout: RecordLayout = RTREE_ENTRY,
        branch_layout: RecordLayout = RTREE_ENTRY,
        page_size: int = PAGE_SIZE,
        max_leaf_entries: Optional[int] = None,
        max_branch_entries: Optional[int] = None,
        min_fill: float = 0.4,
    ):
        self._pager = Pager(name, branch_layout, stats, page_size)
        super().__init__(name, stats, self._pager._pages)
        self.max_leaf = max_leaf_entries or leaf_layout.capacity(page_size)
        self.max_branch = max_branch_entries or branch_layout.capacity(page_size)
        if self.max_leaf < 2 or self.max_branch < 2:
            raise ValueError("R-tree nodes must hold at least two entries")
        # Guttman's m <= M/2 bound; rounding (not truncating) keeps small
        # test trees honest (max=4 -> min=2), which matters for condense.
        self.min_leaf = min(max(1, round(self.max_leaf * min_fill)), self.max_leaf // 2)
        self.min_branch = min(
            max(1, round(self.max_branch * min_fill)), self.max_branch // 2
        )
        self.min_leaf = max(1, self.min_leaf)
        self.min_branch = max(1, self.min_branch)
        self._free_pages: list[int] = []
        root = Node(0, 0)
        self.root_id = self._pager.allocate(root)
        root.node_id = self.root_id
        self.height = 1
        self.num_entries = 0
        # Mutation counter: bumped by every insert, delete and
        # update_entries call so version-keyed caches of decoded node
        # contents (DecodedLeafCache) can detect staleness without the
        # tree knowing who caches what.
        self.version = 0
        # Scoped invalidation: a bound DecodedLeafCache receives the
        # exact node ids each mutation dirties (and immediate drops for
        # freed pages), so its other decodes survive the version bump.
        self._leaf_cache = None
        self._dirty: set[int] = set()

    # ------------------------------------------------------------------
    # Page plumbing
    # ------------------------------------------------------------------
    @property
    def root(self) -> Node:
        return self._nodes[self.root_id]

    def _alloc_node(self, level: int) -> Node:
        if self._free_pages:
            node_id = self._free_pages.pop()
            node = Node(node_id, level, [])
            self._nodes[node_id] = node
        else:
            node = Node(-1, level, [])
            node.node_id = self._pager.allocate(node)
        self._mark_dirty(node.node_id)
        return node

    def _free_node(self, node_id: int) -> None:
        self._nodes[node_id] = None
        self._free_pages.append(node_id)
        # Drop the decode *now*: the page id recycles, and a later
        # occupant must never inherit a stale cached decode.
        if self._leaf_cache is not None:
            self._leaf_cache.drop_node(self.name, node_id)
            self._dirty.discard(node_id)

    # ------------------------------------------------------------------
    # Scoped leaf-cache invalidation
    # ------------------------------------------------------------------
    def bind_leaf_cache(self, cache) -> None:
        """Report mutation-dirtied node ids to ``cache`` from now on.

        Binding opts the tree into the cache's *tracked* mode: version
        bumps stop clearing the tree's decodes wholesale, because every
        mutation flushes the precise set of nodes whose entry lists (or
        parent entries) changed, and freed pages drop immediately.
        """
        self._leaf_cache = cache
        cache.track(self.name)

    def _mark_dirty(self, node_id: int) -> None:
        if self._leaf_cache is not None:
            self._dirty.add(node_id)

    def _flush_dirty(self) -> None:
        if self._leaf_cache is not None and self._dirty:
            self._leaf_cache.note_dirty(self.name, self._dirty)
            self._dirty.clear()

    @property
    def num_nodes(self) -> int:
        return self._pager.num_pages - len(self._free_pages)

    @property
    def size_pages(self) -> int:
        """Index size in pages — the paper's index-size metric."""
        return self.num_nodes

    @property
    def size_bytes(self) -> int:
        return self.num_nodes * self._pager.page_size

    def __len__(self) -> int:
        return self.num_entries

    # ------------------------------------------------------------------
    # Augmentation hooks (overridden by MNDTree)
    # ------------------------------------------------------------------
    def _entry_for_child(self, child: Node) -> BranchEntry:
        """A parent entry describing ``child`` (MBR only by default)."""
        return BranchEntry(child.mbr(), child.node_id)

    def _refresh_entry(self, entry: BranchEntry, child: Node) -> None:
        """Recompute a parent entry after ``child`` changed."""
        entry.mbr = child.mbr()

    def _bulk_mnds(self, level, bounds, starts, node_bounds, below):
        """The augmentation values of one bulk-loaded level's nodes.

        :func:`~repro.rtree.bulk.bulk_load` calls this once per level
        with the level's entry MBR columns in node order, each node's
        first row (``starts``) and MBR (``node_bounds``); ``below`` is
        what the entries carry — the payloads at level 0, this hook's
        previous result above.  Plain trees carry nothing: None.
        """
        return None

    # ------------------------------------------------------------------
    # Insertion
    # ------------------------------------------------------------------
    def insert(self, mbr: Rect, payload: Any) -> None:
        """Insert one data entry (Guttman insert with quadratic splits)."""
        self._insert_at_level(LeafEntry(mbr, payload), 0)
        self.num_entries += 1
        self.version += 1
        self._flush_dirty()

    def _insert_at_level(self, entry: LeafEntry | BranchEntry, level: int) -> None:
        split = self._insert_rec(self.root_id, entry, level)
        if split is not None:
            self._grow_root(split)

    def _insert_rec(
        self, node_id: int, entry: LeafEntry | BranchEntry, target_level: int
    ) -> Optional[BranchEntry]:
        node = self.node(node_id)
        # Every node on the descent path changes: either its entry list
        # (append/split) or a child entry's MBR/augmentation (refresh).
        self._mark_dirty(node_id)
        if node.level == target_level:
            node.entries.append(entry)
        else:
            choice = self._choose_subtree(node, entry.mbr)
            split = self._insert_rec(choice.child_id, entry, target_level)
            self._refresh_entry(choice, self.node(choice.child_id))
            if split is not None:
                node.entries.append(split)
        if len(node.entries) > self._max_entries(node):
            return self._handle_overflow(node)
        return None

    def _handle_overflow(self, node: Node) -> Optional[BranchEntry]:
        """Resolve an overflowing node; returns the new sibling's parent
        entry when the resolution was a split.  The Guttman tree always
        splits; the R*-tree overrides this with forced reinsertion."""
        return self._split_node(node)

    def _choose_subtree(self, node: Node, mbr: Rect) -> BranchEntry:
        """Least-enlargement child, ties broken by smaller area."""
        best: Optional[BranchEntry] = None
        best_enlargement = float("inf")
        best_area = float("inf")
        for entry in node.entries:
            enlargement = entry.mbr.enlargement(mbr)
            area = entry.mbr.area
            if enlargement < best_enlargement or (
                enlargement == best_enlargement and area < best_area
            ):
                best = entry
                best_enlargement = enlargement
                best_area = area
        assert best is not None, "choose_subtree on empty node"
        return best

    def _max_entries(self, node: Node) -> int:
        return self.max_leaf if node.is_leaf else self.max_branch

    def _min_entries(self, node: Node) -> int:
        return self.min_leaf if node.is_leaf else self.min_branch

    def _split_node(self, node: Node) -> BranchEntry:
        """Split an overflowing node in place; returns the new sibling's
        parent entry."""
        group1, group2 = quadratic_split(node.entries, self._min_entries(node))
        node.entries = group1
        sibling = self._alloc_node(node.level)
        sibling.entries = group2
        return self._entry_for_child(sibling)

    def _grow_root(self, sibling_entry: BranchEntry) -> None:
        old_root = self.node(self.root_id)
        new_root = self._alloc_node(old_root.level + 1)
        new_root.entries = [self._entry_for_child(old_root), sibling_entry]
        self.root_id = new_root.node_id
        self.height += 1

    # ------------------------------------------------------------------
    # Deletion
    # ------------------------------------------------------------------
    def delete(self, mbr: Rect, payload: Any) -> bool:
        """Remove the data entry with this exact ``(mbr, payload)``.

        Underflowing nodes are dissolved and their data entries
        reinserted (the condense-tree step).  Returns False when no
        matching entry exists.
        """
        orphans: list[LeafEntry] = []
        found = self._delete_rec(self.root_id, mbr, payload, orphans)
        if not found:
            return False
        self.num_entries -= 1
        self.version += 1
        # Shrink the root while it is a single-child branch node.
        root = self.node(self.root_id)
        while not root.is_leaf and len(root.entries) == 1:
            child_id = root.entries[0].child_id
            self._free_node(self.root_id)
            self.root_id = child_id
            self.height -= 1
            root = self.node(self.root_id)
        for orphan in orphans:
            self._insert_at_level(orphan, 0)
        self._flush_dirty()
        return True

    def _delete_rec(
        self, node_id: int, mbr: Rect, payload: Any, orphans: list[LeafEntry]
    ) -> bool:
        node = self.node(node_id)
        if node.is_leaf:
            for idx, entry in enumerate(node.entries):
                if entry.mbr == mbr and entry.payload == payload:
                    del node.entries[idx]
                    self._mark_dirty(node_id)
                    return True
            return False
        for idx, entry in enumerate(node.entries):
            if not entry.mbr.contains_rect(mbr):
                continue
            if not self._delete_rec(entry.child_id, mbr, payload, orphans):
                continue
            # This node changes either way: the child's entry is dropped
            # (dissolve) or refreshed (MBR/augmentation tightening).
            self._mark_dirty(node_id)
            child = self.node(entry.child_id)
            if len(child.entries) < self._min_entries(child):
                # Dissolve the underflowing child: salvage its data
                # entries for reinsertion and drop it from the directory.
                self._collect_leaf_entries(child, orphans)
                self._free_subtree(entry.child_id)
                del node.entries[idx]
            else:
                self._refresh_entry(entry, child)
            return True
        return False

    def _collect_leaf_entries(self, node: Node, out: list[LeafEntry]) -> None:
        if node.is_leaf:
            out.extend(node.entries)  # type: ignore[arg-type]
            return
        for entry in node.entries:
            self._collect_leaf_entries(self.node(entry.child_id), out)

    def _free_subtree(self, node_id: int) -> None:
        node = self.node(node_id)
        if not node.is_leaf:
            for entry in node.entries:
                self._free_subtree(entry.child_id)
        self._free_node(node_id)

    # ------------------------------------------------------------------
    # In-place update
    # ------------------------------------------------------------------
    def update_entries(self, items: Iterable[tuple[Rect, Rect, Any]]) -> None:
        """Give data entries new MBRs where they sit.

        Each item is ``(old_mbr, new_mbr, payload)``: the entry found by
        ``(old_mbr, payload)`` stays in its leaf and takes ``new_mbr``.
        ``old_mbr == new_mbr`` is allowed, for payloads whose other
        fields changed.  Then every distinct ancestor entry on the
        touched paths is refreshed exactly once, deepest level first,
        through :meth:`_refresh_entry`, so an augmented tree recomputes
        its values with its own hook.  Nothing is inserted, deleted,
        split or condensed.  Exactly the nodes on the touched paths are
        marked dirty, and the version bumps once.

        Raises :class:`KeyError`, before changing anything, when an
        item matches no entry.
        """
        found = []
        for old, new, payload in items:
            path = self._find_path(self.root_id, old, payload)
            if path is None:
                raise KeyError(f"no data entry {payload!r} with MBR {old}")
            found.append((path, new))
        if not found:
            return
        # Parent level -> child id -> the parent's entry for that child.
        stale: dict[int, dict[int, BranchEntry]] = {}
        for path, new in found:
            leaf, index = path[-1]
            leaf.entries[index].mbr = new
            for node, index in path:
                self._mark_dirty(node.node_id)
                if not node.is_leaf:
                    entry = node.entries[index]
                    stale.setdefault(node.level, {})[entry.child_id] = entry
        for level in sorted(stale):
            for child_id, entry in stale[level].items():
                self._refresh_entry(entry, self.node(child_id))
        self.version += 1
        self._flush_dirty()

    def _find_path(
        self, node_id: int, mbr: Rect, payload: Any
    ) -> Optional[list[tuple[Node, int]]]:
        """The ``(node, entry index)`` steps from ``node_id`` down to the
        data entry ``(mbr, payload)``, or None when it is absent."""
        node = self.node(node_id)
        if node.is_leaf:
            for index, entry in enumerate(node.entries):
                if entry.mbr == mbr and entry.payload == payload:
                    return [(node, index)]
            return None
        x0, y0, x1, y1 = mbr
        for index, entry in enumerate(node.entries):
            # Rect.contains_rect, inlined: this loop is the search's cost.
            box = entry.mbr
            if box[0] <= x0 and box[1] <= y0 and x1 <= box[2] and y1 <= box[3]:
                rest = self._find_path(entry.child_id, mbr, payload)
                if rest is not None:
                    return [(node, index), *rest]
        return None

    # ------------------------------------------------------------------
    # Traversal helpers
    # ------------------------------------------------------------------
    def iter_leaf_entries(self) -> Iterator[LeafEntry]:
        """All data entries, without I/O accounting (for tests/tools)."""
        stack = [self.root_id]
        while stack:
            node = self.node(stack.pop())
            if node.is_leaf:
                yield from node.entries  # type: ignore[misc]
            else:
                stack.extend(e.child_id for e in node.entries)

    def iter_nodes(self) -> Iterator[Node]:
        """All nodes, without I/O accounting (for tests/tools)."""
        stack = [self.root_id]
        while stack:
            node = self.node(stack.pop())
            yield node
            if not node.is_leaf:
                stack.extend(e.child_id for e in node.entries)

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}(name={self.name!r}, entries={self.num_entries}, "
            f"height={self.height}, nodes={self.num_nodes})"
        )
