"""The MND-augmented R-tree ``R_C^m`` (Section VI).

Structurally a plain R-tree over client points, except that every
directory entry additionally stores the child node's *maximum NFC
distance* — one 8-byte value, computed with the closed-form CFP
arithmetic of Section VI-A.  The augmentation is maintained through the
standard insert/delete paths by overriding the two entry-production
hooks, mirroring how MBRs themselves are maintained (the paper: "the
MND computation can be integrated straightforwardly into the standard
R-tree procedures with negligible overhead").  Bulk loading computes a
whole level's MNDs at once through a third hook, ``_bulk_mnds``, with
the same closed form on columns — bit-identical to ``compute_mnd``
node by node.

The entry layout (:data:`repro.storage.records.MND_ENTRY`) is 8 bytes
wider than a plain entry, which slightly reduces fanout — exactly the
effect the paper acknowledges and measures via index size.
"""

from __future__ import annotations

from typing import Any, Callable, Optional

import numpy as np

from repro.geometry.maxmindist import max_min_dist_region_rect, max_min_dist_runs
from repro.rtree.entry import BranchEntry
from repro.rtree.node import Node
from repro.rtree.rtree import RTree
from repro.storage.records import MND_ENTRY, PAGE_SIZE
from repro.storage.stats import IOStats


class MNDTree(RTree):
    """An R-tree whose parent entries carry the child's MND value."""

    def __init__(
        self,
        name: str,
        stats: IOStats,
        radius_of: Callable[[Any], float],
        page_size: int = PAGE_SIZE,
        max_leaf_entries: Optional[int] = None,
        max_branch_entries: Optional[int] = None,
        min_fill: float = 0.4,
    ):
        """``radius_of`` maps a leaf payload (a client record) to its NFC
        radius, i.e. the precomputed ``dnn(c, F)``.

        The 44-byte :data:`~repro.storage.records.MND_ENTRY` layout is
        used at *every* level — the extra attribute that "reduces C_e a
        little bit" (Section VII-A): leaf entries carry the client's
        ``dnn`` (its leaf-level MND) and directory entries the child's
        MND.
        """
        super().__init__(
            name,
            stats,
            leaf_layout=MND_ENTRY,
            branch_layout=MND_ENTRY,
            page_size=page_size,
            max_leaf_entries=max_leaf_entries,
            max_branch_entries=max_branch_entries,
            min_fill=min_fill,
        )
        self._radius_of = radius_of

    # ------------------------------------------------------------------
    # Augmentation hooks
    # ------------------------------------------------------------------
    def _entry_for_child(self, child: Node) -> BranchEntry:
        return BranchEntry(child.mbr(), child.node_id, self.compute_mnd(child))

    def _refresh_entry(self, entry: BranchEntry, child: Node) -> None:
        entry.mbr = child.mbr()
        entry.mnd = self.compute_mnd(child)

    def _bulk_mnds(self, level, bounds, starts, node_bounds, below):
        """Every node MND of one bulk-loaded level, on columns: the
        entries' radii are the payloads' ``dnn`` at the leaves and the
        child MNDs above (see :func:`max_min_dist_runs`)."""
        radii = (
            np.fromiter(map(self._radius_of, below), np.float64, len(below))
            if level == 0
            else below
        )
        return max_min_dist_runs(bounds, radii, starts, node_bounds)

    # ------------------------------------------------------------------
    def compute_mnd(self, node: Node) -> float:
        """The MND of ``node``: the largest ``maxMinDist`` from the NFC
        (leaf) or MND region (non-leaf) of any child to the node's MBR."""
        mbr = node.mbr()
        best = 0.0
        if node.is_leaf:
            for entry in node.entries:
                value = max_min_dist_region_rect(
                    entry.mbr, self._radius_of(entry.payload), mbr
                )
                if value > best:
                    best = value
        else:
            for entry in node.entries:
                value = max_min_dist_region_rect(entry.mbr, entry.mnd, mbr)
                if value > best:
                    best = value
        return best

    def root_mnd(self) -> float:
        """The MND of the root (kept implicit; roots have no parent entry)."""
        root = self.node(self.root_id)
        if not root.entries:
            return 0.0
        return self.compute_mnd(root)
