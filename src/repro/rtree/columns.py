"""Columnar views of R-tree nodes, cached in the workspace leaf cache.

The join and window traversals of :mod:`repro.core` used to decode each
leaf into ad-hoc array tuples inside the selectors.  This module is the
single decode point for all of them: given a tree and a node, it
returns the structure-of-arrays buffers of
:mod:`repro.kernels.columnar`, memoized in a
:class:`~repro.storage.leafcache.DecodedLeafCache` under the node's
``(tree_name, node_id)`` key (leaf and branch nodes share one id space
per tree, so the key space cannot collide).

Decoding takes one of two routes:

* disk trees (:class:`~repro.rtree.persist.DiskRTree`) hand out nodes
  that carry their columns (``node.columns``): a leaf's zero-copy
  column views — the page *is* the columns — and a branch's
  ``BranchColumns``, bulk-decoded from its packed bytes once per open
  file.  The cache then holds the node's own column objects, not a
  second copy;
* in-memory trees decode from the node's entry objects.

Both routes produce identical column values for the same logical
records.  Crucially, **nothing here touches I/O accounting**: callers
hand over nodes they already obtained through a charged ``read_node``
(or an explicitly uncharged ``node``/``peek``) — caching columns never
changes ``io_total``, which is what keeps the vector kernels, their
scalar reference and any worker count byte-identical in the benches.
"""

from __future__ import annotations

from typing import Any

from repro.kernels.columnar import BranchColumns, ClientColumns, SiteColumns


def leaf_site_columns(tree: Any, node: Any, cache: Any) -> SiteColumns:
    """Columns of the site records in one leaf of a potential-location tree."""

    def decode() -> SiteColumns:
        cols = getattr(node, "columns", None)
        if cols is not None:
            return cols
        return SiteColumns.from_sites([e.payload for e in node.entries])

    return cache.get(tree.name, tree.version, node.node_id, decode)


def leaf_client_columns(tree: Any, node: Any, cache: Any) -> ClientColumns:
    """Columns of the client records in one leaf of ``R_C``, ``R_C^m`` or
    ``R_C^n`` (whose entries are the clients' NFC squares).

    Disk pages carry no weight field and decode with unit weights,
    exactly like their object decode through ``ClientCodec``.
    """

    def decode() -> ClientColumns:
        cols = getattr(node, "columns", None)
        if cols is not None:
            return cols
        return ClientColumns.from_clients([e.payload for e in node.entries])

    return cache.get(tree.name, tree.version, node.node_id, decode)


def branch_columns(tree: Any, node: Any, cache: Any) -> BranchColumns:
    """Columns of one internal node: MBRs, child ids, MNDs when present."""

    def decode() -> BranchColumns:
        cols = getattr(node, "columns", None)
        if cols is not None:
            return cols
        return BranchColumns.from_entries(node.entries)

    return cache.get(tree.name, tree.version, node.node_id, decode)
