"""Columnar views of R-tree nodes, cached in the workspace leaf cache.

The join and window traversals of :mod:`repro.core` used to decode each
leaf into ad-hoc array tuples inside the selectors.  This module is the
single decode point for all of them: given a tree and node ids, it
returns the structure-of-arrays buffers of
:mod:`repro.kernels.columnar`, memoized in a
:class:`~repro.storage.leafcache.DecodedLeafCache` under the node's
``(tree_name, node_id)`` key (leaf and branch nodes share one id space
per tree, so the key space cannot collide).  Each function takes a
caller's node ids at once and looks them all up in one cache call, so
a descent level or a task's leaves pay one lock round, not one per
node.

Decoding takes one of two routes:

* disk trees (:class:`~repro.rtree.persist.DiskRTree`) hand out nodes
  that carry their columns (``node.columns``): a leaf's zero-copy
  column views — the page *is* the columns — and a branch's
  ``BranchColumns``, bulk-decoded from its packed bytes once per open
  file.  The cache then holds the node's own column objects, not a
  second copy;
* in-memory trees decode from the node's entry objects.

Both routes produce identical column values for the same logical
records.  Crucially, **nothing here touches I/O accounting**: nodes
are fetched with the uncharged ``tree.node``, and callers charge the
reads themselves (``read_node`` or ``charge``) — caching columns never
changes ``io_total``, which is what keeps the vector kernels, their
scalar reference and any worker count byte-identical in the benches.
"""

from __future__ import annotations

from typing import Any, Callable, Iterable

from repro.kernels.columnar import BranchColumns, ClientColumns, SiteColumns


def _columns(
    tree: Any, node_ids: Iterable[int], cache: Any, from_entries: Callable
) -> list:
    """The cached columns of nodes ``node_ids`` of ``tree``, in order, in
    one cache lookup (:meth:`~repro.storage.leafcache.DecodedLeafCache.get_many`):
    a node's own columns when it carries them, else ``from_entries``
    of its entries."""

    def decode(node_id: int) -> Any:
        node = tree.node(node_id)
        cols = getattr(node, "columns", None)
        return cols if cols is not None else from_entries(node.entries)

    return cache.get_many(tree.name, tree.version, node_ids, decode)


def site_columns(tree: Any, node_ids: Iterable[int], cache: Any) -> list[SiteColumns]:
    """Columns of the site records in leaves of a potential-location or
    facility tree."""
    return _columns(
        tree,
        node_ids,
        cache,
        lambda entries: SiteColumns.from_sites([e.payload for e in entries]),
    )


def client_columns(
    tree: Any, node_ids: Iterable[int], cache: Any
) -> list[ClientColumns]:
    """Columns of the client records in leaves of ``R_C``, ``R_C^m`` or
    ``R_C^n`` (whose entries are the clients' NFC squares).

    Disk pages carry no weight field and decode with unit weights,
    exactly like their object decode through ``ClientCodec``.
    """
    return _columns(
        tree,
        node_ids,
        cache,
        lambda entries: ClientColumns.from_clients([e.payload for e in entries]),
    )


def branch_columns(
    tree: Any, node_ids: Iterable[int], cache: Any
) -> list[BranchColumns]:
    """Columns of internal nodes: MBRs, child ids, MNDs when present."""
    return _columns(tree, node_ids, cache, BranchColumns.from_entries)
