"""Level-synchronous descents: the method joins and the batched window query.

NFC and MND join the potential-location tree ``R_P`` with a client tree
by a synchronized traversal (Brinkhoff, Kriegel and Seeger, *Efficient
Processing of Spatial Joins Using R-trees*, SIGMOD 1993), and QVC's
window stage runs a block of query rectangles down ``R_C`` together.
Both run here one tree level at a time, as Huang, Jing and
Rundensteiner's breadth-first join does (*Spatial Joins Using R-trees:
Breadth-First Traversal with Global Optimizations*, VLDB 1997):

* a level's frontier is held as columns — :class:`JoinRows` for a join
  (``R_P`` node ids, client-tree node ids and, for MND, the carried
  MND), node ids and query rows (each with its potential block) for the
  window;
* every row's children are paired up as rows of columns, gathered from
  each distinct node's branch columns, and tested in **one** kernel
  call: rectangle intersection for NFC and the window, ``minDist <
  MND`` for MND (Theorem 1);
* the survivors' reads are charged with one
  :meth:`~repro.rtree.rtree.TreeReads.charge` per tree and level.

R-trees are balanced, so all rows of a join level share one
``(level_p, level_c)`` and one case: both nodes are branches and both
sides expand, or one side is a leaf and is carried down unchanged while
the other expands.  A carried leaf is tested by its node MBR.  The
counts are those of a node-pair-at-a-time traversal:

* ``join.node_pairs`` counts every frontier row, leaf-leaf rows
  included (the caller counts those when it evaluates them), and
  ``join.pruned_pairs`` the child pairs a branch-branch level prunes;
* a surviving pair charges each child it descends into — two reads
  when both sides expand, one otherwise, duplicates included;
* the window charges each distinct node a block reaches once a level,
  and counts it in ``window.nodes``, however many blocks run together;
  ``window.leaf_evals`` counts the (leaf, row) pairs it reaches.

The descents only record where they end: the leaf-leaf rows of a join
and the (leaf, row) pairs of a window.  Evaluating those reads no page
(:mod:`repro.core.leafpairs`).  Nothing here depends on the order of a
level's rows beyond the frontier order itself, which is deterministic:
each row's children in entry order, rows in frontier order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional

import numpy as np

from repro import kernels
from repro.kernels.columnar import RectColumns
from repro.rtree.columns import branch_columns
from repro.storage.stats import IOStats


def split_bounds(n: int, parts: int) -> np.ndarray:
    """The bounds of ``min(parts, n)`` contiguous, non-empty, near-equal
    runs of ``n`` items: run ``k`` is ``bounds[k]:bounds[k + 1]``.  The
    one rule by which a plan cuts its work into tasks."""
    return np.linspace(0, n, min(parts, n) + 1).astype(np.intp)


@dataclass(frozen=True)
class JoinRows:
    """One level of a join's frontier: row ``k`` pairs ``R_P`` node
    ``p[k]`` with client-tree node ``c[k]``, and carries ``mnd[k]``, the
    client node's MND, in an MND join (None in an intersection join).
    Every row is at ``(level_p, level_c)``."""

    level_p: int
    level_c: int
    p: np.ndarray
    c: np.ndarray
    mnd: Optional[np.ndarray] = None

    def __len__(self) -> int:
        return len(self.p)

    @property
    def at_leaves(self) -> bool:
        return self.level_p == 0 and self.level_c == 0

    def split(self, parts: int) -> list["JoinRows"]:
        """At most ``parts`` contiguous, non-empty slices, in order."""
        bounds = split_bounds(len(self), parts).tolist()
        return [self._slice(lo, hi) for lo, hi in zip(bounds, bounds[1:])]

    def _slice(self, lo: int, hi: int) -> "JoinRows":
        mnd = None if self.mnd is None else self.mnd[lo:hi]
        return JoinRows(self.level_p, self.level_c, self.p[lo:hi], self.c[lo:hi], mnd)


def join_roots(tree_p: Any, tree_c: Any, stats: IOStats, mnd: bool = False) -> JoinRows:
    """The root pair, with both root reads charged; ``mnd`` carries the
    client root's MND, derived from its entries at no I/O cost."""
    root_p = tree_p.read_node(tree_p.root_id, stats=stats)
    root_c = tree_c.read_node(tree_c.root_id, stats=stats)
    carried = np.array([tree_c.compute_mnd(root_c)]) if mnd else None
    return JoinRows(
        root_p.level,
        root_c.level,
        np.array([root_p.node_id], dtype=np.intp),
        np.array([root_c.node_id], dtype=np.intp),
        carried,
    )


def descend_join(
    tree_p: Any,
    tree_c: Any,
    rows: JoinRows,
    cache: Any,
    stats: IOStats,
    until: Optional[int] = None,
) -> JoinRows:
    """Expand whole levels until the rows are leaf-leaf pairs, or hold at
    least ``until`` rows; returns the last level's rows."""
    while len(rows) and not rows.at_leaves and (until is None or len(rows) < until):
        rows = join_level(tree_p, tree_c, rows, cache, stats)[0]
    return rows


def join_level(
    tree_p: Any, tree_c: Any, rows: JoinRows, cache: Any, stats: IOStats
) -> tuple[JoinRows, int]:
    """The next level of a join: the child pairs of ``rows`` that pass
    the test, with their reads charged, and how many pairs were tested."""
    trace = stats.tracer
    trace.count("join.node_pairs", len(rows))
    expand_p, expand_c = rows.level_p > 0, rows.level_c > 0
    side_p = _Side(tree_p, rows.p, expand_p, cache)
    side_c = _Side(tree_c, rows.c, expand_c, cache)
    row, k = _ragged(side_p.counts * side_c.counts)
    per_row = side_c.counts[row]
    i = side_p.starts[row] + k // per_row
    j = side_c.starts[row] + k % per_row
    rects_p, rects_c = _take(side_p.table, i), _take(side_c.table, j)
    if rows.mnd is None:
        keep = kernels.rects_intersect_rect(rects_p, rects_c)
        mnd = None
    else:
        bound = side_c.mnd[j] if expand_c else rows.mnd[row]
        keep = kernels.min_dist_rects_rect(rects_p, rects_c) < bound
        mnd = bound[keep]
    p, c = side_p.ids[i[keep]], side_c.ids[j[keep]]
    if expand_p and expand_c:
        pruned = len(keep) - len(p)
        if pruned:
            trace.count("join.pruned_pairs", pruned)
    if expand_p:
        tree_p.charge(p, stats)
    if expand_c:
        tree_c.charge(c, stats)
    child = JoinRows(rows.level_p - expand_p, rows.level_c - expand_c, p, c, mnd)
    return child, len(keep)


def window_leaves(
    tree: Any, rects: RectColumns, blocks: np.ndarray, cache: Any, stats: IOStats
) -> tuple[np.ndarray, np.ndarray]:
    """The batched window queries of ``rects`` over ``tree``, one per
    block, run together: row ``k`` belongs to block ``blocks[k]``.
    Returns the ``(leaf ids, rows)`` of every leaf that row
    ``rows[k]``'s rectangle reaches.

    Each block is charged as its own query would be: its root, then at
    every level each distinct node its rows reach, once.  The roots go
    in one charge, and each level's nodes in another, in (block, node
    id) order."""
    trace = stats.tracer
    root = tree.node(tree.root_id)
    queries = len(np.unique(blocks))
    tree.charge([root.node_id] * queries, stats)
    if queries:
        trace.count("window.nodes", queries)
    rows = np.arange(len(rects))
    nodes = np.full(len(rows), root.node_id, dtype=np.intp)
    for __ in range(root.level):
        if not len(rows):
            break
        side = _Side(tree, nodes, True, cache)
        row, k = _ragged(side.counts)
        j = side.starts[row] + k
        rows = rows[row]
        keep = kernels.rects_intersect_rect(_take(side.table, j), _take(rects, rows))
        nodes, rows = side.ids[j[keep]], rows[keep]
        stride = int(nodes.max()) + 1 if len(nodes) else 1
        reached = np.unique(blocks[rows] * stride + nodes) % stride
        tree.charge(reached, stats)
        if len(reached):
            trace.count("window.nodes", len(reached))
    if len(rows):
        trace.count("window.leaf_evals", len(rows))
    return nodes, rows


class _Side:
    """One tree's side of a level: a table of the candidate children of
    the level's distinct nodes, and each row's slice of it.

    An expanding side lists each distinct branch node's entries (MBRs,
    child ids and MNDs, from its cached branch columns); a carried side
    lists each distinct leaf once, with its own id and node MBR.
    """

    __slots__ = ("ids", "mnd", "starts", "counts", "table")

    def __init__(self, tree: Any, node_ids: np.ndarray, expand: bool, cache: Any):
        nodes, inverse = np.unique(node_ids, return_inverse=True)
        if expand:
            cols = branch_columns(tree, nodes.tolist(), cache)
            counts = np.array([len(c) for c in cols], dtype=np.intp)
            rects = [c.rects for c in cols]
            self.table = RectColumns(
                *(
                    np.concatenate([getattr(r, f) for r in rects])
                    for f in ("xmin", "ymin", "xmax", "ymax")
                )
            )
            self.ids = np.concatenate([c.children for c in cols]).astype(np.intp)
            has_mnd = cols[0].mnd is not None
            self.mnd = np.concatenate([c.mnd for c in cols]) if has_mnd else None
        else:
            counts = np.ones(len(nodes), dtype=np.intp)
            mbrs = (tree.node(n).mbr() for n in nodes.tolist())
            self.table = RectColumns.from_rects(mbrs)
            self.ids = nodes.astype(np.intp)
            self.mnd = None
        self.starts = (np.cumsum(counts) - counts)[inverse]
        self.counts = counts[inverse]


def _ragged(counts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(row, k)`` over the pairs of rows holding ``counts`` pairs each:
    each pair's row, and its number within the row."""
    row = np.repeat(np.arange(len(counts)), counts)
    return row, np.arange(len(row)) - np.repeat(np.cumsum(counts) - counts, counts)


def _take(rects: RectColumns, index: np.ndarray) -> RectColumns:
    return RectColumns(
        rects.xmin[index], rects.ymin[index], rects.xmax[index], rects.ymax[index]
    )
