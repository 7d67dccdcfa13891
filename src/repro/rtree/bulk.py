"""Sort-Tile-Recursive (STR) bulk loading, computed on numpy columns.

The experiments build indexes over up to a million points; loading them
one insert at a time would dominate set-up time and produce poorly packed
nodes.  STR (Leutenegger et al.) packs entries into near-full leaves by
sorting on x, tiling into vertical slabs, and sorting each slab on y,
then builds the upper levels the same way — giving nodes close to the
paper's effective capacity ``C_e``.

Entries arrive as an ``(n, 4)`` column array of MBRs plus their
payloads.  Each level is grouped with one stable ``np.argsort`` on the
MBR centre keys (``xmin + xmax``, then ``ymin + ymax`` within each
slab), its node MBRs come from ``np.minimum``/``np.maximum.reduceat``,
and every ``Node``, ``LeafEntry`` and ``BranchEntry`` is created once,
in its final place.  Augmented trees (the MND variant) supply each
level's node values through the tree's ``_bulk_mnds`` hook.  Callers
holding the entry MBRs as ``Rect`` objects already may pass them, so
two trees over the same points (``R_C`` and ``R_C^m``) share one set.

The result is identical, node for node, to packing ``LeafEntry``
objects with ``list.sort`` on the same keys: both sorts are stable,
node ids are allocated in the same order (leaves first, then each level
up, the pre-allocated root freed last), and ``_union_bounds``
reproduces ``Rect.union_all`` bit for bit, including which of ``-0.0``
and ``+0.0`` survives.

The cyclic collector is paused while the entries are materialised
(:func:`paused_gc`): a bulk load creates hundreds of thousands of
container objects and no garbage cycles, so every collection it would
trigger only rescans the growing heap.
"""

from __future__ import annotations

import functools
import gc
import math
import threading
from contextlib import contextmanager
from itertools import repeat
from typing import Any, Iterator, Optional, Sequence

import numpy as np

from repro.geometry.rect import Rect
from repro.rtree.entry import BranchEntry, LeafEntry
from repro.rtree.rtree import RTree

#: Default node fill for bulk loading, matching the ~70 % average
#: occupancy assumed by the paper's ``C_e``.
DEFAULT_FILL = 0.7

_gc_lock = threading.Lock()
_gc_pauses = 0
_gc_was_enabled = False


@contextmanager
def paused_gc() -> Iterator[None]:
    """Hold off CPython's cyclic collector for the duration.

    Reentrant and thread-safe: the collector comes back on only when
    the last concurrent pause ends, and only if it was on when the
    first one began.  The pause count is module state because the
    collector it guards is process state.
    """
    global _gc_pauses, _gc_was_enabled
    with _gc_lock:
        if not _gc_pauses:
            _gc_was_enabled = gc.isenabled()
            gc.disable()
        _gc_pauses += 1
    try:
        yield
    finally:
        with _gc_lock:
            _gc_pauses -= 1
            if not _gc_pauses and _gc_was_enabled:
                gc.enable()


_RECT = functools.partial(tuple.__new__, Rect)


def _as_rects(bounds: np.ndarray) -> list[Rect]:
    """The rows of an ``(n, 4)`` bounds array as ``Rect`` values."""
    return list(map(_RECT, zip(*(bounds[:, k].tolist() for k in range(4)))))


def _union_bounds(bounds: np.ndarray, starts: np.ndarray) -> np.ndarray:
    """The MBR of each run of rows ``bounds[starts[k]:starts[k + 1]]``.

    Bit-identical to ``Rect.union_all`` over the run: minima and maxima
    are exact, and where an extreme is zero the sign comes from the
    first zero of the run, as ``union_all``'s strict comparisons keep
    the first of equal values (``reduceat`` may return either).
    """
    out = np.hstack(
        (
            np.minimum.reduceat(bounds[:, :2], starts, axis=0),
            np.maximum.reduceat(bounds[:, 2:], starts, axis=0),
        )
    )
    zero = out == 0.0
    if zero.any():
        index = np.arange(len(bounds))
        for col in np.flatnonzero(zero.any(axis=0)):
            values = bounds[:, col]
            first = np.minimum.reduceat(
                np.where(values == 0.0, index, len(bounds)), starts
            )
            runs = np.flatnonzero(zero[:, col])
            out[runs, col] = values[first[runs]]
    return out


def _str_order(bounds: np.ndarray, per_node: int) -> np.ndarray:
    """The STR permutation: consecutive runs of ``per_node`` rows of
    ``bounds[order]`` are the nodes (slabs hold whole runs)."""
    n = len(bounds)
    num_slabs = math.ceil(math.sqrt(math.ceil(n / per_node)))
    slab = np.arange(n) // (num_slabs * per_node)
    order = np.argsort(bounds[:, 0] + bounds[:, 2], kind="stable")
    ykey = (bounds[:, 1] + bounds[:, 3])[order]
    return order[np.lexsort((ykey, slab))]


def _branch_entries(
    bounds: np.ndarray, child_ids: Sequence[int], mnds: Optional[np.ndarray]
) -> list[BranchEntry]:
    values = repeat(None) if mnds is None else mnds.tolist()
    return list(map(BranchEntry, _as_rects(bounds), child_ids, values))


def bulk_load(
    tree: RTree,
    mbrs: Any,
    payloads: Sequence[Any],
    fill: float = DEFAULT_FILL,
    rects: Optional[Sequence[Rect]] = None,
) -> RTree:
    """Bulk-load data entries into an empty tree.

    Row ``i`` of ``mbrs`` — an ``(n, 4)`` array of ``xmin, ymin, xmax,
    ymax`` columns, or anything ``np.asarray`` makes one of, such as a
    list of ``Rect`` — bounds ``payloads[i]``.  ``rects``, when given,
    are the same MBRs as ``Rect`` objects: the entries hold those
    objects instead of materialising their own, so trees over the same
    points can share them.  Returns the tree for chaining.  Raises if
    the tree already holds entries — bulk loading is a construction-time
    operation only.
    """
    if tree.num_entries:
        raise ValueError("bulk_load requires an empty tree")
    bounds = np.asarray(mbrs, dtype=np.float64).reshape(-1, 4)
    n = len(payloads)
    if len(bounds) != n or (rects is not None and len(rects) != n):
        raise ValueError(f"{len(bounds)} MBRs for {n} payloads")
    if not n:
        return tree

    leaf_cap = max(2, min(tree.max_leaf, int(tree.max_leaf * fill)))
    branch_cap = max(2, min(tree.max_branch, int(tree.max_branch * fill)))

    with paused_gc():
        # The pre-allocated empty root becomes the only leaf when
        # everything fits on one page.
        if n <= tree.max_leaf:
            mbr_objects = _as_rects(bounds) if rects is None else rects
            tree.node(tree.root_id).entries = list(
                map(LeafEntry, mbr_objects, payloads)
            )
            tree.height = 1
            tree.num_entries = n
            return tree

        order = _str_order(bounds, leaf_cap)
        bounds = bounds[order]
        rows = order.tolist()
        below: Any = [payloads[i] for i in rows]
        mbr_objects = _as_rects(bounds) if rects is None else [rects[i] for i in rows]
        entries: list = list(map(LeafEntry, mbr_objects, below))
        per_node, level = leaf_cap, 0
        # More than one page of entries always tiles into 2+ nodes, so
        # every pass ends in a new root.
        while True:
            starts = np.arange(0, len(entries), per_node)
            child_ids = []
            for start in starts.tolist():
                node = tree._alloc_node(level)
                node.entries = entries[start : start + per_node]
                child_ids.append(node.node_id)
            node_bounds = _union_bounds(bounds, starts)
            mnds = tree._bulk_mnds(level, bounds, starts, node_bounds, below)
            level += 1
            if len(child_ids) <= tree.max_branch:
                root = tree._alloc_node(level)
                root.entries = _branch_entries(node_bounds, child_ids, mnds)
                break
            order = _str_order(node_bounds, branch_cap)
            bounds = node_bounds[order]
            child_ids = [child_ids[i] for i in order.tolist()]
            below = None if mnds is None else mnds[order]
            entries = _branch_entries(bounds, child_ids, below)
            per_node = branch_cap

    old_root = tree.root_id
    tree.root_id = root.node_id
    tree._free_node(old_root)
    tree.height = root.level + 1
    tree.num_entries = n
    return tree


def load_entries(
    tree: RTree,
    mbrs: Any,
    payloads: Sequence[Any],
    bulk: bool = True,
    rects: Optional[Sequence[Rect]] = None,
) -> RTree:
    """Fill an empty tree from MBR columns and payloads: STR-packed by
    :func:`bulk_load`, or (``bulk=False``) by one Guttman insert per
    entry in input order — the dynamic maintenance path."""
    if bulk:
        return bulk_load(tree, mbrs, payloads, rects=rects)
    if rects is None:
        rects = _as_rects(np.asarray(mbrs, dtype=np.float64).reshape(-1, 4))
    for mbr, payload in zip(rects, payloads):
        tree.insert(mbr, payload)
    return tree
