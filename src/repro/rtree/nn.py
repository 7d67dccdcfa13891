"""Best-first nearest-neighbour search (Hjaltason & Samet, SSD 1995).

The QVC method needs the NN facility in *each quadrant* around a
potential location (Section IV); ``nearest_in_quadrant`` runs the same
best-first search restricted to one quadrant's quarter-plane.  Results
are retrieved incrementally, so callers stop as soon as every quadrant
is served.

All node fetches go through ``tree.read_node`` and are therefore counted
as I/Os.

:func:`best_first` is the one search loop.  It works on node columns: a
read node's entry minDists come from one
:func:`repro.kernels.min_dist_rects_point` call, and the node enters the
heap once, as a *cursor* over its entries in stable-argsort order.  The
object-at-a-time search pushed every entry as ``(minDist, seq)`` with
``seq`` a running push counter, so ties went to the node expanded first
and, within a node, to the lower entry index.  A cursor keeps only its
smallest remaining entry in the heap, keyed ``(minDist, n)`` with ``n``
the node's expansion number: its entries' push numbers lay in one block
that every later node's block follows, and the stable argsort orders a
node's ties by index.  Each cursor's head is its smallest remaining
entry, so the heap's minimum is the object loop's next pop: the pops,
the node reads and their order are exactly the same, while a node costs
one heap push instead of one per entry.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Any, Callable, Iterator, Optional

import numpy as np

from repro import kernels
from repro.geometry.point import Point
from repro.geometry.rect import Rect
from repro.kernels.columnar import RectColumns
from repro.rtree.node import Node
from repro.rtree.rtree import RTree
from repro.storage.stats import IOStats


def _entry_rects(node: Node) -> RectColumns:
    """A node's entry MBRs as columns, from its entry objects."""
    return RectColumns.from_rects(e.mbr for e in node.entries)


class _Cursor:
    """One expanded node's kept entries in ``(minDist, index)`` order."""

    __slots__ = ("node", "leaf", "order", "dists", "pos")

    def __init__(self, node: Node, order: list, dists: list):
        self.node = node
        self.leaf = node.is_leaf
        self.order = order
        self.dists = dists
        self.pos = 0


def best_first(
    tree: RTree,
    query: Point,
    entry_rects: Callable[[Node], RectColumns] = _entry_rects,
    keep: Optional[Callable[[Node], np.ndarray]] = None,
    stats: Optional[IOStats] = None,
) -> Iterator[tuple[float, Node, int]]:
    """Yield ``(distance, leaf node, entry index)`` in increasing distance.

    ``entry_rects(node)`` gives a node's entry MBRs as columns (callers
    with a decoded-node cache pass a cached view); ``keep(node)``, when
    given, is a boolean mask of the entries that may enter the heap.
    Ties resolve in push order, as in the object-at-a-time search.
    ``stats`` redirects the I/O charges (and span counters) to a
    caller-private accounting, as required by parallel tasks.
    """
    if tree.num_entries == 0:
        return
    tracer = (stats if stats is not None else tree.stats).tracer
    qx, qy = query
    heap: list[tuple[float, int, _Cursor]] = []
    node_id = tree.root_id
    for expanded in itertools.count():
        tracer.count("nn.nodes")
        node = tree.read_node(node_id, stats=stats)
        dists = kernels.min_dist_rects_point(entry_rects(node), qx, qy)
        kept = None if keep is None else np.flatnonzero(keep(node))
        if kept is not None:
            dists = dists[kept]
        if len(dists):
            rank = np.argsort(dists, kind="stable")
            order = rank if kept is None else kept[rank]
            cursor = _Cursor(node, order.tolist(), dists[rank].tolist())
            heapq.heappush(heap, (cursor.dists[0], expanded, cursor))
        while True:  # pop entries until the next node to read
            if not heap:
                return
            dist, n, cursor = heap[0]
            pos = cursor.pos
            if pos + 1 < len(cursor.order):
                cursor.pos = pos + 1
                heapq.heapreplace(heap, (cursor.dists[pos + 1], n, cursor))
            else:
                heapq.heappop(heap)
            if not cursor.leaf:
                node_id = cursor.node.entries[cursor.order[pos]].child_id
                break
            tracer.count("nn.results")
            yield dist, cursor.node, cursor.order[pos]


def incremental_nearest(
    tree: RTree,
    query: Point,
    mbr_filter: Optional[Callable[[Rect], bool]] = None,
    payload_filter: Optional[Callable[[Any], bool]] = None,
    stats: Optional[IOStats] = None,
) -> Iterator[tuple[float, Any]]:
    """Yield ``(distance, payload)`` pairs in increasing distance order.

    ``mbr_filter`` prunes subtrees (it must be *conservative*: return
    True whenever the subtree could hold a qualifying object), while
    ``payload_filter`` is the exact final test on data entries.
    ``stats`` redirects the I/O charges (and span counters) to a
    caller-private accounting, as required by parallel tasks.
    """
    keep = None
    if mbr_filter is not None or payload_filter is not None:

        def keep(node: Node) -> np.ndarray:
            return np.fromiter(
                (
                    (mbr_filter is None or mbr_filter(e.mbr))
                    and (
                        not node.is_leaf
                        or payload_filter is None
                        or payload_filter(e.payload)
                    )
                    for e in node.entries
                ),
                bool,
                len(node.entries),
            )

    for dist, node, entry in best_first(tree, query, keep=keep, stats=stats):
        yield dist, node.entries[entry].payload


def nearest_neighbor(tree: RTree, query: Point) -> Optional[tuple[float, Any]]:
    """The single nearest data entry to ``query`` (or None if empty)."""
    for result in incremental_nearest(tree, query):
        return result
    return None


def _quadrant_mbr_filter(origin: Point, quadrant: int) -> Callable[[Rect], bool]:
    """A conservative test for 'this MBR touches quadrant ``quadrant``'.

    Uses closed quarter-planes so boundary MBRs are never pruned; exact
    membership of points is re-checked by the payload filter.
    """
    ox, oy = origin
    if quadrant == 0:
        return lambda r: r.xmax >= ox and r.ymax >= oy
    if quadrant == 1:
        return lambda r: r.xmin <= ox and r.ymax >= oy
    if quadrant == 2:
        return lambda r: r.xmin <= ox and r.ymin <= oy
    if quadrant == 3:
        return lambda r: r.xmax >= ox and r.ymin <= oy
    raise ValueError(f"quadrant must be 0..3, got {quadrant}")


def nearest_in_quadrant(
    tree: RTree,
    origin: Point,
    quadrant: int,
    point_of: Callable[[Any], Point] = lambda payload: payload,
) -> Optional[tuple[float, Any]]:
    """The nearest data point lying in ``quadrant`` relative to ``origin``.

    Quadrants follow :meth:`repro.geometry.point.Point.quadrant_relative_to`.
    ``point_of`` extracts the coordinates from a payload (identity for
    trees storing bare points).  Returns None when the quadrant is empty.
    """
    results = incremental_nearest(
        tree,
        origin,
        mbr_filter=_quadrant_mbr_filter(origin, quadrant),
        payload_filter=lambda payload: Point(*point_of(payload)).quadrant_relative_to(
            origin
        )
        == quadrant,
    )
    for result in results:
        return result
    return None


def k_nearest(tree: RTree, query: Point, k: int) -> list[tuple[float, Any]]:
    """The ``k`` nearest data entries to ``query`` in distance order.

    Fewer than ``k`` results are returned when the tree is smaller.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    out: list[tuple[float, Any]] = []
    for result in incremental_nearest(tree, query):
        out.append(result)
        if len(out) == k:
            break
    return out
