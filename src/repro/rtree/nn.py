"""Best-first nearest-neighbour search (Hjaltason & Samet, SSD 1995).

The QVC method needs the NN facility in *each quadrant* around a
potential location (Section IV).  :func:`quadrant_nearest_block` finds
them for a whole block of potentials in one lockstep pass;
``nearest_in_quadrant`` runs the general stream restricted to one
quadrant's quarter-plane.  Results are retrieved incrementally, so
callers stop as soon as every quadrant is served.

Every node a search reads is charged as an I/O: :func:`best_first`
fetches through ``tree.read_node``, and the quadrant pass charges its
block's reads with one ``tree.charge``.

:func:`best_first` is the one incremental search loop.  It works on
node columns: a read node's entry minDists come from one
:func:`repro.kernels.paired_min_dist_point` call with the query point
on every row, and the node enters the heap once, as a *cursor* over its
entries in stable-argsort order.  The object-at-a-time search pushed
every entry as ``(minDist, seq)`` with ``seq`` a running push counter,
so ties went to the node expanded first and, within a node, to the
lower entry index.  A cursor keeps only its
smallest remaining entry in the heap, keyed ``(minDist, n)`` with ``n``
the node's expansion number: its entries' push numbers lay in one block
that every later node's block follows, and the stable argsort orders a
node's ties by index.  Each cursor's head is its smallest remaining
entry, so the heap's minimum is the object loop's next pop: the pops,
the node reads and their order are exactly the same, while a node costs
one heap push instead of one per entry.

:func:`quadrant_nearest_block` runs one such stream per query point,
all in lockstep: each round, every live stream expands one node, and
the nodes of a round are evaluated in one ragged numpy pass.  A
stream's heap holds only branch cursors.  A read leaf instead offers,
per quadrant, its first entry in ``(minDist, entry index)`` order (a
point entry's minDist is :func:`repro.kernels.norms` of its offset,
bit for bit ``paired_min_dist_point`` of its point rectangle), and a
quadrant's candidate is *settled* — the object loop pops it — once
its ``(minDist, expansion number)`` comes before the stream's next
node.  A stream stops when its four quadrants are settled or its heap
is empty, which is where the object loop stops, so it reads the same
nodes; the pass then charges them with one ``tree.charge`` call,
stream by stream in query order, which is the order of one stream per
query run one after the other.
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
from repro.rtree.columns import branch_columns, site_columns
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


def _pop(heap: list) -> tuple[float, _Cursor, int]:
    """Pop the heap's smallest entry: ``(minDist, cursor, entry index)``.
    Its cursor re-enters keyed by its next entry, or leaves when spent."""
    dist, n, cursor = heap[0]
    pos = cursor.pos
    if pos + 1 < len(cursor.order):
        cursor.pos = pos + 1
        heapq.heapreplace(heap, (cursor.dists[pos + 1], n, cursor))
    else:
        heapq.heappop(heap)
    return dist, cursor, cursor.order[pos]


def best_first(
    tree: RTree,
    query: Point,
    keep: Optional[Callable[[Node], np.ndarray]] = None,
    stats: Optional[IOStats] = None,
) -> Iterator[tuple[float, Node, int]]:
    """Yield ``(distance, leaf node, entry index)`` in increasing distance.

    ``keep(node)``, when given, is a boolean mask of the entries that
    may enter the heap.  Ties resolve in push order, as in the
    object-at-a-time search.  ``stats`` redirects the I/O charges (and
    span counters) to a caller-private accounting, as required by
    parallel tasks.
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
        rects = _entry_rects(node)
        dists = kernels.paired_min_dist_point(
            rects, np.full(len(rects), qx), np.full(len(rects), qy)
        )
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
            dist, cursor, entry = _pop(heap)
            if not cursor.leaf:
                node_id = cursor.node.entries[entry].child_id
                break
            tracer.count("nn.results")
            yield dist, cursor.node, entry


# ---------------------------------------------------------------------------
# The lockstep quadrant pass
# ---------------------------------------------------------------------------

def _rows(sizes: np.ndarray, which: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The ragged (stream, entry) rows of a round: stream ``k`` expands
    node ``which[k]`` of a concatenation of nodes with ``sizes`` entries.
    Returns each row's entry in the concatenation and its stream."""
    counts = sizes[which]
    starts = (np.cumsum(sizes) - sizes)[which]
    firsts = np.cumsum(counts) - counts
    entry = np.arange(counts.sum()) + np.repeat(starts - firsts, counts)
    return entry, np.repeat(np.arange(len(which)), counts)


def quadrant_nearest_block(
    tree: Any,
    qx: np.ndarray,
    qy: np.ndarray,
    cache: Any,
    stats: Optional[IOStats] = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Each query point's nearest site per quadrant, in one lockstep pass.

    ``tree`` holds site payloads (``R_F``); quadrants follow
    :meth:`repro.geometry.point.Point.quadrant_relative_to`.  Returns
    ``(sids, xs, ys)``, each of shape ``(len(qx), 4)``; a sid of -1
    marks an empty quadrant.  For every query the answer, the nodes
    read and their order are those of one best-first stream stopped
    once every quadrant is served (the object-at-a-time loop in
    ``tests/rtree/test_nn.py``).  The pass evaluates on uncharged
    ``tree.node`` fetches, then charges the block's reads to ``stats``
    at once, query by query.
    """
    block = _QuadrantPass(tree, cache, qx, qy)
    if len(qx) and tree.num_entries:
        block.run()
    reads = list(itertools.chain.from_iterable(block.reads))
    if reads:
        tracer = (stats if stats is not None else tree.stats).tracer
        tracer.count("nn.nodes", len(reads))
        tree.charge(reads, stats)
    return block.sids, block.xs, block.ys


class _QuadrantPass:
    """The streams of one block of query points, run in lockstep.

    Per (query, quadrant) it keeps the candidate site, its minDist
    ``cand_d`` and expansion number ``cand_n`` (-1: none yet), and
    whether the object loop has popped it (``settled``: final).
    """

    def __init__(self, tree: Any, cache: Any, qx: np.ndarray, qy: np.ndarray):
        n = len(qx)
        self.tree, self.cache, self.qx, self.qy = tree, cache, qx, qy
        self.sids = np.full((n, 4), -1, dtype=np.int64)
        self.xs = np.zeros((n, 4))
        self.ys = np.zeros((n, 4))
        self.cand_d = np.full((n, 4), np.inf)
        self.cand_n = np.full((n, 4), -1, dtype=np.int64)
        self.settled = np.zeros((n, 4), dtype=bool)
        self.heaps: list[list] = [[] for __ in range(n)]
        self.reads: list[list[int]] = [[] for __ in range(n)]

    def run(self) -> None:
        live = np.arange(len(self.qx))
        nodes = [self.tree.root_id] * len(live)
        for expansion in itertools.count():
            for s, node_id in zip(live.tolist(), nodes):
                self.reads[s].append(node_id)
            self._expand(live, nodes, expansion)
            live = self._settle(live)
            if not len(live):
                return
            nodes = [self._next_node(self.heaps[s]) for s in live.tolist()]

    def _expand(self, live: np.ndarray, nodes: list[int], expansion: int) -> None:
        """Evaluate one round's nodes in one pass per node kind: push each
        branch's cursor, and offer each leaf's quadrant firsts.  The
        round's distinct leaves, and its distinct branches, are looked
        up in the leaf cache in one call each."""
        tree = self.tree
        slots: dict[int, int] = {}
        leaves: list[int] = []
        branches: list = []
        which = []
        for node_id in nodes:
            slot = slots.get(node_id)
            if slot is None:
                node = tree.node(node_id)
                if node.is_leaf:
                    slot = len(leaves)
                    leaves.append(node_id)
                else:
                    slot = ~len(branches)
                    branches.append(node)
                slots[node_id] = slot
            which.append(slot)
        which = np.array(which, dtype=np.intp)
        at_leaf = np.flatnonzero(which >= 0)
        if len(at_leaf):
            self._offer_leaves(
                site_columns(tree, leaves, self.cache),
                which[at_leaf],
                live[at_leaf],
                expansion,
            )
        at_branch = np.flatnonzero(which < 0)
        if len(at_branch):
            self._push_branches(
                branches, ~which[at_branch], live[at_branch], expansion
            )

    def _offer_leaves(
        self, cols: list, which: np.ndarray, owners: np.ndarray, expansion: int
    ) -> None:
        sizes = np.array([len(c) for c in cols], dtype=np.intp)
        entry, stream = _rows(sizes, which)
        fx = np.concatenate([c.xs for c in cols])[entry]
        fy = np.concatenate([c.ys for c in cols])[entry]
        px, py = self.qx[owners][stream], self.qy[owners][stream]
        right, top = fx >= px, fy >= py
        group = 4 * stream + np.where(top, np.where(right, 0, 1), np.where(right, 3, 2))
        # Each group's first row in (minDist, entry index) order: the first
        # row at its minimum, since rows of one group follow their entry index.
        d = kernels.norms(fx - px, fy - py)
        low = np.full(4 * len(which), np.inf)
        np.minimum.at(low, group, d)
        at_low = np.flatnonzero(d == low[group])
        g, first = np.unique(group[at_low], return_index=True)
        rows = at_low[first]
        dist = d[rows]
        s, q = owners[g // 4], g % 4
        # A later node's entry wins only on a strictly smaller minDist (its
        # expansion number is larger), and a settled quadrant is final.
        better = ~self.settled[s, q] & (dist < self.cand_d[s, q])
        s, q, rows = s[better], q[better], rows[better]
        self.cand_d[s, q] = dist[better]
        self.cand_n[s, q] = expansion
        self.sids[s, q] = np.concatenate([c.ids for c in cols])[entry[rows]]
        self.xs[s, q] = fx[rows]
        self.ys[s, q] = fy[rows]

    def _push_branches(
        self, nodes: list, which: np.ndarray, owners: np.ndarray, expansion: int
    ) -> None:
        ids = [node.node_id for node in nodes]
        rects = [c.rects for c in branch_columns(self.tree, ids, self.cache)]
        sizes = np.array([len(r) for r in rects], dtype=np.intp)
        entry, stream = _rows(sizes, which)
        dist = kernels.paired_min_dist_point(
            RectColumns(
                *(
                    np.concatenate([getattr(r, side) for r in rects])[entry]
                    for side in ("xmin", "ymin", "xmax", "ymax")
                )
            ),
            self.qx[owners][stream],
            self.qy[owners][stream],
        )
        rank = np.lexsort((entry, dist, stream))
        index = (entry - (np.cumsum(sizes) - sizes)[which][stream])[rank].tolist()
        dists = dist[rank].tolist()
        start = 0
        for k, s, end in zip(
            which.tolist(), owners.tolist(), np.cumsum(sizes[which]).tolist()
        ):
            if end > start:
                cursor = _Cursor(nodes[k], index[start:end], dists[start:end])
                heapq.heappush(self.heaps[s], (cursor.dists[0], expansion, cursor))
            start = end

    def _settle(self, live: np.ndarray) -> np.ndarray:
        """Settle each candidate that pops before its stream's next node;
        return the streams that read another node."""
        tops = [self.heaps[s][0] if self.heaps[s] else None for s in live.tolist()]
        top_d = np.array([np.inf if t is None else t[0] for t in tops])
        top_n = np.array([-1 if t is None else t[1] for t in tops], dtype=np.int64)
        d, e = self.cand_d[live], self.cand_n[live]
        self.settled[live] |= (e >= 0) & (
            (d < top_d[:, None]) | ((d == top_d[:, None]) & (e < top_n[:, None]))
        )
        done = (top_n < 0) | self.settled[live].all(axis=1)  # empty heap, or served
        return live[~done]

    @staticmethod
    def _next_node(heap: list) -> int:
        """Pop the stream's next node, as ``best_first`` pops a branch entry."""
        __, cursor, entry = _pop(heap)
        return cursor.node.entries[entry].child_id


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
