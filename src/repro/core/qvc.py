"""QVC — the quasi-Voronoi cell method (Section IV, Algorithms 2–3).

For every potential location ``p``:

1. find the nearest facility in each of the four quadrants around ``p``
   with one incremental best-first NN stream over ``R_F``;
2. intersect the bisector half-planes (clipped to the data space) to
   obtain the quasi-Voronoi cell ``QVC(p)``, whose MBR is the
   *approximate influence region* ``AIR(p)``;
3. batch the ``AIR``s of one potential-location block into a single
   simultaneous window query on ``R_C`` (Algorithm 3), testing
   ``dist(p, c) < dnn(c, F)`` at the leaves.

Any client satisfying the leaf test is genuinely in ``IS(p)`` (it lies
in ``p``'s Voronoi cell over ``F ∪ {p}`` which the QVC encloses), so no
AIR containment re-check is needed — exactly the paper's Algorithm 3.

Edge cases the pseudocode leaves implicit:

* a quadrant with no facility contributes no bisector; the cell is then
  bounded by the data-space rectangle on that side;
* a facility coincident with ``p`` makes ``IS(p)`` empty (no client can
  be strictly closer to ``p`` than to that facility), so ``p`` is
  skipped with ``dr(p) = 0``.

For the execution engine the method splits into two stages: AIR
construction (chunks of potential locations; independent best-first NN
streams over ``R_F``) and the batched window queries (one task per
potential block; blocks touch disjoint ``p`` ids, so windows commute
exactly).  Both the I/O multiset and each ``p``'s accumulation order
match the serial interleaving, keeping results byte-identical.

Both stages run on node columns.  The quadrant-NN streams
(:func:`~repro.rtree.nn.best_first`) take their minDists from the
cached ``R_F`` branch and leaf columns and read the facility
coordinates from them, so a disk leaf builds no entry objects.  A
window task carries its group as index arrays into one set of AIR
columns, records the (candidate rows × client leaf) pairs its descent
reaches, and evaluates them in one kernel call
(:class:`~repro.core.leafpairs.LeafPairs`).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro import kernels
from repro.core.base import LocationSelector
from repro.core.leafpairs import LeafPairs
from repro.core.plan import StageSpec
from repro.core.types import Site
from repro.geometry.halfplane import bisector_halfplane
from repro.geometry.point import Point
from repro.geometry.polygon import ConvexPolygon
from repro.geometry.rect import Rect
from repro.kernels.columnar import RectColumns, SiteColumns
from repro.rtree.columns import branch_columns, leaf_client_columns, leaf_site_columns
from repro.rtree.nn import best_first
from repro.storage.stats import IOStats

#: Potential locations per AIR task.  Fixed (worker-independent) so the
#: task list — and with it the merged trace shape — is deterministic.
AIR_CHUNK = 16


class QuasiVoronoiCell(LocationSelector):
    """The QVC method: quadrant NNs + batched window queries."""

    name = "QVC"

    def prepare(self) -> None:
        __ = self.ws.r_c
        __ = self.ws.r_f
        __ = self.ws.potential_file

    def index_pages(self) -> int:
        return self.ws.r_c.size_pages + self.ws.r_f.size_pages

    # ------------------------------------------------------------------
    def quadrant_nearest_facilities(
        self, p: Point, stats: Optional[IOStats] = None
    ) -> list[Optional[Site]]:
        """The NN facility per quadrant around ``p`` (None when empty).

        A single best-first stream serves all four quadrants: facilities
        arrive in distance order and fill their quadrant's slot; the
        stream stops once every quadrant is served (Section IV: "retrieve
        the NNs until each quadrant has one").
        """
        return [
            None if found is None else Site(*found)
            for found in self._quadrant_nearest(p, stats)
        ]

    def _quadrant_nearest(
        self, p: Point, stats: Optional[IOStats]
    ) -> list[Optional[tuple[int, float, float]]]:
        """``(sid, x, y)`` per quadrant, read from the ``R_F`` columns.

        Each leaf the stream reads gets its entries' quadrants at once,
        by :meth:`Point.quadrant_relative_to`'s rule (x then y compared
        with ``>=``), so a popped facility costs one list lookup.
        """
        tree, cache = self.ws.r_f, self.ws.leaf_cache
        px, py = p
        leaves: dict[int, tuple[SiteColumns, list[int]]] = {}

        def entry_rects(node) -> RectColumns:
            if not node.is_leaf:
                return branch_columns(tree, node, cache).rects
            cols = leaf_site_columns(tree, node, cache)
            right, top = cols.xs >= px, cols.ys >= py
            quads = np.where(top, np.where(right, 0, 1), np.where(right, 3, 2))
            leaves[node.node_id] = (cols, quads.tolist())
            return RectColumns(cols.xs, cols.ys, cols.xs, cols.ys)

        found: list[Optional[tuple[int, float, float]]] = [None, None, None, None]
        missing = 4
        for __, node, i in best_first(tree, p, entry_rects, stats=stats):
            cols, quads = leaves[node.node_id]
            quad = quads[i]
            if found[quad] is None:
                found[quad] = (int(cols.ids[i]), float(cols.xs[i]), float(cols.ys[i]))
                missing -= 1
                if missing == 0:
                    break
        return found

    def air(self, p: Point, stats: Optional[IOStats] = None) -> Optional[Rect]:
        """``AIR(p)``: the MBR of the quasi-Voronoi cell of ``p``.

        Returns None when ``IS(p)`` is provably empty (a facility sits
        exactly on ``p``).
        """
        halfplanes = []
        for found in self._quadrant_nearest(p, stats):
            if found is None:
                continue
            f = Point(found[1], found[2])
            if f == p:
                return None
            halfplanes.append(bisector_halfplane(p, f))
        # Clip against the effective data bounds, not the nominal domain:
        # clients outside the declared domain must stay coverable.
        cell = ConvexPolygon.from_rect(self.ws.data_bounds).clip_all(halfplanes)
        if cell.is_empty():  # numerically degenerate cell
            return Rect.from_point(p)
        return cell.mbr()

    # ------------------------------------------------------------------
    # Parallel execution protocol
    # ------------------------------------------------------------------
    def execution_plan(self) -> list[StageSpec]:
        return [
            StageSpec(
                name="qvc.blocks",
                plan=self._plan_air,
                kernel="run_air_task",
                reduce=self._reduce_air,
            ),
            StageSpec(
                name="qvc.window",
                plan=self._plan_windows,
                kernel="run_window_task",
                reduce=self._reduce_windows,
            ),
        ]

    def _plan_air(self, stats: IOStats, carry: object = None) -> list[tuple]:
        """Chunked AIR tasks; charges the potential-file block reads."""
        ws = self.ws
        tasks: list[tuple[int, list[tuple[int, float, float]]]] = []
        offset = 0
        for block_id in range(ws.potential_file.num_blocks):
            p_block = ws.potential_file.read_block(block_id, stats=stats)
            for start in range(0, len(p_block), AIR_CHUNK):
                rows = [
                    (offset + start + i, float(px), float(py))
                    for i, (px, py) in enumerate(p_block[start : start + AIR_CHUNK])
                ]
                tasks.append((block_id, rows))
            offset += len(p_block)
        return tasks

    def run_air_task(
        self, task: tuple[int, list[tuple[int, float, float]]], stats: IOStats
    ) -> tuple[int, list[tuple[int, float, float, Rect]]]:
        """AIR construction for one chunk of potential locations."""
        block_id, rows = task
        group: list[tuple[int, float, float, Rect]] = []
        with stats.tracer.span("qvc.air") as sp:
            for pid, px, py in rows:
                air = self.air(Point(px, py), stats=stats)
                if air is not None:
                    group.append((pid, px, py, air))
                else:
                    sp.count("empty_cells")
            sp.count("cells", len(group))
        return block_id, group

    def _reduce_air(
        self, outs: list[tuple[int, list]], dr: np.ndarray
    ) -> dict[int, list]:
        """Reassemble per-block AIR groups (tasks arrive in chunk order)."""
        groups: dict[int, list[tuple[int, float, float, Rect]]] = {}
        for block_id, group in outs:
            groups.setdefault(block_id, []).extend(group)
        return groups

    def _plan_windows(
        self, stats: IOStats, carry: dict[int, list]
    ) -> list[tuple[int, list]]:
        """One window-query task per non-empty potential block."""
        return [
            (block_id, carry[block_id])
            for block_id in sorted(carry)
            if carry[block_id]
        ]

    def run_window_task(
        self, task: tuple[int, list], stats: IOStats
    ) -> tuple[np.ndarray, np.ndarray]:
        """The batched window query of one block (Algorithm 3).

        The group becomes one set of columns (ids, coordinates, AIRs);
        the descent carries row indices into them and records the leaf
        pairs, which are evaluated in one kernel call at the end.
        """
        __, group = task
        n = len(group)
        block = (
            np.fromiter((g[0] for g in group), np.intp, n),
            np.fromiter((g[1] for g in group), np.float64, n),
            np.fromiter((g[2] for g in group), np.float64, n),
            RectColumns.from_rects(g[3] for g in group),
        )
        pairs = LeafPairs()
        local = np.zeros(self.ws.n_p, dtype=np.float64)
        with stats.tracer.span("qvc.window"):
            self._window_query(self.ws.r_c.root_id, np.arange(n), block, pairs, stats)
            pairs.accumulate(local)
        idx = np.flatnonzero(local)
        return idx, local[idx]

    def _reduce_windows(
        self, outs: list[tuple[np.ndarray, np.ndarray]], dr: np.ndarray
    ) -> Optional[object]:
        for idx, vals in outs:
            dr[idx] += vals
        return None

    # ------------------------------------------------------------------
    def _compute_distance_reductions(self) -> np.ndarray:
        """The serial path: the same plan/kernels, run inline.

        The serial loop interleaved AIR construction and window queries
        per block; running all AIRs first is charge- and value-identical
        (blocks touch disjoint ``p`` ids, and the best-first NN streams
        are independent per ``p``).
        """
        ws = self.ws
        stats = ws.stats
        dr = np.zeros(ws.n_p, dtype=np.float64)
        # Phases per block: "qvc.air" (quadrant NNs over R_F + cell
        # clipping) and "qvc.window" (the batched window query over R_C);
        # file.P block reads land on the enclosing "qvc.blocks" span.
        with stats.tracer.span("qvc.blocks"):
            air_tasks = self._plan_air(stats)
            air_outs = [self.run_air_task(task, stats) for task in air_tasks]
            groups = self._reduce_air(air_outs, dr)
            window_tasks = self._plan_windows(stats, groups)
            window_outs = [self.run_window_task(task, stats) for task in window_tasks]
            self._reduce_windows(window_outs, dr)
        return dr

    def _window_query(
        self,
        node_id: int,
        rows: np.ndarray,
        block: tuple[np.ndarray, np.ndarray, np.ndarray, RectColumns],
        pairs: LeafPairs,
        stats: Optional[IOStats] = None,
    ) -> None:
        """Algorithm 3: one traversal of ``R_C`` shared by a whole block.

        ``rows`` index the block's ``(pids, px, py, airs)`` columns:
        the potentials whose AIR reaches this node, in block order.
        """
        node = self.ws.r_c.read_node(node_id, stats=stats)
        trace = (stats if stats is not None else self.ws.stats).tracer
        trace.count("window.nodes")
        cache = self.ws.leaf_cache
        pids, px, py, airs = block
        if node.is_leaf:
            trace.count("window.leaf_evals", len(rows))
            c_cols = leaf_client_columns(self.ws.r_c, node, cache)
            pairs.add(pids[rows], px[rows], py[rows], c_cols)
            return
        reach = RectColumns(
            airs.xmin[rows], airs.ymin[rows], airs.xmax[rows], airs.ymax[rows]
        )
        node_cols = branch_columns(self.ws.r_c, node, cache)
        overlap = kernels.rect_intersect_matrix(reach, node_cols.rects)
        for j, entry in enumerate(node.entries):
            hits = np.flatnonzero(overlap[:, j])
            if len(hits):
                self._window_query(entry.child_id, rows[hits], block, pairs, stats)
