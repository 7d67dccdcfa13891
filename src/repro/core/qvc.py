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
  skipped with ``dr(p) = 0``, which also spares the degenerate
  bisector.  The other methods reach the same 0: every distance is one
  formula, so ``dist(c, p)`` is then bit for bit ``dist(c, f)`` for a
  facility ``f``, never below ``dnn(c, F)``, the least such distance.

For the execution engine the method splits into two stages of one task
per potential block each: AIR construction and the batched window
query.  A window task returns the ``dr`` terms of the pairs it found,
and the reduce rounds each potential's terms once
(:func:`~repro.core.plan.reduce_terms`); the I/O multiset matches the
serial interleaving, keeping results byte-identical.

Both stages run on columns.  An AIR task finds its block's quadrant NNs
with one lockstep pass over ``R_F``
(:func:`~repro.rtree.nn.quadrant_nearest_block`: every potential's
best-first stream, the same nodes read in the same order, charged
potential by potential), then clips all the cells at once
(:func:`~repro.geometry.polygon.clip_all_columns`, bit for bit
:meth:`ConvexPolygon.clip_all`).  It hands the window task AIR columns.  A
window task runs them down ``R_C`` together, one level at a time
(:func:`~repro.rtree.descent.window_leaves`: the level's (node, AIR row)
pairs tested in one intersection-kernel call, each distinct node reached
charged once), and evaluates the (client leaf × candidate rows) pairs it
reaches in one kernel call (:func:`~repro.core.leafpairs.window_terms`).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.core.base import LocationSelector
from repro.core.leafpairs import window_terms
from repro.core.plan import StageSpec, reduce_terms
from repro.core.types import Site
from repro.geometry.point import Point
from repro.geometry.polygon import clip_all_columns, mbr_columns
from repro.geometry.rect import Rect
from repro.kernels.columnar import RectColumns
from repro.rtree.descent import window_leaves
from repro.rtree.nn import quadrant_nearest_block
from repro.storage.stats import IOStats

#: One block's AIRs as columns: potential ids, coordinates, and the
#: AIR bounds ``xmin, ymin, xmax, ymax``.
AirColumns = tuple[np.ndarray, ...]


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
        the NNs until each quadrant has one").  This is the one-potential
        call of the block pass.
        """
        sids, xs, ys = quadrant_nearest_block(
            self.ws.r_f,
            np.array([p[0]], dtype=np.float64),
            np.array([p[1]], dtype=np.float64),
            self.ws.leaf_cache,
            stats,
        )
        return [
            None
            if sids[0, q] < 0
            else Site(int(sids[0, q]), float(xs[0, q]), float(ys[0, q]))
            for q in range(4)
        ]

    def air(self, p: Point, stats: Optional[IOStats] = None) -> Optional[Rect]:
        """``AIR(p)``: the MBR of the quasi-Voronoi cell of ``p``.

        Returns None when ``IS(p)`` is provably empty (a facility sits
        exactly on ``p``).  This is the one-potential call of the block
        pass.
        """
        kept, bounds = self.airs(
            np.array([p[0]], dtype=np.float64),
            np.array([p[1]], dtype=np.float64),
            stats,
        )
        return Rect(*(float(b[0]) for b in bounds)) if len(kept) else None

    def airs(
        self, px: np.ndarray, py: np.ndarray, stats: Optional[IOStats] = None
    ) -> tuple[np.ndarray, AirColumns]:
        """The AIRs of a block of potentials: the rows kept, and their
        AIR bounds as columns.

        A row is dropped when a facility sits exactly on it; such a
        facility is its quadrant-0 NN (quadrants compare x and y with
        ``>=``, and nothing is nearer).  Each kept cell starts as the
        data bounds' corners and is clipped by its bisectors in quadrant
        order, as :meth:`ConvexPolygon.clip_all` takes them, stopping
        once it is empty; an empty (numerically degenerate) cell gives
        the point rectangle of ``p``.
        """
        sids, fx, fy = quadrant_nearest_block(
            self.ws.r_f, px, py, self.ws.leaf_cache, stats
        )
        on_p = (sids[:, 0] >= 0) & (fx[:, 0] == px) & (fy[:, 0] == py)
        kept = np.flatnonzero(~on_p)
        px, py, sids, fx, fy = px[kept], py[kept], sids[kept], fx[kept], fy[kept]
        # Clip against the effective data bounds, not the nominal domain:
        # clients outside the declared domain must stay coverable.
        b = self.ws.data_bounds
        planes = []
        for q in range(4):  # the bisectors of p and its quadrant NNs
            rows = np.flatnonzero(sids[:, q] >= 0)
            x, y, qx, qy = px[rows], py[rows], fx[rows, q], fy[rows, q]
            planes.append(
                (
                    rows,
                    2.0 * (qx - x),
                    2.0 * (qy - y),
                    qx * qx + qy * qy - x * x - y * y,
                )
            )
        xs, ys, counts = clip_all_columns(
            np.tile([b.xmin, b.xmax, b.xmax, b.xmin], (len(kept), 1)),
            np.tile([b.ymin, b.ymin, b.ymax, b.ymax], (len(kept), 1)),
            np.full(len(kept), 4, dtype=np.intp),
            planes,
        )
        empty = counts == 0
        xmin, ymin, xmax, ymax = mbr_columns(xs, ys, counts)
        return kept, (
            np.where(empty, px, xmin),
            np.where(empty, py, ymin),
            np.where(empty, px, xmax),
            np.where(empty, py, ymax),
        )

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
                reduce=reduce_terms,
            ),
        ]

    def _plan_air(self, stats: IOStats, carry: object = None) -> list[tuple]:
        """One AIR task per potential block; charges the potential-file
        block reads."""
        ws = self.ws
        tasks: list[tuple[int, int]] = []
        offset = 0
        for block_id in range(ws.potential_file.num_blocks):
            p_block = ws.potential_file.read_block(block_id, stats=stats)
            tasks.append((block_id, offset))
            offset += len(p_block)
        return tasks

    def run_air_task(
        self, task: tuple[int, int], stats: IOStats
    ) -> tuple[int, AirColumns]:
        """AIR construction for one potential block: one quadrant-NN pass
        over ``R_F``, then every cell clipped as columns."""
        block_id, offset = task
        p_block = self.ws.potential_file.peek_block(block_id)  # charged at planning
        px = np.array(p_block[:, 0], dtype=np.float64)
        py = np.array(p_block[:, 1], dtype=np.float64)
        with stats.tracer.span("qvc.air") as sp:
            kept, bounds = self.airs(px, py, stats)
            if len(kept) < len(px):
                sp.count("empty_cells", len(px) - len(kept))
            sp.count("cells", len(kept))
        return block_id, (offset + kept, px[kept], py[kept], *bounds)

    def _reduce_air(
        self, outs: list[tuple[int, AirColumns]], dr: np.ndarray
    ) -> dict[int, AirColumns]:
        """Each block's AIR columns, keyed by block id."""
        return dict(outs)

    def _plan_windows(
        self, stats: IOStats, carry: dict[int, AirColumns]
    ) -> list[tuple[int, AirColumns]]:
        """One window-query task per potential block with a cell."""
        return [
            (block_id, carry[block_id])
            for block_id in sorted(carry)
            if len(carry[block_id][0])
        ]

    def run_window_task(
        self, task: tuple[int, AirColumns], stats: IOStats
    ) -> tuple[np.ndarray, np.ndarray]:
        """The batched window query of one block (Algorithm 3).

        The descent runs every AIR of the block down ``R_C`` together
        and ends at the (client leaf, AIR row) pairs they reach, which
        are evaluated in one kernel call; returns their ``(potential
        ids, terms)``.
        """
        __, (pids, px, py, xmin, ymin, xmax, ymax) = task
        ws = self.ws
        with stats.tracer.span("qvc.window"):
            leaves, rows = window_leaves(
                ws.r_c, RectColumns(xmin, ymin, xmax, ymax), ws.leaf_cache, stats
            )
            return window_terms(ws.r_c, leaves, rows, (pids, px, py), ws.leaf_cache)

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
            reduce_terms(window_outs, dr)
        return dr
