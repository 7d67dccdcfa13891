"""NFC — the nearest facility circle method (Section V, Algorithm 4).

A client ``c`` belongs to ``IS(p)`` iff ``p`` lies strictly inside
``NFC(c)``, the circle centred at ``c`` with radius ``dnn(c, F)``.
The method therefore spatial-joins the potential-location tree ``R_P``
with the RNN-tree ``R_C^n`` that indexes the (square) MBRs of all NFCs:
a synchronized traversal descends into every node pair whose
MBRs intersect, and at the leaves tests ``dist(c, p) < dnn(c, F)`` and
accumulates the reduction.  The pseudocode rebuilds each NFC from its
square MBR there (lines 12–13 of Algorithm 4); this implementation
reads the leaf's exact client record instead, which both leaf forms
hold, so NFC's terms are every other method's bit for bit (DESIGN.md
§8).

The price of this efficiency is the *extra index*: ``R_C^n`` must be
maintained alongside ``R_C``, the drawback that motivates the MND method.

The join runs one level at a time (:mod:`repro.rtree.descent`): each
level's node pairs are columns, tested in one intersection-kernel call
and charged with one read charge per tree.  For the execution engine the
plan runs the first levels on the driver, until the frontier holds
``task_target`` pairs, and cuts it into that many contiguous tasks; each
task descends the rest of the way and evaluates the leaf pairs it
reaches with one kernel call per candidate leaf
(:func:`~repro.core.leafpairs.join_terms`), returning their ``dr``
terms.  The reduce rounds each potential's terms once
(:func:`~repro.core.plan.reduce_terms`).
"""

from __future__ import annotations

import numpy as np

from repro.core.base import LocationSelector
from repro.core.leafpairs import join_terms
from repro.core.plan import StageSpec, reduce_terms
from repro.rtree.descent import JoinRows, descend_join, join_roots
from repro.storage.stats import IOStats


class NearestFacilityCircle(LocationSelector):
    """The NFC method: R-tree join between ``R_P`` and the RNN-tree."""

    name = "NFC"

    def prepare(self) -> None:
        __ = self.ws.r_c  # the client database index, maintained regardless
        __ = self.ws.rnn_tree
        __ = self.ws.r_p

    def index_pages(self) -> int:
        return (
            self.ws.r_c.size_pages
            + self.ws.rnn_tree.size_pages
            + self.ws.r_p.size_pages
        )

    # ------------------------------------------------------------------
    # Parallel execution protocol
    # ------------------------------------------------------------------
    def execution_plan(self) -> list[StageSpec]:
        return [
            StageSpec(
                name="nfc.join",
                plan=self._plan_join,
                kernel="run_join_task",
                reduce=reduce_terms,
            )
        ]

    def _plan_join(self, stats: IOStats, carry: object = None) -> list[JoinRows]:
        """The join's first levels, whole, until the frontier holds
        ``task_target`` pairs, cut into that many tasks; charges the
        roots and the levels it expands."""
        ws = self.ws
        if ws.rnn_tree.num_entries == 0:
            return []
        rows = join_roots(ws.r_p, ws.rnn_tree, stats)
        rows = descend_join(
            ws.r_p, ws.rnn_tree, rows, ws.leaf_cache, stats, until=self.task_target
        )
        return rows.split(self.task_target)

    def run_join_task(
        self, task: JoinRows, stats: IOStats
    ) -> tuple[np.ndarray, np.ndarray]:
        """The join below one task's node pairs (Algorithm 4): the
        ``(potential ids, terms)`` of the leaf pairs it reaches.

        The descent charges the reads; one ``nfc.leaf_eval`` span then
        evaluates the leaf pairs.  At the leaves it tests each client's
        exact record (x, y, dnn), not a circle rebuilt from its square
        MBR as lines 12–13 of Algorithm 4 do (DESIGN.md §8): the
        strict-containment test is then the influence test every other
        method runs, on the same floats.
        """
        ws = self.ws
        rows = descend_join(ws.r_p, ws.rnn_tree, task, ws.leaf_cache, stats)
        return join_terms(
            ws.r_p, ws.rnn_tree, rows, ws.leaf_cache, stats, "nfc.leaf_eval"
        )

    # ------------------------------------------------------------------
    def _compute_distance_reductions(self) -> np.ndarray:
        """The serial path: the plan and its tasks, inline."""
        ws = self.ws
        stats = ws.stats
        dr = np.zeros(ws.n_p, dtype=np.float64)
        if ws.rnn_tree.num_entries == 0:
            return dr
        with stats.tracer.span("nfc.join"):
            tasks = self._plan_join(stats)
            outs = [self.run_join_task(task, stats) for task in tasks]
            reduce_terms(outs, dr)
        return dr
