"""NFC — the nearest facility circle method (Section V, Algorithm 4).

A client ``c`` belongs to ``IS(p)`` iff ``p`` lies strictly inside
``NFC(c)``, the circle centred at ``c`` with radius ``dnn(c, F)``.
The method therefore spatial-joins the potential-location tree ``R_P``
with the RNN-tree ``R_C^n`` that indexes the (square) MBRs of all NFCs:
a synchronized depth-first traversal descends into every node pair whose
MBRs intersect, and at the leaves tests ``dist(c, p) < dnn(c, F)`` and
accumulates the reduction.  The pseudocode rebuilds each NFC from its
square MBR there (lines 12–13 of Algorithm 4); this implementation
reads the leaf's exact client record instead, which both leaf forms
hold, so NFC's terms are every other method's bit for bit (DESIGN.md
§8).

The price of this efficiency is the *extra index*: ``R_C^n`` must be
maintained alongside ``R_C``, the drawback that motivates the MND method.

For the execution engine the join splits at a node-pair frontier
(:mod:`repro.rtree.frontier`): the driver expands the top of the
synchronized traversal — charging child reads exactly where the serial
recursion would — and each frontier pair becomes an independent task
running the ordinary recursion below it.  The recursion records the
leaf pairs it reaches (:class:`~repro.core.leafpairs.LeafPairs`), and
the task evaluates them with one kernel call per candidate leaf and
returns their ``dr`` terms; the reduce rounds each potential's terms
once (:func:`~repro.core.plan.reduce_terms`).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro import kernels
from repro.core.base import LocationSelector
from repro.core.leafpairs import LeafPairs
from repro.core.plan import NO_TERMS, StageSpec, reduce_terms
from repro.rtree.columns import branch_columns, leaf_client_columns, leaf_site_columns
from repro.rtree.frontier import expand_frontier
from repro.rtree.node import Node
from repro.storage.stats import IOStats

#: A join task: (R_P node id, client-tree node id).  Both nodes' reads
#: are charged by whoever materialised the pair (the planner for
#: frontier pairs, the kernel recursion below).
JoinTask = tuple[int, int]


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

    def _plan_join(self, stats: IOStats, carry: object = None) -> list[JoinTask]:
        """The node-pair frontier; charges root + expansion reads."""
        ws = self.ws
        if ws.rnn_tree.num_entries == 0:
            return []
        root_p = ws.r_p.read_node(ws.r_p.root_id, stats=stats)
        root_c = ws.rnn_tree.read_node(ws.rnn_tree.root_id, stats=stats)
        return expand_frontier(
            [(root_p.node_id, root_c.node_id)],
            lambda pair: self._expand_pair(pair, stats),
            target=self.task_target,
        )

    def _expand_pair(
        self, pair: JoinTask, stats: IOStats
    ) -> Optional[list[JoinTask]]:
        """One level of Algorithm 4 at ``pair``, as child pairs.

        Mirrors :meth:`_join` exactly: the same predicate tests in the
        same order, the same child reads (charged per qualifying pair,
        as the serial recursion re-reads them), the same counters.
        Returns None for leaf-leaf pairs, which stay frontier tasks.
        """
        ws = self.ws
        node_p = ws.r_p.node(pair[0])  # already charged when pair was made
        node_c = ws.rnn_tree.node(pair[1])
        if node_p.is_leaf and node_c.is_leaf:
            return None
        trace = stats.tracer
        trace.count("join.node_pairs")
        cache = ws.leaf_cache
        out: list[JoinTask] = []
        if node_p.is_leaf:
            c_cols = branch_columns(ws.rnn_tree, node_c, cache)
            descend = kernels.rects_intersect_rect(c_cols.rects, node_p.mbr())
            for j in np.flatnonzero(descend):
                e_c = node_c.entries[j]
                ws.rnn_tree.read_node(e_c.child_id, stats=stats)
                out.append((pair[0], e_c.child_id))
        elif node_c.is_leaf:
            p_cols = branch_columns(ws.r_p, node_p, cache)
            descend = kernels.rects_intersect_rect(p_cols.rects, node_c.mbr())
            for i in np.flatnonzero(descend):
                e_p = node_p.entries[i]
                ws.r_p.read_node(e_p.child_id, stats=stats)
                out.append((e_p.child_id, pair[1]))
        else:
            p_cols = branch_columns(ws.r_p, node_p, cache)
            c_cols = branch_columns(ws.rnn_tree, node_c, cache)
            descend = kernels.rect_intersect_matrix(p_cols.rects, c_cols.rects)
            # Row-major argwhere keeps the serial nested-loop descent
            # (and read-charge) order.
            for i, j in np.argwhere(descend):
                ws.r_p.read_node(node_p.entries[i].child_id, stats=stats)
                ws.rnn_tree.read_node(node_c.entries[j].child_id, stats=stats)
                out.append((node_p.entries[i].child_id, node_c.entries[j].child_id))
            pruned = descend.size - int(np.count_nonzero(descend))
            if pruned:
                trace.count("join.pruned_pairs", pruned)
        return out

    def run_join_task(
        self, task: JoinTask, stats: IOStats
    ) -> tuple[np.ndarray, np.ndarray]:
        """The serial join below one frontier pair: the ``(potential ids,
        terms)`` of the leaf pairs it reaches.

        The descent charges the reads and records the leaf pairs; one
        ``nfc.leaf_eval`` span then evaluates them all.  Candidate
        evaluation is pure CPU (every leaf is already in memory), so the
        span reads no page and the reads stay on the enclosing descent.
        """
        ws = self.ws
        node_p = ws.r_p.node(task[0])  # pair reads charged by the planner
        node_c = ws.rnn_tree.node(task[1])
        pairs = LeafPairs()
        self._join(node_p, node_c, pairs, stats)
        if not len(pairs):
            return NO_TERMS
        with stats.tracer.span("nfc.leaf_eval") as sp:
            sp.count("candidates", pairs.candidates)
            return pairs.leaf_terms()

    # ------------------------------------------------------------------
    def _compute_distance_reductions(self) -> np.ndarray:
        """The serial path: frontier + inline kernels."""
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

    def _join(
        self,
        node_p: Node,
        node_c: Node,
        pairs: LeafPairs,
        stats: Optional[IOStats] = None,
    ) -> None:
        """Algorithm 4: descend into intersecting node pairs, recording
        each leaf pair in ``pairs``."""
        ws = self.ws
        if stats is None:
            stats = ws.stats
        trace = stats.tracer
        trace.count("join.node_pairs")
        cache = ws.leaf_cache
        if node_p.is_leaf and node_c.is_leaf:
            # The leaf's exact client records (x, y, dnn), not circles
            # rebuilt from their square MBRs as lines 12–13 of Algorithm
            # 4 do (DESIGN.md §8): the strict-containment test is then
            # the influence test every other method runs, on the same
            # floats.
            p_cols = leaf_site_columns(ws.r_p, node_p, cache)
            c_cols = leaf_client_columns(ws.rnn_tree, node_c, cache)
            pairs.add(p_cols.ids, p_cols.xs, p_cols.ys, c_cols, leaf=node_p.node_id)
        elif node_p.is_leaf:
            c_cols = branch_columns(ws.rnn_tree, node_c, cache)
            descend = kernels.rects_intersect_rect(c_cols.rects, node_p.mbr())
            for j in np.flatnonzero(descend):
                child = ws.rnn_tree.read_node(node_c.entries[j].child_id, stats=stats)
                self._join(node_p, child, pairs, stats)
        elif node_c.is_leaf:
            p_cols = branch_columns(ws.r_p, node_p, cache)
            descend = kernels.rects_intersect_rect(p_cols.rects, node_c.mbr())
            for i in np.flatnonzero(descend):
                self._join(
                    ws.r_p.read_node(node_p.entries[i].child_id, stats=stats),
                    node_c,
                    pairs,
                    stats,
                )
        else:
            p_cols = branch_columns(ws.r_p, node_p, cache)
            c_cols = branch_columns(ws.rnn_tree, node_c, cache)
            descend = kernels.rect_intersect_matrix(p_cols.rects, c_cols.rects)
            # Row-major argwhere keeps the serial nested-loop descent
            # (and read-charge) order.
            for i, j in np.argwhere(descend):
                self._join(
                    ws.r_p.read_node(node_p.entries[i].child_id, stats=stats),
                    ws.rnn_tree.read_node(node_c.entries[j].child_id, stats=stats),
                    pairs,
                    stats,
                )
            pruned = descend.size - int(np.count_nonzero(descend))
            if pruned:
                trace.count("join.pruned_pairs", pruned)
