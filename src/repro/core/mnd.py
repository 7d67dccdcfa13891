"""MND — the maximum NFC distance method (Section VI, Algorithm 5).

The paper's contribution: the pruning power of the NFC method without
its extra index.  The client tree ``R_C^m`` stores, in each parent
entry, one value — the node's *maximum NFC distance* — delimiting a
rounded-rectangular region guaranteed to enclose the NFCs of every
client in the subtree.  Theorem 1 then prunes a node pair
``(N_P, N_C)`` whenever ``minDist(N_C, N_P) >= MND(N_C)``: no potential
location under ``N_P`` can influence any client under ``N_C``.

The traversal mirrors the NFC join exactly, with the intersection
predicate replaced by the MND test; each client-side node carries the
MND stored in its parent entry (the root's MND is derived from its
resident entries at no I/O cost, since roots have no parent entry).
Parallel execution splits the join at a node-pair frontier exactly like
NFC (:mod:`repro.rtree.frontier`), with the carried MND travelling in
the task tuple, and each task evaluates the leaf pairs its descent
recorded with one kernel call per candidate leaf
(:class:`~repro.core.leafpairs.LeafPairs`).
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

#: A join task: (R_P node id, R_C^m node id, MND of the client node).
JoinTask = tuple[int, int, float]


class MaximumNFCDistance(LocationSelector):
    """The MND method: MND-pruned join between ``R_P`` and ``R_C^m``."""

    name = "MND"

    def prepare(self) -> None:
        __ = self.ws.mnd_tree
        __ = self.ws.r_p

    def index_pages(self) -> int:
        return self.ws.mnd_tree.size_pages + self.ws.r_p.size_pages

    # ------------------------------------------------------------------
    # Parallel execution protocol
    # ------------------------------------------------------------------
    def execution_plan(self) -> list[StageSpec]:
        return [
            StageSpec(
                name="mnd.join",
                plan=self._plan_join,
                kernel="run_join_task",
                reduce=reduce_terms,
            )
        ]

    def _plan_join(self, stats: IOStats, carry: object = None) -> list[JoinTask]:
        """The node-pair frontier; charges root + expansion reads."""
        ws = self.ws
        if ws.mnd_tree.num_entries == 0:
            return []
        root_p = ws.r_p.read_node(ws.r_p.root_id, stats=stats)
        root_c = ws.mnd_tree.read_node(ws.mnd_tree.root_id, stats=stats)
        root_mnd = ws.mnd_tree.compute_mnd(root_c)
        return expand_frontier(
            [(root_p.node_id, root_c.node_id, root_mnd)],
            lambda task: self._expand_pair(task, stats),
            target=self.task_target,
        )

    def _expand_pair(
        self, task: JoinTask, stats: IOStats
    ) -> Optional[list[JoinTask]]:
        """One level of Algorithm 5 at ``task`` (None = leaf-leaf)."""
        ws = self.ws
        p_id, c_id, mnd_c = task
        node_p = ws.r_p.node(p_id)  # already charged when the pair was made
        node_c = ws.mnd_tree.node(c_id)
        if node_p.is_leaf and node_c.is_leaf:
            return None
        trace = stats.tracer
        trace.count("join.node_pairs")
        cache = ws.leaf_cache
        out: list[JoinTask] = []
        if node_p.is_leaf:
            c_cols = branch_columns(ws.mnd_tree, node_c, cache)
            descend = (
                kernels.min_dist_rects_rect(c_cols.rects, node_p.mbr()) < c_cols.mnd
            )
            for j in np.flatnonzero(descend):
                e_c = node_c.entries[j]
                ws.mnd_tree.read_node(e_c.child_id, stats=stats)
                out.append((p_id, e_c.child_id, e_c.mnd))
        elif node_c.is_leaf:
            p_cols = branch_columns(ws.r_p, node_p, cache)
            descend = (
                kernels.min_dist_rects_rect(p_cols.rects, node_c.mbr()) < mnd_c
            )
            for i in np.flatnonzero(descend):
                e_p = node_p.entries[i]
                ws.r_p.read_node(e_p.child_id, stats=stats)
                out.append((e_p.child_id, c_id, mnd_c))
        else:
            p_cols = branch_columns(ws.r_p, node_p, cache)
            c_cols = branch_columns(ws.mnd_tree, node_c, cache)
            descend = (
                kernels.pairwise_min_dist_rects(p_cols.rects, c_cols.rects)
                < c_cols.mnd[None, :]
            )
            # argwhere is row-major, matching the serial nested-loop order
            # so every child read is charged in the identical sequence.
            for i, j in np.argwhere(descend):
                e_p = node_p.entries[i]
                e_c = node_c.entries[j]
                ws.r_p.read_node(e_p.child_id, stats=stats)
                ws.mnd_tree.read_node(e_c.child_id, stats=stats)
                out.append((e_p.child_id, e_c.child_id, e_c.mnd))
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
        pure-CPU ``mnd.leaf_eval`` span then evaluates them all, so the
        leaf page reads stay attributed to the enclosing descent.
        """
        ws = self.ws
        p_id, c_id, mnd_c = task
        node_p = ws.r_p.node(p_id)  # pair reads charged by the planner
        node_c = ws.mnd_tree.node(c_id)
        pairs = LeafPairs()
        self._join(node_p, node_c, mnd_c, pairs, stats)
        if not len(pairs):
            return NO_TERMS
        with stats.tracer.span("mnd.leaf_eval") as sp:
            sp.count("candidates", pairs.candidates)
            return pairs.leaf_terms()

    # ------------------------------------------------------------------
    def _compute_distance_reductions(self) -> np.ndarray:
        """The serial path: frontier + inline kernels."""
        ws = self.ws
        stats = ws.stats
        dr = np.zeros(ws.n_p, dtype=np.float64)
        if ws.mnd_tree.num_entries == 0:
            return dr
        with stats.tracer.span("mnd.join"):
            tasks = self._plan_join(stats)
            outs = [self.run_join_task(task, stats) for task in tasks]
            reduce_terms(outs, dr)
        return dr

    def _join(
        self,
        node_p: Node,
        node_c: Node,
        mnd_c: float,
        pairs: LeafPairs,
        stats: Optional[IOStats] = None,
    ) -> None:
        """Algorithm 5: descend where ``minDist < MND`` (Theorem 1),
        recording each leaf pair in ``pairs``."""
        ws = self.ws
        if stats is None:
            stats = ws.stats
        trace = stats.tracer
        trace.count("join.node_pairs")
        cache = ws.leaf_cache
        if node_p.is_leaf and node_c.is_leaf:
            # For point entries minDist(e_c, e_p) is the exact distance,
            # and the leaf-level MND of a client is its dnn — so the
            # paper's line-11 test collapses to the exact influence test
            # dist < dnn, i.e. the clipped weighted reduction kernel over
            # the whole page pair.
            p_cols = leaf_site_columns(ws.r_p, node_p, cache)
            c_cols = leaf_client_columns(ws.mnd_tree, node_c, cache)
            pairs.add(p_cols.ids, p_cols.xs, p_cols.ys, c_cols, leaf=node_p.node_id)
        elif node_p.is_leaf:
            c_cols = branch_columns(ws.mnd_tree, node_c, cache)
            descend = (
                kernels.min_dist_rects_rect(c_cols.rects, node_p.mbr()) < c_cols.mnd
            )
            for j in np.flatnonzero(descend):
                e_c = node_c.entries[j]
                self._join(
                    node_p,
                    ws.mnd_tree.read_node(e_c.child_id, stats=stats),
                    e_c.mnd,
                    pairs,
                    stats,
                )
        elif node_c.is_leaf:
            p_cols = branch_columns(ws.r_p, node_p, cache)
            descend = (
                kernels.min_dist_rects_rect(p_cols.rects, node_c.mbr()) < mnd_c
            )
            for i in np.flatnonzero(descend):
                self._join(
                    ws.r_p.read_node(node_p.entries[i].child_id, stats=stats),
                    node_c,
                    mnd_c,
                    pairs,
                    stats,
                )
        else:
            p_cols = branch_columns(ws.r_p, node_p, cache)
            c_cols = branch_columns(ws.mnd_tree, node_c, cache)
            descend = (
                kernels.pairwise_min_dist_rects(p_cols.rects, c_cols.rects)
                < c_cols.mnd[None, :]
            )
            # Row-major argwhere keeps the serial nested-loop descent
            # (and read-charge) order.
            for i, j in np.argwhere(descend):
                self._join(
                    ws.r_p.read_node(node_p.entries[i].child_id, stats=stats),
                    ws.mnd_tree.read_node(node_c.entries[j].child_id, stats=stats),
                    node_c.entries[j].mnd,
                    pairs,
                    stats,
                )
            pruned = descend.size - int(np.count_nonzero(descend))
            if pruned:
                trace.count("join.pruned_pairs", pruned)

    # ------------------------------------------------------------------
    # Influence-set materialisation (library extension)
    # ------------------------------------------------------------------
    def influence_sets(self) -> dict[int, list[int]]:
        """``IS(p)`` for every potential location, as client-id lists.

        Runs the same MND-pruned join but collects the influenced
        clients instead of only their aggregate reduction; ids are
        sorted for determinism.  Step 1 of the Section III-B framework
        exposed directly — useful when callers need to *notify* the
        affected clients, not just score candidates.
        """
        ws = self.ws
        out: dict[int, list[int]] = {p.sid: [] for p in ws.potentials}
        if ws.mnd_tree.num_entries == 0:
            return out
        node_p = ws.r_p.read_node(ws.r_p.root_id)
        node_c = ws.mnd_tree.read_node(ws.mnd_tree.root_id)
        self._collect_join(node_p, node_c, ws.mnd_tree.compute_mnd(node_c), out)
        for members in out.values():
            members.sort()
        return out

    def _collect_join(
        self,
        node_p: Node,
        node_c: Node,
        mnd_c: float,
        out: dict[int, list[int]],
    ) -> None:
        ws = self.ws
        cache = ws.leaf_cache
        if node_p.is_leaf and node_c.is_leaf:
            p_cols = leaf_site_columns(ws.r_p, node_p, cache)
            c_cols = leaf_client_columns(ws.mnd_tree, node_c, cache)
            influenced = kernels.influence_matrix(
                p_cols.xs, p_cols.ys, c_cols.xs, c_cols.ys, c_cols.dnn
            )
            cids = c_cols.ids.tolist()
            for i, sid in enumerate(p_cols.ids.tolist()):
                members = np.flatnonzero(influenced[i])
                if len(members):
                    out[sid].extend(cids[j] for j in members)
        elif node_p.is_leaf:
            c_cols = branch_columns(ws.mnd_tree, node_c, cache)
            descend = (
                kernels.min_dist_rects_rect(c_cols.rects, node_p.mbr()) < c_cols.mnd
            )
            for j in np.flatnonzero(descend):
                e_c = node_c.entries[j]
                self._collect_join(
                    node_p, ws.mnd_tree.read_node(e_c.child_id), e_c.mnd, out
                )
        elif node_c.is_leaf:
            p_cols = branch_columns(ws.r_p, node_p, cache)
            descend = (
                kernels.min_dist_rects_rect(p_cols.rects, node_c.mbr()) < mnd_c
            )
            for i in np.flatnonzero(descend):
                self._collect_join(
                    ws.r_p.read_node(node_p.entries[i].child_id), node_c, mnd_c, out
                )
        else:
            p_cols = branch_columns(ws.r_p, node_p, cache)
            c_cols = branch_columns(ws.mnd_tree, node_c, cache)
            descend = (
                kernels.pairwise_min_dist_rects(p_cols.rects, c_cols.rects)
                < c_cols.mnd[None, :]
            )
            for i, j in np.argwhere(descend):
                self._collect_join(
                    ws.r_p.read_node(node_p.entries[i].child_id),
                    ws.mnd_tree.read_node(node_c.entries[j].child_id),
                    node_c.entries[j].mnd,
                    out,
                )
