"""MND — the maximum NFC distance method (Section VI, Algorithm 5).

The paper's contribution: the pruning power of the NFC method without
its extra index.  The client tree ``R_C^m`` stores, in each parent
entry, one value — the node's *maximum NFC distance* — delimiting a
rounded-rectangular region guaranteed to enclose the NFCs of every
client in the subtree.  Theorem 1 then prunes a node pair
``(N_P, N_C)`` whenever ``minDist(N_C, N_P) >= MND(N_C)``: no potential
location under ``N_P`` can influence any client under ``N_C``.

The join is NFC's level-synchronous descent (:mod:`repro.rtree.descent`)
with the intersection test replaced by the MND test, one
``minDist``-kernel call a level.  Each client-side node carries the MND
stored in its parent entry (the root's MND is derived from its resident
entries at no I/O cost, since roots have no parent entry), and a client
leaf carried down keeps its row's MND.  The plan and its tasks are
NFC's, with the carried MNDs a column of each task's rows.
"""

from __future__ import annotations

import numpy as np

from repro import kernels
from repro.core.base import LocationSelector
from repro.core.leafpairs import join_terms
from repro.core.plan import StageSpec, reduce_terms
from repro.rtree.columns import client_columns, site_columns
from repro.rtree.descent import JoinRows, descend_join, join_roots
from repro.storage.stats import IOStats


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

    def _plan_join(self, stats: IOStats, carry: object = None) -> list[JoinRows]:
        """The join's first levels, whole, until the frontier holds
        ``task_target`` pairs, cut into that many tasks; charges the
        roots and the levels it expands."""
        ws = self.ws
        if ws.mnd_tree.num_entries == 0:
            return []
        rows = join_roots(ws.r_p, ws.mnd_tree, stats, mnd=True)
        rows = descend_join(
            ws.r_p, ws.mnd_tree, rows, ws.leaf_cache, stats, until=self.task_target
        )
        return rows.split(self.task_target)

    def run_join_task(
        self, task: JoinRows, stats: IOStats
    ) -> tuple[np.ndarray, np.ndarray]:
        """The join below one task's node pairs (Algorithm 5): the
        ``(potential ids, terms)`` of the leaf pairs it reaches.

        The descent charges the reads; one pure-CPU ``mnd.leaf_eval``
        span then evaluates the leaf pairs.  For point entries
        ``minDist(e_c, e_p)`` is the exact distance, and a client's
        leaf-level MND is its dnn, so the paper's line-11 test there is
        the exact influence test ``dist < dnn``.
        """
        ws = self.ws
        rows = descend_join(ws.r_p, ws.mnd_tree, task, ws.leaf_cache, stats)
        return join_terms(
            ws.r_p, ws.mnd_tree, rows, ws.leaf_cache, stats, "mnd.leaf_eval"
        )

    # ------------------------------------------------------------------
    def _compute_distance_reductions(self) -> np.ndarray:
        """The serial path: the plan and its tasks, inline."""
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

    # ------------------------------------------------------------------
    # Influence-set materialisation (library extension)
    # ------------------------------------------------------------------
    def influence_sets(self) -> dict[int, list[int]]:
        """``IS(p)`` for every potential location, as client-id lists.

        Runs the same MND-pruned descent, charging the workspace's
        counters, but collects the influenced clients of each leaf pair
        instead of only their aggregate reduction; ids are sorted for
        determinism.  Step 1 of the Section III-B framework exposed
        directly — useful when callers need to *notify* the affected
        clients, not just score candidates.
        """
        ws = self.ws
        out: dict[int, list[int]] = {p.sid: [] for p in ws.potentials}
        if ws.mnd_tree.num_entries == 0:
            return out
        cache = ws.leaf_cache
        rows = join_roots(ws.r_p, ws.mnd_tree, ws.stats, mnd=True)
        rows = descend_join(ws.r_p, ws.mnd_tree, rows, cache, ws.stats)
        p_leaves, p_index = np.unique(rows.p, return_inverse=True)
        c_leaves, c_index = np.unique(rows.c, return_inverse=True)
        p_cols = site_columns(ws.r_p, p_leaves.tolist(), cache)
        c_cols = client_columns(ws.mnd_tree, c_leaves.tolist(), cache)
        for p, c in zip(p_index.tolist(), c_index.tolist()):
            sites, clients = p_cols[p], c_cols[c]
            influenced = kernels.influence_matrix(
                sites.xs, sites.ys, clients.xs, clients.ys, clients.dnn
            )
            cids = clients.ids.tolist()
            for i, sid in enumerate(sites.ids.tolist()):
                members = np.flatnonzero(influenced[i])
                if len(members):
                    out[sid].extend(cids[j] for j in members)
        for members in out.values():
            members.sort()
        return out
