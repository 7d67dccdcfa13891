"""SS — the sequential scan baseline (Algorithm 1).

Block-nested-loop over the potential-location file and the client file:
for every potential-location block, the whole client file is scanned and
each client contributes ``max(dnn(c,F) - dist(c,p), 0)`` to every ``p``
in the block.  With precomputed ``dnn`` this needs no index at all, but
reads the client dataset ``n_p / C_m`` times — the I/O cost
``n_p * n_c / C_m^2`` of Table III.

The per-block-pair distance computation goes through
:func:`repro.kernels.accumulate_reductions` (the columnar batch kernel,
cross-checked against its scalar twin); this changes constants, not the
I/O pattern or the asymptotic CPU cost, both of which the paper
analyses.

For the execution engine the scan runs one task per worker, as the
joins do.  The driver charges each potential block once at planning
time (the serial loop holds it in memory across the inner scan) and
cuts the blocks into ``task_target`` contiguous groups of whole blocks
(:func:`~repro.core.plan.block_tasks`).  A task re-fetches its blocks
for free via ``peek_block``, charges the whole client file once per
potential block, in block order, with one ``charge`` call per block —
the paper's per-block rescan, read for read — and then makes **one**
shared-form kernel call of all its potentials over the whole client
file, whose columns the file gathers once and keeps
(``BlockFile.columns``).  The call returns the influence terms, and the
reduce rounds each potential's terms once
(:func:`~repro.core.plan.reduce_terms`), so ``dr`` depends neither on
the page size's blocking of either file nor on the grouping.
"""

from __future__ import annotations

import numpy as np

from repro import kernels
from repro.core.base import LocationSelector
from repro.core.plan import NO_TERMS, StageSpec, block_rows, block_tasks, reduce_terms
from repro.storage.stats import IOStats


class SequentialScan(LocationSelector):
    """The sequential scan (SS) method — no pruning, no index."""

    name = "SS"

    def prepare(self) -> None:
        __ = self.ws.client_file
        __ = self.ws.potential_file

    def index_pages(self) -> int:
        return 0  # SS maintains no index (data files are not indexes).

    # ------------------------------------------------------------------
    # Parallel execution protocol
    # ------------------------------------------------------------------
    def execution_plan(self) -> list[StageSpec]:
        return [
            StageSpec(
                name="ss.scan",
                plan=self._plan_scan,
                kernel="run_scan_task",
                reduce=reduce_terms,
            )
        ]

    def _plan_scan(self, stats: IOStats, carry: object = None) -> list[tuple]:
        """The potential blocks, each charged, cut into ``task_target``
        contiguous groups: one task per group."""
        potential_file = self.ws.potential_file
        stats.tracer.count("potential_blocks", potential_file.num_blocks)
        return block_tasks(potential_file, stats, self.task_target)

    def run_scan_task(
        self, task: tuple[int, int, int], stats: IOStats
    ) -> tuple[np.ndarray, np.ndarray]:
        """A group of potential blocks against the whole client file
        (Algorithm 1's inner loop, once per block): every client block
        charged in order for each potential block, then one kernel call
        over all of the group's potentials; returns their ``(potential
        ids, terms)``."""
        lo, hi, __ = task
        ids, px, py, __ = block_rows(self.ws.potential_file, task)
        client_file = self.ws.client_file
        blocks = client_file.num_blocks
        with stats.tracer.span("ss.client_pass") as sp:
            for __ in range(lo, hi):
                client_file.charge(range(blocks), stats)
            sp.count("client_blocks", blocks * (hi - lo))
            if not blocks:
                return NO_TERMS
            # The blocks just charged, as the columns the file gathered
            # once (the file is read-only while it lives).
            cx, cy, dnn, w = client_file.columns()
            rows, terms = kernels.accumulate_reductions(px, py, cx, cy, dnn, w)
        return ids[rows], terms

    # ------------------------------------------------------------------
    def _compute_distance_reductions(self) -> np.ndarray:
        """The serial path: the same plan/kernel/reduce, run inline."""
        ws = self.ws
        stats = ws.stats
        dr = np.zeros(ws.n_p, dtype=np.float64)
        # Phases: reads of file.P land on "ss.scan" (charged while
        # planning); each task's passes over the client file open one
        # "ss.client_pass" child span carrying the file.C reads.
        with stats.tracer.span("ss.scan"):
            tasks = self._plan_scan(stats)
            outs = [self.run_scan_task(task, stats) for task in tasks]
            reduce_terms(outs, dr)
        return dr
