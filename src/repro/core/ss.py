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

The scan decomposes for the execution engine as Algorithm 1 loops: one
task per potential block.  The driver charges each potential block once
at planning time (the serial loop holds it in memory across the inner
scan); each task re-fetches it for free via ``peek_block``, charges
every client block in order with one ``charge`` call, and makes one
shared-form kernel call over the whole client file, whose columns the
file gathers once and keeps (``BlockFile.columns``).  The call returns
the block's influence terms, and the reduce rounds each potential's
terms once (:func:`~repro.core.plan.reduce_terms`), so ``dr`` does not
depend on the page size's blocking of either file.
"""

from __future__ import annotations

import numpy as np

from repro import kernels
from repro.core.base import LocationSelector
from repro.core.plan import NO_TERMS, StageSpec, reduce_terms
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
        """One task per potential block; charges the P reads."""
        ws = self.ws
        tasks: list[tuple[int, int]] = []
        offset = 0
        for p_id in range(ws.potential_file.num_blocks):
            p_block = ws.potential_file.read_block(p_id, stats=stats)
            stats.tracer.count("potential_blocks")
            tasks.append((p_id, offset))
            offset += len(p_block)
        return tasks

    def run_scan_task(
        self, task: tuple[int, int], stats: IOStats
    ) -> tuple[np.ndarray, np.ndarray]:
        """One potential block against the whole client file (Algorithm 1's
        inner loop): every client block charged in order, then one kernel
        call; returns the block's ``(potential ids, terms)``."""
        p_id, offset = task
        ws = self.ws
        p_block = ws.potential_file.peek_block(p_id)  # charged at planning
        client_file = ws.client_file
        blocks = client_file.num_blocks
        with stats.tracer.span("ss.client_pass") as sp:
            client_file.charge(range(blocks), stats)
            sp.count("client_blocks", blocks)
            if not blocks:
                return NO_TERMS
            # The blocks just charged, as the columns the file gathered
            # once (the file is read-only while it lives).
            cx, cy, dnn, w = client_file.columns()
            rows, terms = kernels.accumulate_reductions(
                p_block[:, 0], p_block[:, 1], cx, cy, dnn, w
            )
        return offset + rows, terms

    # ------------------------------------------------------------------
    def _compute_distance_reductions(self) -> np.ndarray:
        """The serial path: the same plan/kernel/reduce, run inline."""
        ws = self.ws
        stats = ws.stats
        dr = np.zeros(ws.n_p, dtype=np.float64)
        # Phases: reads of file.P land on "ss.scan" (charged while
        # planning); each potential block's pass over the client file
        # opens its own "ss.client_pass" child span carrying the file.C
        # reads.
        with stats.tracer.span("ss.scan"):
            tasks = self._plan_scan(stats)
            outs = [self.run_scan_task(task, stats) for task in tasks]
            reduce_terms(outs, dr)
        return dr
