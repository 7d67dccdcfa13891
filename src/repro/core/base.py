"""The common interface of all query methods.

Every method follows the solution framework of Section III-B — identify
influence sets, accumulate distance reductions, return the argmax — so
the base class owns the selection/measurement protocol and subclasses
implement a single hook, ``_compute_distance_reductions``.

Design note (DESIGN.md §2): the paper's pseudocode compares partial
``dr`` values against ``optLoc`` inside leaf-level loops, which is
incorrect whenever an influence set spans multiple client leaves; the
methods here accumulate the full ``dr`` vector during the traversal and
take the argmax at the end, preserving the traversal (and hence I/O
pattern) while guaranteeing correctness.
"""

from __future__ import annotations

import time
from abc import ABC, abstractmethod
from typing import TYPE_CHECKING, ClassVar

import numpy as np

from repro.core.types import SelectionResult, Site
from repro.core.workspace import Workspace

if TYPE_CHECKING:
    from repro.core.plan import StageSpec


class LocationSelector(ABC):
    """Abstract base of SS, QVC, NFC and MND."""

    #: Method name as used in the paper's figures.
    name: ClassVar[str] = "?"

    #: How many tasks each stage of a plan is cut into, at most: a
    #: join's plan expands whole levels on the driver until the frontier
    #: holds this many node pairs and cuts it into that many runs, and
    #: SS's scan and both of QVC's stages cut the potential blocks into
    #: that many groups of whole blocks.  The default runs each stage as
    #: one task, as the serial path and a one-worker engine do;
    #: :class:`~repro.exec.QueryEngine` sets it to its worker count.  It
    #: changes neither ``dr`` (each potential's terms are summed
    #: exactly, see :mod:`repro.core.plan`) nor any read count.
    task_target: int = 1

    def __init__(self, workspace: Workspace):
        self.ws = workspace
        self._dr: np.ndarray | None = None

    # ------------------------------------------------------------------
    # Hooks
    # ------------------------------------------------------------------
    @abstractmethod
    def _compute_distance_reductions(self) -> np.ndarray:
        """``dr(p)`` for every potential location (the method's core)."""

    def execution_plan(self) -> list["StageSpec"]:
        """The method's traversal as task-splittable stages.

        Consumed by :mod:`repro.exec`; the serial :meth:`select` path
        does not require it, so auxiliary selectors may leave it
        unimplemented.
        """
        raise NotImplementedError(
            f"{self.name} does not expose a parallel execution plan"
        )

    def prepare(self) -> None:
        """Materialise the structures this method queries.

        Called (implicitly by :meth:`select`, or explicitly by the
        experiment harness) so that index construction never pollutes
        query-time measurements.
        """

    def index_pages(self) -> int:
        """Total index size in pages — the paper's index-size metric."""
        return 0

    # ------------------------------------------------------------------
    # Protocol
    # ------------------------------------------------------------------
    def select(self) -> SelectionResult:
        """Run the query: returns the best potential location with
        measurements (wall time, I/Os, index size)."""
        self.prepare()
        self.ws.reset_stats()
        started = time.perf_counter()
        with self.ws.tracer.span(f"query.{self.name}"):
            dr = self._compute_distance_reductions()
        cpu = time.perf_counter() - started
        self._dr = dr
        best = int(np.argmax(dr))  # ties resolve to the smallest id
        io_total = self.ws.stats.total_reads
        return SelectionResult(
            method=self.name,
            location=self.ws.potentials[best],
            dr=float(dr[best]),
            # Simulated wall time of the paper's disk-based setting: CPU
            # plus one page-read latency per counted I/O.
            elapsed_s=cpu + io_total * self.ws.io_latency_s,
            cpu_s=cpu,
            io_total=io_total,
            io_reads=self.ws.stats.snapshot(),
            index_pages=self.index_pages(),
        )

    def select_topk(self, k: int) -> list[tuple[Site, float]]:
        """The ``k`` best potential locations by distance reduction.

        A natural extension of the query (cf. top-k influential location
        selection, CIKM 2011 [16]); every method supports it for free
        because all of them materialise the full ``dr`` vector.
        """
        if k < 1:
            raise ValueError("k must be >= 1")
        if self._dr is None:
            self.select()
        assert self._dr is not None
        k = min(k, len(self._dr))
        # Sort by (-dr, id) for a deterministic ranking.
        order = np.lexsort((np.arange(len(self._dr)), -self._dr))[:k]
        return [(self.ws.potentials[int(i)], float(self._dr[int(i)])) for i in order]

    def distance_reductions(self) -> np.ndarray:
        """The full ``dr`` vector from the last run (read-only copy)."""
        if self._dr is None:
            self.select()
        assert self._dr is not None
        return self._dr.copy()
