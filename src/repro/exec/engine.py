"""The parallel batched query-execution engine.

:class:`QueryEngine` runs any :class:`~repro.core.base.LocationSelector`
that exposes an :meth:`execution_plan` — a list of
:class:`~repro.core.plan.StageSpec` stages, each splitting one traversal
into independent tasks — on a thread or process pool, with I/O
accounting that is **deterministic by construction**:

* the *plan* runs on the driver and charges exactly the page reads the
  serial traversal performs above the tasks (for a join, the whole
  levels it expands before cutting the frontier into tasks; for SS and
  QVC, the potential-file blocks it cuts into groups);
* every *task* records into a private
  :class:`~repro.storage.stats.IOStats` (and, when tracing, a private
  :class:`~repro.obs.trace.Tracer`), so concurrent tasks never contend
  on — or interleave within — shared counters;
* the driver folds the per-task partials back **in task order** (a
  stable reduction).  Page counts are integers, so the folded totals
  equal the serial totals at any worker count; the ``dr`` partials are
  each task's influence terms, and every ``dr[p]`` is the correctly
  rounded sum of its terms (:func:`repro.core.plan.reduce_terms`),
  which no grouping or scheduling can move.

Simulated-latency realisation: with ``realize_latency=True`` each task
sleeps ``reads x io_latency_s`` *inside its worker*, so wall-clock time
behaves like the paper's disk-bound setting — concurrent tasks overlap
their I/O waits and the measured speedup is genuine, even on a single
CPU.  With the default ``realize_latency=False`` the engine reports the
same modelled ``elapsed_s`` as the serial path (wall CPU + latency per
counted read).
"""

from __future__ import annotations

import multiprocessing
import time
from concurrent.futures import Executor, ProcessPoolExecutor, ThreadPoolExecutor
from typing import Mapping, Optional, Sequence, Union

import numpy as np

from repro.core.base import LocationSelector
from repro.core.plan import StageSpec
from repro.core.registry import METHODS, make_selector
from repro.core.types import SelectionResult
from repro.exec.workers import _set_fork_workspace, run_stage_task
from repro.obs.trace import NOOP_TRACER, Span, Tracer
from repro.storage.stats import IOStats

MethodLike = Union[str, LocationSelector]


class QueryEngine:
    """Runs selection queries over one workspace on a worker pool.

    Parameters
    ----------
    workspace:
        The workspace all queries share.
    workers:
        Pool size; ``1`` runs every task inline on the driver, which is
        exactly the serial traversal.
    executor:
        ``"thread"`` (default) or ``"process"``.  Threads share the
        in-memory pagers directly; processes inherit them by forking
        (Linux/macOS ``fork`` start method) and return picklable
        partials.
    realize_latency:
        Sleep out each task's simulated page-read latency inside its
        worker (see module docstring).
    task_target:
        The :attr:`LocationSelector.task_target` of every query this
        engine runs: how many tasks each stage of a plan is cut into
        (a join's frontier, SS's and QVC's potential blocks).  Defaults
        to ``workers``, one task per worker.  No answer bit or read
        count depends on it.
    """

    def __init__(
        self,
        workspace,
        workers: int = 1,
        executor: str = "thread",
        realize_latency: bool = False,
        task_target: Optional[int] = None,
    ):
        if workers < 1:
            raise ValueError("workers must be >= 1")
        if executor not in ("thread", "process"):
            raise ValueError(
                f"unknown executor {executor!r}; expected 'thread' or 'process'"
            )
        if task_target is not None and task_target < 1:
            raise ValueError("task_target must be >= 1")
        self.ws = workspace
        self.workers = workers
        self.executor = executor
        self.realize_latency = realize_latency
        self.task_target = workers if task_target is None else task_target
        self._pool: Optional[Executor] = None

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Shut the worker pool down (idempotent)."""
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None

    def __enter__(self) -> "QueryEngine":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    def _get_pool(self) -> Executor:
        if self._pool is None:
            if self.executor == "thread":
                self._pool = ThreadPoolExecutor(
                    max_workers=self.workers, thread_name_prefix="repro-exec"
                )
            else:
                if "fork" not in multiprocessing.get_all_start_methods():
                    raise RuntimeError(
                        "the process executor needs the fork start method "
                        "(workers inherit the in-memory workspace); use "
                        "executor='thread' on this platform"
                    )
                _set_fork_workspace(self.ws)
                self._pool = ProcessPoolExecutor(
                    max_workers=self.workers,
                    mp_context=multiprocessing.get_context("fork"),
                )
        return self._pool

    # ------------------------------------------------------------------
    # Single-query API
    # ------------------------------------------------------------------
    def _resolve(self, method: MethodLike) -> LocationSelector:
        if isinstance(method, LocationSelector):
            if method.ws is not self.ws:
                raise ValueError(
                    "selector belongs to a different workspace than the engine"
                )
            selector = method
        else:
            selector = make_selector(self.ws, method)
        selector.task_target = self.task_target
        return selector

    def run(
        self,
        method: MethodLike,
        tags: Optional[Mapping[str, str]] = None,
    ) -> SelectionResult:
        """Answer one query; the parallel counterpart of ``select()``.

        Resets the workspace's shared I/O counters (like ``select()``)
        and produces the identical location, ``dr`` value and I/O
        accounting at any worker count.  ``tags`` (e.g. a service
        ``trace_id``) are stamped onto the query root span and every
        per-task span when a tracer is attached; they never influence
        execution or accounting.
        """
        selector = self._resolve(method)
        selector.prepare()
        if self.workers > 1:
            self._get_pool()  # fork (if process mode) after structures exist
        ws = self.ws
        ws.reset_stats()
        started = time.perf_counter()
        with ws.tracer.span(f"query.{selector.name}") as root:
            if tags and ws.tracer.enabled:
                root.attrs.update(tags)
            dr = self._execute(selector, ws.stats, ws.tracer, tags)
        wall = time.perf_counter() - started
        return self._package(selector, dr, ws.stats, wall)

    def run_batch(
        self,
        queries: Sequence[MethodLike],
        tags: Optional[Sequence[Optional[Mapping[str, str]]]] = None,
    ) -> list[SelectionResult]:
        """Answer many queries concurrently over the shared workspace.

        Every query gets a *private* I/O accounting and trace (the
        workspace's shared counters are left untouched), so each result
        reports exactly what that query would have cost alone; the
        queries' tasks share one worker pool.  Results come back in
        input order, and — when a tracer is attached — each query's
        span tree is emitted to the workspace tracer's sinks in input
        order as well.  ``tags`` optionally supplies one attribute
        mapping per query (``None`` entries allowed), stamped onto that
        query's root and per-task spans — how the service correlates a
        batch's span trees back to individual requests.
        """
        if tags is not None and len(tags) != len(queries):
            raise ValueError(
                f"tags must match queries: got {len(tags)} for {len(queries)}"
            )
        selectors = [self._resolve(q) for q in queries]
        for selector in selectors:  # build structures before fork/threads
            selector.prepare()
        if self.workers > 1:
            self._get_pool()
        results: list[Optional[SelectionResult]] = [None] * len(selectors)
        roots: list[Optional[Span]] = [None] * len(selectors)
        traced = self.ws.tracer.enabled

        def _drive(i: int) -> None:
            selector = selectors[i]
            qtags = tags[i] if tags is not None else None
            qstats = IOStats()
            qtracer: Tracer | None = None
            if traced:
                qtracer = Tracer()  # sinkless: the root is adopted later
                qstats.bind_tracer(qtracer)
            started = time.perf_counter()
            if qtracer is not None:
                with qtracer.span(f"query.{selector.name}") as root:
                    if qtags:
                        root.attrs.update(qtags)
                    dr = self._execute(selector, qstats, qtracer, qtags)
                roots[i] = root
            else:
                dr = self._execute(selector, qstats, NOOP_TRACER, qtags)
            wall = time.perf_counter() - started
            results[i] = self._package(selector, dr, qstats, wall)

        if len(selectors) > 1 and self.workers > 1:
            with ThreadPoolExecutor(
                max_workers=min(len(selectors), self.workers),
                thread_name_prefix="repro-exec-batch",
            ) as drivers:
                list(drivers.map(_drive, range(len(selectors))))
        else:
            for i in range(len(selectors)):
                _drive(i)
        for root in roots:
            if root is not None:
                self.ws.tracer.adopt(root)
        return [r for r in results if r is not None]

    # ------------------------------------------------------------------
    # Execution core
    # ------------------------------------------------------------------
    def _package(
        self,
        selector: LocationSelector,
        dr: np.ndarray,
        stats: IOStats,
        wall: float,
    ) -> SelectionResult:
        selector._dr = dr  # select_topk / distance_reductions keep working
        best = int(np.argmax(dr))
        io_total = stats.total_reads
        modelled_io = io_total * self.ws.io_latency_s
        if self.realize_latency:
            elapsed = wall  # I/O waits already happened (overlapped)
            cpu = max(0.0, wall - modelled_io)
        else:
            elapsed = wall + modelled_io
            cpu = wall
        return SelectionResult(
            method=selector.name,
            location=self.ws.potentials[best],
            dr=float(dr[best]),
            elapsed_s=elapsed,
            cpu_s=cpu,
            io_total=io_total,
            io_reads=stats.snapshot(),
            index_pages=selector.index_pages(),
        )

    def _execute(
        self,
        selector: LocationSelector,
        stats: IOStats,
        tracer,
        tags: Optional[Mapping[str, str]] = None,
    ) -> np.ndarray:
        dr = np.zeros(self.ws.n_p, dtype=np.float64)
        latency = self.ws.io_latency_s if self.realize_latency else 0.0
        carry: object = None
        for stage_index, stage in enumerate(selector.execution_plan()):
            with tracer.span(stage.name):
                before = stats.total_reads
                tasks = stage.plan(stats, carry)
                if latency:
                    # The driver performs the pre-fanout reads itself.
                    time.sleep((stats.total_reads - before) * latency)
                outs = self._run_tasks(
                    selector, stage_index, stage, tasks, stats, tracer, latency, tags
                )
                carry = stage.reduce(outs, dr) if stage.reduce is not None else None
        return dr

    def _run_tasks(
        self,
        selector: LocationSelector,
        stage_index: int,
        stage: StageSpec,
        tasks: list,
        stats: IOStats,
        tracer,
        latency: float,
        tags: Optional[Mapping[str, str]] = None,
    ) -> list:
        if not tasks:
            return []
        if self.workers <= 1 or len(tasks) == 1:
            # Inline on the driver: literally the serial traversal (same
            # stats, same tracer, same order).
            kernel = getattr(selector, stage.kernel)
            outs = []
            for task in tasks:
                before = stats.total_reads
                outs.append(kernel(task, stats))
                if latency:
                    time.sleep((stats.total_reads - before) * latency)
            return outs
        if self.executor == "thread":
            return self._run_threaded(
                selector, stage, tasks, stats, tracer, latency, tags
            )
        return self._run_forked(
            selector, stage_index, stage, tasks, stats, tracer, latency, tags
        )

    def _run_threaded(
        self,
        selector: LocationSelector,
        stage: StageSpec,
        tasks: list,
        stats: IOStats,
        tracer,
        latency: float,
        tags: Optional[Mapping[str, str]] = None,
    ) -> list:
        kernel = getattr(selector, stage.kernel)
        traced = tracer.enabled

        def _one(task):
            tstats = IOStats()
            span: Optional[Span] = None
            if traced:
                ttracer = Tracer()  # private: no span stack is shared
                tstats.bind_tracer(ttracer)
                with ttracer.span(f"{stage.name}.task") as sp:
                    out = kernel(task, tstats)
                span = sp
            else:
                out = kernel(task, tstats)
            if latency:
                time.sleep(tstats.total_reads * latency)
            return out, tstats, span

        # map() preserves task order; the fold below is therefore a
        # stable reduction no matter how the pool interleaved the work.
        results = list(self._get_pool().map(_one, tasks))
        outs = []
        for out, tstats, span in results:
            stats.merge(tstats)
            if span is not None:
                if tags:
                    span.attrs.update(tags)
                tracer.adopt(span)
            outs.append(out)
        return outs

    def _run_forked(
        self,
        selector: LocationSelector,
        stage_index: int,
        stage: StageSpec,
        tasks: list,
        stats: IOStats,
        tracer,
        latency: float,
        tags: Optional[Mapping[str, str]] = None,
    ) -> list:
        if selector.name.upper() not in METHODS:
            raise ValueError(
                f"the process executor reconstructs selectors by registry "
                f"name; {selector.name!r} is not a registered method"
            )
        traced = tracer.enabled
        payloads = [
            (selector.name, stage_index, task, traced, latency) for task in tasks
        ]
        results = list(self._get_pool().map(run_stage_task, payloads))
        outs = []
        for out, reads, writes, span_dict in results:
            stats.merge_counts(reads, writes)
            if span_dict is not None:
                span = Span.from_dict(span_dict)
                if tags:  # stamped driver-side: workers stay tag-agnostic
                    span.attrs.update(tags)
                tracer.adopt(span)
            outs.append(out)
        return outs


# ----------------------------------------------------------------------
# Module-level convenience API
# ----------------------------------------------------------------------
def run_query(
    workspace,
    method: MethodLike,
    workers: int = 1,
    executor: str = "thread",
    realize_latency: bool = False,
    task_target: Optional[int] = None,
) -> SelectionResult:
    """One query through a throwaway engine (pool torn down after)."""
    with QueryEngine(
        workspace,
        workers=workers,
        executor=executor,
        realize_latency=realize_latency,
        task_target=task_target,
    ) as engine:
        return engine.run(method)


def run_batch(
    workspace,
    queries: Sequence[MethodLike],
    workers: int = 1,
    executor: str = "thread",
    realize_latency: bool = False,
    task_target: Optional[int] = None,
) -> list[SelectionResult]:
    """Many queries over one workspace through a shared throwaway pool."""
    with QueryEngine(
        workspace,
        workers=workers,
        executor=executor,
        realize_latency=realize_latency,
        task_target=task_target,
    ) as engine:
        return engine.run_batch(queries)
