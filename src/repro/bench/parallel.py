"""The ``parallel`` benchmark suite: the execution engine's scaling.

One configuration, every method, a ladder of worker counts.  Two things
are measured and one thing is *enforced*:

* **measured** — the realised wall time per (method, workers) point and
  the derived speedup over the same engine at one worker.  The engine
  runs with ``realize_latency=True``, i.e. each task sleeps out the
  simulated page-read latency of the reads it performed, so concurrent
  tasks overlap their I/O waits exactly as a disk-bound system would —
  the speedup is genuine wall-clock, not bookkeeping;
* **enforced** — determinism: at every worker count the selected
  location, the full ``dr`` vector (bit for bit), ``io_total`` and the
  per-structure read split must equal the one-worker run.  The recorder
  raises on any deviation, so a scheduling-dependent charge can never
  produce a plausible-looking record.

The gate (``mindist bench compare``) then holds the recorded
``io_total`` / ``index_reads`` / ``data_reads`` of every point to the
committed baseline exactly — worker count is part of the entry key
(``method@wN``), so a change that makes parallel I/O drift from serial
I/O fails CI even if both drift together.

The configuration is larger than the ``micro`` suite's (the client
trees must be deep enough that the join frontier leaves real I/O inside
the tasks) and the simulated latency is raised to 3 ms/page so the
I/O-bound regime — the one the engine accelerates — dominates the
single-CPU Python overhead.
"""

from __future__ import annotations

import statistics
from typing import Callable, Optional, Sequence

import numpy as np

from repro.bench.record import BenchEntry, BenchRecord, environment_fingerprint
from repro.core import Workspace, make_selector
from repro.exec import QueryEngine
from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import DEFAULT_METHODS
from repro.obs import InMemorySink, Tracer, phase_breakdown

#: The suite's configuration: deep enough client trees (height 3 at the
#: default page size) that the join methods' frontier tasks carry most
#: of the traversal I/O.
PARALLEL_CONFIG = ExperimentConfig(n_c=15_000, n_f=750, n_p=750)

#: Simulated latency per page read while recording this suite (the
#: workspace default is 1 ms; see module docstring).
PARALLEL_IO_LATENCY_S = 3e-3

#: Frontier size the engine aims for; fixed here so the recorded float
#: groupings and trace shapes are stable across machines.
PARALLEL_TASK_TARGET = 16

#: Worker counts measured by default.
DEFAULT_WORKER_LADDER = (1, 2, 4)


def worker_ladder(max_workers: Optional[int]) -> tuple[int, ...]:
    """Powers of two up to ``max_workers`` (always including it)."""
    if max_workers is None:
        return DEFAULT_WORKER_LADDER
    if max_workers < 1:
        raise ValueError("workers must be >= 1")
    ladder = []
    w = 1
    while w < max_workers:
        ladder.append(w)
        w *= 2
    ladder.append(max_workers)
    return tuple(ladder)


def run_parallel_suite(
    repeats: int = 3,
    methods: Optional[Sequence[str]] = None,
    progress: Optional[Callable[[str], None]] = None,
    workers: Optional[int] = None,
) -> BenchRecord:
    """Record one execution of the ``parallel`` suite.

    ``workers`` stretches the ladder (e.g. 8 measures 1/2/4/8); the
    default ladder is :data:`DEFAULT_WORKER_LADDER`.  Raises on any
    determinism violation (see module docstring).
    """
    if repeats < 1:
        raise ValueError("repeats must be >= 1")
    chosen = tuple(methods) if methods is not None else DEFAULT_METHODS
    ladder = worker_ladder(workers)
    config = PARALLEL_CONFIG
    label = config.label()

    record = BenchRecord(
        suite="parallel",
        repeats=repeats,
        environment=environment_fingerprint(dataset_seed=config.seed),
    )
    workspace = Workspace(config.instance(), io_latency_s=PARALLEL_IO_LATENCY_S)
    engines = {
        w: QueryEngine(
            workspace,
            workers=w,
            executor="thread",
            realize_latency=True,
            task_target=PARALLEL_TASK_TARGET,
        )
        for w in ladder
    }
    try:
        for name in chosen:
            reference = None  # the one-worker point every ladder step must match
            base_elapsed = None
            for w in ladder:
                if progress is not None:
                    progress(f"running {label} {name} workers={w} ...")
                engine = engines[w]
                selector = make_selector(workspace, name)
                samples: list[float] = []
                result = None
                for __ in range(repeats):
                    r = engine.run(selector)
                    if result is not None and r.io_total != result.io_total:
                        raise AssertionError(
                            f"{name}@w{w}: page reads differ across repeats "
                            f"({result.io_total} vs {r.io_total})"
                        )
                    result = r
                    samples.append(r.elapsed_s)
                assert result is not None
                dr_vector = selector.distance_reductions()
                point = {
                    "location": result.location.sid,
                    "dr": result.dr,
                    "io_total": result.io_total,
                    "io_reads": dict(result.io_reads),
                }
                if reference is None:
                    reference = point
                    reference["dr_vector"] = dr_vector
                else:
                    mismatches = [
                        k
                        for k in ("location", "dr", "io_total", "io_reads")
                        if point[k] != reference[k]
                    ]
                    dr_matches = np.array_equal(dr_vector, reference["dr_vector"])
                    if mismatches or not dr_matches:
                        raise AssertionError(
                            f"{name}@w{w} diverges from the one-worker run "
                            f"on {mismatches or ['dr_vector']} — parallel "
                            "execution must be deterministic"
                        )
                # One additional profiled run for the per-phase breakdown
                # (kept out of the timing samples).
                sink = InMemorySink()
                workspace.attach_tracer(Tracer([sink]))
                try:
                    profiled = engine.run(selector)
                finally:
                    workspace.detach_tracer()
                assert sink.last is not None
                phases = phase_breakdown(sink.last)
                phase_reads = int(sum(row["page_reads"] for row in phases.values()))
                if phase_reads != profiled.io_total:
                    raise AssertionError(
                        f"{name}@w{w}: phase reads {phase_reads} != "
                        f"I/O total {profiled.io_total}"
                    )
                elapsed = statistics.median(samples)
                if w == ladder[0]:
                    base_elapsed = elapsed
                index_reads = sum(
                    pages
                    for source, pages in result.io_reads.items()
                    if source.startswith("R_")
                )
                record.entries.append(
                    BenchEntry(
                        config=label,
                        method=f"{name}@w{w}",
                        x=float(w),
                        metrics={
                            "io_total": float(result.io_total),
                            "index_reads": float(index_reads),
                            "data_reads": float(result.io_total - index_reads),
                            "index_pages": float(result.index_pages),
                            "elapsed_s": elapsed,
                            # Informational (not gated): wall-clock gain
                            # over the same engine at the ladder's base.
                            "speedup": base_elapsed / elapsed if elapsed > 0 else 0.0,
                        },
                        io_breakdown=dict(result.io_reads),
                        phases=phases,
                        elapsed_samples=samples,
                    )
                )
    finally:
        for engine in engines.values():
            engine.close()
    return record
