"""The ``scale`` benchmark suite: the disk workspace at client-count rungs.

A ladder of dataset sizes (the *rungs*: 100K / 500K / 1M clients by
default), every method, run over the persisted workspace of
:mod:`repro.core.diskmode`: columnar leaf and block pages
(:mod:`repro.storage.soa`) served as zero-copy views of one ``mmap``
per file, so a leaf read does no decode work at all.

As with the ``kernels`` suite, two things are measured and one is
*enforced*:

* **measured** — wall time per (rung, method), median of ``repeats``,
  with zero simulated page latency (real wall time is the honest
  metric for CPU work per page);
* **enforced** — exactness: for every (rung, method) the disk workspace
  must return the identical selected location, aggregate ``dr``, full
  ``dr`` vector (bit for bit), ``io_total``, per-structure read split
  and ``index_pages`` as the in-memory reference workspace — serial
  *and* under the engine with two worker threads.  The recorder raises
  on any deviation, so the zero-copy path can never drift from the
  reference semantics and still produce a plausible-looking record.

The gate pins ``io_total`` / ``index_reads`` / ``data_reads`` /
``index_pages`` of every row to the committed ``BENCH_scale.json``
exactly; ``elapsed_s`` stays advisory.  CI runs only the smallest rung
(``--rungs``) and compares in ``--subset`` mode, so the committed full
ladder gates without being re-timed on every push.
"""

from __future__ import annotations

import statistics
import tempfile
from pathlib import Path
from typing import Callable, Optional, Sequence

import numpy as np

from repro.bench.record import BenchEntry, BenchRecord, environment_fingerprint
from repro.core import Workspace, make_selector
from repro.core.diskmode import DiskWorkspace, persist_indexes
from repro.exec.engine import QueryEngine
from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import DEFAULT_METHODS
from repro.storage.stats import IOStats

#: Client-count rungs of the default ladder (|F| and |P| stay fixed so
#: the rungs vary exactly one dimension, like the paper's Fig. 10).
SCALE_RUNGS: tuple[int, ...] = (100_000, 500_000, 1_000_000)

SCALE_N_F = 2_000
SCALE_N_P = 400

#: Zero simulated latency: wall time measures CPU work per page, and
#: page counts are enforced identical to the reference anyway.
SCALE_IO_LATENCY_S = 0.0

#: Engine worker threads for the parallel parity check.
PARITY_WORKERS = 2


def config_for_rung(n_c: int) -> ExperimentConfig:
    """The dataset configuration of one rung."""
    return ExperimentConfig(n_c=n_c, n_f=SCALE_N_F, n_p=SCALE_N_P)


def _run_once(workspace, name: str):
    """One cold select: fresh decode, fresh accounting."""
    workspace.invalidate_leaf_cache()
    selector = make_selector(workspace, name)
    result = selector.select()
    return result, selector.distance_reductions()


def _check_parity(label, name, mode, result, dr, ref, ref_dr):
    mismatches = [
        field
        for field, got, want in (
            ("location", result.location.sid, ref.location.sid),
            ("dr", result.dr, ref.dr),
            ("io_total", result.io_total, ref.io_total),
            ("io_reads", dict(result.io_reads), dict(ref.io_reads)),
            ("index_pages", result.index_pages, ref.index_pages),
        )
        if got != want
    ]
    if dr is not None and not np.array_equal(dr, ref_dr):
        mismatches.append("dr_vector")
    if mismatches:
        raise AssertionError(
            f"{label} {name} [{mode}]: the disk workspace diverges "
            f"from the in-memory reference on {mismatches} — the storage "
            "fast path must be exact"
        )


def run_scale_suite(
    repeats: int = 2,
    methods: Optional[Sequence[str]] = None,
    progress: Optional[Callable[[str], None]] = None,
    workers: Optional[int] = None,
    rungs: Optional[Sequence[int]] = None,
) -> BenchRecord:
    """Record one execution of the ``scale`` suite.

    ``rungs`` overrides the client-count ladder (CI passes the smallest
    rung only).  Raises on any disk/reference divergence.
    """
    if repeats < 1:
        raise ValueError("repeats must be >= 1")
    if workers is not None:
        raise ValueError("suite 'scale' does not take a worker count")
    chosen = tuple(methods) if methods is not None else DEFAULT_METHODS
    ladder = tuple(rungs) if rungs is not None else SCALE_RUNGS
    if not ladder or any(n <= 0 for n in ladder):
        raise ValueError(f"invalid rung ladder {ladder!r}")

    record = BenchRecord(
        suite="scale",
        repeats=repeats,
        environment=environment_fingerprint(
            dataset_seed=config_for_rung(ladder[0]).seed
        ),
    )
    for n_c in ladder:
        config = config_for_rung(n_c)
        label = config.label()
        if progress is not None:
            progress(f"building {label} (n_c={n_c:,}) and persisting ...")
        workspace = Workspace(config.instance(), io_latency_s=SCALE_IO_LATENCY_S)
        with tempfile.TemporaryDirectory(prefix="mindist-scale-") as tmp:
            indexes = persist_indexes(workspace, Path(tmp))
            for name in chosen:
                reference, reference_dr = _run_once(workspace, name)
                if progress is not None:
                    progress(f"running {label} {name} ...")
                with DiskWorkspace(
                    indexes, stats=IOStats(), io_latency_s=SCALE_IO_LATENCY_S
                ) as frozen:
                    samples: list[float] = []
                    result = None
                    for __ in range(repeats):
                        result, dr = _run_once(frozen, name)
                        _check_parity(
                            label, name, "serial", result, dr, reference, reference_dr
                        )
                        samples.append(result.elapsed_s)
                    assert result is not None
                    # The same answer must come back from the engine's
                    # worker pool (one shared mmap under concurrency).
                    frozen.invalidate_leaf_cache()
                    with QueryEngine(
                        frozen, workers=PARITY_WORKERS, executor="thread"
                    ) as engine:
                        parallel = engine.run(name)
                    _check_parity(
                        label,
                        name,
                        f"workers={PARITY_WORKERS}",
                        parallel,
                        None,
                        reference,
                        reference_dr,
                    )
                index_reads = sum(
                    pages
                    for source, pages in result.io_reads.items()
                    if source.startswith("R_")
                )
                record.entries.append(
                    BenchEntry(
                        config=label,
                        method=name,
                        x=float(n_c),
                        metrics={
                            "io_total": float(result.io_total),
                            "index_reads": float(index_reads),
                            "data_reads": float(result.io_total - index_reads),
                            "index_pages": float(result.index_pages),
                            "elapsed_s": statistics.median(samples),
                        },
                        io_breakdown=dict(result.io_reads),
                        elapsed_samples=samples,
                    )
                )
    return record
