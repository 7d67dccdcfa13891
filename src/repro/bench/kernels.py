"""The ``kernels`` benchmark suite: columnar speedup with exactness enforced.

A ladder of configurations, every method, two kernel backends.  As with
the ``parallel`` suite, two things are measured and one is *enforced*:

* **measured** — wall time per (config, method) under the default
  vectorized backend (median of ``repeats``), and one run under the
  scalar loop-per-record backend.  The ratio is recorded as the
  advisory ``speedup`` metric — the honest answer to "what did the
  columnar fast path buy on this machine";
* **enforced** — exactness: for every ladder point the two backends
  must return the identical selected location, aggregate ``dr``, full
  ``dr`` vector (bit for bit), ``io_total`` and per-structure read
  split.  The recorder raises on any deviation, so the vector kernels
  can never drift from the reference semantics and still produce a
  plausible-looking record.

The gate then pins ``io_total`` / ``index_reads`` / ``data_reads`` /
``index_pages`` of every point to the committed ``BENCH_kernels.json``
exactly (backends share one I/O story by construction, so a single
gated row covers both); ``elapsed_s``, ``scalar_elapsed_s`` and
``speedup`` stay advisory.

The suite runs with **zero simulated page latency**: the columnar
kernels accelerate CPU work, so the CPU-bound regime is the one where
the speedup is visible and the paper's I/O counts are unaffected either
way.  The decoded-leaf cache is cleared before every run so each
backend pays its own decode cost.
"""

from __future__ import annotations

import statistics
from typing import Callable, Optional, Sequence

import numpy as np

from repro import kernels
from repro.bench.record import BenchEntry, BenchRecord, environment_fingerprint
from repro.core import Workspace, make_selector
from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import DEFAULT_METHODS

#: The configuration ladder (keyed by |C|; |F| and |P| scale along).
#: Two rungs: one where whole queries finish in milliseconds vectorized,
#: and one deep enough that leaf pages are full and the batch kernels
#: dominate the runtime.
KERNELS_CONFIGS: tuple[ExperimentConfig, ...] = (
    ExperimentConfig(n_c=4_000, n_f=200, n_p=200),
    ExperimentConfig(n_c=8_000, n_f=400, n_p=400),
)

#: Simulated latency per page read: zero, the CPU-bound regime (see
#: module docstring).
KERNELS_IO_LATENCY_S = 0.0

#: The paper-motivated floor asserted by CI on the SS and MND rows of
#: the committed record (see tests/bench/test_kernels_suite.py).
TARGET_SPEEDUP = 3.0


def _run_once(workspace: Workspace, name: str):
    """One cold select: fresh decode, fresh accounting."""
    workspace.invalidate_leaf_cache()
    selector = make_selector(workspace, name)
    result = selector.select()
    return result, selector.distance_reductions()


def run_kernels_suite(
    repeats: int = 3,
    methods: Optional[Sequence[str]] = None,
    progress: Optional[Callable[[str], None]] = None,
    workers: Optional[int] = None,
) -> BenchRecord:
    """Record one execution of the ``kernels`` suite.

    Raises on any vector/scalar divergence (see module docstring).
    """
    if repeats < 1:
        raise ValueError("repeats must be >= 1")
    if workers is not None:
        raise ValueError("suite 'kernels' does not take a worker count")
    chosen = tuple(methods) if methods is not None else DEFAULT_METHODS

    record = BenchRecord(
        suite="kernels",
        repeats=repeats,
        environment=environment_fingerprint(dataset_seed=KERNELS_CONFIGS[0].seed),
    )
    for config in KERNELS_CONFIGS:
        label = config.label()
        workspace = Workspace(config.instance(), io_latency_s=KERNELS_IO_LATENCY_S)
        for name in chosen:
            if progress is not None:
                progress(f"running {label} {name} (vector vs scalar) ...")
            samples: list[float] = []
            result = None
            dr_vector = None
            with kernels.use_backend("vector"):
                for __ in range(repeats):
                    r, dr_vector = _run_once(workspace, name)
                    if result is not None and r.io_total != result.io_total:
                        raise AssertionError(
                            f"{name}: page reads differ across repeats "
                            f"({result.io_total} vs {r.io_total})"
                        )
                    result = r
                    samples.append(r.elapsed_s)
            assert result is not None and dr_vector is not None
            with kernels.use_backend("scalar"):
                scalar_result, scalar_dr_vector = _run_once(workspace, name)

            mismatches = [
                field
                for field, vec, ref in (
                    ("location", result.location.sid, scalar_result.location.sid),
                    ("dr", result.dr, scalar_result.dr),
                    ("io_total", result.io_total, scalar_result.io_total),
                    ("io_reads", dict(result.io_reads), dict(scalar_result.io_reads)),
                )
                if vec != ref
            ]
            if not np.array_equal(dr_vector, scalar_dr_vector):
                mismatches.append("dr_vector")
            if mismatches:
                raise AssertionError(
                    f"{label} {name}: vectorized kernels diverge from the "
                    f"scalar reference on {mismatches} — the columnar fast "
                    "path must be exact"
                )

            elapsed = statistics.median(samples)
            index_reads = sum(
                pages
                for source, pages in result.io_reads.items()
                if source.startswith("R_")
            )
            record.entries.append(
                BenchEntry(
                    config=label,
                    method=name,
                    x=float(config.n_c),
                    metrics={
                        "io_total": float(result.io_total),
                        "index_reads": float(index_reads),
                        "data_reads": float(result.io_total - index_reads),
                        "index_pages": float(result.index_pages),
                        "elapsed_s": elapsed,
                        # Informational (not gated): the scalar twin's
                        # wall time and the resulting columnar speedup.
                        "scalar_elapsed_s": scalar_result.elapsed_s,
                        "speedup": (
                            scalar_result.elapsed_s / elapsed if elapsed > 0 else 0.0
                        ),
                    },
                    io_breakdown=dict(result.io_reads),
                    elapsed_samples=samples,
                )
            )
    return record
