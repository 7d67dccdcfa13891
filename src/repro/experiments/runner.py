"""Running methods over configurations.

``run_config`` materialises one dataset, builds the shared workspace,
prepares each requested method's indexes *outside* the measured window,
runs the queries, and cross-checks that every method returned the same
answer (they answer the same well-defined query; disagreement would be
a bug, and the harness refuses to report numbers for wrong answers).

With ``repeats > 1`` each method's query is executed several times on
the same prepared workspace: the reported wall time is the median of
the repeats (noise smoothing for the benchmark recorder) while the
page-read counts — which are fully deterministic given a dataset — are
required to be identical across repeats.  A mismatch means some state
leaked between runs (stats not reset, index mutated) and
raises instead of reporting an unreproducible number.
"""

from __future__ import annotations

import math
import statistics
from typing import Optional, Sequence

from repro.core import METHODS, Workspace, make_selector
from repro.experiments.config import ExperimentConfig
from repro.experiments.metrics import MeasuredRun
from repro.obs import InMemorySink, Tracer, phase_breakdown

DEFAULT_METHODS: tuple[str, ...] = ("SS", "QVC", "NFC", "MND")


def run_config(
    config: ExperimentConfig,
    methods: Sequence[str] = DEFAULT_METHODS,
    x: Optional[float] = None,
    workspace: Optional[Workspace] = None,
    profile: bool = True,
    repeats: int = 1,
) -> list[MeasuredRun]:
    """Run ``methods`` on one configuration; returns their measurements.

    ``x`` tags the runs with the swept parameter value (for sweeps);
    ``workspace`` lets callers reuse an already-built workspace.  With
    ``profile`` (the default) each run executes under a tracer and its
    row carries the per-phase time/IO breakdown; pass False to measure
    with instrumentation fully in no-op mode.  ``repeats`` re-runs each
    method's query and reports the median wall time (see module
    docstring for the determinism contract on page reads).
    """
    unknown = [m for m in methods if m.upper() not in METHODS]
    if unknown:
        raise ValueError(f"unknown methods: {unknown}")
    if repeats < 1:
        raise ValueError("repeats must be >= 1")
    ws = workspace if workspace is not None else Workspace(config.instance())

    results = []
    samples_by_method: dict[str, list[float]] = {}
    phases_by_method: dict[str, dict[str, dict[str, float]]] = {}
    for name in methods:
        selector = make_selector(ws, name)
        selector.prepare()
        result = None
        samples: list[float] = []
        for _ in range(repeats):
            if profile:
                sink = InMemorySink()
                ws.attach_tracer(Tracer([sink]))
                try:
                    r = selector.select()
                finally:
                    ws.detach_tracer()
                if sink.last is not None:
                    phases_by_method[name] = phase_breakdown(sink.last)
            else:
                r = selector.select()
            if result is not None and r.io_total != result.io_total:
                raise AssertionError(
                    f"{name}: page reads differ across repeats on "
                    f"{config.label()}: {result.io_total} vs {r.io_total} "
                    "(I/O must be deterministic)"
                )
            result = r
            samples.append(r.elapsed_s)
        results.append((name, result))
        samples_by_method[name] = samples

    # Consistency gate: all methods must report the same optimum value.
    drs = [r.dr for __, r in results]
    if drs and (max(drs) - min(drs)) > 1e-6 * max(1.0, max(drs)):
        raise AssertionError(
            f"methods disagree on {config.label()}: "
            + ", ".join(f"{n}={r.dr:.6f}" for n, r in results)
        )

    label = config.label()
    return [
        MeasuredRun(
            config_label=label,
            method=name,
            x=float(x) if x is not None else math.nan,
            elapsed_s=statistics.median(samples_by_method[name]),
            io_total=r.io_total,
            index_pages=r.index_pages,
            dr=r.dr,
            location_id=r.location.sid,
            io_breakdown=dict(r.io_reads),
            phases=phases_by_method.get(name, {}),
            elapsed_samples=list(samples_by_method[name]),
        )
        for name, r in results
    ]
