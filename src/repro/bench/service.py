"""The ``service`` benchmark suite: selections served over the wire.

One configuration, every method, measured *through* the query service —
a real :class:`~repro.service.server.QueryService` on an ephemeral TCP
port, driven by :class:`~repro.service.client.ServiceClient`.  Three
facets per method, one enforcement:

* **cold** — the gated facet: a cache-bypassing selection over the
  wire.  Its page reads (``io_total`` / ``index_reads`` /
  ``data_reads`` / ``index_pages``) are fully deterministic given the
  dataset seed and must match the committed baseline exactly; its
  round-trip wall time is recorded as ``elapsed_s`` (tolerance-compared,
  advisory);
* **cached** — the same request repeated: every repeat must be a cache
  hit, and its latency is recorded as ``cached_latency_s``
  (informational — the comparator ignores metric names it does not
  know), alongside ``p50_s`` / ``p99_s`` percentiles of the cache-hit
  round-trips across the whole suite on the ``pipeline`` row;
* **pipeline** — one extra informational row: a pipelined burst of
  cache-bypassing selections across all methods, coalesced by the
  server's micro-batcher, reported as realised ``qps``.

* **enforced** — wire parity: every result that comes back (cold,
  cached, batched) must equal — location, bit-for-bit ``dr``, I/O total
  and per-structure read split — the serial in-process ``select()`` on
  an identically-seeded workspace.  The recorder raises on the first
  deviation, so a framing or caching bug can never produce a
  plausible-looking record.

The gate (``mindist bench compare``) then holds every method's cold
page reads to the committed ``BENCH_service.json`` exactly; the
throughput numbers ride along as history, not policy.
"""

from __future__ import annotations

import statistics
import time
from typing import Callable, Optional, Sequence

from repro.bench.record import BenchEntry, BenchRecord, environment_fingerprint
from repro.core import Workspace, make_selector
from repro.core.types import fingerprint
from repro.experiments.config import ExperimentConfig
from repro.experiments.smoke import SMOKE_METHODS

#: The suite's configuration: ``micro``-sized on purpose — the wire and
#: cache overheads being measured do not grow with the dataset, and the
#: cold page reads gate at any size.
SERVICE_CONFIG = ExperimentConfig(n_c=2_000, n_f=100, n_p=100)

#: Pipelined cache-bypassing selections per method in the burst row.
PIPELINE_ROUNDS = 3

#: Micro-batch window while recording (wide enough that a pipelined
#: burst reliably coalesces on a loaded CI machine).
SERVICE_BATCH_WINDOW_S = 0.02


def run_service_suite(
    repeats: int = 3,
    methods: Optional[Sequence[str]] = None,
    progress: Optional[Callable[[str], None]] = None,
    workers: Optional[int] = None,
) -> BenchRecord:
    """Record one execution of the ``service`` suite.

    ``workers`` sets the engine worker count inside the service (default
    2).  Raises on any wire-parity or cache-behaviour violation (see
    module docstring).
    """
    from repro.service import ServiceClient, ServiceConfig, serve_in_thread

    if repeats < 1:
        raise ValueError("repeats must be >= 1")
    chosen = tuple(methods) if methods is not None else SMOKE_METHODS
    config = SERVICE_CONFIG
    label = config.label()

    # The serial in-process reference every wire answer must equal.
    reference = Workspace(config.instance())
    expected = {
        name: fingerprint(make_selector(reference, name).select())
        for name in chosen
    }

    record = BenchRecord(
        suite="service",
        repeats=repeats,
        environment=environment_fingerprint(dataset_seed=config.seed),
    )
    service_config = ServiceConfig(
        workers=workers if workers is not None else 2,
        batch_window_s=SERVICE_BATCH_WINDOW_S,
    )
    served = Workspace(config.instance())
    cached_samples: list[float] = []
    with serve_in_thread({"default": served}, service_config) as handle:
        with ServiceClient(handle.host, handle.port) as client:
            for name in chosen:
                if progress is not None:
                    progress(f"running {label} {name} over the wire ...")
                # Cold facet: cache-bypassing round trips.
                cold: list[float] = []
                result = None
                for _ in range(repeats):
                    t0 = time.perf_counter()
                    answer = client.select(name, no_cache=True)
                    cold.append(time.perf_counter() - t0)
                    if answer.cached:
                        raise AssertionError(
                            f"{name}: cache-bypassing request claimed a hit"
                        )
                    if fingerprint(answer.result) != expected[name]:
                        raise AssertionError(
                            f"{name}: wire result diverges from the serial "
                            "in-process select() — the service must be "
                            "answer-transparent"
                        )
                    result = answer.result
                assert result is not None
                # Cached facet: prime once, then every repeat must hit.
                client.select(name)
                for _ in range(repeats):
                    t0 = time.perf_counter()
                    answer = client.select(name)
                    cached_samples.append(time.perf_counter() - t0)
                    if not answer.cached:
                        raise AssertionError(
                            f"{name}: repeated request missed the result cache"
                        )
                    if fingerprint(answer.result) != expected[name]:
                        raise AssertionError(
                            f"{name}: cached result diverges from select()"
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
                        x=None,
                        metrics={
                            "io_total": float(result.io_total),
                            "index_reads": float(index_reads),
                            "data_reads": float(result.io_total - index_reads),
                            "index_pages": float(result.index_pages),
                            "elapsed_s": statistics.median(cold),
                            # Informational (not gated): cache-hit latency.
                            "cached_latency_s": statistics.median(
                                cached_samples[-repeats:]
                            ),
                        },
                        io_breakdown=dict(result.io_reads),
                        elapsed_samples=cold,
                    )
                )

            # Pipeline row: a coalesced burst across all methods.
            if progress is not None:
                progress(f"running {label} pipelined burst ...")
            burst = list(chosen) * PIPELINE_ROUNDS
            t0 = time.perf_counter()
            answers = client.select_many(burst, no_cache=True)
            wall_s = time.perf_counter() - t0
            for name, answer in zip(burst, answers):
                if fingerprint(answer.result) != expected[name]:
                    raise AssertionError(
                        f"{name}: batched result diverges from select()"
                    )
            cached_samples.sort()
            p50 = cached_samples[len(cached_samples) // 2]
            p99 = cached_samples[
                min(len(cached_samples) - 1, int(len(cached_samples) * 0.99))
            ]
            record.entries.append(
                BenchEntry(
                    config=label,
                    method="pipeline",
                    x=None,
                    metrics={
                        # All informational: the comparator gates only
                        # the metric names it knows.
                        "requests": float(len(burst)),
                        "wall_s": wall_s,
                        "qps": len(burst) / wall_s if wall_s > 0 else 0.0,
                        "p50_s": p50,
                        "p99_s": p99,
                        "max_batch": float(
                            max(a.batch_size or 1 for a in answers)
                        ),
                    },
                )
            )
    return record
