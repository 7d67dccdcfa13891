"""The ``shard`` benchmark suite: scatter-gather at a shard ladder.

One partitioned configuration, every method, at 1 / 2 / 4 shards —
the unit of measurement is the shard count, so entries are named
``METHOD@kN`` (the convention the ``parallel`` suite established for
worker counts).  Per entry:

* **gated** — ``io_total`` / ``index_reads`` / ``data_reads`` /
  ``index_pages``: the sum of the per-tile page reads, identical at
  every shard count by construction (the tiles are the same; only their
  placement changes) and deterministic given the dataset seed, so the
  comparator holds them to the committed baseline exactly;
* **advisory** — ``elapsed_s``: the median scatter-gather wall time
  (tolerance-compared, like every wall time in the gate);
* **enforced at record time** — the merged answer at every shard count
  (location, the *full* ``dr`` vector bit for bit, I/O total,
  per-structure read split) must equal the serial tile-order reference;
  the recorder raises on the first deviation, so a merge-order bug can
  never produce a plausible-looking record.

One extra informational ``coordinator`` row then drives the same
partition through real shard servers and a real
:class:`~repro.shard.coordinator.ShardCoordinator` over TCP — every
wire answer held to the same reference — and reports the fan-out
round-trip time.
"""

from __future__ import annotations

import statistics
import time
from typing import Callable, Optional, Sequence

import numpy as np

from repro.bench.record import BenchEntry, BenchRecord, environment_fingerprint
from repro.core import Workspace
from repro.core.types import fingerprint
from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import DEFAULT_METHODS

#: The suite's configuration: ``micro``-sized on purpose — merge-order
#: determinism and the per-tile page-read sums gate at any size, and the
#: four-method ladder re-runs every tile once per shard count.
SHARD_CONFIG = ExperimentConfig(n_c=2_000, n_f=100, n_p=100)

#: Fixed tile count — independent of the shard ladder, which is the
#: whole point: K only changes tile placement, never tile content.
SHARD_TILES = 4

#: The shard counts measured (every divisor-ish rung of the tile count).
SHARD_LADDER = (1, 2, 4)


def run_shard_suite(
    repeats: int = 3,
    methods: Optional[Sequence[str]] = None,
    progress: Optional[Callable[[str], None]] = None,
    workers: Optional[int] = None,
) -> BenchRecord:
    """Record one execution of the ``shard`` suite.

    ``workers`` sets the per-shard engine worker count (default 1; the
    determinism contract makes the merged answer independent of it).
    Raises on any parity violation (see module docstring).
    """
    from repro.service import ServiceClient, ServiceConfig, serve_in_thread
    from repro.shard.coordinator import (
        ShardSpec,
        ShardTopology,
        serve_coordinator_in_thread,
        tile_workspace_name,
    )
    from repro.shard.executor import (
        ScatterGatherExecutor,
        assign_tiles,
        serial_reference,
    )
    from repro.shard.merge import merged_distance_reductions
    from repro.shard.partition import partition_workspace

    if repeats < 1:
        raise ValueError("repeats must be >= 1")
    chosen = tuple(methods) if methods is not None else DEFAULT_METHODS
    config = SHARD_CONFIG
    label = config.label()
    per_shard_workers = workers if workers is not None else 1

    workspace = Workspace(config.instance())
    partition = partition_workspace(workspace, SHARD_TILES)

    # The serial tile-order reference every shard count must reproduce.
    expected: dict[str, tuple] = {}
    expected_dr: dict[str, np.ndarray] = {}
    for name in chosen:
        reference = serial_reference(
            partition, name, workers=per_shard_workers
        )
        expected[name] = fingerprint(reference)
        executor = ScatterGatherExecutor(
            partition, n_shards=1, workers_per_shard=per_shard_workers
        )
        expected_dr[name] = merged_distance_reductions(executor.scatter(name))

    record = BenchRecord(
        suite="shard",
        repeats=repeats,
        environment=environment_fingerprint(dataset_seed=config.seed),
    )
    for name in chosen:
        for n_shards in SHARD_LADDER:
            if progress is not None:
                progress(f"running {label} {name} at k={n_shards} ...")
            executor = ScatterGatherExecutor(
                partition,
                n_shards=n_shards,
                workers_per_shard=per_shard_workers,
            )
            samples: list[float] = []
            result = None
            for _ in range(repeats):
                t0 = time.perf_counter()
                partials = executor.scatter(name)
                merged = executor.run(name)
                samples.append(time.perf_counter() - t0)
                if fingerprint(merged) != expected[name]:
                    raise AssertionError(
                        f"{name}@k{n_shards}: merged answer diverges from "
                        "the serial tile-order reference — the shard merge "
                        "must be answer-transparent"
                    )
                dr = merged_distance_reductions(partials)
                if not np.array_equal(dr, expected_dr[name]):
                    raise AssertionError(
                        f"{name}@k{n_shards}: merged dr vector is not "
                        "byte-identical to the serial reference"
                    )
                result = merged
            assert result is not None
            index_reads = sum(
                pages
                for source, pages in result.io_reads.items()
                if source.startswith("R_")
            )
            record.entries.append(
                BenchEntry(
                    config=label,
                    method=f"{name}@k{n_shards}",
                    x=float(n_shards),
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

    # Informational row: the same answers through a real coordinator.
    if progress is not None:
        progress(f"running {label} TCP coordinator pass ...")
    groups = assign_tiles(SHARD_TILES, 2)
    handles = []
    try:
        for group in groups:
            workspaces = {
                tile_workspace_name(t): partition.tiles[t] for t in group
            }
            handles.append(
                serve_in_thread(
                    workspaces, ServiceConfig(workers=per_shard_workers)
                )
            )
        topology = ShardTopology(
            plan=partition.plan,
            potentials=tuple(partition.potentials),
            shards=tuple(
                ShardSpec(f"shard-{i}", handle.host, handle.port, group)
                for i, (group, handle) in enumerate(zip(groups, handles))
            ),
        )
        coordinator = serve_coordinator_in_thread(topology)
        try:
            with ServiceClient(coordinator.host, coordinator.port) as client:
                t0 = time.perf_counter()
                for name in chosen:
                    answer = client.select(name, no_cache=True)
                    if fingerprint(answer.result) != expected[name]:
                        raise AssertionError(
                            f"{name}: coordinator wire answer diverges from "
                            "the serial tile-order reference"
                        )
                wall_s = time.perf_counter() - t0
        finally:
            coordinator.stop()
    finally:
        for handle in handles:
            handle.stop()
    record.entries.append(
        BenchEntry(
            config=label,
            method="coordinator",
            x=None,
            metrics={
                # All informational: the comparator gates only the
                # metric names it knows.
                "requests": float(len(chosen)),
                "wall_s": wall_s,
                "qps": len(chosen) / wall_s if wall_s > 0 else 0.0,
                "shards": 2.0,
                "tiles": float(SHARD_TILES),
            },
        )
    )
    return record
