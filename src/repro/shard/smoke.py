"""Shard smoke check (run in CI as ``python -m repro.shard.smoke``).

Partitions one dataset into tiles, then drives the whole sharded stack:

1. **executor parity** — for every method, the scatter-gather answer at
   1, 2 and 4 shards (location, the full ``dr`` vector, ``io_total``,
   per-structure reads, ``index_pages``) is byte-identical to the
   serial tile-order reference;
2. **persistence** — partials recomputed from a written-then-reloaded
   partition merge to the same bytes;
3. **coordinator parity** — the same answers through real shard servers
   and a real coordinator over TCP, repeats served from the
   coordinator's cache, and the fan-out grafted under one trace;
4. **update routing** — an ``add_client`` routes to the owning tile,
   bumps the logical ``data_version`` and invalidates the cache; its
   ``remove_client`` restores the original answers exactly;
5. **failure** — killing a shard turns requests into typed
   ``shard_unavailable`` errors (no hang, no partial answer), and a
   restart on the same port rejoins with no coordinator restart.

Exits non-zero on the first violated invariant.
"""

from __future__ import annotations

import sys
import tempfile

from repro.core import METHODS, Workspace
from repro.core.types import fingerprint
from repro.experiments.config import ExperimentConfig
from repro.service import ServiceClient, ServiceConfig, serve_in_thread
from repro.service.protocol import ShardUnavailableError
from repro.shard.coordinator import (
    ShardTopology,
    serve_coordinator_in_thread,
    tile_workspace_name,
)
from repro.shard.executor import (
    ScatterGatherExecutor,
    assign_tiles,
    serial_reference,
)
from repro.shard.partition import (
    load_partition,
    partition_workspace,
    write_partition,
)

SMOKE_CONFIG = ExperimentConfig(n_c=600, n_f=40, n_p=50)
SMOKE_TILES = 4
SMOKE_SHARDS = 2


def check_executor_parity(partition, expected: dict) -> list[str]:
    failures = []
    for method in sorted(METHODS):
        for n_shards in (1, 2, 4):
            result = ScatterGatherExecutor(partition, n_shards=n_shards).run(
                method
            )
            if fingerprint(result) != expected[method]:
                failures.append(
                    f"{method}@k{n_shards}: merged answer differs from the "
                    "serial reference"
                )
    return failures


def check_persistence(partition, directory, expected: dict) -> list[str]:
    from repro.shard.executor import compute_partial
    from repro.shard.merge import merge_partials

    failures = []
    write_partition(partition, directory)
    persisted = load_partition(directory)
    tiles = persisted.load_tiles(mode="dynamic")
    for method in sorted(METHODS):
        partials = [
            compute_partial(tiles[t], t, method) for t in sorted(tiles)
        ]
        merged = merge_partials(partials, persisted.potential_sites())
        if fingerprint(merged) != expected[method]:
            failures.append(
                f"{method}: reloaded partition does not reproduce the "
                "reference bytes"
            )
    return failures


def _start_shards(persisted, groups):
    handles = []
    for group in groups:
        workspaces = {
            tile_workspace_name(t): persisted.load_tile(t, mode="dynamic")
            for t in group
        }
        handles.append(serve_in_thread(workspaces, ServiceConfig(workers=1)))
    return handles


def check_coordinator(persisted, groups, handles, expected: dict) -> list[str]:
    failures: list[str] = []
    topology = ShardTopology.from_partition(
        persisted, [(h.host, h.port) for h in handles]
    )
    coordinator = serve_coordinator_in_thread(topology)
    try:
        with ServiceClient(coordinator.host, coordinator.port) as client:
            # Parity + cache through the real TCP fan-out.
            for method in sorted(METHODS):
                cold = client.select(method)
                if fingerprint(cold.result) != expected[method]:
                    failures.append(
                        f"{method}: coordinator answer differs from reference"
                    )
                if cold.cached:
                    failures.append(f"{method}: first request claimed a hit")
                warm = client.select(method)
                if not warm.cached:
                    failures.append(f"{method}: repeat missed the cache")
                if fingerprint(warm.result) != expected[method]:
                    failures.append(f"{method}: cached answer differs")

            # One trace id spans the coordinator and every shard hop.
            client.select(method="MND", no_cache=True, trace_id="smoke-graft")
            traces = client.trace(trace_id="smoke-graft")
            if not traces or "shards" not in traces[0]:
                failures.append("fan-out did not graft shard traces")

            # Update routing: add bumps the version, remove restores it.
            # Whether the select cache survives is the shard's region
            # clock's call: a mutation whose NFC region covers no
            # potential legitimately keeps serving the cached answer.
            before_version = client.select("MND").data_version
            added = client.update("add_client", point=[250.0, 250.0])
            if added["data_version"] <= before_version:
                failures.append("add_client did not bump data_version")
            stale = client.select("MND")
            if added.get("select_changed", True) and stale.cached:
                failures.append("post-update select served stale cache")
            if not added.get("select_changed", True) and not stale.cached:
                failures.append("disjoint add_client dropped the warm cache")
            client.update("remove_client", cid=added["cid"])
            restored = client.select("MND")
            if fingerprint(restored.result) != expected["MND"]:
                failures.append("remove_client did not restore the answer")

            # Kill one shard: typed failure, no partial answer, no hang.
            port0 = handles[0].port
            handles[0].stop()
            try:
                client.select("SS", no_cache=True, timeout_s=10.0)
                failures.append("lost shard did not fail the request")
            except ShardUnavailableError:
                pass
            health = client.health()
            if health["status"] != "degraded":
                failures.append(
                    f"health with a lost shard is {health['status']!r}, "
                    "expected 'degraded'"
                )

            # Restart on the same port: the fleet rejoins by itself.
            workspaces = {
                tile_workspace_name(t): persisted.load_tile(t, mode="dynamic")
                for t in groups[0]
            }
            handles[0] = serve_in_thread(
                workspaces, ServiceConfig(workers=1), port=port0
            )
            rejoined = client.select("SS", no_cache=True)
            if fingerprint(rejoined.result) != expected["SS"]:
                failures.append("rejoined shard serves different bytes")
    finally:
        coordinator.stop()
    return failures


def main() -> int:
    workspace = Workspace(SMOKE_CONFIG.instance())
    partition = partition_workspace(workspace, SMOKE_TILES)
    expected = {
        m: fingerprint(serial_reference(partition, m)) for m in METHODS
    }
    print(
        f"shard smoke: {SMOKE_TILES} tiles "
        f"({[t.n_c for t in partition.tiles]} clients), "
        f"{len(METHODS)} methods"
    )

    failures: list[str] = []
    failures += check_executor_parity(partition, expected)
    print("shard smoke: executor parity at k=1/2/4 checked")
    with tempfile.TemporaryDirectory() as directory:
        failures += check_persistence(partition, directory, expected)
        print("shard smoke: persisted round-trip checked")
        persisted = load_partition(directory)
        groups = assign_tiles(SMOKE_TILES, SMOKE_SHARDS)
        handles = _start_shards(persisted, groups)
        try:
            failures += check_coordinator(persisted, groups, handles, expected)
        finally:
            for handle in handles:
                try:
                    handle.stop()
                except RuntimeError:
                    pass
    print("shard smoke: coordinator fan-out / failure paths checked")

    if failures:
        for failure in failures:
            print(f"FAIL: {failure}")
        return 1
    print(
        "shard smoke: OK (parity at every shard count, persistence, "
        "coordinator, updates, failure + rejoin all verified)"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
