"""Coordinator over real TCP: parity, caching, routing, failure paths.

One module-scoped fleet (two shard servers + a coordinator over a
four-tile partition) backs the happy-path tests; the failure tests boot
their own fleet so killing a shard cannot poison later tests.  The
tests marked ``smoke`` (CI: ``pytest -m smoke tests/shard``) cover
fan-out parity, the coordinator cache and its clock under disjoint and
covering updates, update routing, trace grafting and a shard kill and
rejoin.
"""

from __future__ import annotations

import pytest

from repro.core import METHODS, Workspace
from repro.core.types import fingerprint
from repro.experiments.config import ExperimentConfig
from repro.service import ServiceClient, ServiceConfig, serve_in_thread
from repro.service.client import ClientConnectionError
from repro.service.protocol import (
    BadRequestError,
    ServiceError,
    ShardUnavailableError,
)
from repro.shard.coordinator import (
    ShardCoordinator,
    ShardSpec,
    ShardTopology,
    serve_coordinator_in_thread,
    tile_workspace_name,
)
from repro.shard.executor import assign_tiles, serial_reference
from repro.shard.partition import partition_workspace
from tests.service.test_server import MALFORMED_UPDATES

CONFIG = ExperimentConfig(n_c=400, n_f=30, n_p=40)
N_TILES = 4
N_SHARDS = 2


def start_fleet(partition, groups):
    """Boot shard servers for ``groups`` plus a coordinator over them."""
    shard_handles = []
    for group in groups:
        workspaces = {
            tile_workspace_name(t): partition.tiles[t] for t in group
        }
        shard_handles.append(serve_in_thread(workspaces, ServiceConfig(workers=1)))
    topology = ShardTopology.from_partition(
        partition, [(h.host, h.port) for h in shard_handles]
    )
    coordinator = serve_coordinator_in_thread(topology)
    return shard_handles, coordinator


@pytest.fixture(scope="module")
def partition():
    return partition_workspace(Workspace(CONFIG.instance()), N_TILES)


@pytest.fixture(scope="module")
def expected(partition):
    return {m: fingerprint(serial_reference(partition, m)) for m in METHODS}


@pytest.fixture(scope="module")
def fleet(partition):
    groups = assign_tiles(N_TILES, N_SHARDS)
    shard_handles, coordinator = start_fleet(partition, groups)
    try:
        yield coordinator
    finally:
        coordinator.stop()
        for handle in shard_handles:
            handle.stop()


@pytest.fixture()
def client(fleet):
    with ServiceClient(fleet.host, fleet.port) as c:
        yield c


@pytest.mark.smoke
@pytest.mark.parametrize("method", sorted(METHODS))
def test_tcp_answers_match_the_serial_reference(client, expected, method):
    response = client.select(method, no_cache=True)
    assert fingerprint(response.result) == expected[method]


@pytest.mark.smoke
def test_repeat_select_hits_the_coordinator_cache(client, expected):
    cold = client.select("MND")
    warm = client.select("MND")
    assert warm.cached
    assert fingerprint(warm.result) == expected["MND"]
    assert warm.data_version == cold.data_version


def test_unknown_method_and_workspace_raise_typed_errors(client):
    with pytest.raises(ServiceError) as excinfo:
        client.select("XYZ")
    assert excinfo.value.code == "unknown_method"
    with pytest.raises(ServiceError) as excinfo:
        client.select("MND", workspace="nope")
    assert excinfo.value.code == "unknown_workspace"


def test_shards_never_serve_merged_partials_endpoint(client):
    with pytest.raises(ServiceError) as excinfo:
        client.partials("MND")
    assert excinfo.value.code == "bad_request"


def test_evaluate_merges_per_tile_reports(client, partition):
    reports = client.evaluate([0, 1])
    assert [r["sid"] for r in reports] == [0, 1]
    n_c = sum(t.n_c for t in partition.tiles)
    assert all(r["n_c"] == n_c for r in reports)


@pytest.mark.smoke
def test_update_routes_bumps_version_and_invalidates(client, expected):
    before = client.select("MND")
    added = client.update("add_client", point=[250.0, 250.0])
    assert added["data_version"] == before.data_version + 1
    assert "tile_id" in added
    after = client.select("MND")
    assert not after.cached, "post-update select must miss the cache"
    assert after.data_version == added["data_version"]

    removed = client.update("remove_client", cid=added["cid"])
    assert removed["data_version"] == added["data_version"] + 1
    restored = client.select("MND")
    assert fingerprint(restored.result) == expected["MND"]


def test_remove_unknown_client_is_a_bad_request(client):
    with pytest.raises(ServiceError) as excinfo:
        client.update("remove_client", cid=10**9)
    assert excinfo.value.code == "bad_request"


@pytest.mark.parametrize("bad_cid", [True, 1.0, "1"])
def test_non_integer_cid_is_a_bad_request(client, bad_cid):
    """``True == 1`` in Python: a bool must not route to (or remove)
    client 1."""
    n_c = client.evaluate([0])[0]["n_c"]
    with pytest.raises(BadRequestError, match="integer id"):
        client.update("remove_client", cid=bad_cid)
    assert client.evaluate([0])[0]["n_c"] == n_c


def test_facility_updates_broadcast_to_every_tile(client, expected):
    added = client.update("add_facility", point=[10.0, 10.0])
    assert added["broadcast_tiles"] == N_TILES
    client.update("remove_facility", sid=added["sid"])
    restored = client.select("NFC", no_cache=True)
    assert fingerprint(restored.result) == expected["NFC"]


@pytest.mark.smoke
def test_one_trace_spans_coordinator_and_shards(client):
    client.select("SS", no_cache=True, trace_id="graft-test")
    traces = client.trace(trace_id="graft-test")
    assert traces, "coordinator kept no trace"
    shards = traces[0].get("shards", {})
    assert set(shards) == {"shard-0", "shard-1"}
    for spans in shards.values():
        assert spans, "shard hop recorded no spans"


def test_health_and_stats_report_the_fleet(client):
    health = client.health()
    assert health["status"] == "serving"
    assert health["role"] == "coordinator"
    assert len(health["shards"]) == N_SHARDS
    stats = client.stats()
    assert stats["role"] == "coordinator"
    assert all(s["connected"] for s in stats["shards"].values())


@pytest.mark.smoke
def test_killed_shard_yields_typed_error_then_rejoins(partition):
    groups = assign_tiles(N_TILES, N_SHARDS)
    shard_handles, coordinator = start_fleet(partition, groups)
    try:
        with ServiceClient(coordinator.host, coordinator.port) as client:
            baseline = fingerprint(client.select("SS", no_cache=True).result)

            port0 = shard_handles[0].port
            shard_handles[0].stop()
            with pytest.raises(ShardUnavailableError):
                client.select("SS", no_cache=True, timeout_s=10.0)
            assert client.health()["status"] == "degraded"

            # Same port, fresh server: the lazy links reconnect on the
            # next call with no coordinator restart.
            workspaces = {
                tile_workspace_name(t): partition.tiles[t] for t in groups[0]
            }
            shard_handles[0] = serve_in_thread(
                workspaces, ServiceConfig(workers=1), port=port0
            )
            rejoined = client.select("SS", no_cache=True)
            assert fingerprint(rejoined.result) == baseline
            assert client.health()["status"] == "serving"
    finally:
        coordinator.stop()
        for handle in shard_handles:
            try:
                handle.stop()
            except RuntimeError:
                pass


class TestCidRouting:
    """``_route_cid``: the directory + stride congruence replace the
    old fleet-wide probe for every cid the partition ever issued."""

    def _coordinator(self, partition, **overrides):
        defaults = dict(
            plan=partition.plan,
            potentials=(),
            shards=(
                ShardSpec("shard-0", "127.0.0.1", 1, (0, 1)),
                ShardSpec("shard-1", "127.0.0.1", 2, (2, 3)),
            ),
        )
        defaults.update(overrides)
        # Never started: _route_cid needs only the topology.
        return ShardCoordinator(ShardTopology(**defaults))

    def test_original_cids_route_through_the_directory(self, partition):
        coord = self._coordinator(
            partition, cid_tiles={7: 2, 9: 1}, cid_stride_base=100
        )
        assert coord._route_cid(7) == 2
        assert coord._route_cid(9) == 1

    def test_minted_cids_route_by_stride_congruence(self, partition):
        coord = self._coordinator(partition, cid_tiles={0: 0}, cid_stride_base=100)
        for k in range(2 * N_TILES):
            assert coord._route_cid(100 + k) == k % N_TILES

    def test_never_issued_cid_is_rejected_without_probing(self, partition):
        """Directory + stride together cover every cid ever issued, so
        a cid in neither is terminal at the coordinator."""
        coord = self._coordinator(partition, cid_tiles={7: 2}, cid_stride_base=100)
        with pytest.raises(BadRequestError):
            coord._route_cid(8)

    def test_hand_built_topology_falls_back_to_the_probe(self, partition):
        coord = self._coordinator(partition, cid_tiles=None, cid_stride_base=None)
        assert coord._route_cid(5) is None

    def test_directory_without_stride_defers_unknown_cids(self, partition):
        """No stride base means minted cids are unroutable: a directory
        miss falls back to the probe instead of rejecting."""
        coord = self._coordinator(partition, cid_tiles={7: 2}, cid_stride_base=None)
        assert coord._route_cid(7) == 2
        assert coord._route_cid(99) is None


def test_minted_cid_removal_routes_to_the_owning_tile(client, partition):
    added = client.update("add_client", point=[321.0, 123.0])
    assert added["cid"] >= partition.cid_stride_base
    assert (added["cid"] - partition.cid_stride_base) % N_TILES == added["tile_id"]
    removed = client.update("remove_client", cid=added["cid"])
    assert removed["tile_id"] == added["tile_id"]


def test_original_cid_removal_routes_through_the_directory(client, partition, expected):
    victim = partition.tiles[0].clients[0]
    removed = client.update("remove_client", cid=victim.cid)
    assert removed["tile_id"] == 0
    # Restore the population (the re-added client gets a minted cid, so
    # compare answers, not io fingerprints: insertion order may differ).
    client.update("add_client", point=[victim.x, victim.y], weight=victim.weight)
    restored = client.select("MND", no_cache=True)
    __method, sid, __x, __y, dr, *__io = expected["MND"]
    assert restored.result.dr == dr
    assert restored.result.location.sid == sid


def test_connect_retries_reject_negative_and_bound_attempts():
    with pytest.raises(ValueError):
        ServiceClient("127.0.0.1", 1, connect_retries=-1)
    with pytest.raises(ClientConnectionError) as excinfo:
        ServiceClient("127.0.0.1", 1, connect_timeout_s=0.5)
    assert "1 attempt(s)" in str(excinfo.value)
    with pytest.raises(ClientConnectionError) as excinfo:
        ServiceClient(
            "127.0.0.1", 1, connect_timeout_s=0.5,
            connect_retries=2, retry_delay_s=0.01,
        )
    assert "3 attempt(s)" in str(excinfo.value)


@pytest.mark.parametrize("action, params", MALFORMED_UPDATES)
def test_non_finite_or_malformed_update_numbers_are_bad_requests(
    client, action, params
):
    """Checked at the coordinator, before any tile is routed to."""
    version = client.stats()["data_version"]
    n_c = client.evaluate([0])[0]["n_c"]
    with pytest.raises(BadRequestError, match="finite"):
        client.update(action, **params)
    assert client.stats()["data_version"] == version
    assert client.evaluate([0])[0]["n_c"] == n_c


@pytest.mark.smoke
def test_disjoint_add_client_keeps_the_fleet_select_cache_warm(client, partition):
    """A client arriving exactly on a facility has a one-point NFC that
    covers no potential: the fleet's cached select survives it.  One
    arriving on a potential covers it and retires the cached select."""
    facility = partition.tiles[0].facilities[0]
    potential = partition.potentials[0]
    client.select("MND")
    assert client.select("MND").cached
    before = client.stats()
    disjoint = client.update("add_client", point=[facility.x, facility.y])
    assert disjoint["select_changed"] is False
    warm = client.select("MND")
    assert warm.cached and warm.data_version == disjoint["data_version"]
    covering = client.update("add_client", point=[potential.x, potential.y])
    assert covering["select_changed"] is True
    assert not client.select("MND").cached
    after = client.stats()
    assert after["data_version"] == before["data_version"] + 2
    assert after["select_epoch"] == before["select_epoch"] + 1
    assert after["cache_survival"] > 0.0
    for added in (disjoint, covering):
        client.update("remove_client", cid=added["cid"])


def test_coordinator_clock_scopes_cached_evaluates(client):
    """A facility no client is drawn to changes no evaluate answer: the
    fleet's cached evaluate survives it and reports the new
    ``data_version``.  A client arrival changes ``n_c`` and retires it."""
    client.evaluate([0])
    far = client.update("add_facility", point=[1e9, 1e9])
    assert (far["select_changed"], far["evaluate_changed"]) == (False, False)
    warm = client.call("evaluate", ids=[0])
    assert warm["cached"] is True and warm["data_version"] == far["data_version"]
    added = client.update("add_client", point=[321.0, 654.0])
    assert added["evaluate_changed"] is True
    assert client.call("evaluate", ids=[0])["cached"] is False
    client.update("remove_client", cid=added["cid"])
    client.update("remove_facility", sid=far["sid"])
