"""Partitioner invariants: determinism, routing, identity, persistence.

The partitioner's contract is structural: a fixed tile count, every
client in exactly one tile, global client identity (cid, weight and the
bit-exact ``dnn``) preserved, and a pure-computation router that agrees
with the assignment.  Everything here must hold for both schemes.
"""

from __future__ import annotations

import json
import math

import pytest

from repro.core import Workspace, make_selector
from repro.core.types import fingerprint
from repro.experiments.config import ExperimentConfig
from repro.shard.partition import (
    PersistedPartition,
    load_partition,
    partition_workspace,
    write_partition,
)

CONFIG = ExperimentConfig(n_c=400, n_f=30, n_p=40)


@pytest.fixture(scope="module")
def workspace() -> Workspace:
    return Workspace(CONFIG.instance())


@pytest.fixture(scope="module", params=["str", "grid"])
def scheme(request) -> str:
    return request.param


def test_every_client_lands_in_exactly_one_tile(workspace, scheme):
    partition = partition_workspace(workspace, 4, scheme=scheme)
    parent_cids = {c.cid for c in workspace.clients}
    seen: set[int] = set()
    for tile in partition.tiles:
        for client in tile.clients:
            assert client.cid not in seen, "client assigned to two tiles"
            seen.add(client.cid)
    assert seen == parent_cids


def test_tiles_are_non_empty_and_cover_all_clients(workspace, scheme):
    # STR guarantees exactly n_tiles; grid keeps the non-empty cells of
    # a ceil(sqrt(n))^2 lattice, so its count may land anywhere between
    # the request and the full lattice.
    for n_tiles in (1, 2, 3, 4, 7):
        partition = partition_workspace(workspace, n_tiles, scheme=scheme)
        if scheme == "str":
            assert partition.n_tiles == n_tiles
        else:
            lattice = math.ceil(math.sqrt(n_tiles)) ** 2
            assert 1 <= partition.n_tiles <= lattice
        assert all(tile.n_c >= 1 for tile in partition.tiles)
        assert sum(tile.n_c for tile in partition.tiles) == workspace.n_c


def test_partitioning_is_deterministic(workspace, scheme):
    a = partition_workspace(workspace, 4, scheme=scheme)
    b = partition_workspace(workspace, 4, scheme=scheme)
    assert a.plan.to_dict() == b.plan.to_dict()
    for ta, tb in zip(a.tiles, b.tiles):
        assert [c.cid for c in ta.clients] == [c.cid for c in tb.clients]


def test_router_agrees_with_assignment(workspace, scheme):
    partition = partition_workspace(workspace, 4, scheme=scheme)
    for tile in partition.tiles:
        for client in tile.clients:
            assert partition.plan.route(client.x, client.y) == tile.tile_id


def test_router_handles_points_outside_every_tile(workspace, scheme):
    plan = partition_workspace(workspace, 4, scheme=scheme).plan
    for x, y in [(-1e6, -1e6), (1e6, 1e6), (-5.0, 1e6), (1e6, -5.0)]:
        assert 0 <= plan.route(x, y) < 4


def test_identity_survives_partitioning(workspace, scheme):
    partition = partition_workspace(workspace, 4, scheme=scheme)
    by_cid = {c.cid: c for c in workspace.clients}
    for tile in partition.tiles:
        cids = [c.cid for c in tile.clients]
        assert cids == sorted(cids), "tile members must stay in cid order"
        for client in tile.clients:
            parent = by_cid[client.cid]
            assert client.x == parent.x and client.y == parent.y
            assert client.weight == parent.weight
            assert client.dnn == parent.dnn, "dnn must be bit-identical"


def test_facilities_and_potentials_replicated(workspace, scheme):
    partition = partition_workspace(workspace, 4, scheme=scheme)
    facilities = [(s.x, s.y) for s in workspace.facilities]
    potentials = [(s.x, s.y) for s in workspace.potentials]
    for tile in partition.tiles:
        assert [(s.x, s.y) for s in tile.facilities] == facilities
        assert [(s.x, s.y) for s in tile.potentials] == potentials


def test_minted_cids_are_strided_and_collision_free(workspace, scheme):
    partition = partition_workspace(workspace, 4, scheme=scheme)
    base = partition.cid_stride_base
    minted = []
    for tile in partition.tiles:
        client = tile.add_client((1.0, 1.0))
        assert client.cid >= base
        assert (client.cid - base) % partition.n_tiles == tile.tile_id
        minted.append(client.cid)
    assert len(set(minted)) == len(minted), "minted cids collided across tiles"


def test_rejects_more_tiles_than_clients(workspace):
    with pytest.raises(ValueError):
        partition_workspace(workspace, workspace.n_c + 1)


def test_rejects_unknown_scheme(workspace):
    with pytest.raises(ValueError):
        partition_workspace(workspace, 4, scheme="hilbert")


def test_write_then_load_round_trips(workspace, scheme, tmp_path):
    partition = partition_workspace(workspace, 4, scheme=scheme)
    write_partition(partition, tmp_path)
    manifest = json.loads((tmp_path / "shards.json").read_text())
    assert manifest["n_c"] == workspace.n_c
    assert len(manifest["tiles"]) == 4

    persisted = load_partition(tmp_path)
    assert isinstance(persisted, PersistedPartition)
    assert persisted.plan.to_dict() == partition.plan.to_dict()
    assert [(s.x, s.y) for s in persisted.potential_sites()] == [
        (s.x, s.y) for s in partition.potentials
    ]
    for tile in partition.tiles:
        loaded = persisted.load_tile(tile.tile_id, mode="dynamic")
        assert [c.cid for c in loaded.clients] == [c.cid for c in tile.clients]
        for got, want in zip(loaded.clients, tile.clients):
            assert got.x == want.x and got.y == want.y
            assert got.dnn == want.dnn and got.weight == want.weight


@pytest.fixture(scope="module")
def written(workspace, tmp_path_factory):
    """A 4-tile partition and its persisted directory, reopened."""
    partition = partition_workspace(workspace, 4)
    directory = write_partition(partition, tmp_path_factory.mktemp("partition"))
    return partition, load_partition(directory)


@pytest.mark.parametrize("method", ["SS", "QVC", "NFC", "MND"])
def test_disk_tiles_answer_like_the_tiles_they_were_persisted_from(written, method):
    """``load_tile(mode="disk")`` — what ``shard serve --mode disk``
    serves — reads the persisted pages back to the in-memory answer."""
    partition, persisted = written
    for tile in partition.tiles:
        want = fingerprint(make_selector(tile, method).select())
        with persisted.load_tile(tile.tile_id, mode="disk") as disk:
            assert fingerprint(make_selector(disk, method).select()) == want


def test_load_partition_rejects_non_partition_directory(tmp_path):
    with pytest.raises(FileNotFoundError):
        load_partition(tmp_path)
