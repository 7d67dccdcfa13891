"""Scatter-gather parity: any shard count, bytes of the serial reference.

The acceptance contract for the subsystem: for all four methods the
merged ``p*``, the full distance-reduction vector, ``io_total`` and the
per-structure read splits at 1, 2 and 4 shards are byte-identical to the
serial tile-order reference.  Shard count only changes *placement*, so
this holds by construction — and these tests make sure it stays held.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import Workspace, make_selector
from repro.core.types import fingerprint
from repro.experiments.config import ExperimentConfig
from repro.shard.executor import (
    ScatterGatherExecutor,
    assign_tiles,
    compute_partial,
    serial_reference,
)
from repro.shard.merge import merge_partials, merged_distance_reductions
from repro.shard.partition import load_partition, partition_workspace, write_partition

CONFIG = ExperimentConfig(n_c=600, n_f=40, n_p=50)
METHODS = ("SS", "QVC", "NFC", "MND")
N_TILES = 4


@pytest.fixture(scope="module")
def workspace() -> Workspace:
    return Workspace(CONFIG.instance())


@pytest.fixture(scope="module")
def partition(workspace):
    return partition_workspace(workspace, N_TILES)


@pytest.fixture(scope="module")
def references(workspace, partition):
    out = {}
    for method in METHODS:
        result = serial_reference(partition, method)
        dr = merged_distance_reductions(
            ScatterGatherExecutor(partition, n_shards=1).scatter(method)
        )
        out[method] = (result, dr)
    return out


@pytest.mark.smoke
@pytest.mark.parametrize("method", METHODS)
@pytest.mark.parametrize("n_shards", [1, 2, 4])
def test_every_shard_count_matches_the_serial_reference(
    partition, references, method, n_shards
):
    expected, expected_dr = references[method]
    executor = ScatterGatherExecutor(partition, n_shards=n_shards)
    partials = executor.scatter(method)
    assert sorted(p.tile_id for p in partials) == list(range(N_TILES))
    result = executor.run(method)
    assert fingerprint(result) == fingerprint(expected)
    assert np.array_equal(merged_distance_reductions(partials), expected_dr)


@pytest.fixture(scope="module")
def reloaded(partition, tmp_path_factory):
    """The partition written out and reopened as live dynamic tiles —
    what ``shard serve`` hosts by default."""
    persisted = load_partition(
        write_partition(partition, tmp_path_factory.mktemp("partition"))
    )
    return persisted, persisted.load_tiles(mode="dynamic")


@pytest.mark.smoke
@pytest.mark.parametrize("method", METHODS)
def test_reloaded_dynamic_tiles_merge_to_the_serial_reference(
    reloaded, references, method
):
    persisted, tiles = reloaded
    partials = [compute_partial(tiles[t], t, method) for t in sorted(tiles)]
    merged = merge_partials(partials, persisted.potential_sites())
    expected, expected_dr = references[method]
    assert fingerprint(merged) == fingerprint(expected)
    assert np.array_equal(merged_distance_reductions(partials), expected_dr)


@pytest.mark.parametrize("method", METHODS)
def test_merged_winner_agrees_with_the_monolithic_workspace(
    workspace, references, method
):
    # The dr *vector* regroups floating-point sums, so it is not
    # bit-equal to the unpartitioned run — but the chosen site must be.
    expected, _ = references[method]
    monolithic = make_selector(workspace, method).select()
    assert expected.location.sid == monolithic.location.sid


def test_intra_shard_workers_do_not_change_the_bytes(partition, references):
    expected, _ = references["MND"]
    executor = ScatterGatherExecutor(partition, n_shards=2, workers_per_shard=2)
    assert fingerprint(executor.run("MND")) == fingerprint(expected)


def test_assign_tiles_is_contiguous_and_balanced():
    assert assign_tiles(4, 1) == ((0, 1, 2, 3),)
    assert assign_tiles(4, 2) == ((0, 1), (2, 3))
    assert assign_tiles(4, 4) == ((0,), (1,), (2,), (3,))
    groups = assign_tiles(7, 3)
    assert [t for group in groups for t in group] == list(range(7))
    sizes = [len(group) for group in groups]
    assert max(sizes) - min(sizes) <= 1
    assert sizes == sorted(sizes, reverse=True), "earlier shards take the excess"


def test_assign_tiles_rejects_bad_shard_counts():
    with pytest.raises(ValueError):
        assign_tiles(4, 0)
    with pytest.raises(ValueError):
        assign_tiles(4, 5)
