"""Query answers are pinned: each method's dr bits and page reads.

For every instance below and each of SS, QVC, NFC and MND, the sha256
of ``dr.tobytes()`` and the per-structure ``io_reads`` of one cold
``select()`` are pinned.  The pins were recorded before the join tasks
evaluated all their leaf pairs in one kernel call and before QVC's
quadrant-NN search ran on node columns; both changes promise the same
bits and the same reads.  Every instance is served twice, as an
in-memory :class:`~repro.core.workspace.Workspace` and as a mapped
:class:`~repro.core.diskmode.DiskWorkspace` over its persisted pages,
each with its own pin: ``persist_indexes`` blocks the flat files at the
default page size whatever the workspace's, so at other page sizes SS
and QVC read other file blocks, and SS sums its dr in other groups.

The instances:

* ``uniform-20k-seed{1,2}`` — 20K/300/200 uniform at the default page
  size;
* ``deep`` — 512-byte pages and three- to five-level trees, so join and
  window tasks hold up to hundreds of leaf pairs each;
* ``ties`` — an integer lattice: duplicate clients, potentials on
  facilities and on facility axes, and clients on facilities.

Regenerate the table with ``PYTHONPATH=src:. python -m
tests.core.test_answer_bits`` — only when an answer is meant to move.
"""

from __future__ import annotations

import hashlib
import random

import pytest

from repro.core import Workspace, make_selector
from repro.core.diskmode import DiskWorkspace, persist_indexes
from repro.datasets.generators import SpatialInstance, make_instance
from repro.geometry.point import Point
from repro.geometry.rect import Rect
from repro.storage.records import PAGE_SIZE

METHODS = ("SS", "QVC", "NFC", "MND")


def tie_instance() -> SpatialInstance:
    """Integer-grid facilities and potentials with exact ties.

    Potentials sit on facilities (``IS(p)`` empty) and on facility axes
    (a facility exactly on a quadrant boundary); clients are duplicated
    and some sit on facilities (``dnn = 0``)."""
    rng = random.Random(17)

    def grid(n: int, side: int) -> list[Point]:
        return [
            Point(float(rng.randint(0, side)), float(rng.randint(0, side)))
            for __ in range(n)
        ]

    facilities = grid(40, 30)
    potentials = grid(50, 30) + facilities[:5]
    potentials += [Point(f.x, float(rng.randint(0, 30))) for f in facilities[5:10]]
    clients = [
        Point(rng.randint(0, 300) / 10.0, rng.randint(0, 300) / 10.0)
        for __ in range(1500)
    ]
    clients += clients[:300] + facilities[:8] + [Point(15.0, 15.0)] * 25
    return SpatialInstance(
        "ties", clients, facilities, potentials, domain=Rect(0.0, 0.0, 30.0, 30.0)
    )


#: name -> (instance factory, page size)
INSTANCES = {
    "uniform-20k-seed1": (lambda: make_instance(20000, 300, 200, rng=1), PAGE_SIZE),
    "uniform-20k-seed2": (lambda: make_instance(20000, 300, 200, rng=2), PAGE_SIZE),
    "deep": (lambda: make_instance(6000, 120, 400, rng=4), 512),
    "ties": (tie_instance, 1024),
}


def answer_bits(ws) -> dict[str, tuple[str, dict[str, int]]]:
    """Per method: (sha256 of the dr bytes, io_reads of a cold select)."""
    out = {}
    for method in METHODS:
        selector = make_selector(ws, method)
        result = selector.select()
        digest = hashlib.sha256(selector.distance_reductions().tobytes()).hexdigest()
        out[method] = (digest, dict(sorted(result.io_reads.items())))
    return out


#: name -> served form -> method -> (dr sha256, io_reads), recorded
#: before the many-tile kernel and the column NN stream.
PINS: dict[str, dict[str, dict[str, tuple[str, dict[str, int]]]]] = {
    "deep": {
        "memory": {
            "SS": (
                "f7e33af579511e23c2b093d79bc8309f"
                "821c34a66deae6f52a0c2a2ca408fb74",
                {"file.C": 5344, "file.P": 16},
            ),
            "QVC": (
                "2364524f4c6f7b5c528fd8d8b90c3490"
                "27aa09e5550df52a4713c2dcb79d7d66",
                {"R_C": 6541, "R_F": 2120, "file.P": 16},
            ),
            "NFC": (
                "2abbb2598c6b499aa6083e76bb8ed928"
                "8a9343ffc0ae573dc16ee5ca60986495",
                {"R_C^n": 2223, "R_P": 408},
            ),
            "MND": (
                "0afa70441290bb376dfe6b34d7184151"
                "d4dcef3c7d6670439027605887286926",
                {"R_C^m": 3322, "R_P": 251},
            ),
        },
        "disk": {
            "SS": (
                "3ff76c012fda0424025fdac6ea4ddf16"
                "0a2ddc88204efb4ecfda37e91c3e3332",
                {"file.C": 84, "file.P": 2},
            ),
            "QVC": (
                "2364524f4c6f7b5c528fd8d8b90c3490"
                "27aa09e5550df52a4713c2dcb79d7d66",
                {"R_C": 1494, "R_F": 2120, "file.P": 2},
            ),
            "NFC": (
                "2abbb2598c6b499aa6083e76bb8ed928"
                "8a9343ffc0ae573dc16ee5ca60986495",
                {"R_C^n": 2223, "R_P": 408},
            ),
            "MND": (
                "0afa70441290bb376dfe6b34d7184151"
                "d4dcef3c7d6670439027605887286926",
                {"R_C^m": 3322, "R_P": 251},
            ),
        },
    },
    "ties": {
        "memory": {
            "SS": (
                "fc256862fac644fac5392c8e9e996ebc"
                "2fa3021a94d74a102fca28006422ee39",
                {"file.C": 102, "file.P": 2},
            ),
            "QVC": (
                "fac31ccee1a4f87c2ddd2d7ce0437610"
                "56b9bea7b1b59f430b2bef4416f126b0",
                {"R_C": 159, "R_F": 199, "file.P": 2},
            ),
            "NFC": (
                "45c60d0ee4c71c95c95af293fc82bf19"
                "e2b5715d265c09382e8578535b81f5af",
                {"R_C^n": 160, "R_P": 14},
            ),
            "MND": (
                "7c3bcc439800021df80002f65c12e82a"
                "ce4700d9f8226265202410e4f120f18c",
                {"R_C^m": 202, "R_P": 22},
            ),
        },
        "disk": {
            "SS": (
                "0f75e1982b04a377626e3e2971e94ee1"
                "4bff9687dc56ac60373767b0a8a24972",
                {"file.C": 13, "file.P": 1},
            ),
            "QVC": (
                "fac31ccee1a4f87c2ddd2d7ce0437610"
                "56b9bea7b1b59f430b2bef4416f126b0",
                {"R_C": 104, "R_F": 199, "file.P": 1},
            ),
            "NFC": (
                "45c60d0ee4c71c95c95af293fc82bf19"
                "e2b5715d265c09382e8578535b81f5af",
                {"R_C^n": 160, "R_P": 14},
            ),
            "MND": (
                "7c3bcc439800021df80002f65c12e82a"
                "ce4700d9f8226265202410e4f120f18c",
                {"R_C^m": 202, "R_P": 22},
            ),
        },
    },
    "uniform-20k-seed1": {
        "memory": {
            "SS": (
                "ae715185275de65118a72aecbb26138b"
                "263663513cf18c9a3f88ae7d467f5920",
                {"file.C": 137, "file.P": 1},
            ),
            "QVC": (
                "4d71c0c643ae67f07f741404542a04a3"
                "3496979be369ee2778adc30e38db8e7b",
                {"R_C": 255, "R_F": 503, "file.P": 1},
            ),
            "NFC": (
                "caabc6b7c123b71f60ede090ea35f2b0"
                "687a165fcdd45a0116f14bea757f7e2b",
                {"R_C^n": 331, "R_P": 10},
            ),
            "MND": (
                "a15af4fc790bca03063d025910cea310"
                "78d873bf5cf59f3c4ad4a04d191bd604",
                {"R_C^m": 401, "R_P": 12},
            ),
        },
        "disk": {
            "SS": (
                "ae715185275de65118a72aecbb26138b"
                "263663513cf18c9a3f88ae7d467f5920",
                {"file.C": 137, "file.P": 1},
            ),
            "QVC": (
                "4d71c0c643ae67f07f741404542a04a3"
                "3496979be369ee2778adc30e38db8e7b",
                {"R_C": 255, "R_F": 503, "file.P": 1},
            ),
            "NFC": (
                "caabc6b7c123b71f60ede090ea35f2b0"
                "687a165fcdd45a0116f14bea757f7e2b",
                {"R_C^n": 331, "R_P": 10},
            ),
            "MND": (
                "a15af4fc790bca03063d025910cea310"
                "78d873bf5cf59f3c4ad4a04d191bd604",
                {"R_C^m": 401, "R_P": 12},
            ),
        },
    },
    "uniform-20k-seed2": {
        "memory": {
            "SS": (
                "2ca14b5feac63528f10f322a396f29e2"
                "95eea8da431ebb2a51c3786be550b8f0",
                {"file.C": 137, "file.P": 1},
            ),
            "QVC": (
                "21b5e87b32922b907972805ef39d569b"
                "acbdf17006a6c44dcc089c41a31ddf7b",
                {"R_C": 257, "R_F": 506, "file.P": 1},
            ),
            "NFC": (
                "76b0d9371a9dd82fe1e934b79b1b2c64"
                "e5e4ffc911a2dccf03824f7c91be23b3",
                {"R_C^n": 333, "R_P": 10},
            ),
            "MND": (
                "ac0c91df3d9637d38ce27f0a856e08ac"
                "27ed3c93cdfa759d73f1eabb6b09145c",
                {"R_C^m": 406, "R_P": 11},
            ),
        },
        "disk": {
            "SS": (
                "2ca14b5feac63528f10f322a396f29e2"
                "95eea8da431ebb2a51c3786be550b8f0",
                {"file.C": 137, "file.P": 1},
            ),
            "QVC": (
                "21b5e87b32922b907972805ef39d569b"
                "acbdf17006a6c44dcc089c41a31ddf7b",
                {"R_C": 257, "R_F": 506, "file.P": 1},
            ),
            "NFC": (
                "76b0d9371a9dd82fe1e934b79b1b2c64"
                "e5e4ffc911a2dccf03824f7c91be23b3",
                {"R_C^n": 333, "R_P": 10},
            ),
            "MND": (
                "ac0c91df3d9637d38ce27f0a856e08ac"
                "27ed3c93cdfa759d73f1eabb6b09145c",
                {"R_C^m": 406, "R_P": 11},
            ),
        },
    },
}


@pytest.fixture(scope="module", params=sorted(INSTANCES))
def served(request, tmp_path_factory):
    """(instance name, in-memory workspace, persisted indexes)."""
    factory, page_size = INSTANCES[request.param]
    ws = Workspace(factory(), page_size=page_size)
    persisted = persist_indexes(ws, tmp_path_factory.mktemp(request.param))
    return request.param, ws, persisted


def test_in_memory_answers_are_pinned(served):
    name, ws, __ = served
    assert answer_bits(ws) == PINS[name]["memory"]


def test_mapped_disk_answers_are_pinned(served):
    name, __, persisted = served
    with DiskWorkspace(persisted) as disk:
        assert answer_bits(disk) == PINS[name]["disk"]


if __name__ == "__main__":
    import pprint
    import tempfile

    table = {}
    for name, (factory, page_size) in sorted(INSTANCES.items()):
        ws = Workspace(factory(), page_size=page_size)
        table[name] = {"memory": answer_bits(ws)}
        with tempfile.TemporaryDirectory() as tmp:
            with DiskWorkspace(persist_indexes(ws, tmp)) as disk:
                table[name]["disk"] = answer_bits(disk)
    pprint.pprint(table, width=88)
