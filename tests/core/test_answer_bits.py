"""Query answers are pinned: each method's dr bits and page reads.

For every instance below and each of SS, QVC, NFC and MND, the sha256
of ``dr.tobytes()`` and the per-structure ``io_reads`` of one cold
``select()`` are pinned.  The io pins were recorded before the join
tasks evaluated all their leaf pairs in one kernel call and before
QVC's quadrant-NN search ran on node columns; both changes promise the
same reads.  The dr pins are each potential's correctly rounded sum of
its terms, with every distance ``sqrt(dx*dx + dy*dy)``, so they are one
hash per instance, ``core.naive``'s, for every method and both served
forms, potentials on facilities included.  Every instance is served
twice, as an in-memory
:class:`~repro.core.workspace.Workspace` and as a mapped
:class:`~repro.core.diskmode.DiskWorkspace` over its persisted pages,
each with its own pin: ``persist_indexes`` blocks the flat files at the
default page size whatever the workspace's, so at other page sizes SS
and QVC read other file blocks.

The instances:

* ``uniform-20k-seed{1,2}`` — 20K/300/200 uniform at the default page
  size;
* ``deep`` — 512-byte pages and three- to five-level trees, so join and
  window tasks hold up to hundreds of leaf pairs each;
* ``ties`` — an integer lattice: duplicate clients, potentials on
  facilities and on facility axes, and clients on facilities.

Next to them, :data:`COUNTER_PINS` holds each method's traversal
counters of one traced ``select()``, summed over its span tree: the
join's ``join.node_pairs`` and ``join.pruned_pairs``, the window's
``window.nodes`` and ``window.leaf_evals``, the quadrant search's
``nn.nodes``, and the leaf and branch reads of every tree
(``reads.<tree>.leaf`` / ``.branch``).  They were recorded on the
recursive joins and window query, before the level-synchronous
descent, which promises the same counts.

Regenerate both tables with ``PYTHONPATH=src:. python -m
tests.core.test_answer_bits`` — only when an answer or a traversal is
meant to move.
"""

from __future__ import annotations

import hashlib
import random
from collections import Counter

import pytest

from repro.core import Workspace, make_selector, naive
from repro.core.diskmode import DiskWorkspace, persist_indexes
from repro.datasets.generators import SpatialInstance, make_instance
from repro.geometry.point import Point
from repro.geometry.rect import Rect
from repro.obs import InMemorySink, Tracer
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


#: The traversal counters :func:`traversal_counts` sums; with them go
#: the ``reads.<tree>.leaf`` and ``reads.<tree>.branch`` counts.
COUNTERS = (
    "join.node_pairs",
    "join.pruned_pairs",
    "window.nodes",
    "window.leaf_evals",
    "nn.nodes",
)


def traversal_counts(ws) -> dict[str, dict[str, int]]:
    """Per method: the traversal counters of one traced select."""
    out = {}
    for method in METHODS:
        sink = InMemorySink()
        ws.attach_tracer(Tracer([sink]))
        try:
            make_selector(ws, method).select()
        finally:
            ws.detach_tracer()
        totals: Counter[str] = Counter()
        for span in sink.last.walk():
            for name, value in span.counters.items():
                if name in COUNTERS or name.startswith("reads."):
                    totals[name] += value
        out[method] = dict(sorted(totals.items()))
    return out


#: name -> served form -> method -> (dr sha256, io_reads); the reads
#: were recorded before the many-tile kernel and the column NN stream.
PINS: dict[str, dict[str, dict[str, tuple[str, dict[str, int]]]]] = {
    "deep": {
        "memory": {
            "SS": (
                "4b750790f8ff757ebc228de0f7ea4a97"
                "32be7af8b3a279d58bb6f53ada13df1b",
                {"file.C": 5344, "file.P": 16},
            ),
            "QVC": (
                "4b750790f8ff757ebc228de0f7ea4a97"
                "32be7af8b3a279d58bb6f53ada13df1b",
                {"R_C": 6541, "R_F": 2120, "file.P": 16},
            ),
            "NFC": (
                "4b750790f8ff757ebc228de0f7ea4a97"
                "32be7af8b3a279d58bb6f53ada13df1b",
                {"R_C^n": 2223, "R_P": 408},
            ),
            "MND": (
                "4b750790f8ff757ebc228de0f7ea4a97"
                "32be7af8b3a279d58bb6f53ada13df1b",
                {"R_C^m": 3322, "R_P": 251},
            ),
        },
        "disk": {
            "SS": (
                "4b750790f8ff757ebc228de0f7ea4a97"
                "32be7af8b3a279d58bb6f53ada13df1b",
                {"file.C": 84, "file.P": 2},
            ),
            "QVC": (
                "4b750790f8ff757ebc228de0f7ea4a97"
                "32be7af8b3a279d58bb6f53ada13df1b",
                {"R_C": 1494, "R_F": 2120, "file.P": 2},
            ),
            "NFC": (
                "4b750790f8ff757ebc228de0f7ea4a97"
                "32be7af8b3a279d58bb6f53ada13df1b",
                {"R_C^n": 2223, "R_P": 408},
            ),
            "MND": (
                "4b750790f8ff757ebc228de0f7ea4a97"
                "32be7af8b3a279d58bb6f53ada13df1b",
                {"R_C^m": 3322, "R_P": 251},
            ),
        },
    },
    "ties": {
        "memory": {
            "SS": (
                "e10b0e8a5258f0ab567c130cf8b13e6e"
                "f2a65437a71a34d2269de5b225bbb728",
                {"file.C": 102, "file.P": 2},
            ),
            "QVC": (
                "e10b0e8a5258f0ab567c130cf8b13e6e"
                "f2a65437a71a34d2269de5b225bbb728",
                {"R_C": 159, "R_F": 199, "file.P": 2},
            ),
            "NFC": (
                "e10b0e8a5258f0ab567c130cf8b13e6e"
                "f2a65437a71a34d2269de5b225bbb728",
                {"R_C^n": 160, "R_P": 14},
            ),
            "MND": (
                "e10b0e8a5258f0ab567c130cf8b13e6e"
                "f2a65437a71a34d2269de5b225bbb728",
                {"R_C^m": 202, "R_P": 22},
            ),
        },
        "disk": {
            "SS": (
                "e10b0e8a5258f0ab567c130cf8b13e6e"
                "f2a65437a71a34d2269de5b225bbb728",
                {"file.C": 13, "file.P": 1},
            ),
            "QVC": (
                "e10b0e8a5258f0ab567c130cf8b13e6e"
                "f2a65437a71a34d2269de5b225bbb728",
                {"R_C": 104, "R_F": 199, "file.P": 1},
            ),
            "NFC": (
                "e10b0e8a5258f0ab567c130cf8b13e6e"
                "f2a65437a71a34d2269de5b225bbb728",
                {"R_C^n": 160, "R_P": 14},
            ),
            "MND": (
                "e10b0e8a5258f0ab567c130cf8b13e6e"
                "f2a65437a71a34d2269de5b225bbb728",
                {"R_C^m": 202, "R_P": 22},
            ),
        },
    },
    "uniform-20k-seed1": {
        "memory": {
            "SS": (
                "38a3e1f0efd788a74a565385b6ee738e"
                "da4ae652a2db9ab8219cfece6ec5b330",
                {"file.C": 137, "file.P": 1},
            ),
            "QVC": (
                "38a3e1f0efd788a74a565385b6ee738e"
                "da4ae652a2db9ab8219cfece6ec5b330",
                {"R_C": 255, "R_F": 503, "file.P": 1},
            ),
            "NFC": (
                "38a3e1f0efd788a74a565385b6ee738e"
                "da4ae652a2db9ab8219cfece6ec5b330",
                {"R_C^n": 331, "R_P": 10},
            ),
            "MND": (
                "38a3e1f0efd788a74a565385b6ee738e"
                "da4ae652a2db9ab8219cfece6ec5b330",
                {"R_C^m": 401, "R_P": 12},
            ),
        },
        "disk": {
            "SS": (
                "38a3e1f0efd788a74a565385b6ee738e"
                "da4ae652a2db9ab8219cfece6ec5b330",
                {"file.C": 137, "file.P": 1},
            ),
            "QVC": (
                "38a3e1f0efd788a74a565385b6ee738e"
                "da4ae652a2db9ab8219cfece6ec5b330",
                {"R_C": 255, "R_F": 503, "file.P": 1},
            ),
            "NFC": (
                "38a3e1f0efd788a74a565385b6ee738e"
                "da4ae652a2db9ab8219cfece6ec5b330",
                {"R_C^n": 331, "R_P": 10},
            ),
            "MND": (
                "38a3e1f0efd788a74a565385b6ee738e"
                "da4ae652a2db9ab8219cfece6ec5b330",
                {"R_C^m": 401, "R_P": 12},
            ),
        },
    },
    "uniform-20k-seed2": {
        "memory": {
            "SS": (
                "8ff3e92150588dee4d9ad7673d957a39"
                "4065a1957cccb4f5511a84f0e9f213f3",
                {"file.C": 137, "file.P": 1},
            ),
            "QVC": (
                "8ff3e92150588dee4d9ad7673d957a39"
                "4065a1957cccb4f5511a84f0e9f213f3",
                {"R_C": 257, "R_F": 506, "file.P": 1},
            ),
            "NFC": (
                "8ff3e92150588dee4d9ad7673d957a39"
                "4065a1957cccb4f5511a84f0e9f213f3",
                {"R_C^n": 333, "R_P": 10},
            ),
            "MND": (
                "8ff3e92150588dee4d9ad7673d957a39"
                "4065a1957cccb4f5511a84f0e9f213f3",
                {"R_C^m": 406, "R_P": 11},
            ),
        },
        "disk": {
            "SS": (
                "8ff3e92150588dee4d9ad7673d957a39"
                "4065a1957cccb4f5511a84f0e9f213f3",
                {"file.C": 137, "file.P": 1},
            ),
            "QVC": (
                "8ff3e92150588dee4d9ad7673d957a39"
                "4065a1957cccb4f5511a84f0e9f213f3",
                {"R_C": 257, "R_F": 506, "file.P": 1},
            ),
            "NFC": (
                "8ff3e92150588dee4d9ad7673d957a39"
                "4065a1957cccb4f5511a84f0e9f213f3",
                {"R_C^n": 333, "R_P": 10},
            ),
            "MND": (
                "8ff3e92150588dee4d9ad7673d957a39"
                "4065a1957cccb4f5511a84f0e9f213f3",
                {"R_C^m": 406, "R_P": 11},
            ),
        },
    },
}


#: name -> served form -> method -> traversal counter totals, recorded
#: on the recursive joins and window query.
COUNTER_PINS: dict[str, dict[str, dict[str, dict[str, int]]]] = {
    "deep": {
        "memory": {
            "SS": {},
            "QVC": {
                "nn.nodes": 2120,
                "reads.R_C.branch": 1115,
                "reads.R_C.leaf": 5426,
                "reads.R_F.branch": 400,
                "reads.R_F.leaf": 1720,
                "window.leaf_evals": 8107,
                "window.nodes": 6541,
            },
            "NFC": {
                "join.node_pairs": 2223,
                "join.pruned_pairs": 1447,
                "reads.R_C^n.branch": 408,
                "reads.R_C^n.leaf": 1815,
                "reads.R_P.branch": 24,
                "reads.R_P.leaf": 384,
            },
            "MND": {
                "join.node_pairs": 3322,
                "join.pruned_pairs": 575,
                "reads.R_C^m.branch": 911,
                "reads.R_C^m.leaf": 2411,
                "reads.R_P.branch": 16,
                "reads.R_P.leaf": 235,
            },
        },
        "disk": {
            "SS": {},
            "QVC": {
                "nn.nodes": 2120,
                "reads.R_C.branch": 170,
                "reads.R_C.leaf": 1324,
                "reads.R_F.branch": 400,
                "reads.R_F.leaf": 1720,
                "window.leaf_evals": 8107,
                "window.nodes": 1494,
            },
            "NFC": {
                "join.node_pairs": 2223,
                "join.pruned_pairs": 1447,
                "reads.R_C^n.branch": 408,
                "reads.R_C^n.leaf": 1815,
                "reads.R_P.branch": 24,
                "reads.R_P.leaf": 384,
            },
            "MND": {
                "join.node_pairs": 3322,
                "join.pruned_pairs": 575,
                "reads.R_C^m.branch": 911,
                "reads.R_C^m.leaf": 2411,
                "reads.R_P.branch": 16,
                "reads.R_P.leaf": 235,
            },
        },
    },
    "ties": {
        "memory": {
            "SS": {},
            "QVC": {
                "nn.nodes": 199,
                "reads.R_C.branch": 14,
                "reads.R_C.leaf": 145,
                "reads.R_F.branch": 60,
                "reads.R_F.leaf": 139,
                "window.leaf_evals": 431,
                "window.nodes": 159,
            },
            "NFC": {
                "join.node_pairs": 160,
                "join.pruned_pairs": 11,
                "reads.R_C^n.branch": 14,
                "reads.R_C^n.leaf": 146,
                "reads.R_P.branch": 1,
                "reads.R_P.leaf": 13,
            },
            "MND": {
                "join.node_pairs": 202,
                "join.pruned_pairs": 11,
                "reads.R_C^m.branch": 22,
                "reads.R_C^m.leaf": 180,
                "reads.R_P.branch": 1,
                "reads.R_P.leaf": 21,
            },
        },
        "disk": {
            "SS": {},
            "QVC": {
                "nn.nodes": 199,
                "reads.R_C.branch": 7,
                "reads.R_C.leaf": 97,
                "reads.R_F.branch": 60,
                "reads.R_F.leaf": 139,
                "window.leaf_evals": 431,
                "window.nodes": 104,
            },
            "NFC": {
                "join.node_pairs": 160,
                "join.pruned_pairs": 11,
                "reads.R_C^n.branch": 14,
                "reads.R_C^n.leaf": 146,
                "reads.R_P.branch": 1,
                "reads.R_P.leaf": 13,
            },
            "MND": {
                "join.node_pairs": 202,
                "join.pruned_pairs": 11,
                "reads.R_C^m.branch": 22,
                "reads.R_C^m.leaf": 180,
                "reads.R_P.branch": 1,
                "reads.R_P.leaf": 21,
            },
        },
    },
    "uniform-20k-seed1": {
        "memory": {
            "SS": {},
            "QVC": {
                "nn.nodes": 503,
                "reads.R_C.branch": 5,
                "reads.R_C.leaf": 250,
                "reads.R_F.branch": 200,
                "reads.R_F.leaf": 303,
                "window.leaf_evals": 1225,
                "window.nodes": 255,
            },
            "NFC": {
                "join.node_pairs": 331,
                "join.pruned_pairs": 3,
                "reads.R_C^n.branch": 10,
                "reads.R_C^n.leaf": 321,
                "reads.R_P.branch": 1,
                "reads.R_P.leaf": 9,
            },
            "MND": {
                "join.node_pairs": 401,
                "join.pruned_pairs": 4,
                "reads.R_C^m.branch": 12,
                "reads.R_C^m.leaf": 389,
                "reads.R_P.branch": 1,
                "reads.R_P.leaf": 11,
            },
        },
        "disk": {
            "SS": {},
            "QVC": {
                "nn.nodes": 503,
                "reads.R_C.branch": 5,
                "reads.R_C.leaf": 250,
                "reads.R_F.branch": 200,
                "reads.R_F.leaf": 303,
                "window.leaf_evals": 1225,
                "window.nodes": 255,
            },
            "NFC": {
                "join.node_pairs": 331,
                "join.pruned_pairs": 3,
                "reads.R_C^n.branch": 10,
                "reads.R_C^n.leaf": 321,
                "reads.R_P.branch": 1,
                "reads.R_P.leaf": 9,
            },
            "MND": {
                "join.node_pairs": 401,
                "join.pruned_pairs": 4,
                "reads.R_C^m.branch": 12,
                "reads.R_C^m.leaf": 389,
                "reads.R_P.branch": 1,
                "reads.R_P.leaf": 11,
            },
        },
    },
    "uniform-20k-seed2": {
        "memory": {
            "SS": {},
            "QVC": {
                "nn.nodes": 506,
                "reads.R_C.branch": 5,
                "reads.R_C.leaf": 252,
                "reads.R_F.branch": 200,
                "reads.R_F.leaf": 306,
                "window.leaf_evals": 1254,
                "window.nodes": 257,
            },
            "NFC": {
                "join.node_pairs": 333,
                "join.pruned_pairs": 3,
                "reads.R_C^n.branch": 10,
                "reads.R_C^n.leaf": 323,
                "reads.R_P.branch": 1,
                "reads.R_P.leaf": 9,
            },
            "MND": {
                "join.node_pairs": 406,
                "join.pruned_pairs": 5,
                "reads.R_C^m.branch": 11,
                "reads.R_C^m.leaf": 395,
                "reads.R_P.branch": 1,
                "reads.R_P.leaf": 10,
            },
        },
        "disk": {
            "SS": {},
            "QVC": {
                "nn.nodes": 506,
                "reads.R_C.branch": 5,
                "reads.R_C.leaf": 252,
                "reads.R_F.branch": 200,
                "reads.R_F.leaf": 306,
                "window.leaf_evals": 1254,
                "window.nodes": 257,
            },
            "NFC": {
                "join.node_pairs": 333,
                "join.pruned_pairs": 3,
                "reads.R_C^n.branch": 10,
                "reads.R_C^n.leaf": 323,
                "reads.R_P.branch": 1,
                "reads.R_P.leaf": 9,
            },
            "MND": {
                "join.node_pairs": 406,
                "join.pruned_pairs": 5,
                "reads.R_C^m.branch": 11,
                "reads.R_C^m.leaf": 395,
                "reads.R_P.branch": 1,
                "reads.R_P.leaf": 10,
            },
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


def test_traversal_counters_are_pinned(served):
    name, ws, persisted = served
    assert traversal_counts(ws) == COUNTER_PINS[name]["memory"]
    with DiskWorkspace(persisted) as disk:
        assert traversal_counts(disk) == COUNTER_PINS[name]["disk"]


def test_pinned_dr_is_the_oracles(served):
    """Every method's dr pin is ``core.naive``'s."""
    name, ws, __ = served
    digest = hashlib.sha256(naive.distance_reductions(ws).tobytes()).hexdigest()
    for form, pins in PINS[name].items():
        for method, (pinned, __) in pins.items():
            assert pinned == digest, (form, method)


if __name__ == "__main__":
    import pprint
    import tempfile

    table, counters = {}, {}
    for name, (factory, page_size) in sorted(INSTANCES.items()):
        ws = Workspace(factory(), page_size=page_size)
        table[name] = {"memory": answer_bits(ws)}
        counters[name] = {"memory": traversal_counts(ws)}
        with tempfile.TemporaryDirectory() as tmp:
            with DiskWorkspace(persist_indexes(ws, tmp)) as disk:
                table[name]["disk"] = answer_bits(disk)
                counters[name]["disk"] = traversal_counts(disk)
    pprint.pprint(table, width=88)
    pprint.pprint(counters, width=88)
