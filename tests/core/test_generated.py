"""Generated instances: every method returns ``core.naive``'s dr bit for bit.

Each draw builds a small instance out of the cases the exact contract
must survive:

* exact ties — clients, facilities and potentials on an integer
  lattice, so a client often lies as far from a potential as from its
  nearest facility (``d == dnn``, which does not influence);
* off-lattice float coordinates, where two distance formulas would
  round apart (a lattice distance is exact under any of them);
* potentials on facilities, whose ``IS(p)`` is empty (QVC skips them,
  and every other method must reach the same 0), and on clients;
* duplicate clients, and clients on facilities (``dnn = 0``);
* zero weights;
* ``n_p = 1``, and potentials far outside the data, whose ``IS(p)`` is
  empty;
* page sizes that give one leaf or trees several levels deep.

SS, QVC, NFC and MND must return the oracle's dr vector bit for bit, in
memory and on a mapped disk workspace over the persisted pages, through
``select()`` and through a two-thread
:class:`~repro.exec.QueryEngine` at task targets 1 and 3, which must
also read the select's pages.  The small page sizes give trees of
unequal height, so the engine's whole-level plan and its cuts meet
every level case of the join descent.  Disk leaves carry no weight
field and a weighted workspace cannot be persisted, so the disk check
serves the instance with unit weights.  The number of draws comes from
the hypothesis profile (``tests/conftest.py``): bounded in tier-1, deep
in CI's smoke job (``--hypothesis-profile=deep``).
"""

from __future__ import annotations

import tempfile
from dataclasses import replace

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import Workspace, make_selector, naive
from repro.core.diskmode import DiskWorkspace, persist_indexes
from repro.datasets.generators import SpatialInstance
from repro.exec import QueryEngine
from repro.geometry.point import Point
from repro.geometry.rect import Rect

METHODS = ("SS", "QVC", "NFC", "MND")

#: The engine's join task targets: one task, and a frontier cut in three.
TASK_TARGETS = (1, 3)


@st.composite
def instances(draw) -> tuple[SpatialInstance, int]:
    """An instance and the page size to serve it at."""
    side = draw(st.sampled_from([3, 8, 40]))
    lattice = st.tuples(st.integers(0, side), st.integers(0, side)).map(
        lambda xy: Point(float(xy[0]), float(xy[1]))
    )
    # Uniform floats: full mantissas, which two distance formulas would
    # round apart in about one pair in six.
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    off_lattice = st.sampled_from(
        [Point(x, y) for x, y in rng.uniform(0.0, side, (100, 2)).tolist()]
    )
    points = st.one_of(lattice, off_lattice)
    facilities = draw(st.lists(points, min_size=1, max_size=6))
    clients = draw(st.lists(points, min_size=1, max_size=60))
    clients += draw(st.lists(st.sampled_from(clients), max_size=10))  # duplicates
    clients += draw(st.lists(st.sampled_from(facilities), max_size=3))  # dnn = 0
    halves = st.tuples(st.integers(0, 2 * side), st.integers(0, 2 * side)).map(
        lambda xy: Point(xy[0] / 2.0, xy[1] / 2.0)
    )
    far = st.just(Point(-10.0 * side, 11.0 * side))  # IS(p) is empty
    potentials = draw(
        st.lists(
            st.one_of(
                points,
                halves,
                far,
                st.sampled_from(facilities),  # IS(p) is empty
                st.sampled_from(clients),
            ),
            min_size=1,
            max_size=15,
        )
    )
    weights = draw(
        st.none()
        | st.lists(
            st.sampled_from([0.0, 1.0, 0.5, 3.0]),
            min_size=len(clients),
            max_size=len(clients),
        )
    )
    instance = SpatialInstance(
        "generated",
        clients,
        facilities,
        potentials,
        domain=Rect(0.0, 0.0, float(side), float(side)),
        client_weights=weights,
    )
    return instance, draw(st.sampled_from([256, 512, 4096]))


def assert_methods_return_the_oracle(ws, oracle: np.ndarray) -> None:
    engines = [QueryEngine(ws, workers=2, task_target=t) for t in TASK_TARGETS]
    try:
        for method in METHODS:
            selector = make_selector(ws, method)
            result = selector.select()
            assert np.array_equal(selector.distance_reductions(), oracle), method
            assert result.location.sid == int(np.argmax(oracle)), method
            for engine in engines:
                run = make_selector(ws, method)
                got = engine.run(run)
                assert np.array_equal(run.distance_reductions(), oracle), (
                    method,
                    engine.task_target,
                )
                assert got.io_reads == result.io_reads, (method, engine.task_target)
    finally:
        for engine in engines:
            engine.close()


@given(drawn=instances())
@settings(deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_every_method_returns_the_oracles_dr(drawn):
    instance, page_size = drawn
    ws = Workspace(instance, page_size=page_size)
    assert_methods_return_the_oracle(ws, naive.distance_reductions(ws))
    if instance.client_weights is not None:
        ws = Workspace(replace(instance, client_weights=None), page_size=page_size)
    with tempfile.TemporaryDirectory() as directory:
        with DiskWorkspace(persist_indexes(ws, directory)) as disk:
            assert_methods_return_the_oracle(disk, naive.distance_reductions(ws))
