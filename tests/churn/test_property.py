"""Property-based churn tests: random interleaved mutation streams keep
the incrementally maintained state bit-identical to a from-scratch
rebuild — including exact equal-distance ties, which the coarse integer
coordinate grid below makes common rather than measure-zero."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.churn import rebuild_twin, verify_parity
from repro.core import DynamicWorkspace
from repro.datasets import make_instance
from repro.geometry.point import Point
from repro.knnjoin.grid import nn_join_grid
from repro.knnjoin.incremental import DnnMaintainer
from repro.rtree.validate import validate_rtree

# Coordinates drawn from a small integer lattice: co-located points and
# exactly equidistant facility pairs occur constantly, driving the
# tie paths (strict-< on open, exact distance equality on close).
coord = st.integers(min_value=0, max_value=12).map(float)

# An op is (kind, x, y); kind: 0/1 add/remove client, 2/3 open/close
# facility.  Removal targets are picked by hashing the op's coordinates
# into the current population, so streams remove records they added.
ops = st.lists(
    st.tuples(st.integers(min_value=0, max_value=3), coord, coord),
    min_size=1,
    max_size=40,
)


def _apply_stream(ws: DynamicWorkspace, stream) -> int:
    applied = 0
    for kind, x, y in stream:
        if kind == 0:
            ws.add_client((x, y))
        elif kind == 1 and ws.n_c > 5:
            ws.remove_client(ws.clients[int(x * 13 + y) % ws.n_c])
        elif kind == 2:
            ws.add_facility((x, y))
        elif kind == 3 and ws.n_f > 1:
            ws.remove_facility(ws.facilities[int(x * 13 + y) % ws.n_f])
        else:
            continue
        applied += 1
    return applied


@settings(max_examples=25, deadline=None)
@given(ops, st.integers(min_value=0, max_value=5))
def test_workspace_stream_matches_rebuild(stream, seed):
    ws = DynamicWorkspace(make_instance(24, 4, 6, rng=seed))
    # Build the trees first so the stream maintains them in place.
    ws.r_c, ws.rnn_tree, ws.mnd_tree
    applied = _apply_stream(ws, stream)
    assert ws.region_clock.epoch == applied
    # Tight MBRs everywhere and every stored MND equal to its recomputed
    # value after the in-place updates.
    for tree in (ws.r_c, ws.rnn_tree, ws.mnd_tree):
        validate_rtree(tree)
    # Bit-exact state, byte-identical SS/evaluate, answer-identical
    # NFC/MND.
    verify_parity(ws, methods=("SS", "NFC", "MND"), evaluate_ids=[0, 1])
    # The RNN-tree's NFC squares must reflect the maintained radii.
    twin = rebuild_twin(ws)
    assert np.array_equal(
        np.array([c.dnn for c in ws.clients]),
        np.array([c.dnn for c in twin.clients]),
    )


@settings(max_examples=60, deadline=None)
@given(ops, st.integers(min_value=0, max_value=5))
def test_maintainer_matches_grid_join_bitwise(stream, seed):
    ws_seed = make_instance(16, 3, 2, rng=seed)
    clients = [Point(*c) for c in ws_seed.clients]
    facilities = [Point(*f) for f in ws_seed.facilities]
    maintainer = DnnMaintainer(clients, facilities)
    for kind, x, y in stream:
        if kind == 0:
            clients.append(Point(x, y))
            maintainer.add_client(Point(x, y))
        elif kind == 1 and len(clients) > 1:
            index = int(x * 13 + y) % len(clients)
            del clients[index]
            maintainer.remove_client(index)
        elif kind == 2:
            facilities.append(Point(x, y))
            maintainer.open_facility(Point(x, y))
        elif kind == 3 and len(facilities) > 1:
            index = int(x * 13 + y) % len(facilities)
            gone = facilities.pop(index)
            maintainer.close_facility(gone)
    expect = np.array(nn_join_grid(clients, facilities))
    assert np.array_equal(np.asarray(maintainer.distances), expect), (
        "maintained dnn diverged from the from-scratch grid join"
    )


def test_equidistant_tie_survives_closing_either_twin():
    """A client exactly between two facilities: closing either one must
    leave dnn bit-identical (the survivor realises the same distance)."""
    clients = [Point(5.0, 5.0)]
    twins = [
        (Point(2.0, 5.0), Point(8.0, 5.0)),
        (Point(8.0, 5.0), Point(2.0, 5.0)),
    ]
    for lost, kept in twins:
        maintainer = DnnMaintainer(clients, [lost, kept])
        before = maintainer.dnn_of(0)
        maintainer.close_facility(lost)
        assert maintainer.dnn_of(0) == before == 3.0


def test_near_tie_within_eps_is_recomputed_exactly():
    """A runner-up 1e-12 beyond the closed facility's distance: the
    served client is found by exact equality, and the recompute must land
    on the exact survivor distance, not keep the stale value."""
    survivor = Point(8.0 + 1e-12, 5.0)
    maintainer = DnnMaintainer([Point(5.0, 5.0)], [Point(2.0, 5.0), survivor])
    assert maintainer.dnn_of(0) == 3.0
    maintainer.close_facility(Point(2.0, 5.0))
    expect = nn_join_grid([Point(5.0, 5.0)], [survivor])[0]
    assert maintainer.dnn_of(0) == expect


def test_duplicate_facility_keeps_serving_after_one_closes():
    """Co-located facilities: closing one of the pair changes nothing."""
    maintainer = DnnMaintainer([Point(1.0, 1.0)], [Point(4.0, 5.0), Point(4.0, 5.0)])
    before = maintainer.dnn_of(0)
    maintainer.close_facility(Point(4.0, 5.0))
    assert maintainer.dnn_of(0) == before
    assert len(maintainer.facilities) == 1
