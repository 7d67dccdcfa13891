"""Answer checks, run outside the timed window.

* ``scan-100k``: every select's location id, ``repr(dr)`` and
  ``io_total`` must equal a serial in-process ``select()`` of the same
  method over the same persisted files.
* ``wire-small`` and ``churn-100k``: the acknowledged mutation log is
  replayed over the generated points, a fresh ``Workspace`` is built
  from the result, and each method's final wire answer must name the
  same location with a ``dr`` within ``DR_RTOL`` of that rebuild's.

A mismatch fails the run; it is never counted as a failed operation.
"""

from __future__ import annotations

from pathlib import Path

from repro.core import Point, SpatialInstance, Workspace, make_selector
from repro.core.diskmode import DiskWorkspace, load_persisted

#: Relative dr tolerance against a rebuild: tree methods regroup the
#: per-leaf float sums, so only SS is byte-equal to a fresh scan.
DR_RTOL = 1e-9


def scan_reference(persisted: Path, methods) -> dict[str, tuple[int, str, int]]:
    """(sid, repr(dr), io_total) of a serial select per method."""
    reference = {}
    with DiskWorkspace(load_persisted(persisted), mapped=True) as ws:
        for method in methods:
            result = make_selector(ws, method).select()
            reference[method] = (result.location.sid, repr(result.dr), result.io_total)
    return reference


def check_scan(ops, reference) -> list[str]:
    """Mismatches between served uncached selects and the reference."""
    problems = []
    for op in ops:
        if op.kind != "cold" or not op.ok:
            continue
        got = (op.result["location"]["sid"], repr(op.result["dr"]), op.result["io_total"])
        if got != reference[op.method]:
            problems.append(f"{op.method}: served {got}, serial {reference[op.method]}")
    return problems


def replay(points, mutations) -> SpatialInstance:
    """The instance the acknowledged mutations leave behind, with
    clients and facilities in the server's list order (appends at the
    end, removals keep the order of the rest)."""
    clients = dict(enumerate(map(tuple, points["clients"].tolist())))
    facilities = dict(enumerate(map(tuple, points["facilities"].tolist())))
    for action, params, result in mutations:
        if action == "add_client":
            clients[result["cid"]] = tuple(params["point"])
        elif action == "remove_client":
            del clients[params["cid"]]
        elif action == "add_facility":
            facilities[result["sid"]] = tuple(params["point"])
        elif action == "remove_facility":
            del facilities[params["sid"]]
        else:
            raise ValueError(f"unknown mutation {action!r}")
    return SpatialInstance(
        "perfbench-rebuild",
        [Point(*p) for p in clients.values()],
        [Point(*p) for p in facilities.values()],
        [Point(*p) for p in points["potentials"].tolist()],
    )


def rebuild_reference(points, mutations) -> tuple[int, float]:
    """(sid, dr) of a sequential scan over the rebuilt workspace."""
    result = make_selector(Workspace(replay(points, mutations)), "SS").select()
    return result.location.sid, result.dr


def check_final(answers, reference: tuple[int, float], methods) -> list[str]:
    """Mismatches between each method's final wire answer and the rebuild."""
    sid, dr = reference
    problems = []
    for method in methods:
        op = answers.get(method)
        if op is None:
            problems.append(f"{method}: no successful final answer")
            continue
        got_sid, got_dr = op.result["location"]["sid"], op.result["dr"]
        if got_sid != sid or abs(got_dr - dr) > DR_RTOL * abs(dr):
            problems.append(
                f"{method}: served p{got_sid} dr={got_dr!r}, rebuild p{sid} dr={dr!r}"
            )
    return problems
