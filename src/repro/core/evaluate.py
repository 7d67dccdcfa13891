"""Single-location evaluation reports.

Decision support rarely stops at "which candidate wins": planners want
to know *what a specific candidate would do*.  ``evaluate_location``
produces a full report for one potential location — its influence set,
distance reduction, and the average-NFD before/after — using the same
precomputed ``dnn`` machinery as the query methods.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro import kernels
from repro.core.types import Site
from repro.core.workspace import Workspace


@dataclass(frozen=True)
class LocationReport:
    """What establishing a facility at one candidate would achieve."""

    location: Site
    #: Client indices that would switch to the new facility.
    influenced_clients: tuple[int, ...]
    #: Total distance reduction ``dr(p)``: the correctly rounded sum of
    #: the weighted terms over ``IS(p)``, the select's ``dr[p]``.
    dr: float
    #: Average client-to-nearest-facility distance before / after
    #: (unweighted).
    avg_nfd_before: float
    avg_nfd_after: float
    #: Largest single-client improvement (unweighted).
    max_client_gain: float
    #: The sums the averages divide by ``n_c``: additive, so per-tile
    #: reports fold exactly (:func:`repro.shard.merge.merge_evaluate_reports`).
    nfd_sum_before: float = 0.0
    nfd_sum_after: float = 0.0

    @property
    def influence_count(self) -> int:
        return len(self.influenced_clients)

    def format(self) -> str:
        return (
            f"candidate p{self.location.sid} at "
            f"({self.location.x:.2f}, {self.location.y:.2f}):\n"
            f"  clients influenced : {self.influence_count}\n"
            f"  distance reduction : {self.dr:.4f}\n"
            f"  avg NFD            : {self.avg_nfd_before:.4f} -> "
            f"{self.avg_nfd_after:.4f}\n"
            f"  best single gain   : {self.max_client_gain:.4f}"
        )


def evaluate_location(ws: Workspace, location: Site | int) -> LocationReport:
    """Evaluate one potential location (by ``Site`` or by id)."""
    if isinstance(location, int):
        try:
            site = ws.potentials[location]
        except IndexError:
            raise ValueError(
                f"no potential location with id {location} "
                f"(have 0..{ws.n_p - 1})"
            ) from None
    else:
        site = location

    if ws.n_c == 0:
        return LocationReport(
            location=site,
            influenced_clients=(),
            dr=0.0,
            avg_nfd_before=0.0,
            avg_nfd_after=0.0,
            max_client_gain=0.0,
        )

    cx = ws.client_xyd[:, 0]
    cy = ws.client_xyd[:, 1]
    dnn = ws.client_xyd[:, 2]
    dist = kernels.norms(cx - site.x, cy - site.y)
    gain = np.clip(dnn - dist, 0.0, None)
    influenced = np.flatnonzero(dist < dnn)
    terms = (dnn[influenced] - dist[influenced]) * ws.client_w[influenced]
    dr = kernels.exact_sums(np.zeros(len(terms), dtype=np.intp), terms, 1)

    before = float(dnn.sum())
    after = before - float(gain.sum())
    return LocationReport(
        location=site,
        influenced_clients=tuple(int(i) for i in influenced),
        dr=float(dr[0]),
        avg_nfd_before=before / ws.n_c,
        avg_nfd_after=after / ws.n_c,
        max_client_gain=float(gain.max()) if len(gain) else 0.0,
        nfd_sum_before=before,
        nfd_sum_after=after,
    )


def compare_locations(ws: Workspace, ids: list[int]) -> list[LocationReport]:
    """Reports for several candidates, best first."""
    reports = [evaluate_location(ws, i) for i in ids]
    reports.sort(key=lambda r: (-r.dr, r.location.sid))
    return reports
