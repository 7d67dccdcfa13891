"""Continuous min-dist location selection.

The paper's applications ask the query *frequently* over changing data
("the min-dist location selection is usually performed frequently.
Therefore, we formulate the problem as the following query").  When
updates arrive faster than full re-evaluations are affordable, the
``dr`` vector itself can be maintained incrementally:

* a **client arrival/departure** changes ``dr(p)`` by that client's own
  contribution ``w * max(dnn(c) - dist(c, p), 0)`` — one vectorised
  pass over the candidates;
* a **facility opening** shrinks some clients' ``dnn``; each affected
  client's contribution to every candidate is re-based from its old to
  its new radius — one pass over candidates per affected client;
* a **facility closing** symmetrically grows radii.

``ContinuousSelection`` wraps a :class:`~repro.core.dynamic.DynamicWorkspace`,
applies the update *and* the delta maintenance together, and serves
``best()`` / ``top(k)`` in O(n_p) from the maintained vector.  The
test-suite pins the maintained vector against fresh oracle evaluations
after arbitrary update storms.
"""

from __future__ import annotations

import numpy as np

from repro import kernels
from repro.core import naive
from repro.core.dynamic import DynamicWorkspace
from repro.core.types import Client, Site
from repro.geometry.point import Point


class ContinuousSelection:
    """Maintains ``dr(p)`` for all candidates under live updates."""

    def __init__(self, workspace: DynamicWorkspace):
        self.ws = workspace
        self._px = workspace.potential_xy[:, 0].copy()
        self._py = workspace.potential_xy[:, 1].copy()
        self._dr = naive.distance_reductions(workspace)
        #: Number of incremental delta applications performed.
        self.updates_applied = 0

    # ------------------------------------------------------------------
    # Contribution helpers
    # ------------------------------------------------------------------
    def _contribution(self, x: float, y: float, radius: float, weight: float):
        """One client's contribution vector across all candidates."""
        d = kernels.norms(self._px - x, self._py - y)
        return np.clip(radius - d, 0.0, None) * weight

    # ------------------------------------------------------------------
    # Updates (mutate the workspace AND maintain the vector)
    # ------------------------------------------------------------------
    def add_client(
        self, point: Point | tuple[float, float], weight: float = 1.0
    ) -> Client:
        client = self.ws.add_client(point, weight)
        self._dr += self._contribution(client.x, client.y, client.dnn, client.weight)
        self.updates_applied += 1
        return client

    def remove_client(self, client: Client) -> None:
        self.ws.remove_client(client)
        self._dr -= self._contribution(client.x, client.y, client.dnn, client.weight)
        self.updates_applied += 1

    def add_facility(self, point: Point | tuple[float, float]) -> Site:
        old_radii = {c.cid: c.dnn for c in self.ws.clients}
        site = self.ws.add_facility(point)
        self._rebase_changed(old_radii)
        self.updates_applied += 1
        return site

    def remove_facility(self, site: Site) -> None:
        old_radii = {c.cid: c.dnn for c in self.ws.clients}
        self.ws.remove_facility(site)
        self._rebase_changed(old_radii)
        self.updates_applied += 1

    def _rebase_changed(self, old_radii: dict[int, float]) -> None:
        for c in self.ws.clients:
            old = old_radii[c.cid]
            if old != c.dnn:
                self._dr -= self._contribution(c.x, c.y, old, c.weight)
                self._dr += self._contribution(c.x, c.y, c.dnn, c.weight)

    # ------------------------------------------------------------------
    # Queries (O(n_p) from the maintained vector)
    # ------------------------------------------------------------------
    def distance_reductions(self) -> np.ndarray:
        return self._dr.copy()

    def best(self) -> tuple[Site, float]:
        """The current winner (ties to the smallest id)."""
        idx = int(np.argmax(self._dr))
        return self.ws.potentials[idx], float(self._dr[idx])

    def top(self, k: int) -> list[tuple[Site, float]]:
        if k < 1:
            raise ValueError("k must be >= 1")
        k = min(k, len(self._dr))
        order = np.lexsort((np.arange(len(self._dr)), -self._dr))[:k]
        return [(self.ws.potentials[int(i)], float(self._dr[int(i)])) for i in order]

    def verify(self, atol: float = 1e-6) -> bool:
        """Compare the maintained vector against a fresh evaluation."""
        fresh = naive.distance_reductions(self.ws)
        return bool(np.allclose(self._dr, fresh, atol=atol))
