"""Incremental maintenance of the NN-join result.

The paper assumes ``dnn(c, F)`` is "incrementally maintained and
therefore the cost is amortized" (Section VII-A).  ``DnnMaintainer``
implements that contract over column arrays of the clients and the
facilities:

* inserting a facility can only *shrink* NFDs — one vectorised pass
  updates exactly the clients whose NFC contains the new facility;
* removing a facility invalidates only the clients it served — those are
  detected by distance equality and recomputed against the remaining
  facilities with one blocked vectorised minimum;
* clients arrive and depart too (``add_client``/``remove_client``): an
  arrival costs one vectorised minimum over the facility columns, a
  departure one row deletion.

No spatial index over the facilities is kept, so a facility mutation
never rebuilds one.  The vectorised grid join
(:func:`~repro.knnjoin.grid.nn_join_columns`) serves the from-scratch
joins: the initial vector and :meth:`verify`, which compares bit for
bit.

**Bit-exactness.** Every distance here is the one formula,
``sqrt(dx*dx + dy*dy)`` over IEEE doubles (:func:`repro.kernels.norms`,
the grid join's :meth:`FacilityGrid.nearest` and every ``IS(p)`` test
compute it too).  Subtraction, squaring, addition and ``sqrt`` are all
correctly rounded, and ``sqrt`` is monotone, so the minimum over
facilities commutes with the square root: the maintained ``dnn``
vector is bit-identical to a from-scratch
:func:`~repro.knnjoin.grid.nn_join_columns` at every step.  The churn
engine's rebuild-parity guarantee (``repro.churn``) rests on exactly
this property, and so does :meth:`DnnMaintainer.close_facility`: a
closed site's distance equals, bit for bit, the ``dnn`` of each client
it served.
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence

import numpy as np

from repro import kernels
from repro.geometry.point import Point
from repro.knnjoin.grid import nn_join_columns, point_columns

#: Distance-matrix cells per block of :func:`_nearest_distances`, which
#: bounds its scratch memory (~8 MiB of float64) at any client count.
_BLOCK_CELLS = 1 << 20


def _distances(cx: np.ndarray, cy: np.ndarray, f: Point) -> np.ndarray:
    """Vectorised client-to-``f`` distances, grid-formula-exact."""
    return kernels.norms(cx - f[0], cy - f[1])


def _nearest_distances(
    qx: np.ndarray, qy: np.ndarray, fx: np.ndarray, fy: np.ndarray
) -> np.ndarray:
    """Each query point's distance to its nearest facility: the minimum
    squared distance, then one ``sqrt`` (equal to the minimum of the
    square roots, since ``sqrt`` is monotone)."""
    out = np.empty(len(qx), dtype=np.float64)
    rows = max(1, _BLOCK_CELLS // len(fx))
    for lo in range(0, len(qx), rows):
        dx = fx[None, :] - qx[lo : lo + rows, None]
        dy = fy[None, :] - qy[lo : lo + rows, None]
        out[lo : lo + rows] = np.sqrt((dx * dx + dy * dy).min(axis=1))
    return out


class DnnMaintainer:
    """Owns the ``dnn(c, F)`` vector and keeps it exact under updates."""

    def __init__(
        self,
        clients: Sequence[Point] | np.ndarray,
        facilities: Iterable[Point] | np.ndarray,
        dnn: Optional[Sequence[float]] = None,
    ):
        """``clients`` and ``facilities`` are point sequences or ``(n, 2)``
        coordinate columns; ``dnn`` seeds the vector (the grid join
        computes it otherwise)."""
        cxy, fxy = point_columns(clients), point_columns(facilities)
        if not len(fxy):
            raise ValueError("DnnMaintainer requires at least one facility")
        self._cx, self._cy = cxy.T.copy()
        self._fx, self._fy = fxy.T.copy()
        if dnn is not None:
            if len(dnn) != len(self._cx):
                raise ValueError("dnn length does not match the client count")
            self._dnn = np.asarray(dnn, dtype=np.float64).copy()
        else:
            self._dnn = nn_join_columns(self._cx, self._cy, self._fx, self._fy)

    # ------------------------------------------------------------------
    @property
    def facilities(self) -> tuple[Point, ...]:
        return tuple(
            Point(x, y) for x, y in zip(self._fx.tolist(), self._fy.tolist())
        )

    @property
    def distances(self) -> np.ndarray:
        """The current ``dnn`` vector (read-only view)."""
        view = self._dnn.view()
        view.flags.writeable = False
        return view

    def dnn_of(self, client_index: int) -> float:
        return float(self._dnn[client_index])

    def __len__(self) -> int:
        return len(self._dnn)

    # ------------------------------------------------------------------
    # Client updates
    # ------------------------------------------------------------------
    def add_client(self, p: Point) -> float:
        """A client arrives: one vectorised minimum over the facilities,
        one appended row.  Returns the new client's ``dnn``."""
        x, y = float(p[0]), float(p[1])
        dnn = float(
            _nearest_distances(np.array([x]), np.array([y]), self._fx, self._fy)[0]
        )
        self._cx = np.append(self._cx, x)
        self._cy = np.append(self._cy, y)
        self._dnn = np.append(self._dnn, dnn)
        return dnn

    def remove_client(self, index: int) -> None:
        """A client departs: drop its row (positional index)."""
        self._cx = np.delete(self._cx, index)
        self._cy = np.delete(self._cy, index)
        self._dnn = np.delete(self._dnn, index)

    # ------------------------------------------------------------------
    # Facility updates
    # ------------------------------------------------------------------
    def open_facility(
        self, f: Point
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Insert a facility; returns ``(indices, old_dnn, new_dnn)`` for
        exactly the clients whose NFD shrank (strict ``<`` — a facility
        on the NFC boundary changes nothing, matching the paper's strict
        containment)."""
        f = Point(*f)
        self._fx = np.append(self._fx, f[0])
        self._fy = np.append(self._fy, f[1])
        dist = _distances(self._cx, self._cy, f)
        affected = np.flatnonzero(dist < self._dnn)
        old = self._dnn[affected].copy()
        new = dist[affected]
        self._dnn[affected] = new
        return affected, old, new

    def close_facility(
        self, f: Point
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Remove one occurrence of a facility; returns
        ``(indices, old_dnn, new_dnn)`` for the clients it served.

        Raises if it is not present or is the last facility.  Served
        clients are detected by exact distance equality: every ``dnn``
        the maintainer holds or is seeded with (the grid join, a shard
        tile's partition, persisted pages) comes from the same formula,
        so the realising facility matches bit for bit; a workspace's
        ``precomputed_dnn`` must come from it too.  A co-located
        duplicate facility keeps serving them, which the recomputation
        over the remaining facilities handles naturally.
        """
        f = Point(*f)
        matches = np.flatnonzero((self._fx == f[0]) & (self._fy == f[1]))
        if len(matches) == 0:
            raise ValueError(f"facility {f} is not in the set")
        if len(self._fx) == 1:
            raise ValueError("cannot remove the last facility")
        self._fx = np.delete(self._fx, matches[0])
        self._fy = np.delete(self._fy, matches[0])
        dist = _distances(self._cx, self._cy, f)
        stale = np.flatnonzero(dist == self._dnn)
        old = self._dnn[stale].copy()
        self._dnn[stale] = _nearest_distances(
            self._cx[stale], self._cy[stale], self._fx, self._fy
        )
        return stale, old, self._dnn[stale].copy()

    def add_facility(self, f: Point) -> int:
        """Insert a facility; returns how many clients' NFD shrank."""
        affected, __, __ = self.open_facility(f)
        return int(len(affected))

    def remove_facility(self, f: Point) -> int:
        """Remove one occurrence of a facility; returns how many clients
        had to be recomputed.  Raises if it is the last facility or not
        present."""
        stale, __, __ = self.close_facility(f)
        return int(len(stale))

    # ------------------------------------------------------------------
    def verify(self) -> bool:
        """Recompute everything with the from-scratch grid join and
        compare bit for bit (for tests)."""
        fresh = nn_join_columns(self._cx, self._cy, self._fx, self._fy)
        return fresh.tobytes() == self._dnn.tobytes()
