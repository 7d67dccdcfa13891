"""The leaf pairs of one task, evaluated in one kernel call.

NFC, MND and QVC's window stage reach their (candidate leaf × client
leaf) pairs — *tiles* — by a depth-first descent that charges every
page read as it goes.  Evaluating a tile reads no page, so the descent
only records each tile, and the task evaluates them all at the end with
one many-tile :func:`repro.kernels.accumulate_reductions` call: reads
and their order are unchanged, and the per-call overhead is paid once
a task instead of once a tile.

The fold keeps every bit: the kernel returns each candidate row's sum
over its own tile, bit for bit what one call per tile returns, and
:meth:`LeafPairs.accumulate` adds the rows into the task partial tile
by tile in descent order — the additions, and their order, of one call
per tile.
"""

from __future__ import annotations

import numpy as np

from repro import kernels
from repro.kernels.columnar import ClientColumns


class LeafPairs:
    """Tiles recorded in descent order: candidate ids and coordinates,
    and the client leaf's columns."""

    __slots__ = ("ids", "px", "py", "clients", "candidates")

    def __init__(self) -> None:
        self.ids: list[np.ndarray] = []
        self.px: list[np.ndarray] = []
        self.py: list[np.ndarray] = []
        self.clients: list[ClientColumns] = []
        #: Candidate rows over all tiles (the leaf-eval span's count).
        self.candidates = 0

    def __len__(self) -> int:
        return len(self.clients)

    def add(
        self, ids: np.ndarray, px: np.ndarray, py: np.ndarray, clients: ClientColumns
    ) -> None:
        self.ids.append(ids)
        self.px.append(px)
        self.py.append(py)
        self.clients.append(clients)
        self.candidates += len(ids)

    def accumulate(self, local: np.ndarray) -> None:
        """Add every tile's row sums into ``local``, in descent order."""
        if not self.clients:
            return
        if len(self) == 1:  # the one-tile call, without the set-up
            c = self.clients[0]
            local[self.ids[0]] += kernels.accumulate_reductions(
                self.px[0], self.py[0], c.xs, c.ys, c.dnn, c.weights
            )
            return
        p_offsets = np.cumsum([0] + [len(ids) for ids in self.ids])
        c_offsets = np.cumsum([0] + [len(c) for c in self.clients])
        sums = kernels.accumulate_reductions(
            np.concatenate(self.px),
            np.concatenate(self.py),
            np.concatenate([c.xs for c in self.clients]),
            np.concatenate([c.ys for c in self.clients]),
            np.concatenate([c.dnn for c in self.clients]),
            np.concatenate([c.weights for c in self.clients]),
            p_offsets=p_offsets,
            c_offsets=c_offsets,
        )
        for t, ids in enumerate(self.ids):
            local[ids] += sums[p_offsets[t] : p_offsets[t + 1]]
