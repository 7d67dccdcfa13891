"""The leaf pairs of one task, evaluated after its descent.

NFC, MND and QVC's window stage reach their (candidate leaf × client
leaf) pairs — *tiles* — by a depth-first descent that charges every
page read as it goes.  Evaluating a tile reads no page, so the descent
only records each tile, and the task evaluates them all at the end:
reads and their order are unchanged, and the per-call overhead is paid
once a group instead of once a tile.

A task returns the ``dr`` terms of the influencing pairs it finds,
each with its potential id, and the method's reduce rounds every
potential's terms once (:func:`repro.kernels.exact_sums`).  Tile order
and grouping therefore change no bit, and the tiles are grouped for
speed alone:

* a join (NFC, MND) records which ``R_P`` leaf each tile came from, and
  :meth:`LeafPairs.leaf_terms` makes one shared-form
  :func:`repro.kernels.accumulate_reductions` call per candidate leaf,
  in first-appearance order, over the clients of all of that leaf's
  tiles — a join task's tiles nearly always share one leaf;
* QVC's window gives each client leaf its own subset of the block's
  candidates, so :meth:`LeafPairs.terms` makes one tiled-form call.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro import kernels
from repro.core.plan import NO_TERMS
from repro.kernels.columnar import ClientColumns


class LeafPairs:
    """Tiles recorded in descent order: the candidate leaf's node id,
    candidate ids and coordinates, and the client leaf's columns."""

    __slots__ = ("leaves", "ids", "px", "py", "clients", "candidates")

    def __init__(self) -> None:
        self.leaves: list[Optional[int]] = []
        self.ids: list[np.ndarray] = []
        self.px: list[np.ndarray] = []
        self.py: list[np.ndarray] = []
        self.clients: list[ClientColumns] = []
        #: Candidate rows over all tiles (the leaf-eval span's count).
        self.candidates = 0

    def __len__(self) -> int:
        return len(self.clients)

    def add(
        self,
        ids: np.ndarray,
        px: np.ndarray,
        py: np.ndarray,
        clients: ClientColumns,
        leaf: Optional[int] = None,
    ) -> None:
        """Record one tile; ``leaf`` is the ``R_P`` node id of a join's
        candidate leaf, whose tiles :meth:`leaf_terms` evaluates together."""
        self.leaves.append(leaf)
        self.ids.append(ids)
        self.px.append(px)
        self.py.append(py)
        self.clients.append(clients)
        self.candidates += len(ids)

    def terms(self) -> tuple[np.ndarray, np.ndarray]:
        """``(potential ids, terms)`` of every tile, in one tiled call."""
        if not self.clients:
            return NO_TERMS
        rows, terms = kernels.accumulate_reductions(
            np.concatenate(self.px),
            np.concatenate(self.py),
            *_client_columns(self.clients),
            p_offsets=np.cumsum([0] + [len(ids) for ids in self.ids]),
            c_offsets=np.cumsum([0] + [len(c) for c in self.clients]),
        )
        return np.concatenate(self.ids)[rows], terms

    def leaf_terms(self) -> tuple[np.ndarray, np.ndarray]:
        """``(potential ids, terms)`` of every tile, in one shared call
        per candidate leaf over the clients of all of its tiles."""
        groups: dict[Optional[int], list[int]] = {}
        for tile, leaf in enumerate(self.leaves):
            groups.setdefault(leaf, []).append(tile)
        ids, terms = [NO_TERMS[0]], [NO_TERMS[1]]
        for tiles in groups.values():
            first = tiles[0]
            rows, found = kernels.accumulate_reductions(
                self.px[first],
                self.py[first],
                *_client_columns([self.clients[t] for t in tiles]),
            )
            ids.append(self.ids[first][rows])
            terms.append(found)
        return np.concatenate(ids), np.concatenate(terms)


def _client_columns(clients: list[ClientColumns]) -> list[np.ndarray]:
    """``xs, ys, dnn, weights`` of client leaves, concatenated."""
    return [
        np.concatenate([getattr(c, field) for c in clients])
        for field in ("xs", "ys", "dnn", "weights")
    ]
