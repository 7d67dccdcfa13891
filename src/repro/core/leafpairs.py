"""The leaf pairs a descent ends at, evaluated after it.

NFC, MND and QVC's window stage reach their (candidate leaf × client
leaf) pairs — *tiles* — by a level-synchronous descent
(:mod:`repro.rtree.descent`) that charges every page read as it goes.
Evaluating a tile reads no page, so the descent only records where it
ends, and the task evaluates every tile at once: the per-call overhead
is paid once a group instead of once a tile.

A task returns the ``dr`` terms of the influencing pairs it finds,
each with its potential id, and the method's reduce rounds every
potential's terms once (:func:`repro.kernels.exact_sums`).  Tile order
and grouping therefore change no bit, and the tiles are grouped for
speed alone:

* a join (NFC, MND) ends at leaf-leaf rows, and :func:`join_terms`
  makes one shared-form :func:`repro.kernels.accumulate_reductions`
  call per candidate leaf, over the clients of all of that leaf's
  tiles (:meth:`LeafPairs.leaf_terms`);
* QVC's window gives each client leaf its own subset of the block's
  candidates, so :func:`window_terms` makes one tiled-form call with
  one tile per client leaf (:meth:`LeafPairs.terms`).
"""

from __future__ import annotations

from typing import Any, Optional

import numpy as np

from repro import kernels
from repro.core.plan import NO_TERMS
from repro.kernels.columnar import ClientColumns
from repro.rtree.columns import leaf_client_columns, leaf_site_columns
from repro.rtree.descent import JoinRows
from repro.storage.stats import IOStats


class LeafPairs:
    """Tiles recorded in descent order: each tile's candidate rows (ids
    and coordinates), its client leaf's columns and, for a join, its
    candidate leaf's node id."""

    __slots__ = (
        "leaves",
        "sites",
        "ids",
        "px",
        "py",
        "sizes",
        "clients",
        "candidates",
    )

    def __init__(self) -> None:
        self.leaves: list[Optional[int]] = []
        #: A join's candidate leaf -> its candidates ``(ids, px, py)``.
        self.sites: dict[Optional[int], tuple[np.ndarray, ...]] = {}
        #: Candidate rows, in runs of one or more tiles each.
        self.ids: list[np.ndarray] = []
        self.px: list[np.ndarray] = []
        self.py: list[np.ndarray] = []
        #: Each tile's number of candidate rows.
        self.sizes: list[int] = []
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
        candidate leaf, whose tiles carry its candidates and which
        :meth:`leaf_terms` evaluates together."""
        self.sites.setdefault(leaf, (ids, px, py))
        self.add_tiles(ids, px, py, [len(ids)], [clients])
        self.leaves[-1] = leaf

    def add_tiles(
        self,
        ids: np.ndarray,
        px: np.ndarray,
        py: np.ndarray,
        sizes: list[int],
        clients: list[ClientColumns],
    ) -> None:
        """Record ``len(clients)`` tiles of no join leaf at once: tile
        ``t`` meets ``clients[t]`` with the next ``sizes[t]`` rows of
        ``ids``, ``px`` and ``py``."""
        self.leaves.extend([None] * len(clients))
        self.ids.append(ids)
        self.px.append(px)
        self.py.append(py)
        self.sizes.extend(sizes)
        self.clients.extend(clients)
        self.candidates += len(ids)

    def terms(self) -> tuple[np.ndarray, np.ndarray]:
        """``(potential ids, terms)`` of every tile, in one tiled call."""
        if not self.clients:
            return NO_TERMS
        rows, terms = kernels.accumulate_reductions(
            np.concatenate(self.px),
            np.concatenate(self.py),
            *_client_columns(self.clients),
            p_offsets=np.cumsum([0] + self.sizes),
            c_offsets=np.cumsum([0] + [len(c) for c in self.clients]),
        )
        return np.concatenate(self.ids)[rows], terms

    def leaf_terms(self) -> tuple[np.ndarray, np.ndarray]:
        """``(potential ids, terms)`` of every tile recorded with
        :meth:`add`, in one shared call per candidate leaf over the
        clients of all of its tiles."""
        groups: dict[Optional[int], list[int]] = {}
        for tile, leaf in enumerate(self.leaves):
            groups.setdefault(leaf, []).append(tile)
        ids, terms = [NO_TERMS[0]], [NO_TERMS[1]]
        for leaf, tiles in groups.items():
            sites, px, py = self.sites[leaf]
            rows, found = kernels.accumulate_reductions(
                px, py, *_client_columns([self.clients[t] for t in tiles])
            )
            ids.append(sites[rows])
            terms.append(found)
        return np.concatenate(ids), np.concatenate(terms)


def join_terms(
    tree_p: Any, tree_c: Any, rows: JoinRows, cache: Any, stats: IOStats, span: str
) -> tuple[np.ndarray, np.ndarray]:
    """``(potential ids, terms)`` of a join's leaf-leaf rows, evaluated
    in one ``span`` that reads no page; counts the rows as node pairs."""
    if not len(rows):
        return NO_TERMS
    trace = stats.tracer
    trace.count("join.node_pairs", len(rows))
    pairs = LeafPairs()
    for p, c in zip(rows.p.tolist(), rows.c.tolist()):
        site = pairs.sites.get(p)
        if site is None:
            cols = leaf_site_columns(tree_p, tree_p.node(p), cache)
            site = (cols.ids, cols.xs, cols.ys)
        pairs.add(*site, leaf_client_columns(tree_c, tree_c.node(c), cache), leaf=p)
    with trace.span(span) as sp:
        sp.count("candidates", pairs.candidates)
        return pairs.leaf_terms()


def window_terms(
    tree: Any,
    leaves: np.ndarray,
    rows: np.ndarray,
    block: tuple[np.ndarray, np.ndarray, np.ndarray],
    cache: Any,
) -> tuple[np.ndarray, np.ndarray]:
    """``(potential ids, terms)`` of a window's ``(leaf, row)`` pairs:
    one tile per client leaf, its rows of the block's ``(pids, px, py)``."""
    order = np.argsort(leaves, kind="stable")
    leaves, rows = leaves[order], rows[order]
    starts = np.flatnonzero(np.diff(leaves, prepend=-1))
    clients = [
        leaf_client_columns(tree, tree.node(n), cache) for n in leaves[starts].tolist()
    ]
    pairs = LeafPairs()
    pairs.add_tiles(
        *(column[rows] for column in block),
        np.diff(starts, append=len(rows)).tolist(),
        clients,
    )
    return pairs.terms()


def _client_columns(clients: list[ClientColumns]) -> list[np.ndarray]:
    """``xs, ys, dnn, weights`` of client leaves, concatenated."""
    return [
        np.concatenate([getattr(c, field) for c in clients])
        for field in ("xs", "ys", "dnn", "weights")
    ]
