"""The leaf pairs a descent ends at, evaluated after it.

NFC, MND and QVC's window stage reach their (candidate leaf × client
leaf) pairs — *tiles* — by a level-synchronous descent
(:mod:`repro.rtree.descent`) that charges every page read as it goes.
Evaluating a tile reads no page, so the descent only records where it
ends, and the task evaluates every tile at once: the per-call overhead
is paid once a group instead of once a tile, and each distinct leaf of
either tree is looked up in the leaf cache once, in one call per tree
(:mod:`repro.rtree.columns`).

A task returns the ``dr`` terms of the influencing pairs it finds,
each with its potential id, and the method's reduce rounds every
potential's terms once (:func:`repro.kernels.exact_sums`).  Tile order
and grouping therefore change no bit, and the tiles are grouped for
speed alone:

* a join (NFC, MND) ends at leaf-leaf rows, and :func:`join_terms`
  groups them by candidate leaf (one stable sort) and makes one
  shared-form :func:`repro.kernels.accumulate_reductions` call per
  candidate leaf, over the clients of all of that leaf's tiles;
* QVC's window gives each client leaf its own subset of the task's
  candidates, so :func:`window_terms` makes one tiled-form call with
  one tile per client leaf.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from repro import kernels
from repro.core.plan import NO_TERMS
from repro.kernels.columnar import ClientColumns
from repro.rtree.columns import client_columns, site_columns
from repro.rtree.descent import JoinRows
from repro.storage.stats import IOStats


def join_terms(
    tree_p: Any, tree_c: Any, rows: JoinRows, cache: Any, stats: IOStats, span: str
) -> tuple[np.ndarray, np.ndarray]:
    """``(potential ids, terms)`` of a join's leaf-leaf rows, evaluated
    in one ``span`` that reads no page; counts the rows as node pairs."""
    if not len(rows):
        return NO_TERMS
    trace = stats.tracer
    trace.count("join.node_pairs", len(rows))
    order = np.argsort(rows.p, kind="stable")
    p_leaves, starts, tiles = np.unique(
        rows.p[order], return_index=True, return_counts=True
    )
    c_leaves, c_index = np.unique(rows.c[order], return_inverse=True)
    sites = site_columns(tree_p, p_leaves.tolist(), cache)
    clients = client_columns(tree_c, c_leaves.tolist(), cache)
    clients = [clients[k] for k in c_index.tolist()]
    with trace.span(span) as sp:
        sp.count("candidates", sum(n * len(s) for n, s in zip(tiles.tolist(), sites)))
        ids, terms = [NO_TERMS[0]], [NO_TERMS[1]]
        for leaf, lo, n in zip(sites, starts.tolist(), tiles.tolist()):
            hit, found = kernels.accumulate_reductions(
                leaf.xs, leaf.ys, *_client_columns(clients[lo : lo + n])
            )
            ids.append(leaf.ids[hit])
            terms.append(found)
        return np.concatenate(ids), np.concatenate(terms)


def window_terms(
    tree: Any,
    leaves: np.ndarray,
    rows: np.ndarray,
    candidates: tuple[np.ndarray, np.ndarray, np.ndarray],
    cache: Any,
) -> tuple[np.ndarray, np.ndarray]:
    """``(potential ids, terms)`` of a window's ``(leaf, row)`` pairs, in
    one tiled call: one tile per client leaf, its rows of the task's
    ``candidates`` ``(pids, px, py)``."""
    if not len(rows):
        return NO_TERMS
    order = np.argsort(leaves, kind="stable")
    leaves, rows = leaves[order], rows[order]
    starts = np.flatnonzero(np.diff(leaves, prepend=-1))
    clients = client_columns(tree, leaves[starts].tolist(), cache)
    ids, px, py = (column[rows] for column in candidates)
    found, terms = kernels.accumulate_reductions(
        px,
        py,
        *_client_columns(clients),
        p_offsets=np.append(starts, len(rows)),
        c_offsets=np.cumsum([0] + [len(c) for c in clients]),
    )
    return ids[found], terms


def _client_columns(clients: list[ClientColumns]) -> list[np.ndarray]:
    """``xs, ys, dnn, weights`` of client leaves, concatenated."""
    return [
        np.concatenate([getattr(c, field) for c in clients])
        for field in ("xs", "ys", "dnn", "weights")
    ]
