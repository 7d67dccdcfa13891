"""Brute-force reference implementations (correctness oracles).

These bypass all storage and index structures and evaluate the problem
definitions directly on dense arrays.  The test-suite pins every query
method to them; they are *not* baselines in the paper's sense (that is
the SS method) but ground truth.
"""

from __future__ import annotations

import numpy as np

from repro import kernels
from repro.core.types import Site
from repro.core.workspace import Workspace
from repro.geometry.point import Point


def distance_reductions(ws: Workspace) -> np.ndarray:
    """``dr(p)`` for every potential location, straight from Definition 2:
    ``dr(p) = sum over c in IS(p) of (dnn(c,F) - dist(c,p))``, weighted,
    each sum correctly rounded (:func:`repro.kernels.exact_sums`)."""
    cx = ws.client_xyd[:, 0]
    cy = ws.client_xyd[:, 1]
    dnn = ws.client_xyd[:, 2]
    w = ws.client_w
    ids, terms = [np.zeros(0, dtype=np.intp)], [np.zeros(0)]
    for i, (px, py) in enumerate(ws.potential_xy):
        d = kernels.norms(cx - px, cy - py)
        hit = np.flatnonzero(d < dnn)
        ids.append(np.full(len(hit), i))
        terms.append((dnn[hit] - d[hit]) * w[hit])
    return kernels.exact_sums(np.concatenate(ids), np.concatenate(terms), ws.n_p)


def influence_set(ws: Workspace, p: Site) -> list[int]:
    """Indices of the clients in ``IS(p)`` (strict inequality, Def. in
    Section III-A)."""
    cx = ws.client_xyd[:, 0]
    cy = ws.client_xyd[:, 1]
    dnn = ws.client_xyd[:, 2]
    d = kernels.norms(cx - p.x, cy - p.y)
    return [int(i) for i in np.nonzero(d < dnn)[0]]


def select(ws: Workspace) -> tuple[Site, float]:
    """The optimal potential location and its distance reduction.

    Ties are broken toward the smallest potential-location id, the
    convention all methods in this library follow.
    """
    dr = distance_reductions(ws)
    best = int(np.argmax(dr))
    return ws.potentials[best], float(dr[best])


def objective_sum(ws: Workspace, extra: Site | Point | None = None) -> float:
    """The raw objective: ``sum over c of dnn(c, F u {extra})``.

    Evaluated without any precomputation — an independent cross-check
    that ``argmax dr`` and ``argmin sum-of-NFD`` agree (Definition 1 vs
    Definition 2).
    """
    cx = np.fromiter((c[0] for c in ws.instance.clients), dtype=np.float64)
    cy = np.fromiter((c[1] for c in ws.instance.clients), dtype=np.float64)
    best = np.full(len(cx), np.inf)
    sites: list[tuple[float, float]] = [(f.x, f.y) for f in ws.facilities]
    if extra is not None:
        ex, ey = (extra.x, extra.y) if isinstance(extra, Site) else (extra[0], extra[1])
        sites.append((ex, ey))
    for fx, fy in sites:
        np.minimum(best, kernels.norms(cx - fx, cy - fy), out=best)
    return float(best.sum())
