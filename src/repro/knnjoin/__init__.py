"""Nearest-facility-distance (``dnn``) precomputation and maintenance.

Every method in the paper — including the sequential-scan baseline —
relies on ``dnn(c, F)``, each client's distance to its nearest existing
facility, being precomputed and stored with the client record
(Section III-B).  This package provides one production NN join, two
oracles for tests and one way to maintain the join under updates:

* :func:`~repro.knnjoin.grid.nn_join_columns` — the uniform-grid join
  with expanding ring search, vectorised over clients; what every
  workspace runs (:func:`~repro.knnjoin.grid.nn_join_grid` is its
  point-list form, :class:`~repro.knnjoin.grid.FacilityGrid` the
  pointwise search it matches bit for bit).
* :func:`~repro.knnjoin.nested_loop.nn_join_nested_loop` — the exact
  O(n_c * n_f) baseline the paper describes first (test oracle).
* :func:`~repro.knnjoin.rtree_join.nn_join_rtree` — per-client best-first
  NN on an R-tree over the facilities (test oracle).
* :class:`~repro.knnjoin.incremental.DnnMaintainer` — incremental
  maintenance of the join result when facilities are inserted or removed
  (the paper: "KNN-join algorithms can do this more efficiently and
  maintain the results dynamically").
"""

from repro.knnjoin.grid import FacilityGrid, nn_join_columns, nn_join_grid
from repro.knnjoin.incremental import DnnMaintainer
from repro.knnjoin.nested_loop import nn_join_nested_loop
from repro.knnjoin.rtree_join import nn_join_rtree

__all__ = [
    "DnnMaintainer",
    "FacilityGrid",
    "nn_join_columns",
    "nn_join_grid",
    "nn_join_nested_loop",
    "nn_join_rtree",
]
