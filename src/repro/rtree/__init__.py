"""A from-scratch R-tree substrate with paged I/O accounting.

Everything the paper's four methods need from a spatial index is built
here, on top of :mod:`repro.storage`:

* :class:`~repro.rtree.rtree.RTree` — Guttman R-tree (quadratic split)
  with insert, delete, window query and best-first nearest-neighbour
  search; every node occupies one simulated disk page, so node accesses
  are exactly the I/Os the paper counts.
* :func:`~repro.rtree.bulk.bulk_load` — Sort-Tile-Recursive bulk loading.
* :func:`~repro.rtree.nn.nearest_neighbor` /
  :func:`~repro.rtree.nn.incremental_nearest` /
  :func:`~repro.rtree.nn.nearest_in_quadrant` — best-first NN search
  (Hjaltason & Samet), including the quadrant-constrained variant used to
  build quasi-Voronoi cells.
* :func:`~repro.rtree.window.window_query` — range search.
* :func:`~repro.rtree.join.intersection_join` — R-tree spatial join
  (Brinkhoff et al.), the object-at-a-time skeleton of the NFC and MND
  query algorithms.
* :mod:`~repro.rtree.descent` — the level-synchronous descent the
  methods run: NFC's and MND's joins and QVC's batched window query,
  one tree level at a time, each level tested in one kernel call and
  charged with one read charge per tree.
* :func:`~repro.rtree.rnn_tree.build_rnn_tree` — the RNN-tree ``R_C^n``
  over nearest-facility circles (NFC method).
* :class:`~repro.rtree.mnd_tree.MNDTree` — the MND-augmented R-tree
  ``R_C^m`` whose parent entries carry the max-NFC-distance values
  (MND method, Section VI).
"""

from repro.rtree.bulk import bulk_load
from repro.rtree.entry import BranchEntry, LeafEntry
from repro.rtree.join import intersection_join
from repro.rtree.mnd_tree import MNDTree
from repro.rtree.nn import (
    incremental_nearest,
    k_nearest,
    nearest_in_quadrant,
    nearest_neighbor,
)
from repro.rtree.node import Node
from repro.rtree.persist import DiskRTree, ReadOnlyTreeError, save_rtree
from repro.rtree.rnn_tree import build_rnn_tree
from repro.rtree.rstar import RStarTree
from repro.rtree.rtree import RTree
from repro.rtree.validate import validate_rtree
from repro.rtree.window import window_query

__all__ = [
    "BranchEntry",
    "DiskRTree",
    "ReadOnlyTreeError",
    "save_rtree",
    "LeafEntry",
    "MNDTree",
    "Node",
    "RStarTree",
    "RTree",
    "build_rnn_tree",
    "bulk_load",
    "incremental_nearest",
    "k_nearest",
    "intersection_join",
    "nearest_in_quadrant",
    "nearest_neighbor",
    "validate_rtree",
    "window_query",
]
