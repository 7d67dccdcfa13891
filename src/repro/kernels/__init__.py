"""Columnar geometry kernels (`repro.kernels`).

The paper measures queries in page reads, but wall-clock time in this
reproduction used to be dominated by per-record Python work: one
``struct.unpack`` per leaf record, one distance per (candidate,
client) pair.  This package is the columnar fast path that removes
both costs without moving a single page read:

* :mod:`repro.kernels.columnar` — structure-of-arrays buffers
  (``ids: uint32[n]``, ``xs/ys: float64[n]``) and the numpy dtypes that
  mirror the packed branch entries byte for byte;
* :mod:`repro.kernels.vector` — the kernels: one ``np.frombuffer`` per
  packed branch page, batch ``minDist``/intersection/``IS(p)``/``dr``
  kernels over whole pages at once.  Leaf pages need no decode kernel:
  they are persisted as the column blocks themselves
  (:mod:`repro.storage.soa`);
* :mod:`repro.kernels.exact` — ``exact_sums``, each potential's
  correctly rounded sum of the ``dr`` terms the kernels emit;
* :mod:`repro.kernels.scalar` — the loop-per-record reference (the
  oracle).  Property tests assert **bit-identical** outputs per
  kernel, and :func:`repro.kernels.scalar.installed` runs whole queries
  on it for the parity tests and the ``kernels`` bench suite.

The package's kernels *are* :mod:`~repro.kernels.vector`'s functions,
the same objects; there is one kernel path and no dispatch.  Callers
read them as ``kernels.<fn>`` at call time, which is what lets the
oracle swap (and a tracing wrapper) reach every call::

    from repro import kernels
    from repro.kernels import scalar

    rows, terms = kernels.accumulate_reductions(px, py, cx, cy, dnn, w)
    with scalar.installed():
        ref = kernels.accumulate_reductions(px, py, cx, cy, dnn, w)
    # the same (row, term) multiset, bit for bit, in another order

``accumulate_reductions`` returns the *terms* of the influencing pairs
it finds, ``(dnn_j - d_ij) * w_j`` with each pair's candidate row, and
:func:`~repro.kernels.exact.exact_sums` (``kernels.exact_sums``) rounds
each potential's terms once, to their correctly rounded sum.  So a
``dr`` bit depends on the terms alone, never on their order or
grouping, and the kernel has two forms only for speed: *shared*, where
every candidate meets every client (SS's potential block against the
client file; NFC's and MND's candidate leaf against the clients of all
its tiles), and *tiled*, with ``p_offsets``/``c_offsets``, where each
client tile meets its own candidates (QVC's window,
:mod:`repro.core.leafpairs`).  ``exact_sums`` is not a kernel: it has
no scalar twin, since both kernel sets emit terms and share it, and it
stays out of ``__all__``.  Nor is ``norms``, the one distance formula
``sqrt(dx*dx + dy*dy)`` on arrays, which every kernel and every
array distance in :mod:`repro` computes; the scalar twin does the same
arithmetic in its own pair loop.

The exactness contract: the oracle returns the same query results, dr
vectors, traversal order and I/O accounting — only the arithmetic runs
slower.  This package imports nothing from the rest of :mod:`repro`
(numpy and the standard library only), so storage, r-tree and method layers can all build on it
without import cycles.
"""

from __future__ import annotations

from repro.kernels.columnar import (
    BRANCH_DTYPE,
    BRANCH_MND_DTYPE,
    BranchColumns,
    ClientColumns,
    RectColumns,
    SiteColumns,
)
from repro.kernels.exact import exact_sums
from repro.kernels.vector import (
    accumulate_reductions,
    circle_columns_from_rects,
    decode_branch_columns,
    influence_matrix,
    min_dist_rects_rect,
    norms,
    paired_min_dist_point,
    pairwise_min_dist_rects,
    rect_intersect_matrix,
    rects_intersect_rect,
)

__all__ = [
    "BRANCH_DTYPE",
    "BRANCH_MND_DTYPE",
    "BranchColumns",
    "ClientColumns",
    "RectColumns",
    "SiteColumns",
    "accumulate_reductions",
    "circle_columns_from_rects",
    "decode_branch_columns",
    "influence_matrix",
    "min_dist_rects_rect",
    "paired_min_dist_point",
    "pairwise_min_dist_rects",
    "rect_intersect_matrix",
    "rects_intersect_rect",
]
