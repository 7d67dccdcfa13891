"""Columnar geometry kernels with switchable backends (`repro.kernels`).

The paper measures queries in page reads, but wall-clock time in this
reproduction used to be dominated by per-record Python work: one
``struct.unpack`` per leaf record, one ``math.hypot`` per (candidate,
client) pair.  This package is the columnar fast path that removes
both costs without moving a single page read:

* :mod:`repro.kernels.columnar` — structure-of-arrays buffers
  (``ids: uint32[n]``, ``xs/ys: float64[n]``) and the numpy dtypes that
  mirror the packed branch entries byte for byte;
* :mod:`repro.kernels.vector` — the default backend: one
  ``np.frombuffer`` per packed branch page, batch ``dist``/``minDist``/
  ``maxDist``/containment/``IS(p)``/``dr`` kernels over whole pages at
  once.  Leaf pages need no decode kernel: they are persisted as the
  column blocks themselves (:mod:`repro.storage.soa`);
* :mod:`repro.kernels.scalar` — the loop-per-record twin kept for
  cross-checking; property tests and the ``kernels`` bench suite
  assert **bit-identical** outputs against the vector backend.

Every public kernel dispatches through the active backend::

    from repro import kernels

    acc = kernels.accumulate_reductions(px, py, cx, cy, dnn, w)
    with kernels.use_backend("scalar"):
        ref = kernels.accumulate_reductions(px, py, cx, cy, dnn, w)
    assert (acc == ref).all()  # bitwise, not approximately

``accumulate_reductions`` also takes many tiles at once — candidate and
client columns concatenated, plus ``p_offsets``/``c_offsets`` — and
returns each candidate row's sum over its own tile, bit for bit what
one call per tile returns; the join and window tasks make one such
call each (:mod:`repro.core.leafpairs`).

The exactness contract: switching backends never changes query
results, dr vectors, traversal order, or I/O accounting — only how
fast the arithmetic runs.  ``select()`` under either backend charges
the same pages in the same order.  This package imports nothing from
the rest of :mod:`repro` (numpy only), so storage, r-tree and method
layers can all build on it without import cycles.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator

from repro.kernels import scalar, vector
from repro.kernels.columnar import (
    BRANCH_DTYPE,
    BRANCH_MND_DTYPE,
    BranchColumns,
    ClientColumns,
    RectColumns,
    SiteColumns,
)

_BACKENDS = {"vector": vector, "scalar": scalar}
_active = "vector"


def available_backends() -> tuple[str, ...]:
    """The registered backend names, sorted."""
    return tuple(sorted(_BACKENDS))


def active_backend() -> str:
    """The name of the backend kernels currently dispatch to."""
    return _active


def set_backend(name: str) -> None:
    """Select the dispatch backend (``"vector"`` or ``"scalar"``).

    The flag is process-global and intended for whole-run selection
    (benchmark cross-checks, property tests); it is not synchronized
    against concurrent query threads.
    """
    global _active
    if name not in _BACKENDS:
        raise ValueError(
            f"unknown kernel backend {name!r}; expected one of "
            f"{', '.join(available_backends())}"
        )
    _active = name


@contextmanager
def use_backend(name: str) -> Iterator[None]:
    """Temporarily select a backend, restoring the previous one on exit."""
    previous = _active
    set_backend(name)
    try:
        yield
    finally:
        set_backend(previous)


def _impl():
    return _BACKENDS[_active]


# ---------------------------------------------------------------------------
# Dispatched kernels — signatures documented in repro.kernels.vector
# ---------------------------------------------------------------------------


def decode_branch_columns(data, count, with_mnd=False, offset=0):
    """Decode a branch page of packed entries into columns."""
    return _impl().decode_branch_columns(data, count, with_mnd=with_mnd, offset=offset)


def circle_columns_from_rects(rects, ids, weights):
    """Reconstruct NFC circles (center, radius) from their square MBRs."""
    return _impl().circle_columns_from_rects(rects, ids, weights)


def pairwise_distances(px, py, cx, cy):
    """``dist(p_i, c_j)`` for every pair."""
    return _impl().pairwise_distances(px, py, cx, cy)


def accumulate_reductions(
    px, py, cx, cy, dnn, weights, p_offsets=None, c_offsets=None
):
    """Per-candidate distance-reduction sums for one tile of clients,
    or for many tiles given their candidate and client offsets."""
    return _impl().accumulate_reductions(
        px, py, cx, cy, dnn, weights, p_offsets=p_offsets, c_offsets=c_offsets
    )


def influence_matrix(px, py, cx, cy, dnn):
    """Boolean ``IS(p)`` membership per (candidate, client) pair."""
    return _impl().influence_matrix(px, py, cx, cy, dnn)


def circles_contain_point(cx, cy, radii, x, y):
    """Which circles strictly contain the point ``(x, y)``."""
    return _impl().circles_contain_point(cx, cy, radii, x, y)


def min_dist_points_rect(xs, ys, rect):
    """``minDist(p_i, rect)`` for a batch of points."""
    return _impl().min_dist_points_rect(xs, ys, rect)


def max_dist_points_rect(xs, ys, rect):
    """``maxDist(p_i, rect)`` for a batch of points."""
    return _impl().max_dist_points_rect(xs, ys, rect)


def min_dist_rects_rect(rects, rect):
    """``minDist(rects_i, rect)`` for a batch of rectangles."""
    return _impl().min_dist_rects_rect(rects, rect)


def min_dist_rects_point(rects, x, y):
    """``minDist((x, y), rects_i)``, bitwise ``Rect.min_dist_point``."""
    return _impl().min_dist_rects_point(rects, x, y)


def pairwise_min_dist_rects(a, b):
    """``minDist(a_i, b_j)`` for every pair of rectangles."""
    return _impl().pairwise_min_dist_rects(a, b)


def rects_intersect_rect(rects, rect):
    """Which rectangles intersect ``rect``."""
    return _impl().rects_intersect_rect(rects, rect)


def rect_intersect_matrix(a, b):
    """Pairwise rectangle-intersection tests."""
    return _impl().rect_intersect_matrix(a, b)


__all__ = [
    "BRANCH_DTYPE",
    "BRANCH_MND_DTYPE",
    "BranchColumns",
    "ClientColumns",
    "RectColumns",
    "SiteColumns",
    "accumulate_reductions",
    "active_backend",
    "available_backends",
    "circle_columns_from_rects",
    "circles_contain_point",
    "decode_branch_columns",
    "influence_matrix",
    "max_dist_points_rect",
    "min_dist_points_rect",
    "min_dist_rects_point",
    "min_dist_rects_rect",
    "pairwise_distances",
    "pairwise_min_dist_rects",
    "rect_intersect_matrix",
    "rects_intersect_rect",
    "set_backend",
    "use_backend",
]
