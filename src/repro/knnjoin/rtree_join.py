"""R-tree based NN join.

Builds (or reuses) an R-tree over the facilities and answers each
client's NN with the best-first algorithm.  Much slower than the
vectorised grid join, so production never runs it; it exercises the
same index the QVC method queries at run time and serves as an
independent oracle in tests.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.geometry.point import Point
from repro.geometry.rect import Rect
from repro.rtree.bulk import bulk_load
from repro.rtree.nn import nearest_neighbor
from repro.rtree.rtree import RTree
from repro.storage.stats import IOStats


def nn_join_rtree(
    clients: Sequence[Point],
    facilities: Sequence[Point],
    tree: Optional[RTree] = None,
) -> list[float]:
    """``dnn(c, F)`` for every client via best-first NN on an R-tree.

    When ``tree`` is given it must index exactly the facility points;
    otherwise a throwaway tree (with its own I/O accounting) is built.
    """
    if tree is None:
        if not len(facilities):
            raise ValueError("nn join requires at least one facility")
        tree = RTree("knnjoin.facilities", IOStats())
        points = [Point(*f) for f in facilities]
        bulk_load(tree, [Rect.from_point(p) for p in points], points)
    out: list[float] = []
    for c in clients:
        result = nearest_neighbor(tree, Point(*c))
        if result is None:
            raise ValueError("nn join requires at least one facility")
        out.append(result[0])
    return out
