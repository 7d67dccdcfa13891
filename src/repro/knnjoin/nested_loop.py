"""Nested-loop NN join.

The paper's baseline precomputation: "a nested loop iterating through
every client and for every client iterating through every facility",
costing O(n_c * n_f).  Vectorised over facilities with numpy so the
exactness of the baseline does not make test setup slow.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.geometry.point import Point


def nn_join_nested_loop(
    clients: Sequence[Point], facilities: Sequence[Point]
) -> list[float]:
    """``dnn(c, F)`` for every client, by exhaustive comparison.

    Returns distances aligned with ``clients``.  Raises ``ValueError``
    for an empty facility set — the min-dist query is undefined without
    existing facilities (every NFD would be infinite).
    """
    if not len(facilities):
        raise ValueError("nn join requires at least one facility")
    fx = np.fromiter((f[0] for f in facilities), dtype=np.float64)
    fy = np.fromiter((f[1] for f in facilities), dtype=np.float64)
    out: list[float] = []
    for cx, cy in clients:
        dx, dy = fx - cx, fy - cy
        out.append(float(np.sqrt((dx * dx + dy * dy).min())))
    return out
