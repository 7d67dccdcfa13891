"""The RNN-tree ``R_C^n`` (Korn & Muthukrishnan, SIGMOD 2000).

The *extra* index required by the NFC method: a plain R-tree whose data
entries are the square MBRs of the clients' nearest-facility circles.
A potential location ``p`` influences client ``c`` iff ``p`` falls
strictly inside ``NFC(c)``; the tree retrieves candidate circles by MBR,
and the exact circle test runs on the stored client record.

Because the NFC of ``c`` is centred at ``c`` with radius ``dnn(c, F)``,
the square MBR encodes both: the centre is the client position and half
the edge length is the NFD — the reconstruction Algorithm 4 performs at
the leaves.
"""

from __future__ import annotations

from typing import Any, Sequence

import numpy as np

from repro.rtree.bulk import load_entries
from repro.rtree.rtree import RTree
from repro.storage.records import PAGE_SIZE, RNN_ENTRY
from repro.storage.stats import IOStats


def nfc_squares(xyd: np.ndarray) -> np.ndarray:
    """The ``(n, 4)`` NFC square MBRs of ``(x, y, dnn)`` rows:
    ``x ∓ dnn``, ``y ∓ dnn``, elementwise as ``Circle.mbr`` computes
    them, so every bound is bit-identical."""
    x, y, d = xyd[:, 0], xyd[:, 1], xyd[:, 2]
    return np.column_stack((x - d, y - d, x + d, y + d))


def build_rnn_tree(
    name: str,
    stats: IOStats,
    clients: Sequence[Any],
    xyd: np.ndarray,
    page_size: int = PAGE_SIZE,
    use_bulk_load: bool = True,
) -> RTree:
    """Build the RNN-tree over the clients' nearest-facility circles.

    Row ``i`` of the ``(n, 3)`` ``xyd`` array is the position and
    precomputed NFD of ``clients[i]``, the payload its entry carries.
    With ``use_bulk_load`` (default) the tree is packed via STR;
    otherwise it is built by repeated insertion, exercising the dynamic
    maintenance path.
    """
    tree = RTree(
        name,
        stats,
        leaf_layout=RNN_ENTRY,
        branch_layout=RNN_ENTRY,
        page_size=page_size,
    )
    xyd = np.asarray(xyd, dtype=np.float64).reshape(-1, 3)
    return load_entries(tree, nfc_squares(xyd), clients, bulk=use_bulk_load)
