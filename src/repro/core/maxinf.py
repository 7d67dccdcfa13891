"""Max-inf location selection — the other family in Table I.

The paper contrasts its *min-dist* objective with the *max-inf* family
([1], [2], [15], [16]): maximise the **number** (or total weight) of
clients influenced rather than their total distance reduction.  With
the influence machinery already in place, the max-inf variant over the
same discrete candidate set is a drop-in: count clients with
``dist(c, p) < dnn(c, F)`` instead of summing their reductions.

The module exposes both the exact counts and a selector reusing the
MND-pruned join, so the two objective families can be compared on the
same instance — they often disagree, which is exactly the distinction
Section II draws (an example is pinned in the tests).
"""

from __future__ import annotations

import numpy as np

from repro import kernels
from repro.core.mnd import MaximumNFCDistance
from repro.core.types import Site
from repro.core.workspace import Workspace


def influence_counts(ws: Workspace) -> np.ndarray:
    """Weighted influence count per candidate (brute force oracle)."""
    cx = ws.client_xyd[:, 0]
    cy = ws.client_xyd[:, 1]
    dnn = ws.client_xyd[:, 2]
    w = ws.client_w
    out = np.zeros(ws.n_p, dtype=np.float64)
    for i, (px, py) in enumerate(ws.potential_xy):
        d = kernels.norms(cx - px, cy - py)
        out[i] = w[d < dnn].sum()
    return out


class MaxInfSelection:
    """Max-inf selection over the discrete candidate set.

    Reuses the MND method's pruned influence-set join (the pruning rule
    is objective-independent: it only reasons about *which* clients a
    candidate can influence).
    """

    def __init__(self, workspace: Workspace):
        self.ws = workspace

    def influence_counts(self) -> np.ndarray:
        """Weighted influence per candidate via the MND join."""
        selector = MaximumNFCDistance(self.ws)
        selector.prepare()
        sets = selector.influence_sets()
        weight_of = {c.cid: c.weight for c in self.ws.clients}
        out = np.zeros(self.ws.n_p, dtype=np.float64)
        for sid, members in sets.items():
            out[sid] = sum(weight_of[cid] for cid in members)
        return out

    def select(self) -> tuple[Site, float]:
        """The candidate influencing the most (weighted) clients; ties
        break to the smallest id."""
        counts = self.influence_counts()
        best = int(np.argmax(counts))
        return self.ws.potentials[best], float(counts[best])
