"""Incremental churn engine: maintenance parity and warm-cache tools.

``repro.churn`` is the verification surface for the write path:

* :func:`verify_parity` / :func:`rebuild_twin` — prove a mutated
  :class:`~repro.core.dynamic.DynamicWorkspace` indistinguishable from
  a from-scratch rebuild (bit-exact state, byte-identical answers);
* :class:`~repro.core.regions.RegionClock` /
  :func:`~repro.core.regions.region_covers_any` — the region-scoped
  invalidation primitives, re-exported here for convenience.

What parity proves is in-place maintenance (:mod:`repro.core.dynamic`):
a facility mutation gives the affected clients their new ``dnn``
through one ``RTree.update_entries`` call per built tree, so none of
their entries is deleted or reinserted.

The CI gate is ``pytest -m smoke tests/churn``: a scripted mutation
stream with parity asserted after it, plus a live-service proof that
spatially disjoint mutations leave the select cache warm.  The matching
benchmark suite lives in :mod:`repro.bench.churn`.
"""

from repro.churn.parity import rebuild_twin, verify_parity
from repro.core.regions import RegionClock, region_covers_any

__all__ = [
    "RegionClock",
    "rebuild_twin",
    "region_covers_any",
    "verify_parity",
]
