"""Region clocks: the one mutation clock every cached answer keys on.

Every workspace, and the shard coordinator, owns one
:class:`RegionClock`.  A static workspace's clock never advances; a
:class:`~repro.core.dynamic.DynamicWorkspace` advances it once per
mutation, split by *what the mutation can actually affect*:

* ``epoch`` — bumps on every mutation; it is the ``data_version`` every
  service response reports;
* ``select_epoch`` — bumps only when the mutation's **affected region**
  contains at least one potential location.  ``dr(p)`` is a sum over
  clients whose NFC strictly contains ``p`` (Section III of the paper),
  so a mutation whose affected region — the union of the old and new
  NFC bounding boxes of every client whose membership or ``dnn``
  changed — covers no potential leaves the whole ``dr`` vector, and
  hence every ``select``/``partials`` answer, unchanged;
* ``evaluate_epoch`` — bumps whenever any client's membership or
  ``dnn`` changed at all: evaluation reports embed ``n_c`` and the
  NFD sums, which see every client, not just those near a potential.

Facility-set changes with **zero** affected clients bump only
``epoch``: the answer depends on facilities solely through ``dnn``.
(Their I/O metadata can still shift — e.g. QVC reads ``R_F`` — so a
cached result served across such a mutation describes the run that
produced it; the *answer* bytes are unchanged.)

:class:`~repro.service.cache.ResultCache` keys each entry on the
sub-epoch :meth:`RegionClock.version_for` names for its operation, and
after a mutation drops exactly the entries whose sub-epoch moved.  The
clock also records the last mutation's region, which update responses
report (a shard coordinator folds the tiles' regions into its own
clock) and observers (``stats``, the ``mindist top`` view) can show.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.geometry.rect import Rect


def region_covers_any(region: Rect, points_xy: np.ndarray) -> bool:
    """Whether any ``(x, y)`` row of ``points_xy`` falls in ``region``.

    Closed-box containment: a potential exactly on the NFC bounding box
    edge cannot lie *strictly* inside the inscribed circle, so the box
    test is conservative (never misses an affected potential).
    """
    if len(points_xy) == 0:
        return False
    xs = points_xy[:, 0]
    ys = points_xy[:, 1]
    return bool(
        np.any(
            (xs >= region.xmin)
            & (xs <= region.xmax)
            & (ys >= region.ymin)
            & (ys <= region.ymax)
        )
    )


class RegionClock:
    """Per-workspace mutation clock with answer-scoped sub-epochs."""

    __slots__ = ("epoch", "select_epoch", "evaluate_epoch", "last_region")

    def __init__(self) -> None:
        self.epoch = 0
        self.select_epoch = 0
        self.evaluate_epoch = 0
        self.last_region: Optional[Rect] = None

    def advance(
        self,
        region: Optional[Rect],
        *,
        affects_select: bool,
        affects_evaluate: bool,
    ) -> None:
        """Record one mutation.

        ``region`` is the union of the old and new NFC bounding boxes of
        every client whose state changed (``None`` when no client state
        changed — e.g. opening a facility no client is drawn to).
        ``epoch`` moves first, so a reader on another thread that sees
        an unchanged ``epoch`` after reading a sub-epoch read the
        sub-epoch from before this call.
        """
        self.epoch += 1
        if affects_select:
            self.select_epoch += 1
        if affects_evaluate:
            self.evaluate_epoch += 1
        self.last_region = region

    def version_for(self, op: str) -> int:
        """The cache sub-epoch governing one operation's answers."""
        if op in ("select", "partials"):
            return self.select_epoch
        if op == "evaluate":
            return self.evaluate_epoch
        return self.epoch

    def snapshot(self) -> dict:
        """A JSON-friendly view (for ``describe()``/``stats``)."""
        return {
            "epoch": self.epoch,
            "select_epoch": self.select_epoch,
            "evaluate_epoch": self.evaluate_epoch,
            "last_region": list(self.last_region)
            if self.last_region is not None
            else None,
        }

    def __repr__(self) -> str:
        return (
            f"RegionClock(epoch={self.epoch}, select={self.select_epoch}, "
            f"evaluate={self.evaluate_epoch})"
        )
