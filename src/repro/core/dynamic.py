"""Dynamic workspace updates — incremental-first.

Section VI motivates the MND method with dynamic environments: "In
dynamic environments, insertions and deletions on data occur
frequently.  Maintaining two indexes on the dataset C makes database
management ... more complicated".  ``DynamicWorkspace`` extends
:class:`~repro.core.workspace.Workspace` with live updates that keep
every materialised structure consistent **in place**:

* **client arrival/departure** — the ``dnn`` comes from one vectorised
  minimum over the facility columns
  (:class:`~repro.knnjoin.incremental.DnnMaintainer`), the dense arrays
  and the cid column gain/lose one row, and the point enters/leaves
  ``R_C``, the RNN-tree (with its NFC square) and the MND tree (whose
  augmentation is maintained by the tree's own hooks).  A departing
  client is found by one vectorised match on the cid column;
* **facility opening/closing** — the maintainer finds the affected
  clients with one vectorised pass and gives them their new ``dnn``.
  Those clients keep their leaves: one
  :meth:`~repro.rtree.rtree.RTree.update_entries` call per built tree
  moves their NFC squares in the RNN-tree, refreshes the MND values on
  their paths in the MND tree (the points do not move) and drops the
  stale leaf decodes of ``R_C``, each ancestor refreshed once, bottom
  up.  ``R_F`` gains/loses one entry.  Nothing is rebuilt, and no
  client entry is deleted, reinserted, split or condensed.

Every distance uses the grid join's ``sqrt(dx*dx + dy*dy)`` formula,
so the maintained state is **bit-identical** to a from-scratch rebuild
after any mutation stream (the ``repro.churn`` parity twin asserts
this).  Facility ids are minted by a counter and never reused — a
closure leaves a hole instead of renumbering, which is what lets
``R_F`` shed one entry instead of being dropped wholesale.

Each mutation also publishes its **affected region** — the union of
the old and new NFC bounding boxes of every client whose state changed
— to the workspace :class:`~repro.core.regions.RegionClock`, which
bumps the ``select``/``evaluate`` sub-epochs only when the region can
actually change those answers.  Version-keyed result caches key on the
sub-epochs, so spatially disjoint mutations leave them warm.

Flat files are still rebuilt lazily (they are scan structures;
rebuilding is exactly what a real system's extent map does on append);
``data_bounds`` is maintained incrementally and re-derived only when a
boundary point departs.
"""

from __future__ import annotations

from functools import cached_property
from typing import Optional, Sequence

import numpy as np

from repro.core.regions import region_covers_any
from repro.core.types import Client, Site
from repro.core.workspace import Workspace, _check_finite, _coordinates
from repro.geometry.circle import Circle
from repro.geometry.point import Point
from repro.geometry.rect import Rect
from repro.knnjoin.incremental import DnnMaintainer
from repro.rtree.mnd_tree import MNDTree
from repro.rtree.rtree import RTree


class DynamicWorkspace(Workspace):
    """A workspace supporting incremental client and facility updates."""

    # Structures rebuilt lazily after a mutation that touches them
    # (cheap scans; the dense arrays and trees update in place).
    _LAZY = ("client_file", "potential_file", "data_bounds")

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        #: Record ids in row order, beside ``client_xyd`` and
        #: ``facilities``; every update keeps them in lockstep, so an id
        #: resolves with one vectorised match instead of a record scan.
        self.client_cids = np.arange(len(self.clients), dtype=np.int64)
        self.facility_sids = np.arange(len(self.facilities), dtype=np.int64)

    # ------------------------------------------------------------------
    # Incremental maintenance plumbing
    # ------------------------------------------------------------------
    @property
    def maintainer(self) -> DnnMaintainer:
        """The lazily-built incremental NN-join engine, seeded from the
        workspace's current state (so precomputed ``dnn`` vectors — e.g.
        shard tiles — are honoured bit-for-bit)."""
        m = self.__dict__.get("_dnn_maintainer")
        if m is None:
            m = DnnMaintainer(
                self.client_xyd[:, :2],
                [(f.x, f.y) for f in self.facilities],
                dnn=self.client_xyd[:, 2],
            )
            self.__dict__["_dnn_maintainer"] = m
        return m

    def client_by_cid(self, cid: int) -> Optional[Client]:
        """The live client with id ``cid``, or None."""
        rows = np.flatnonzero(self.client_cids == cid)
        return self.clients[int(rows[0])] if len(rows) else None

    def facility_by_sid(self, sid: int) -> Optional[Site]:
        """The open facility with id ``sid``, or None."""
        rows = np.flatnonzero(self.facility_sids == sid)
        return self.facilities[int(rows[0])] if len(rows) else None

    def _invalidate(self, *names: str) -> None:
        """Drop lazily-rebuilt structures (flat files / bounds)."""
        for name in names:
            self.__dict__.pop(name, None)

    def _note_mutation(
        self, region: Optional[Rect], *, client_state_changed: bool
    ) -> None:
        """Publish one mutation: advance the region clock's epoch, and
        its sub-epochs by what the mutation can actually affect."""
        affects_select = region is not None and region_covers_any(
            region, self.potential_xy
        )
        self.region_clock.advance(
            region,
            affects_select=affects_select,
            affects_evaluate=client_state_changed,
        )

    def _grow_bounds(self, p: Point) -> None:
        """Keep a materialised ``data_bounds`` exact under insertion."""
        bounds = self.__dict__.get("data_bounds")
        if bounds is not None:
            self.__dict__["data_bounds"] = bounds.union_point(p)

    def _shrink_bounds(self, x: float, y: float) -> None:
        """Re-derive ``data_bounds`` lazily only when a boundary point
        departs (an interior removal cannot move the MBR)."""
        bounds = self.__dict__.get("data_bounds")
        if bounds is not None and (
            x in (bounds.xmin, bounds.xmax) or y in (bounds.ymin, bounds.ymax)
        ):
            del self.__dict__["data_bounds"]

    # ------------------------------------------------------------------
    # Trees: bind the scoped leaf cache on construction
    # ------------------------------------------------------------------
    @cached_property
    def r_c(self) -> RTree:
        tree = Workspace.r_c.func(self)
        tree.bind_leaf_cache(self.leaf_cache)
        return tree

    @cached_property
    def r_f(self) -> RTree:
        tree = Workspace.r_f.func(self)
        tree.bind_leaf_cache(self.leaf_cache)
        return tree

    @cached_property
    def rnn_tree(self) -> RTree:
        tree = Workspace.rnn_tree.func(self)
        tree.bind_leaf_cache(self.leaf_cache)
        return tree

    @cached_property
    def mnd_tree(self) -> MNDTree:
        tree = Workspace.mnd_tree.func(self)
        tree.bind_leaf_cache(self.leaf_cache)
        return tree

    # ------------------------------------------------------------------
    # Client updates
    # ------------------------------------------------------------------
    def _take_client_id(self) -> int:
        """A fresh, never-reused client id (removals leave holes)."""
        counter = self.__dict__.get("_cid_counter")
        if counter is None:
            counter = max((c.cid for c in self.clients), default=-1) + 1
        self.__dict__["_cid_counter"] = counter + 1
        return counter

    def add_client(
        self, point: Point | tuple[float, float], weight: float = 1.0
    ) -> Client:
        """A new client arrives; returns its record (with fresh dnn).

        Raises ValueError, before any state changes, for what the
        constructor rejects: a coordinate that is not finite or lies
        beyond ``COORD_LIMIT``, and a weight that is not finite or is
        negative."""
        p = Point(*point)
        _coordinates([p], "client")
        _check_finite(
            np.array([weight], dtype=np.float64), "weight of client", [weight]
        )
        if weight < 0:
            raise ValueError("client weights must be non-negative")
        dnn = self.maintainer.add_client(p)
        client = Client(self._take_client_id(), p[0], p[1], dnn, weight)
        self.client_cids = np.append(self.client_cids, client.cid)
        self.clients.append(client)
        if self.instance.client_weights is None and weight != 1.0:
            # The instance's implicit all-ones weights become explicit the
            # first time a weighted client arrives, so a from-scratch
            # rebuild over the instance reproduces this workspace exactly.
            self.instance.client_weights = [1.0] * len(self.instance.clients)
        self.instance.clients.append(p)
        if self.instance.client_weights is not None:
            self.instance.client_weights.append(float(weight))
        self.client_xyd = np.vstack(
            [self.client_xyd, np.array([[p[0], p[1], dnn]], dtype=np.float64)]
        )
        self.client_w = np.append(self.client_w, float(weight))
        self._invalidate("client_file", "_client_rects")
        self._grow_bounds(p)

        point_rect = Rect.from_point(p)
        nfc_mbr = Circle(p, dnn).mbr()
        if "r_c" in self.__dict__:
            self.r_c.insert(point_rect, client)
        if "rnn_tree" in self.__dict__:
            self.rnn_tree.insert(nfc_mbr, client)
        if "mnd_tree" in self.__dict__:
            self.mnd_tree.insert(point_rect, client)
        self._note_mutation(nfc_mbr, client_state_changed=True)
        return client

    def remove_client(self, client: Client) -> None:
        """A client departs; all client structures drop it."""
        rows = np.flatnonzero(self.client_cids == client.cid)
        if not len(rows):
            raise ValueError(f"unknown client {client!r}")
        index = int(rows[0])
        self.maintainer.remove_client(index)
        del self.clients[index]
        del self.instance.clients[index]
        if self.instance.client_weights is not None:
            del self.instance.client_weights[index]
        self.client_xyd = np.delete(self.client_xyd, index, axis=0)
        self.client_w = np.delete(self.client_w, index)
        self.client_cids = np.delete(self.client_cids, index)
        self._invalidate("client_file", "_client_rects")
        self._shrink_bounds(client.x, client.y)

        point_rect = Rect(client.x, client.y, client.x, client.y)
        nfc_mbr = Circle(Point(client.x, client.y), client.dnn).mbr()
        if "r_c" in self.__dict__:
            assert self.r_c.delete(point_rect, client)
        if "rnn_tree" in self.__dict__:
            assert self.rnn_tree.delete(nfc_mbr, client)
        if "mnd_tree" in self.__dict__:
            assert self.mnd_tree.delete(point_rect, client)
        self._note_mutation(nfc_mbr, client_state_changed=True)

    # ------------------------------------------------------------------
    # Facility updates
    # ------------------------------------------------------------------
    def _take_facility_id(self) -> int:
        """A fresh, never-reused facility id (closures leave holes, so
        ``R_F`` entries stay valid and shed incrementally)."""
        counter = self.__dict__.get("_sid_counter")
        if counter is None:
            counter = max((f.sid for f in self.facilities), default=-1) + 1
        self.__dict__["_sid_counter"] = counter + 1
        return counter

    def add_facility(self, point: Point | tuple[float, float]) -> Site:
        """A facility opens: affected clients' dnn (and NFCs) shrink.

        Raises ValueError, before any state changes, for a coordinate
        that is not finite or lies beyond ``COORD_LIMIT``."""
        p = Point(*point)
        _coordinates([p], "facility")
        # Materialise the maintainer from the *pre-mutation* facility
        # set before the lists change underneath its lazy constructor.
        maintainer = self.maintainer
        site = Site(self._take_facility_id(), p[0], p[1])
        self.facility_sids = np.append(self.facility_sids, site.sid)
        self.facilities.append(site)
        self.instance.facilities.append(p)
        self._grow_bounds(p)
        if "r_f" in self.__dict__:
            self.r_f.insert(Rect.from_point(p), site)

        indices, old_dnn, new_dnn = maintainer.open_facility(p)
        region = self._apply_dnn_changes(indices, old_dnn, new_dnn)
        self._note_mutation(region, client_state_changed=len(indices) > 0)
        return site

    def remove_facility(self, site: Site) -> None:
        """A facility closes: its clients fall back to the runner-up."""
        if len(self.facilities) <= 1:
            raise ValueError("cannot remove the last facility")
        try:
            index = self.facilities.index(site)
        except ValueError:
            raise ValueError(f"unknown facility {site!r}") from None
        maintainer = self.maintainer  # build from pre-mutation state
        self.facility_sids = np.delete(self.facility_sids, index)
        del self.facilities[index]
        del self.instance.facilities[index]
        if "r_f" in self.__dict__:
            assert self.r_f.delete(Rect(site.x, site.y, site.x, site.y), site)
        self._shrink_bounds(site.x, site.y)

        indices, old_dnn, new_dnn = maintainer.close_facility(
            Point(site.x, site.y)
        )
        region = self._apply_dnn_changes(indices, old_dnn, new_dnn)
        self._note_mutation(region, client_state_changed=len(indices) > 0)

    def _apply_dnn_changes(
        self,
        indices: Sequence[int],
        old_dnn: Sequence[float],
        new_dnn: Sequence[float],
    ) -> Optional[Rect]:
        """Give the given clients their new ``dnn`` and refresh every
        radius-dependent structure in place: one ``update_entries`` call
        per built tree moves the NFC squares of ``R_C^n``, refreshes the
        MND values above the unmoved points of ``R_C^m`` and drops the
        stale leaf decodes of ``R_C`` (its leaf columns carry ``dnn``).
        Returns the union of the affected old∪new NFC boxes (the
        mutation region), or None when nothing changed."""
        if len(indices) == 0:
            return None
        region: Optional[Rect] = None
        squares: list[tuple[Rect, Rect, Client]] = []
        points: list[tuple[Rect, Rect, Client]] = []
        for i, old, radius in zip(indices, old_dnn, new_dnn):
            client = self.clients[int(i)]
            client.dnn = float(radius)
            point = Point(client.x, client.y)
            old_mbr = Circle(point, float(old)).mbr()
            new_mbr = Circle(point, client.dnn).mbr()
            both = old_mbr.union(new_mbr)
            region = both if region is None else region.union(both)
            squares.append((old_mbr, new_mbr, client))
            point_rect = Rect(client.x, client.y, client.x, client.y)
            points.append((point_rect, point_rect, client))
        self.client_xyd[np.asarray(indices, dtype=np.intp), 2] = np.asarray(
            new_dnn, dtype=np.float64
        )
        self._invalidate("client_file")
        if "rnn_tree" in self.__dict__:
            self.rnn_tree.update_entries(squares)
        if "mnd_tree" in self.__dict__:
            self.mnd_tree.update_entries(points)
        if "r_c" in self.__dict__:
            self.r_c.update_entries(points)
        return region
