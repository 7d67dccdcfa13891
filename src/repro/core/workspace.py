"""The query workspace: datasets, precomputation, files and indexes.

A :class:`Workspace` owns one problem instance (clients, facilities,
potential locations), precomputes ``dnn(c, F)`` once (shared by *all*
methods, as Section III-B prescribes), and lazily materialises every
storage structure any method might need:

========  =====================================================
``client_file``      flat block file of ``(x, y, dnn)`` rows (SS)
``potential_file``   flat block file of ``(x, y)`` rows (SS, QVC)
``r_c``              R-tree over client points (QVC)
``r_f``              R-tree over facility points (QVC)
``r_p``              R-tree over potential locations (NFC, MND)
``rnn_tree``         RNN-tree over NFC MBRs, ``R_C^n`` (NFC)
``mnd_tree``         MND-augmented client tree, ``R_C^m`` (MND)
========  =====================================================

Structures are built through uncounted page accesses; only query-time
reads hit the shared :class:`~repro.storage.stats.IOStats`, matching the
paper's convention of excluding index construction from query cost.
"""

from __future__ import annotations

from functools import cached_property
from itertools import repeat
from operator import attrgetter
from typing import Optional, Sequence

import numpy as np

from repro.core.regions import RegionClock
from repro.core.types import Client, Site
from repro.datasets.generators import SpatialInstance
from repro.geometry.point import COORD_LIMIT
from repro.geometry.rect import Rect
from repro.knnjoin.grid import nn_join_columns
from repro.obs.trace import NOOP_TRACER, NoopTracer, Tracer
from repro.rtree.bulk import load_entries, paused_gc
from repro.rtree.mnd_tree import MNDTree
from repro.rtree.rnn_tree import build_rnn_tree
from repro.rtree.rtree import RTree
from repro.storage.blockfile import BlockFile
from repro.storage.leafcache import DecodedLeafCache
from repro.storage.records import CLIENT_RECORD, PAGE_SIZE, POINT_RECORD, RTREE_ENTRY
from repro.storage.stats import IOStats


def _check_finite(values: np.ndarray, what: str, source: Sequence) -> np.ndarray:
    """``values`` unchanged, or a ValueError naming the first row of
    ``source`` that holds a NaN or an infinity."""
    finite = np.isfinite(values)
    if values.ndim > 1:
        finite = finite.all(axis=1)
    if not finite.all():
        index = int(np.argmin(finite))
        raise ValueError(f"{what} {index} is not finite: {source[index]!r}")
    return values


def _coordinates(points: Sequence, what: str) -> tuple[tuple, tuple, np.ndarray]:
    """A point set's coordinate objects ``(xs, ys)`` and its ``(n, 2)``
    float64 columns; a ValueError names the first point with a NaN or
    infinite coordinate, or one beyond ``COORD_LIMIT`` in magnitude."""
    xs, ys = zip(*points) if len(points) else ((), ())
    xy = np.empty((len(xs), 2), dtype=np.float64)
    xy[:, 0] = np.fromiter(xs, np.float64, len(xs))
    xy[:, 1] = np.fromiter(ys, np.float64, len(ys))
    _check_finite(xy, what, points)
    inside = (np.abs(xy) <= COORD_LIMIT).all(axis=1)
    if not inside.all():
        index = int(np.argmin(inside))
        raise ValueError(
            f"{what} {index} has a coordinate beyond 2**510 in magnitude: "
            f"{points[index]!r}"
        )
    return xs, ys, xy


def _site_xy(sites: Sequence[Site]) -> np.ndarray:
    return np.array([(s.x, s.y) for s in sites], dtype=np.float64).reshape(-1, 2)


def _point_bounds(xy: np.ndarray) -> np.ndarray:
    """Degenerate ``(x, y, x, y)`` MBR rows of point coordinates."""
    return np.column_stack((xy, xy))


class Workspace:
    """Shared state for running min-dist location selection queries."""

    #: Default simulated latency per page read.  The paper measures wall
    #: time on a 2012 desktop with a spinning disk, where time is
    #: I/O-dominated; 1 ms per 4 KiB page read (a disk with some locality
    #: and caching) recreates that regime.  Set to 0 to study pure CPU.
    DEFAULT_IO_LATENCY_S = 1e-3

    def __init__(
        self,
        instance: SpatialInstance,
        page_size: int = PAGE_SIZE,
        use_bulk_load: bool = True,
        io_latency_s: float = DEFAULT_IO_LATENCY_S,
        precomputed_dnn: Optional[Sequence[float]] = None,
        tracer: Optional[Tracer] = None,
    ):
        if instance.n_f < 1:
            raise ValueError(
                "the min-dist location selection query requires at least one "
                "existing facility (otherwise every NFD is infinite)"
            )
        if instance.n_p < 1:
            raise ValueError("no potential locations to select from")
        self.instance = instance
        self.page_size = page_size
        self.use_bulk_load = use_bulk_load
        self.io_latency_s = io_latency_s
        #: The mutation clock every cached answer keys on.  A static
        #: workspace's clock never advances;
        #: :class:`~repro.core.dynamic.DynamicWorkspace` advances it on
        #: every update path.
        self.region_clock = RegionClock()
        self.stats = IOStats()
        self.tracer: Tracer | NoopTracer = NOOP_TRACER
        if tracer is not None:
            self.attach_tracer(tracer)
        # Decoded leaf arrays, shared by all methods and all queries over
        # this workspace (the decode is CPU-only; the caller charges every
        # page read whether or not the cache hits, so io_total never
        # depends on cache state).
        self.leaf_cache = DecodedLeafCache()

        # The (x, y, dnn, w) columns come first, from the instance once;
        # the join and every index work on them.  The records share the
        # instance's coordinate objects (and one 1.0 for unit weights)
        # rather than holding copies.
        xs, ys, client_xy = _coordinates(instance.clients, "client")
        fxs, fys, facility_xy = _coordinates(instance.facilities, "facility")
        pxs, pys, self.potential_xy = _coordinates(instance.potentials, "potential")
        if instance.client_weights is None:
            self.client_w = np.ones(len(client_xy), dtype=np.float64)
            weights = repeat(1.0)
        else:
            weights = instance.client_weights
            self.client_w = _check_finite(
                np.array(weights, dtype=np.float64), "weight of client", weights
            )
        # Precompute dnn(c, F) — shared by every method, including SS.
        # Callers maintaining the join incrementally (e.g. greedy
        # multi-facility selection) can hand the vector in directly.
        if precomputed_dnn is not None:
            if len(precomputed_dnn) != len(client_xy):
                raise ValueError(
                    "precomputed_dnn length does not match the client count"
                )
            dnn = np.array(precomputed_dnn, dtype=np.float64)
        else:
            dnn = nn_join_columns(
                client_xy[:, 0], client_xy[:, 1], facility_xy[:, 0], facility_xy[:, 1]
            )
        #: Dense ``(x, y, dnn)`` rows for the scan baseline, the oracle
        #: and every client index.
        self.client_xyd = np.column_stack((client_xy, dnn))

        with paused_gc():
            self.clients: list[Client] = list(
                map(Client, range(len(dnn)), xs, ys, dnn.tolist(), weights)
            )
        self.facilities: list[Site] = list(map(Site, range(len(fxs)), fxs, fys))
        self.potentials: list[Site] = list(map(Site, range(len(pxs)), pxs, pys))

    # ------------------------------------------------------------------
    # Convenience accessors
    # ------------------------------------------------------------------
    @property
    def n_c(self) -> int:
        return len(self.clients)

    @property
    def n_f(self) -> int:
        return len(self.facilities)

    @property
    def n_p(self) -> int:
        return len(self.potentials)

    def reset_stats(self) -> None:
        """Clear I/O counters.

        The decoded-leaf cache deliberately survives: it caches a CPU
        artefact, never a charge, so keeping it warm across queries
        cannot perturb I/O accounting.
        """
        self.stats.reset()

    def invalidate_leaf_cache(self) -> None:
        """Drop every decoded leaf array (after any data mutation)."""
        self.leaf_cache.clear()

    # ------------------------------------------------------------------
    # Observability
    # ------------------------------------------------------------------
    def attach_tracer(self, tracer: Tracer) -> None:
        """Route spans and per-span I/O attribution through ``tracer``.

        Every structure charges the shared :class:`IOStats`, so binding
        the tracer there is enough for all files and trees at once.
        """
        self.tracer = tracer
        self.stats.bind_tracer(tracer)

    def detach_tracer(self) -> None:
        """Restore the zero-overhead no-op tracer."""
        self.tracer = NOOP_TRACER
        self.stats.bind_tracer(None)

    @cached_property
    def data_bounds(self) -> "Rect":
        """The instance's declared domain, grown to cover every point.

        CSV-loaded or user-built instances may hold points outside the
        default domain rectangle; clipping regions (the QVC method) must
        never exclude them, so all clipping uses this effective bound.
        Each bound is ``Rect.union_point``'s: the domain's, unless a
        point lies strictly beyond it, and then the first extreme point
        in client, facility, potential order (``np.argmin`` and
        ``np.argmax`` return first occurrences, ``±0.0`` comparing
        equal).
        """
        instance = self.instance
        domain = instance.domain
        points = [*instance.clients, *instance.facilities, *instance.potentials]
        xy = np.concatenate(
            (self.client_xyd[:, :2], _site_xy(self.facilities), self.potential_xy)
        )
        lo = [points[int(i)][k] for k, i in enumerate(np.argmin(xy, axis=0))]
        hi = [points[int(i)][k] for k, i in enumerate(np.argmax(xy, axis=0))]
        return Rect(
            min(domain.xmin, lo[0]),
            min(domain.ymin, lo[1]),
            max(domain.xmax, hi[0]),
            max(domain.ymax, hi[1]),
        )

    # ------------------------------------------------------------------
    # Flat files (SS, QVC)
    # ------------------------------------------------------------------
    @cached_property
    def client_file(self) -> BlockFile:
        """Client records as ``(x, y, dnn, weight)`` rows; the 28-byte
        slot models the paper's unweighted record (weights are an
        extension and ride along without changing the block maths)."""
        data = np.column_stack([self.client_xyd, self.client_w])
        return BlockFile("file.C", data, CLIENT_RECORD, self.stats, self.page_size)

    @cached_property
    def potential_file(self) -> BlockFile:
        """Potential locations as ``(x, y)`` rows in 20-byte slots."""
        return BlockFile(
            "file.P", self.potential_xy, POINT_RECORD, self.stats, self.page_size
        )

    # ------------------------------------------------------------------
    # Indexes
    # ------------------------------------------------------------------
    def _point_tree(
        self,
        name: str,
        xy: np.ndarray,
        payloads: Sequence,
        rects: Optional[list[Rect]] = None,
    ) -> RTree:
        tree = RTree(
            name,
            self.stats,
            leaf_layout=RTREE_ENTRY,
            page_size=self.page_size,
        )
        return load_entries(
            tree, _point_bounds(xy), payloads, self.use_bulk_load, rects
        )

    @cached_property
    def _client_rects(self) -> list[Rect]:
        """The clients' point MBRs as ``Rect`` objects over the records'
        own coordinate objects, shared by ``R_C`` and ``R_C^m`` (which
        then hold one set of MBRs between them)."""
        xs = list(map(attrgetter("x"), self.clients))
        ys = list(map(attrgetter("y"), self.clients))
        with paused_gc():
            return list(map(Rect, xs, ys, xs, ys))

    @cached_property
    def r_c(self) -> RTree:
        """``R_C``: R-tree over client points (payloads are Clients).

        Entries are MBR + pointer (the paper: "every entry of R_C stores
        only its MBR and a child node pointer"); the 36-byte layout
        applies at leaves too.
        """
        return self._point_tree(
            "R_C", self.client_xyd[:, :2], self.clients, self._client_rects
        )

    @cached_property
    def r_f(self) -> RTree:
        """``R_F``: R-tree over existing facilities."""
        return self._point_tree("R_F", _site_xy(self.facilities), self.facilities)

    @cached_property
    def r_p(self) -> RTree:
        """``R_P``: R-tree over potential locations."""
        return self._point_tree("R_P", self.potential_xy, self.potentials)

    @cached_property
    def rnn_tree(self) -> RTree:
        """``R_C^n``: the extra RNN-tree required by the NFC method."""
        return build_rnn_tree(
            "R_C^n",
            self.stats,
            self.clients,
            self.client_xyd,
            page_size=self.page_size,
            use_bulk_load=self.use_bulk_load,
        )

    @cached_property
    def mnd_tree(self) -> MNDTree:
        """``R_C^m``: the MND-augmented client tree of the MND method."""
        tree = MNDTree(
            "R_C^m", self.stats, radius_of=lambda c: c.dnn, page_size=self.page_size
        )
        bounds = _point_bounds(self.client_xyd[:, :2])
        return load_entries(
            tree, bounds, self.clients, self.use_bulk_load, self._client_rects
        )

    def __repr__(self) -> str:
        return (
            f"Workspace({self.instance.name!r}, n_c={self.n_c}, n_f={self.n_f}, "
            f"n_p={self.n_p})"
        )
