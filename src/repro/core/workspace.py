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
from typing import Optional, Sequence

import numpy as np

from repro.core.regions import RegionClock
from repro.core.types import Client, Site
from repro.datasets.generators import SpatialInstance
from repro.geometry.point import Point
from repro.geometry.rect import Rect
from repro.knnjoin.grid import nn_join_grid
from repro.knnjoin.nested_loop import nn_join_nested_loop
from repro.knnjoin.rtree_join import nn_join_rtree
from repro.obs.trace import NOOP_TRACER, NoopTracer, Tracer
from repro.rtree.bulk import bulk_load
from repro.rtree.mnd_tree import MNDTree
from repro.rtree.rnn_tree import build_rnn_tree
from repro.rtree.rtree import RTree
from repro.storage.blockfile import BlockFile
from repro.storage.buffer import LRUBufferPool
from repro.storage.leafcache import DecodedLeafCache
from repro.storage.records import CLIENT_RECORD, PAGE_SIZE, POINT_RECORD, RTREE_ENTRY
from repro.storage.stats import IOStats

_JOIN_METHODS = {
    "grid": nn_join_grid,
    "nested_loop": nn_join_nested_loop,
    "rtree": nn_join_rtree,
}


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
        buffer_pool_pages: Optional[int] = None,
        use_bulk_load: bool = True,
        join_method: str = "grid",
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
        if join_method not in _JOIN_METHODS:
            raise ValueError(
                f"unknown join method {join_method!r}; "
                f"expected one of {sorted(_JOIN_METHODS)}"
            )
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
        self.buffer_pool = (
            LRUBufferPool(buffer_pool_pages) if buffer_pool_pages else None
        )
        # Decoded leaf arrays, shared by all methods and all queries over
        # this workspace (the decode is CPU-only; page reads are charged
        # by the caller before consulting the cache, so io_total never
        # depends on cache state).
        self.leaf_cache = DecodedLeafCache()

        # Precompute dnn(c, F) — shared by every method, including SS.
        # Callers maintaining the join incrementally (e.g. greedy
        # multi-facility selection) can hand the vector in directly.
        if precomputed_dnn is not None:
            if len(precomputed_dnn) != len(instance.clients):
                raise ValueError(
                    "precomputed_dnn length does not match the client count"
                )
            dnn = [float(d) for d in precomputed_dnn]
        else:
            dnn = _JOIN_METHODS[join_method](instance.clients, instance.facilities)
        weights = (
            instance.client_weights
            if instance.client_weights is not None
            else [1.0] * len(instance.clients)
        )
        self.clients: list[Client] = [
            Client(i, p[0], p[1], d, w)
            for i, (p, d, w) in enumerate(zip(instance.clients, dnn, weights))
        ]
        self.facilities: list[Site] = [
            Site(i, p[0], p[1]) for i, p in enumerate(instance.facilities)
        ]
        self.potentials: list[Site] = [
            Site(i, p[0], p[1]) for i, p in enumerate(instance.potentials)
        ]

        # Dense arrays for the vectorised scan baseline and the oracle.
        self.client_xyd = np.array(
            [(c.x, c.y, c.dnn) for c in self.clients], dtype=np.float64
        ).reshape(len(self.clients), 3)
        self.client_w = np.array([c.weight for c in self.clients], dtype=np.float64)
        self.potential_xy = np.array(
            [(s.x, s.y) for s in self.potentials], dtype=np.float64
        ).reshape(len(self.potentials), 2)

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
        """Clear I/O counters (and cold-start the buffer pool, if any).

        The decoded-leaf cache deliberately survives: it caches a CPU
        artefact, never a charge, so keeping it warm across queries
        cannot perturb I/O accounting.
        """
        self.stats.reset()
        if self.buffer_pool is not None:
            self.buffer_pool.clear()

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
        """
        bounds = self.instance.domain
        for points in (
            self.instance.clients,
            self.instance.facilities,
            self.instance.potentials,
        ):
            for p in points:
                bounds = bounds.union_point(p)
        return bounds

    # ------------------------------------------------------------------
    # Flat files (SS, QVC)
    # ------------------------------------------------------------------
    @cached_property
    def client_file(self) -> BlockFile:
        """Client records as ``(x, y, dnn, weight)`` rows; the 28-byte
        slot models the paper's unweighted record (weights are an
        extension and ride along without changing the block maths)."""
        data = np.column_stack([self.client_xyd, self.client_w])
        return BlockFile(
            "file.C",
            data,
            CLIENT_RECORD,
            self.stats,
            self.buffer_pool,
            self.page_size,
        )

    @cached_property
    def potential_file(self) -> BlockFile:
        """Potential locations as ``(x, y)`` rows in 20-byte slots."""
        return BlockFile(
            "file.P",
            self.potential_xy,
            POINT_RECORD,
            self.stats,
            self.buffer_pool,
            self.page_size,
        )

    # ------------------------------------------------------------------
    # Indexes
    # ------------------------------------------------------------------
    def _build_point_tree(self, name: str, sites: Sequence, layout) -> RTree:
        tree = RTree(
            name,
            self.stats,
            leaf_layout=layout,
            buffer_pool=self.buffer_pool,
            page_size=self.page_size,
        )
        items = [(Rect(s.x, s.y, s.x, s.y), s) for s in sites]
        if self.use_bulk_load:
            bulk_load(tree, items)
        else:
            for mbr, payload in items:
                tree.insert(mbr, payload)
        return tree

    @cached_property
    def r_c(self) -> RTree:
        """``R_C``: R-tree over client points (payloads are Clients).

        Entries are MBR + pointer (the paper: "every entry of R_C stores
        only its MBR and a child node pointer"); the 36-byte layout
        applies at leaves too.
        """
        return self._build_point_tree("R_C", self.clients, RTREE_ENTRY)

    @cached_property
    def r_f(self) -> RTree:
        """``R_F``: R-tree over existing facilities."""
        return self._build_point_tree("R_F", self.facilities, RTREE_ENTRY)

    @cached_property
    def r_p(self) -> RTree:
        """``R_P``: R-tree over potential locations."""
        return self._build_point_tree("R_P", self.potentials, RTREE_ENTRY)

    @cached_property
    def rnn_tree(self) -> RTree:
        """``R_C^n``: the extra RNN-tree required by the NFC method."""
        return build_rnn_tree(
            "R_C^n",
            self.stats,
            self.clients,
            point_of=lambda c: Point(c.x, c.y),
            dnn_of=lambda c: c.dnn,
            buffer_pool=self.buffer_pool,
            page_size=self.page_size,
            use_bulk_load=self.use_bulk_load,
        )

    @cached_property
    def mnd_tree(self) -> MNDTree:
        """``R_C^m``: the MND-augmented client tree of the MND method."""
        tree = MNDTree(
            "R_C^m",
            self.stats,
            radius_of=lambda c: c.dnn,
            buffer_pool=self.buffer_pool,
            page_size=self.page_size,
        )
        items = [(Rect(c.x, c.y, c.x, c.y), c) for c in self.clients]
        if self.use_bulk_load:
            bulk_load(tree, items)
        else:
            for mbr, payload in items:
                tree.insert(mbr, payload)
        return tree

    def __repr__(self) -> str:
        return (
            f"Workspace({self.instance.name!r}, n_c={self.n_c}, n_f={self.n_f}, "
            f"n_p={self.n_p})"
        )
