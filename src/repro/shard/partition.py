"""Deterministic spatial partitioning of clients into shard tiles.

The unit of decomposition is the **tile**, never the shard count: a
partition fixes ``n_tiles`` spatial tiles of clients in one global tile
order, and a deployment assigns contiguous tile ranges to however many
shards it runs (:func:`repro.shard.executor.assign_tiles`).  Changing
the shard count only changes *placement* — every per-tile partial and
the fixed-order merge are untouched — which is what makes the sharded
answer byte-identical to the serial tile-order reference at any K (the
execution engine's worker-independent task decomposition, one level up).

Partitioning rules:

* every tile holds a non-empty subset of the clients, with their global
  ``cid`` and precomputed ``dnn`` carried over unchanged (the tile
  workspace is handed the parent's ``dnn`` slice, so no per-tile join
  can ever reproduce a different float);
* facilities and potential locations are **replicated** into every tile
  — ``dr`` sums are additive over any client partition, so each tile
  scores the full candidate table independently and partials merge by
  plain vector addition;
* the routing regions cover the whole plane (``str``: slab/row cut
  lines extended to infinity; ``grid``: out-of-bounds points clamp,
  empty cells route to the nearest non-empty cell), so any future point
  — a client arriving via ``update`` — maps to exactly one owning tile;
* fresh client ids are minted with tile stride
  (:meth:`TileWorkspace._take_client_id`), so ids stay globally unique
  across tiles without any coordination.

Two schemes:

* ``str`` (default) — a Sort-Tile-Recursive split: clients sorted by
  ``(x, y, cid)`` into near-equal-count vertical slabs, each slab sorted
  by ``(y, x, cid)`` into rows.  Always produces exactly ``n_tiles``
  non-empty tiles (ties on the cut coordinate are pushed across the
  boundary so coordinate routing reproduces the assignment).
* ``grid`` — a ``g x g`` uniform grid over the client bounding box with
  ``g = ceil(sqrt(n_tiles))``; the non-empty cells become the tiles in
  row-major order, so the realised tile count may differ from the
  target.

:func:`write_partition` persists each tile through the existing
:func:`~repro.core.diskmode.persist_indexes` manifests plus a top-level
``shards.json`` recording tile bounds, counts, routing and the
replicated site tables; :func:`load_partition` reopens it without the
source workspace.
"""

from __future__ import annotations

import json
import math
from bisect import bisect_right
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from repro.core.diskmode import DiskWorkspace, load_persisted, persist_indexes
from repro.core.dynamic import DynamicWorkspace
from repro.core.types import Site
from repro.core.workspace import Workspace
from repro.datasets.generators import SpatialInstance
from repro.geometry.point import Point
from repro.geometry.rect import Rect

#: The top-level partition manifest, next to the per-tile directories.
SHARDS_MANIFEST = "shards.json"

#: The per-tile sidecar holding what the page files cannot: global cids
#: and the exact client rows for dynamic reconstruction.
TILE_MANIFEST = "tile.json"

SCHEMES = ("str", "grid")


# ----------------------------------------------------------------------
# Tile plan: fixed tile order + total-coverage routing
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class TileSpec:
    """One tile: its id (= global merge position) and client extent."""

    tile_id: int
    n_c: int
    #: MBR of the tile's clients ``(xmin, ymin, xmax, ymax)`` —
    #: informational; routing uses the scheme's cut lines, not this box.
    bounds: tuple[float, float, float, float]


@dataclass(frozen=True)
class TilePlan:
    """The fixed tile decomposition and its point-routing function.

    ``routing`` is the scheme-specific JSON-safe payload:

    * ``str`` — ``slab_cuts`` (interior x boundaries), ``row_cuts``
      (per-slab interior y boundaries) and ``slab_offsets`` (first tile
      id of each slab);
    * ``grid`` — ``bounds`` of the cell lattice, ``nx``/``ny`` and
      ``cell_tiles`` (row-major cell -> owning tile id, empty cells
      pre-routed to the nearest non-empty cell center, ties to the
      smaller tile id).
    """

    scheme: str
    tiles: tuple[TileSpec, ...]
    routing: dict

    @property
    def n_tiles(self) -> int:
        return len(self.tiles)

    def route(self, x: float, y: float) -> int:
        """The owning tile of any point in the plane."""
        if self.scheme == "str":
            slab = bisect_right(self.routing["slab_cuts"], x)
            row = bisect_right(self.routing["row_cuts"][slab], y)
            return self.routing["slab_offsets"][slab] + row
        xmin, ymin, xmax, ymax = self.routing["bounds"]
        nx, ny = self.routing["nx"], self.routing["ny"]
        ix = 0 if xmax <= xmin else min(nx - 1, int((x - xmin) / (xmax - xmin) * nx))
        iy = 0 if ymax <= ymin else min(ny - 1, int((y - ymin) / (ymax - ymin) * ny))
        ix, iy = max(0, ix), max(0, iy)
        return self.routing["cell_tiles"][iy * nx + ix]

    def to_dict(self) -> dict:
        return {
            "scheme": self.scheme,
            "tiles": [
                {"tile_id": t.tile_id, "n_c": t.n_c, "bounds": list(t.bounds)}
                for t in self.tiles
            ],
            "routing": self.routing,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "TilePlan":
        return cls(
            scheme=data["scheme"],
            tiles=tuple(
                TileSpec(t["tile_id"], t["n_c"], tuple(t["bounds"]))
                for t in data["tiles"]
            ),
            routing=data["routing"],
        )


def _mbr(points: Sequence[tuple[float, float]]) -> tuple[float, float, float, float]:
    xs = [p[0] for p in points]
    ys = [p[1] for p in points]
    return (min(xs), min(ys), max(xs), max(ys))


def _split_sizes(n: int, parts: int) -> list[int]:
    """``n`` items into ``parts`` near-equal chunks, earlier chunks larger."""
    base, extra = divmod(n, parts)
    return [base + (1 if i < extra else 0) for i in range(parts)]


def _cut_points(order: list[int], sizes: list[int], coord) -> list[int]:
    """Split positions along ``order``, pushed past ties on ``coord``.

    Routing later separates chunks by comparing the cut coordinate, so a
    run of equal coordinates must never straddle a boundary: the split
    advances until the coordinate strictly increases.
    """
    cuts: list[int] = []
    pos = 0
    for size in sizes[:-1]:
        pos = max(pos + size, cuts[-1] + 1 if cuts else 1)
        while pos < len(order) and coord(order[pos - 1]) == coord(order[pos]):
            pos += 1
        if pos >= len(order):
            raise ValueError(
                "cannot split clients here: a run of equal coordinates "
                "swallows a whole tile — use fewer tiles"
            )
        cuts.append(pos)
    return cuts


def _chunks(order: list[int], cuts: list[int]) -> list[list[int]]:
    bounds = [0, *cuts, len(order)]
    return [order[a:b] for a, b in zip(bounds, bounds[1:])]


def _str_plan(
    points: Sequence[tuple[float, float]], n_tiles: int
) -> tuple[TilePlan, list[list[int]]]:
    n = len(points)
    slabs = math.ceil(math.sqrt(n_tiles))
    rows_per_slab = _split_sizes(n_tiles, slabs)
    order = sorted(range(n), key=lambda i: (points[i][0], points[i][1], i))
    # Point budget per slab is proportional to its row count, so the
    # final tiles are near-equal no matter how n_tiles factors.
    tile_sizes = _split_sizes(n, n_tiles)
    slab_sizes = []
    at = 0
    for rows in rows_per_slab:
        slab_sizes.append(sum(tile_sizes[at : at + rows]))
        at += rows
    slab_cuts = _cut_points(order, slab_sizes, lambda i: points[i][0])
    slab_members = _chunks(order, slab_cuts)

    members: list[list[int]] = []
    row_cuts: list[list[float]] = []
    slab_offsets: list[int] = []
    for slab, rows in zip(slab_members, rows_per_slab):
        slab_offsets.append(len(members))
        by_y = sorted(slab, key=lambda i: (points[i][1], points[i][0], i))
        cuts = _cut_points(by_y, _split_sizes(len(by_y), rows), lambda i: points[i][1])
        row_cuts.append([points[by_y[c]][1] for c in cuts])
        members.extend(_chunks(by_y, cuts))

    tiles = tuple(
        TileSpec(t, len(m), _mbr([points[i] for i in m]))
        for t, m in enumerate(members)
    )
    plan = TilePlan(
        scheme="str",
        tiles=tiles,
        routing={
            "slab_cuts": [points[order[c]][0] for c in slab_cuts],
            "row_cuts": row_cuts,
            "slab_offsets": slab_offsets,
        },
    )
    # Within a tile, clients keep global-cid order.
    return plan, [sorted(m) for m in members]


def _grid_plan(
    points: Sequence[tuple[float, float]], n_tiles: int
) -> tuple[TilePlan, list[list[int]]]:
    g = math.ceil(math.sqrt(n_tiles))
    xmin, ymin, xmax, ymax = _mbr(points)
    bounds = (xmin, ymin, xmax, ymax)

    def cell_of(x: float, y: float) -> tuple[int, int]:
        ix = 0 if xmax <= xmin else min(g - 1, int((x - xmin) / (xmax - xmin) * g))
        iy = 0 if ymax <= ymin else min(g - 1, int((y - ymin) / (ymax - ymin) * g))
        return ix, iy

    by_cell: dict[int, list[int]] = {}
    for i, (x, y) in enumerate(points):
        ix, iy = cell_of(x, y)
        by_cell.setdefault(iy * g + ix, []).append(i)

    occupied = sorted(by_cell)  # row-major = the fixed global tile order
    tile_of_cell = {cell: t for t, cell in enumerate(occupied)}
    cell_w = (xmax - xmin) / g if xmax > xmin else 0.0
    cell_h = (ymax - ymin) / g if ymax > ymin else 0.0

    def center(cell: int) -> tuple[float, float]:
        iy, ix = divmod(cell, g)
        return (xmin + (ix + 0.5) * cell_w, ymin + (iy + 0.5) * cell_h)

    cell_tiles: list[int] = []
    for cell in range(g * g):
        if cell in tile_of_cell:
            cell_tiles.append(tile_of_cell[cell])
            continue
        # Empty cell: route to the nearest occupied cell center, ties
        # resolving to the smaller tile id (occupied is id-ordered).
        cx, cy = center(cell)
        best, best_d = 0, math.inf
        for t, occ in enumerate(occupied):
            ox, oy = center(occ)
            d = (ox - cx) ** 2 + (oy - cy) ** 2
            if d < best_d:
                best, best_d = t, d
        cell_tiles.append(best)

    members = [sorted(by_cell[cell]) for cell in occupied]
    tiles = tuple(
        TileSpec(t, len(m), _mbr([points[i] for i in m]))
        for t, m in enumerate(members)
    )
    plan = TilePlan(
        scheme="grid",
        tiles=tiles,
        routing={
            "bounds": list(bounds),
            "nx": g,
            "ny": g,
            "cell_tiles": cell_tiles,
        },
    )
    return plan, members


# ----------------------------------------------------------------------
# Tile workspaces
# ----------------------------------------------------------------------
class TileWorkspace(DynamicWorkspace):
    """One tile's workspace: global cids, stride-minted fresh ids.

    Clients carry their **global** ids (reassigned right after
    construction, before any index is built), so a coordinator can route
    ``remove_client`` by id across tiles without a directory.  Fresh ids
    minted by ``add_client`` are ``cid_stride_base + tile_id + k *
    n_tiles`` — congruent to the tile id modulo the tile count — so
    concurrent tiles can never collide.
    """

    def __init__(
        self,
        instance: SpatialInstance,
        tile_id: int,
        n_tiles: int,
        cids: Sequence[int],
        cid_stride_base: int,
        **kwargs,
    ):
        super().__init__(instance, **kwargs)
        if len(cids) != len(self.clients):
            raise ValueError(
                f"tile {tile_id}: {len(cids)} cids for {len(self.clients)} clients"
            )
        for client, cid in zip(self.clients, cids):
            client.cid = int(cid)
        self.client_cids = np.array([c.cid for c in self.clients], dtype=np.int64)
        self.tile_id = tile_id
        self.n_tiles = n_tiles
        self.cid_stride_base = cid_stride_base

    def _take_client_id(self) -> int:
        nxt = self.__dict__.get("_tile_cid_next")
        if nxt is None:
            minted = [
                c.cid
                for c in self.clients
                if c.cid >= self.cid_stride_base
                and (c.cid - self.cid_stride_base) % self.n_tiles == self.tile_id
            ]
            nxt = (
                max(minted) + self.n_tiles
                if minted
                else self.cid_stride_base + self.tile_id
            )
        self.__dict__["_tile_cid_next"] = nxt + self.n_tiles
        return nxt


@dataclass
class ShardPartition:
    """An in-memory partition: the plan plus one workspace per tile."""

    plan: TilePlan
    tiles: tuple[TileWorkspace, ...]
    #: The replicated candidate table (identical in every tile).
    potentials: list[Site]
    cid_stride_base: int

    @property
    def n_tiles(self) -> int:
        return self.plan.n_tiles

    @property
    def n_p(self) -> int:
        return len(self.potentials)


def partition_workspace(
    ws: Workspace, n_tiles: int, scheme: str = "str"
) -> ShardPartition:
    """Split ``ws``'s clients into tile workspaces (sites replicated).

    Each tile receives the parent's ``dnn`` slice as ``precomputed_dnn``
    — byte-identical floats, and no per-tile join — plus the full
    facility and candidate tables.
    """
    if scheme not in SCHEMES:
        raise ValueError(f"unknown scheme {scheme!r}; expected one of {SCHEMES}")
    if n_tiles < 1:
        raise ValueError("n_tiles must be >= 1")
    if n_tiles > ws.n_c:
        raise ValueError(
            f"cannot cut {ws.n_c} clients into {n_tiles} non-empty tiles"
        )
    points = [(c.x, c.y) for c in ws.clients]
    build = _str_plan if scheme == "str" else _grid_plan
    plan, members = build(points, n_tiles)
    cid_stride_base = max(c.cid for c in ws.clients) + 1
    tiles = []
    for spec, member in zip(plan.tiles, members):
        clients = [ws.clients[i] for i in member]
        instance = SpatialInstance(
            name=f"{ws.instance.name}/tile{spec.tile_id:04d}",
            clients=[Point(c.x, c.y) for c in clients],
            facilities=list(ws.instance.facilities),
            potentials=list(ws.instance.potentials),
            domain=ws.instance.domain,
            client_weights=[c.weight for c in clients],
        )
        tiles.append(
            TileWorkspace(
                instance,
                tile_id=spec.tile_id,
                n_tiles=plan.n_tiles,
                cids=[c.cid for c in clients],
                cid_stride_base=cid_stride_base,
                page_size=ws.page_size,
                io_latency_s=ws.io_latency_s,
                precomputed_dnn=[c.dnn for c in clients],
            )
        )
    return ShardPartition(
        plan=plan,
        tiles=tuple(tiles),
        potentials=list(ws.potentials),
        cid_stride_base=cid_stride_base,
    )


# ----------------------------------------------------------------------
# Persistence
# ----------------------------------------------------------------------
def _tile_dirname(tile_id: int) -> str:
    return f"tile-{tile_id:04d}"


def write_partition(partition: ShardPartition, directory: str | Path) -> Path:
    """Persist a partition: ``shards.json`` + one directory per tile.

    Every tile is frozen through the existing
    :func:`~repro.core.diskmode.persist_indexes` manifests (so
    :class:`~repro.core.diskmode.DiskWorkspace` reopens it unchanged),
    plus a ``tile.json`` sidecar with the global cids and exact client
    rows the page files cannot carry — what dynamic reconstruction needs
    to reproduce the tile workspace float for float.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    sample = partition.tiles[0]
    for tile in partition.tiles:
        tile_dir = directory / _tile_dirname(tile.tile_id)
        persist_indexes(tile, tile_dir)
        (tile_dir / TILE_MANIFEST).write_text(
            json.dumps(
                {
                    "tile_id": tile.tile_id,
                    "cids": [c.cid for c in tile.clients],
                    "clients": [
                        [c.x, c.y, c.dnn, c.weight] for c in tile.clients
                    ],
                },
                indent=2,
            )
            + "\n"
        )
    domain = sample.instance.domain
    payload = {
        "schema_version": 1,
        "n_c": sum(t.n_c for t in partition.tiles),
        "n_f": sample.n_f,
        "n_p": partition.n_p,
        "cid_stride_base": partition.cid_stride_base,
        "io_latency_s": sample.io_latency_s,
        "page_size": sample.page_size,
        "domain": [domain.xmin, domain.ymin, domain.xmax, domain.ymax],
        "facilities": [[s.x, s.y] for s in sample.facilities],
        "potentials": [[s.x, s.y] for s in partition.potentials],
        "plan": partition.plan.to_dict(),
        "tiles": [
            {
                "tile_id": t.tile_id,
                "dir": _tile_dirname(t.tile_id),
                "n_c": t.n_c,
                "bounds": list(partition.plan.tiles[t.tile_id].bounds),
            }
            for t in partition.tiles
        ],
    }
    (directory / SHARDS_MANIFEST).write_text(json.dumps(payload, indent=2) + "\n")
    return directory


@dataclass
class PersistedPartition:
    """A partition directory reopened from its ``shards.json``."""

    directory: Path
    plan: TilePlan
    facilities: list[tuple[float, float]]
    potentials: list[tuple[float, float]]
    domain: Rect
    cid_stride_base: int
    io_latency_s: float
    page_size: int

    @property
    def n_tiles(self) -> int:
        return self.plan.n_tiles

    def potential_sites(self) -> list[Site]:
        return [Site(i, x, y) for i, (x, y) in enumerate(self.potentials)]

    def tile_dir(self, tile_id: int) -> Path:
        return self.directory / _tile_dirname(tile_id)

    def load_tile(self, tile_id: int, mode: str = "dynamic"):
        """Reopen one tile workspace.

        ``mode="dynamic"`` (the serving default) reconstructs a live
        :class:`TileWorkspace` — byte-identical clients, dnn, weights
        and site tables — that accepts updates; ``mode="disk"`` opens
        the persisted page files read-only through
        :class:`~repro.core.diskmode.DiskWorkspace`.
        """
        if mode == "disk":
            return DiskWorkspace(
                load_persisted(self.tile_dir(tile_id)),
                io_latency_s=self.io_latency_s,
            )
        if mode != "dynamic":
            raise ValueError(f"unknown tile mode {mode!r}")
        sidecar = json.loads((self.tile_dir(tile_id) / TILE_MANIFEST).read_text())
        rows = sidecar["clients"]
        instance = SpatialInstance(
            name=f"{self.directory.name}/tile{tile_id:04d}",
            clients=[Point(r[0], r[1]) for r in rows],
            facilities=[Point(x, y) for x, y in self.facilities],
            potentials=[Point(x, y) for x, y in self.potentials],
            domain=self.domain,
            client_weights=[r[3] for r in rows],
        )
        return TileWorkspace(
            instance,
            tile_id=tile_id,
            n_tiles=self.n_tiles,
            cids=sidecar["cids"],
            cid_stride_base=self.cid_stride_base,
            page_size=self.page_size,
            io_latency_s=self.io_latency_s,
            precomputed_dnn=[r[2] for r in rows],
        )

    def load_tiles(
        self, tile_ids: Optional[Sequence[int]] = None, mode: str = "dynamic"
    ) -> dict[int, Workspace]:
        ids = list(tile_ids) if tile_ids is not None else list(range(self.n_tiles))
        return {tile_id: self.load_tile(tile_id, mode=mode) for tile_id in ids}


def load_partition(directory: str | Path) -> PersistedPartition:
    """Reopen a partition directory from its ``shards.json``."""
    directory = Path(directory)
    manifest = directory / SHARDS_MANIFEST
    if not manifest.exists():
        raise FileNotFoundError(
            f"{manifest}: no partition manifest — was this directory written "
            "by write_partition()?"
        )
    payload = json.loads(manifest.read_text())
    return PersistedPartition(
        directory=directory,
        plan=TilePlan.from_dict(payload["plan"]),
        facilities=[tuple(p) for p in payload["facilities"]],
        potentials=[tuple(p) for p in payload["potentials"]],
        domain=Rect(*payload["domain"]),
        cid_stride_base=int(payload["cid_stride_base"]),
        io_latency_s=float(payload["io_latency_s"]),
        page_size=int(payload["page_size"]),
    )
