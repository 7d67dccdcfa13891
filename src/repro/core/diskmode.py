"""Running queries against persisted (on-disk) indexes.

``persist_indexes`` freezes a workspace's query structures into binary
page files; ``DiskWorkspace`` reopens them read-only and duck-types
enough of :class:`~repro.core.workspace.Workspace` for all four paper
methods (SS, QVC, NFC, MND) to run unmodified — every node or block
fetched is served from real file bytes and counted as an I/O, making
this the closest simulation of the paper's disk-resident setting.

Persisted per workspace (``manifest.json`` records the layout):

========================  ==========================================
``r_c_m.pages``           ``R_C^m`` — MND-augmented client tree
``r_p.pages``             ``R_P`` — potential-location tree
``r_c.pages``             ``R_C`` — client point tree (QVC)
``r_f.pages``             ``R_F`` — facility tree (QVC)
``r_c_n.pages``           ``R_C^n`` — RNN-tree over NFCs (NFC)
``file_c.pages``          the flat client file (SS)
``file_p.pages``          the flat potential file (SS, QVC)
========================  ==========================================

There is one format and one reader: leaf and block pages hold the
structure-of-arrays column blocks of :mod:`repro.storage.soa`, and
every file is served as zero-copy views of one ``mmap``
(:class:`~repro.storage.diskfile.PageFile`).  A leaf read therefore
does no decode work at all — the page already is the column block the
batch kernels consume — and answers and I/O accounting are identical
to the in-memory workspace (``repro.bench.scale`` enforces both).
Each tree and block file decodes a page at most once while it is open
and charges every read as before; :meth:`DiskWorkspace.invalidate_leaf_cache`
drops those decodes along with the leaf cache.

Client leaf pages carry no weight field, so only a workspace whose
client weights are all 1 can be persisted; :func:`persist_indexes`
refuses any other with :class:`WeightedPersistError` before it writes
a byte (the flat client file keeps weights, and disk SS would answer
weighted while QVC, NFC and MND answered unit-weight).

Typical flow::

    paths = persist_indexes(ws, directory)
    frozen = DiskWorkspace(load_persisted(directory))
    result = MaximumNFCDistance(frozen).select()   # answers from disk
"""

from __future__ import annotations

import json
from contextlib import ExitStack
from dataclasses import dataclass, fields
from functools import cached_property
from pathlib import Path
from typing import Optional

import numpy as np

from repro.core.regions import RegionClock
from repro.core.types import Site
from repro.core.workspace import Workspace
from repro.geometry.rect import Rect
from repro.obs.trace import NOOP_TRACER, Tracer
from repro.rtree.persist import DiskRTree, save_rtree
from repro.storage.codecs import ClientCodec, SiteCodec
from repro.storage.diskblocks import DiskBlockFile, save_block_file
from repro.storage.leafcache import DecodedLeafCache
from repro.storage.records import CLIENT_RECORD, POINT_RECORD, PAGE_SIZE
from repro.storage.stats import IOStats

MANIFEST_NAME = "manifest.json"


@dataclass(frozen=True)
class PersistedIndexes:
    """File locations and counts of a frozen query workspace."""

    directory: Path
    mnd_tree_path: Path
    r_p_path: Path
    n_p: int
    r_c_path: Path
    r_f_path: Path
    rnn_tree_path: Path
    client_file_path: Path
    potential_file_path: Path
    n_c: int
    n_f: int
    #: Effective data bounds ``(xmin, ymin, xmax, ymax)`` — the QVC
    #: clipping domain.  JSON float repr round-trips doubles exactly.
    bounds: tuple[float, float, float, float]


_PATH_FIELDS = (
    "mnd_tree_path",
    "r_p_path",
    "r_c_path",
    "r_f_path",
    "rnn_tree_path",
    "client_file_path",
    "potential_file_path",
)


class WeightedPersistError(ValueError):
    """A workspace with a client weight other than 1 cannot be persisted:
    its client leaf pages would carry unit weights."""


def persist_indexes(
    ws: Workspace, directory: str | Path, leaf_format: str = "columns"
) -> PersistedIndexes:
    """Serialise every structure the four methods touch to ``directory``.

    Writes the seven page files plus a ``manifest.json``, so
    :func:`load_persisted` can reopen the directory without the source
    workspace.  ``leaf_format`` is kept for callers of the retired
    two-format API and accepts only ``"columns"``, the one encoding.
    Raises :class:`WeightedPersistError`, writing nothing, when a client
    weight is not 1.
    """
    if leaf_format != "columns":
        raise ValueError(
            f"leaf_format={leaf_format!r} is not supported; page files are "
            "always written with leaf_format='columns'"
        )
    weighted = np.flatnonzero(ws.client_w != 1.0)
    if len(weighted):
        i = int(weighted[0])
        raise WeightedPersistError(
            f"cannot persist a weighted workspace: client leaf pages carry no "
            f"weight field ({len(weighted)} clients weigh other than 1, "
            f"client row {i} weighs {float(ws.client_w[i])!r})"
        )
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    mnd_path = directory / "r_c_m.pages"
    r_p_path = directory / "r_p.pages"
    r_c_path = directory / "r_c.pages"
    r_f_path = directory / "r_f.pages"
    rnn_path = directory / "r_c_n.pages"
    file_c_path = directory / "file_c.pages"
    file_p_path = directory / "file_p.pages"
    save_rtree(ws.mnd_tree, mnd_path, ClientCodec())
    save_rtree(ws.r_p, r_p_path, SiteCodec())
    save_rtree(ws.r_c, r_c_path, ClientCodec())
    save_rtree(ws.r_f, r_f_path, SiteCodec())
    save_rtree(ws.rnn_tree, rnn_path, ClientCodec())
    # Block capacities are the *logical* per-page record counts of the
    # in-memory layouts, which pins block counts (and io_total) to the
    # memory workspace exactly.
    client_matrix = np.column_stack([ws.client_xyd, ws.client_w])
    save_block_file(file_c_path, client_matrix, CLIENT_RECORD.capacity(PAGE_SIZE))
    save_block_file(file_p_path, ws.potential_xy, POINT_RECORD.capacity(PAGE_SIZE))
    bounds = ws.data_bounds
    indexes = PersistedIndexes(
        directory=directory,
        mnd_tree_path=mnd_path,
        r_p_path=r_p_path,
        n_p=ws.n_p,
        r_c_path=r_c_path,
        r_f_path=r_f_path,
        rnn_tree_path=rnn_path,
        client_file_path=file_c_path,
        potential_file_path=file_p_path,
        n_c=ws.n_c,
        n_f=ws.n_f,
        bounds=(bounds.xmin, bounds.ymin, bounds.xmax, bounds.ymax),
    )
    _write_manifest(indexes)
    return indexes


def _write_manifest(indexes: PersistedIndexes) -> None:
    payload = {}
    for field in fields(PersistedIndexes):
        value = getattr(indexes, field.name)
        if field.name == "directory":
            continue
        if field.name in _PATH_FIELDS:
            value = Path(value).name  # manifest stays relocatable
        if isinstance(value, tuple):
            value = list(value)
        payload[field.name] = value
    (indexes.directory / MANIFEST_NAME).write_text(
        json.dumps(payload, indent=2) + "\n"
    )


def load_persisted(directory: str | Path) -> PersistedIndexes:
    """Reopen a persisted directory from its ``manifest.json``."""
    directory = Path(directory)
    manifest = directory / MANIFEST_NAME
    if not manifest.exists():
        raise FileNotFoundError(
            f"{manifest}: no manifest — was this directory written by "
            "persist_indexes()?"
        )
    payload = json.loads(manifest.read_text())
    kwargs = {"directory": directory}
    for field in fields(PersistedIndexes):
        if field.name == "directory":
            continue
        value = payload[field.name]
        if field.name in _PATH_FIELDS:
            value = directory / value
        if field.name == "bounds":
            value = tuple(value)
        kwargs[field.name] = value
    return PersistedIndexes(**kwargs)


class DiskWorkspace:
    """A read-only workspace view over persisted indexes.

    Exposes every attribute the four methods touch — trees, flat files,
    ``potentials``, ``data_bounds``, ``stats``, ``leaf_cache``,
    ``io_latency_s`` — with each structure opened lazily on first use
    (the MND pair eagerly, to validate the directory at construction).
    Every page file is served through one ``mmap`` (zero-copy reads).
    ``mapped`` is kept for callers of the retired two-reader API and
    accepts only ``True``.  Mutating accessors do not exist.
    """

    def __init__(
        self,
        indexes: PersistedIndexes,
        stats: Optional[IOStats] = None,
        io_latency_s: float = Workspace.DEFAULT_IO_LATENCY_S,
        mapped: bool = True,
    ):
        if mapped is not True:
            raise ValueError(
                f"mapped={mapped!r} is not supported; page files are always "
                "served with mapped=True"
            )
        self.indexes = indexes
        self.stats = stats or IOStats()
        self.tracer = NOOP_TRACER
        self.io_latency_s = io_latency_s
        self.leaf_cache = DecodedLeafCache()
        #: Never advances: a read-only view has no mutations to count.
        self.region_clock = RegionClock()
        # Whatever opened before a failure is closed again on the way out.
        with ExitStack() as opened:
            self.mnd_tree = opened.enter_context(
                DiskRTree(
                    "R_C^m",
                    indexes.mnd_tree_path,
                    ClientCodec(),
                    self.stats,
                    radius_of=lambda c: c.dnn,
                )
            )
            self.r_p = opened.enter_context(
                DiskRTree("R_P", indexes.r_p_path, SiteCodec(), self.stats)
            )
            # Rebuild the candidate table from the R_P leaves (ids are the
            # original candidate ids, so ordering by id restores it).
            sites = [entry.payload for entry in self.r_p.iter_leaf_entries()]
            sites.sort(key=lambda s: s.sid)
            self.potentials: list[Site] = sites
            if len(self.potentials) != indexes.n_p:
                raise ValueError(
                    f"persisted R_P holds {len(self.potentials)} candidates, "
                    f"metadata promises {indexes.n_p}"
                )
            opened.pop_all()

    # ------------------------------------------------------------------
    # Lazily opened structures (QVC / NFC / SS)
    # ------------------------------------------------------------------
    @cached_property
    def r_c(self) -> DiskRTree:
        """``R_C``: the client point tree (QVC)."""
        return DiskRTree("R_C", self.indexes.r_c_path, ClientCodec(), self.stats)

    @cached_property
    def r_f(self) -> DiskRTree:
        """``R_F``: the facility tree (QVC quadrant NN queries)."""
        return DiskRTree("R_F", self.indexes.r_f_path, SiteCodec(), self.stats)

    @cached_property
    def rnn_tree(self) -> DiskRTree:
        """``R_C^n``: the RNN-tree over NFC circles (NFC method).

        Leaf entry MBRs are the squares around each client's NFC,
        derived from the columns (``leaf_shape="circle"``) bit-identical
        to the in-memory tree.
        """
        return DiskRTree(
            "R_C^n",
            self.indexes.rnn_tree_path,
            ClientCodec(),
            self.stats,
            leaf_shape="circle",
        )

    @cached_property
    def client_file(self) -> DiskBlockFile:
        """``file.C``: the flat client file of the SS scan."""
        return DiskBlockFile("file.C", self.indexes.client_file_path, self.stats)

    @cached_property
    def potential_file(self) -> DiskBlockFile:
        """``file.P``: the flat potential-location file (SS, QVC)."""
        return DiskBlockFile("file.P", self.indexes.potential_file_path, self.stats)

    @cached_property
    def data_bounds(self) -> Rect:
        """The effective clipping domain (QVC), from the manifest."""
        return Rect(*self.indexes.bounds)

    # ------------------------------------------------------------------
    @property
    def n_p(self) -> int:
        return len(self.potentials)

    @property
    def n_c(self) -> int:
        return self.indexes.n_c

    @property
    def n_f(self) -> int:
        return self.indexes.n_f

    def reset_stats(self) -> None:
        self.stats.reset()

    def invalidate_leaf_cache(self) -> None:
        """Drop every decode: the leaf cache and each open file's pages."""
        self.leaf_cache.clear()
        for opened in self._opened():
            opened.drop_decoded()

    def attach_tracer(self, tracer: Tracer) -> None:
        self.tracer = tracer
        self.stats.bind_tracer(tracer)

    def detach_tracer(self) -> None:
        self.tracer = NOOP_TRACER
        self.stats.bind_tracer(None)

    def close(self) -> None:
        # The leaf cache holds column views of the maps.
        self.leaf_cache.clear()
        for opened in self._opened():
            opened.close()

    def _opened(self):
        """Every page file opened so far (the lazy ones only once used)."""
        yield self.mnd_tree
        yield self.r_p
        for attr in ("r_c", "r_f", "rnn_tree", "client_file", "potential_file"):
            opened = self.__dict__.get(attr)
            if opened is not None:
                yield opened

    def __enter__(self) -> "DiskWorkspace":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
