"""Structure-of-arrays buffers for records, entries and rectangles.

The geometry kernels want one contiguous numpy array per field.  This
module owns those column buffers.  Leaf pages on disk *are* such
columns (:mod:`repro.storage.soa`), so a leaf decodes as plain
``np.frombuffer`` views; branch pages keep the packed entry layout, and
the dtypes below mirror it byte for byte so a whole branch page still
decodes with a single ``np.frombuffer`` instead of ``n``
``struct.unpack`` calls:

========================  =========================  ==========
codec layout              dtype                      bytes/rec
========================  =========================  ==========
branch entry    (<ddddI)  :data:`BRANCH_DTYPE`       36
MND branch      (<ddddId) :data:`BRANCH_MND_DTYPE`   44
========================  =========================  ==========

The dtypes are packed (no alignment padding) — ``tests/kernels`` holds
property tests proving every branch buffer round-trips bit-identically
through ``encode_branch``.  Column buffers are what
:class:`~repro.storage.leafcache.DecodedLeafCache` stores: decode once,
evaluate many times, never touching per-record Python objects on the
hot path.

This module is deliberately dependency-free (numpy only): the kernels,
their scalar reference and the storage codecs may import it without
cycles.
"""

from __future__ import annotations

from typing import Any, Iterable, Optional, Sequence

import numpy as np

#: Branch entry: MBR + child page id — 36 bytes.
BRANCH_DTYPE = np.dtype(
    [
        ("xmin", "<f8"),
        ("ymin", "<f8"),
        ("xmax", "<f8"),
        ("ymax", "<f8"),
        ("child", "<u4"),
    ]
)

#: MND-augmented branch entry: MBR + child + mnd — 44 bytes.
BRANCH_MND_DTYPE = np.dtype(
    [
        ("xmin", "<f8"),
        ("ymin", "<f8"),
        ("xmax", "<f8"),
        ("ymax", "<f8"),
        ("child", "<u4"),
        ("mnd", "<f8"),
    ]
)


def _f64(values: Iterable[float], count: int) -> np.ndarray:
    return np.fromiter(values, np.float64, count)


class SiteColumns:
    """Columns of site records: ``ids: uint32[n]``, ``xs/ys: float64[n]``."""

    __slots__ = ("ids", "xs", "ys")

    def __init__(self, ids: np.ndarray, xs: np.ndarray, ys: np.ndarray):
        self.ids = ids
        self.xs = xs
        self.ys = ys

    def __len__(self) -> int:
        return len(self.ids)

    @classmethod
    def from_sites(cls, sites: Sequence[Any]) -> "SiteColumns":
        """Columns of in-memory ``Site`` records (object-at-a-time source)."""
        n = len(sites)
        return cls(
            ids=np.fromiter((s.sid for s in sites), np.uint32, n),
            xs=_f64((s.x for s in sites), n),
            ys=_f64((s.y for s in sites), n),
        )

    def __repr__(self) -> str:
        return f"SiteColumns(n={len(self)})"


class ClientColumns:
    """Columns of client records, plus the in-memory importance weights.

    ``dnn`` doubles as the circle radius when the columns describe NFCs
    reconstructed from square MBRs (the NFC method's leaf decode).  The
    on-disk layout carries no weight field; page-decoded columns default
    to unit weights.
    """

    __slots__ = ("ids", "xs", "ys", "dnn", "weights")

    def __init__(
        self,
        ids: np.ndarray,
        xs: np.ndarray,
        ys: np.ndarray,
        dnn: np.ndarray,
        weights: np.ndarray,
    ):
        self.ids = ids
        self.xs = xs
        self.ys = ys
        self.dnn = dnn
        self.weights = weights

    def __len__(self) -> int:
        return len(self.ids)

    @classmethod
    def from_clients(cls, clients: Sequence[Any]) -> "ClientColumns":
        """Columns of in-memory ``Client`` records."""
        n = len(clients)
        return cls(
            ids=np.fromiter((c.cid for c in clients), np.uint32, n),
            xs=_f64((c.x for c in clients), n),
            ys=_f64((c.y for c in clients), n),
            dnn=_f64((c.dnn for c in clients), n),
            weights=_f64((c.weight for c in clients), n),
        )

    def __repr__(self) -> str:
        return f"ClientColumns(n={len(self)})"


class RectColumns:
    """Columns of axis-aligned rectangles (``xmin/ymin/xmax/ymax``)."""

    __slots__ = ("xmin", "ymin", "xmax", "ymax")

    def __init__(
        self,
        xmin: np.ndarray,
        ymin: np.ndarray,
        xmax: np.ndarray,
        ymax: np.ndarray,
    ):
        self.xmin = xmin
        self.ymin = ymin
        self.xmax = xmax
        self.ymax = ymax

    def __len__(self) -> int:
        return len(self.xmin)

    @classmethod
    def from_rects(cls, rects: Iterable[Any]) -> "RectColumns":
        """Columns of ``Rect`` values (any 4-tuple unpacks)."""
        arr = np.array([tuple(r) for r in rects], dtype=np.float64)
        arr = arr.reshape(-1, 4)
        return cls(arr[:, 0], arr[:, 1], arr[:, 2], arr[:, 3])

    def __repr__(self) -> str:
        return f"RectColumns(n={len(self)})"


class BranchColumns:
    """Columns of branch entries: MBRs, child page ids, optional MNDs."""

    __slots__ = ("rects", "children", "mnd")

    def __init__(
        self,
        rects: RectColumns,
        children: np.ndarray,
        mnd: Optional[np.ndarray] = None,
    ):
        self.rects = rects
        self.children = children
        self.mnd = mnd

    def __len__(self) -> int:
        return len(self.children)

    @classmethod
    def from_entries(cls, entries: Sequence[Any]) -> "BranchColumns":
        """Columns of in-memory ``BranchEntry`` objects."""
        n = len(entries)
        rects = RectColumns.from_rects(e.mbr for e in entries)
        children = np.fromiter((e.child_id for e in entries), np.uint32, n)
        if n and entries[0].mnd is not None:
            mnd = _f64((e.mnd for e in entries), n)
        else:
            mnd = None
        return cls(rects, children, mnd)

    def to_bytes(self) -> bytes:
        """The exact byte string ``encode_branch`` would produce per entry."""
        dtype = BRANCH_DTYPE if self.mnd is None else BRANCH_MND_DTYPE
        out = np.empty(len(self), dtype=dtype)
        out["xmin"] = self.rects.xmin
        out["ymin"] = self.rects.ymin
        out["xmax"] = self.rects.xmax
        out["ymax"] = self.rects.ymax
        out["child"] = self.children
        if self.mnd is not None:
            out["mnd"] = self.mnd
        return out.tobytes()

    def __repr__(self) -> str:
        return f"BranchColumns(n={len(self)}, mnd={self.mnd is not None})"
