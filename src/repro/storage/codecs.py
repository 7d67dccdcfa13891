"""Binary codecs for records and index entries.

The in-memory simulation enforces page *capacities* from the record
layouts; this module makes the byte story real.  All values are
little-endian; ids are unsigned 32-bit, coordinates and distances are
IEEE-754 doubles — matching the field sizes in
:mod:`repro.storage.records` and the columnar dtypes in
:mod:`repro.kernels.columnar`.

The site and client codecs translate the leaf payloads of the persisted
R-trees (:mod:`repro.rtree.persist`) to and from the one on-disk leaf
encoding, the structure-of-arrays page image of :mod:`repro.storage.soa`
(20 / 28 bytes per record, like the packed layouts):

* ``columns_from_objects`` → ``encode_soa`` — a whole leaf of payload
  objects as its page image;
* ``decode_soa`` → ``objects_from_columns`` — the way back: zero-copy
  column views of a page, then payload objects for callers that still
  need them.

Branch entries keep the packed ``encode_branch`` layout on disk.

The ``Site``/``Client`` payload types live in :mod:`repro.core.types`,
which transitively imports this module; their import sits at the bottom
of the file (after every definition this module exports) to keep a
fresh ``import repro.storage.codecs`` cycle-safe.
"""

from __future__ import annotations

import struct
from typing import Any, Protocol, Sequence, TypeVar

from repro.geometry.rect import Rect
from repro.kernels.columnar import ClientColumns, SiteColumns
from repro.storage import soa

T = TypeVar("T")


class PayloadCodec(Protocol[T]):
    """What a persisted R-tree needs from its leaf-payload codec."""

    def columns_from_objects(self, payloads: Sequence[T]) -> Any: ...

    def encode_soa(self, cols: Any) -> bytes: ...

    def decode_soa(self, data, count: int, offset: int = 0) -> Any: ...

    def objects_from_columns(self, cols: Any) -> list[T]: ...


class SiteCodec:
    """``(id, x, y)`` — 20 bytes, the paper's point record."""

    def columns_from_objects(self, payloads: Sequence[Any]) -> SiteColumns:
        """The columns of a leaf's payload objects."""
        return SiteColumns.from_sites(payloads)

    def encode_soa(self, cols: SiteColumns) -> bytes:
        """The structure-of-arrays page image of the records."""
        return soa.encode_site_columns(cols)

    def decode_soa(self, data, count: int, offset: int = 0) -> SiteColumns:
        """Zero-copy column views of a page (see :mod:`repro.storage.soa`)."""
        return soa.decode_site_columns_soa(data, count, offset=offset)

    def objects_from_columns(self, cols: SiteColumns) -> list:
        """Materialize payload objects from decoded columns."""
        return [
            Site(sid, x, y)
            for sid, x, y in zip(cols.ids.tolist(), cols.xs.tolist(), cols.ys.tolist())
        ]


class ClientCodec:
    """``(id, x, y, dnn)`` — 28 bytes, the client record."""

    def columns_from_objects(self, payloads: Sequence[Any]) -> ClientColumns:
        """The columns of a leaf's payload objects (weights are not stored)."""
        return ClientColumns.from_clients(payloads)

    def encode_soa(self, cols: ClientColumns) -> bytes:
        """The structure-of-arrays page image of the records (no weights)."""
        return soa.encode_client_columns(cols)

    def decode_soa(self, data, count: int, offset: int = 0) -> ClientColumns:
        """Zero-copy column views of a page (unit weights)."""
        return soa.decode_client_columns_soa(data, count, offset=offset)

    def objects_from_columns(self, cols: ClientColumns) -> list:
        """Materialize payload objects (unit weights: the page stores none)."""
        return [
            Client(cid, x, y, dnn)
            for cid, x, y, dnn in zip(
                cols.ids.tolist(),
                cols.xs.tolist(),
                cols.ys.tolist(),
                cols.dnn.tolist(),
            )
        ]


_RECT = struct.Struct("<dddd")


def encode_rect(rect: Rect) -> bytes:
    return _RECT.pack(rect.xmin, rect.ymin, rect.xmax, rect.ymax)


def decode_rect(data: bytes) -> Rect:
    return Rect(*_RECT.unpack(data))


RECT_SIZE = _RECT.size

#: Branch entry: MBR + child page id (+ optional 8-byte MND).
_BRANCH = struct.Struct("<ddddI")
_BRANCH_MND = struct.Struct("<ddddId")
BRANCH_SIZE = _BRANCH.size
BRANCH_MND_SIZE = _BRANCH_MND.size


def encode_branch(mbr: Rect, child_id: int, mnd: float | None) -> bytes:
    if mnd is None:
        return _BRANCH.pack(mbr.xmin, mbr.ymin, mbr.xmax, mbr.ymax, child_id)
    return _BRANCH_MND.pack(mbr.xmin, mbr.ymin, mbr.xmax, mbr.ymax, child_id, mnd)


def decode_branch(data: bytes, with_mnd: bool) -> tuple[Rect, int, float | None]:
    if with_mnd:
        x1, y1, x2, y2, child, mnd = _BRANCH_MND.unpack(data)
        return Rect(x1, y1, x2, y2), child, mnd
    x1, y1, x2, y2, child = _BRANCH.unpack(data)
    return Rect(x1, y1, x2, y2), child, None


# Bottom-of-module on purpose: repro.core.types transitively imports this
# module (core -> diskmode -> rtree.persist -> codecs), so the payload
# types can only be bound after everything persist needs is defined.
from repro.core.types import Client, Site  # noqa: E402
