"""Structure-of-arrays (columnar) page layouts — the one persisted format.

Leaf and block pages store one contiguous column block per field, in
the exact dtypes of :mod:`repro.kernels.columnar`.  Decoding such a
page is pure ``np.frombuffer`` pointer arithmetic — zero copies, zero
per-record work — which, over the ``mmap`` views that
:class:`~repro.storage.diskfile.PageFile` serves, makes a leaf read
end-to-end zero-copy.

Layouts (per page, after the owner's 4-byte ``<HH`` header)::

    site leaf:    xs f8[n] | ys f8[n] | ids u4[n]            (20 n bytes)
    client leaf:  xs f8[n] | ys f8[n] | dnn f8[n] | ids u4[n] (28 n)
    block page:   col_0 f8[n] | col_1 f8[n] | ... | col_{k-1} f8[n]

Bytes per record equal the packed record layouts of
:mod:`repro.storage.records`, so every node or block the in-memory
capacities admit fits its page.  Columns begin at page offset 4; with
the 20-byte file header and a page size divisible by 8, every ``f8``
column lands 8-byte aligned *in the file* (absolute offset
``20 + 4096·k + 4 + 8·n·j``), so mapped views are aligned loads.

Decoded arrays are views over the caller's buffer (page bytes or a
mapped ``memoryview``) — treat them as read-only.  Weights are not part
of the on-disk client layout; decoded client columns carry unit
weights.
"""

from __future__ import annotations

import struct
from typing import Iterator, Union

import numpy as np

from repro.kernels.columnar import ClientColumns, SiteColumns

Buffer = Union[bytes, bytearray, memoryview]

#: Block-page header: record count + column count.
_BLOCK_HEADER = struct.Struct("<HH")
BLOCK_HEADER_SIZE = _BLOCK_HEADER.size

_F8 = np.dtype("<f8")
_U4 = np.dtype("<u4")


def _f8_column(data: Buffer, count: int, offset: int) -> np.ndarray:
    return np.frombuffer(data, dtype=_F8, count=count, offset=offset)


# ---------------------------------------------------------------------------
# R-tree leaf payloads
# ---------------------------------------------------------------------------


def encode_site_columns(cols: SiteColumns) -> bytes:
    """The column-block image of ``n`` site records (no header)."""
    return b"".join(
        (
            np.ascontiguousarray(cols.xs, dtype=_F8).tobytes(),
            np.ascontiguousarray(cols.ys, dtype=_F8).tobytes(),
            np.ascontiguousarray(cols.ids, dtype=_U4).tobytes(),
        )
    )


def decode_site_columns_soa(
    data: Buffer, count: int, offset: int = 0
) -> SiteColumns:
    """Zero-copy column views of an encoded site block."""
    return SiteColumns(
        ids=np.frombuffer(data, dtype=_U4, count=count, offset=offset + 16 * count),
        xs=_f8_column(data, count, offset),
        ys=_f8_column(data, count, offset + 8 * count),
    )


def encode_client_columns(cols: ClientColumns) -> bytes:
    """The column-block image of ``n`` client records (no weights)."""
    return b"".join(
        (
            np.ascontiguousarray(cols.xs, dtype=_F8).tobytes(),
            np.ascontiguousarray(cols.ys, dtype=_F8).tobytes(),
            np.ascontiguousarray(cols.dnn, dtype=_F8).tobytes(),
            np.ascontiguousarray(cols.ids, dtype=_U4).tobytes(),
        )
    )


def decode_client_columns_soa(
    data: Buffer, count: int, offset: int = 0
) -> ClientColumns:
    """Zero-copy column views of an encoded client block (unit weights)."""
    return ClientColumns(
        ids=np.frombuffer(data, dtype=_U4, count=count, offset=offset + 24 * count),
        xs=_f8_column(data, count, offset),
        ys=_f8_column(data, count, offset + 8 * count),
        dnn=_f8_column(data, count, offset + 16 * count),
        weights=np.ones(count, dtype=np.float64),
    )


# ---------------------------------------------------------------------------
# Flat block files (float64 matrices: the SS / QVC data files)
# ---------------------------------------------------------------------------


class ColumnBlock:
    """One decoded columnar block, quacking like a 2-D ``(n, k)`` array.

    The SS scan and QVC planner consume blocks through ``len(block)``,
    column selection ``block[:, j]`` and row slicing ``block[a:b]``;
    this wrapper serves all three straight from the per-column views
    without ever materialising the row-major matrix.
    """

    __slots__ = ("columns",)

    def __init__(self, columns: tuple[np.ndarray, ...]):
        self.columns = columns

    def __len__(self) -> int:
        return len(self.columns[0]) if self.columns else 0

    @property
    def shape(self) -> tuple[int, int]:
        return (len(self), len(self.columns))

    def __getitem__(self, key):
        if isinstance(key, tuple):
            rows, col = key
            return self.columns[col][rows]
        if isinstance(key, (int, np.integer)):
            return tuple(float(c[key]) for c in self.columns)
        # A row slice: the callers iterate the result as per-row tuples
        # (the QVC planner), so hand back exactly that.
        return list(zip(*(c[key].tolist() for c in self.columns)))

    def __iter__(self) -> Iterator[tuple[float, ...]]:
        return iter(self[:])

    def __repr__(self) -> str:
        return f"ColumnBlock(shape={self.shape})"


def gather_block_columns(blocks: list) -> tuple[np.ndarray, ...]:
    """A block file's blocks as whole-file columns, one array per field
    (none for an empty file)."""
    if not blocks:
        return ()
    return tuple(
        np.concatenate([block[:, k] for block in blocks])
        for k in range(blocks[0].shape[1])
    )


def encode_block_columns(block: np.ndarray) -> bytes:
    """A block page: ``<HH`` (count, ncols) + one f8 column per field."""
    arr = np.asarray(block, dtype=np.float64)
    count, ncols = arr.shape
    parts = [_BLOCK_HEADER.pack(count, ncols)]
    parts.extend(
        np.ascontiguousarray(arr[:, j]).tobytes() for j in range(ncols)
    )
    return b"".join(parts)


def decode_block_columns(data: Buffer, offset: int = 0) -> ColumnBlock:
    """Zero-copy per-column views of a block page."""
    count, ncols = _BLOCK_HEADER.unpack_from(data, offset)
    start = offset + BLOCK_HEADER_SIZE
    return ColumnBlock(
        tuple(
            _f8_column(data, count, start + 8 * count * j) for j in range(ncols)
        )
    )
