"""Core data types shared by all query methods.

``Client`` mirrors the paper's client record: position plus the
precomputed nearest-facility distance ``dnn(c, F)`` "stored with the
client's record" (Section III-B).  ``Site`` is the common shape of
facility and potential-location records.  ``SelectionResult`` carries
the answer together with the measurements every experiment reports:
running time, number of I/Os and index size; ``fingerprint`` is the
part of it every execution path must reproduce exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

from repro.geometry.point import Point


class Site(NamedTuple):
    """A facility or potential location: an id and a position."""

    sid: int
    x: float
    y: float

    @property
    def point(self) -> Point:
        return Point(self.x, self.y)


class Client:
    """A client record: id, position, precomputed ``dnn(c, F)`` and an
    optional importance weight (1.0 = the paper's unweighted setting;
    weighted influence follows the related max-inf literature [2])."""

    __slots__ = ("cid", "x", "y", "dnn", "weight")

    def __init__(self, cid: int, x: float, y: float, dnn: float, weight: float = 1.0):
        self.cid = cid
        self.x = x
        self.y = y
        self.dnn = dnn
        self.weight = weight

    @property
    def point(self) -> Point:
        return Point(self.x, self.y)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Client):
            return NotImplemented
        return self.cid == other.cid

    def __hash__(self) -> int:
        return hash(self.cid)

    def __repr__(self) -> str:
        return f"Client({self.cid}, ({self.x:.3f}, {self.y:.3f}), dnn={self.dnn:.3f})"


@dataclass
class SelectionResult:
    """The outcome of one min-dist location selection query.

    ``elapsed_s`` is the simulated running time of the disk-based system
    the paper measures: CPU time plus one I/O latency per page read
    (``Workspace.io_latency_s``).  ``cpu_s`` is the raw in-memory CPU
    time of this reproduction.
    """

    method: str
    location: Site
    dr: float
    elapsed_s: float
    cpu_s: float
    io_total: int
    io_reads: dict[str, int] = field(default_factory=dict)
    index_pages: int = 0

    def __repr__(self) -> str:
        return (
            f"SelectionResult(method={self.method}, location=p{self.location.sid} "
            f"@({self.location.x:.2f},{self.location.y:.2f}), dr={self.dr:.4f}, "
            f"time={self.elapsed_s * 1000:.2f}ms (cpu {self.cpu_s * 1000:.2f}ms), "
            f"io={self.io_total}, index={self.index_pages}p)"
        )


def fingerprint(result: SelectionResult) -> tuple:
    """Everything deterministic about a result — timings excluded.

    The parity contract compares this tuple: every execution path
    (serial, engine workers, disk, shards, the service and coordinator
    over the wire) must reproduce the serial reference's exactly.
    """
    return (
        result.method,
        result.location.sid,
        result.location.x,
        result.location.y,
        result.dr,
        result.io_total,
        dict(result.io_reads),
        result.index_pages,
    )
