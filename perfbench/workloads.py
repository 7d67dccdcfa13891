"""Workloads: seeded inputs, request streams and the closed-loop drivers.

Every input comes from the ``--seed``: points are uniform over the
paper's 1000x1000 domain from a seeded numpy ``Generator``, and each
connection draws its requests from its own seeded ``random.Random``.
The server child receives only the generated points.

Why each workload exists (``WORKLOADS[...].why`` repeats it in one
line for ``BENCHMARK.json``):

* ``scan-100k`` — uncached selects over a persisted, mmap-served 100K
  workspace.  The engine, kernels, R-tree traversal and page storage do
  nearly all the work; the service, its cache and index upkeep are
  bypassed.  Static data, so page counts are exact.
* ``wire-small`` — a 2K workspace where engine work is milliseconds, so
  the wire codec, admission, the batch window and the result cache
  dominate.  Two connections let the micro-batcher coalesce requests.
* ``churn-100k`` — a write-heavy stream over a 100K ``DynamicWorkspace``
  with every index built: R-tree upkeep, the dnn maintainer, MND
  refresh and the server's cid scan dominate.  One connection and a
  fixed operation count keep the final state, and with it every page
  count, deterministic.
"""

from __future__ import annotations

import random
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Optional

import numpy as np

from repro.service import ServiceClient, ServiceError

#: The four methods, in the order scan rounds and probes issue them.
METHODS = ("SS", "QVC", "NFC", "MND")
#: Popularity order of plain selects (Zipf rank 1 first).
METHOD_POPULARITY = ("MND", "NFC", "QVC", "SS")
#: Side of the square domain the points are drawn from.
DOMAIN = 1000.0
#: Churn operations issued per configured second.  Fixed, so one seed
#: always issues the same stream and ends in the same state.
CHURN_OPS_PER_SECOND = 20
#: Share of each churn operation: 5% plain MND selects, and updates split
#: 40/20/25/15 between the four actions (the proportions of the
#: ``BENCH_churn`` rung).
CHURN_MIX = {
    "select": 0.05,
    "add_client": 0.95 * 0.40,
    "remove_client": 0.95 * 0.20,
    "add_facility": 0.95 * 0.25,
    "remove_facility": 0.95 * 0.15,
}
#: Uncached rounds of all four methods after the churn stream.  The
#: first pays the index work the writes deferred; six rounds let the
#: interquartile mean drop it.
CHURN_PROBE_ROUNDS = 6


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    #: "disk" (persisted, mmap-served) or "dynamic" (DynamicWorkspace).
    kind: str
    n_c: int
    n_f: int
    n_p: int
    connections: int


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "scan-100k",
            "uncached selects over a persisted mmap workspace: engine, "
            "kernels, R-tree traversal and page storage do the work; the "
            "service cache and index upkeep are bypassed",
            "disk",
            100_000,
            2_000,
            400,
            1,
        ),
        Workload(
            "wire-small",
            "2K clients over 2 connections: engine work is milliseconds, so "
            "the wire codec, admission, batch window and result cache "
            "dominate",
            "dynamic",
            2_000,
            100,
            100,
            2,
        ),
        Workload(
            "churn-100k",
            "95% writes on a 100K DynamicWorkspace with every index built: "
            "R-tree upkeep, the dnn maintainer, MND refresh and the cid "
            "scan dominate",
            "dynamic",
            100_000,
            2_000,
            400,
            1,
        ),
    )
}


def generate_points(workload: Workload, seed: int) -> dict[str, np.ndarray]:
    """Uniform clients, facilities and potentials for one seed."""
    rng = np.random.default_rng(seed)
    return {
        "clients": rng.uniform(0.0, DOMAIN, (workload.n_c, 2)),
        "facilities": rng.uniform(0.0, DOMAIN, (workload.n_f, 2)),
        "potentials": rng.uniform(0.0, DOMAIN, (workload.n_p, 2)),
    }


def stream_rng(workload: Workload, seed: int, connection: int) -> random.Random:
    """The request stream of one connection."""
    return random.Random(f"perfbench/{workload.name}/{seed}/{connection}")


def _zipf_cum_weights(n: int) -> list[float]:
    total, out = 0.0, []
    for rank in range(1, n + 1):
        total += 1.0 / rank
        out.append(total)
    return out


# ----------------------------------------------------------------------
# One connection: timed round trips and their records
# ----------------------------------------------------------------------
@dataclass
class Op:
    """One attempted request, as the driver saw it."""

    kind: str  # "select", "cold" (no_cache select), "evaluate", "update"
    start: float
    end: float
    method: Optional[str] = None
    ok: bool = True
    code: Optional[str] = None
    cached: bool = False
    result: dict = field(default_factory=dict)
    envelope: dict = field(default_factory=dict)

    @property
    def ms(self) -> float:
        return (self.end - self.start) * 1e3


class Conn:
    """A ``ServiceClient`` whose every request becomes an :class:`Op`.

    Every request carries a trace id ``<tag>-<n>`` so a traced run can
    join driver and server spans of the same request.
    """

    def __init__(self, client: ServiceClient, tag: str, recorder=None):
        self.client = client
        self.tag = tag
        self.recorder = recorder
        self.ops: list[Op] = []
        self._n = 0

    def _call(self, kind: str, op_name: str, label=None, **params: Any) -> Op:
        self._n += 1
        rid = f"{self.tag}-{self._n}"
        start = time.monotonic()
        try:
            response = self.client.call(op_name, trace_id=rid, **params)
        except ServiceError as exc:
            op = Op(kind, start, time.monotonic(), label, ok=False, code=exc.code)
        else:
            result = response["result"]
            op = Op(
                kind,
                start,
                time.monotonic(),
                label,
                cached=bool(response.get("cached", False)),
                result=result if isinstance(result, dict) else {"reports": result},
                envelope={
                    k: response[k]
                    for k in ("batch_size", "queue_wait_s")
                    if k in response
                },
            )
        if self.recorder is not None:
            self.recorder.add(f"request.{kind}", op.start, op.end, rid)
        self.ops.append(op)
        return op

    def select(self, method: str, no_cache: bool = False) -> Op:
        if no_cache:
            return self._call("cold", "select", method, method=method, no_cache=True)
        return self._call("select", "select", method, method=method)

    def evaluate(self, ids: list[int]) -> Op:
        return self._call("evaluate", "evaluate", ids=ids)

    def update(self, action: str, **params: Any) -> Op:
        return self._call("update", "update", action=action, **params)


# ----------------------------------------------------------------------
# What one measured pass produced
# ----------------------------------------------------------------------
@dataclass
class PassLog:
    window_s: float = 0.0
    #: Requests of the measured window (every connection).
    window: list[Op] = field(default_factory=list)
    #: Uncached selects issued after the window (answer probes).
    probes: list[Op] = field(default_factory=list)
    #: Acknowledged mutations in server order: (action, params, result).
    mutations: list[tuple[str, dict, dict]] = field(default_factory=list)

    def final_answers(self) -> dict[str, Op]:
        """The last successful uncached answer of each method."""
        answers: dict[str, Op] = {}
        for op in self.window + self.probes:
            if op.kind == "cold" and op.ok:
                answers[op.method] = op
        return answers


def run_scan(conn: Conn, seconds: float) -> PassLog:
    """Round-robin uncached selects SS→QVC→NFC→MND after one unmeasured
    warm-up round, until ``seconds`` have passed; only whole rounds run,
    so every method has the same number of samples."""
    for method in METHODS:
        conn.select(method, no_cache=True)
    conn.ops.clear()
    log = PassLog()
    started = time.monotonic()
    stop = started + seconds
    while True:
        for method in METHODS:
            conn.select(method, no_cache=True)
        if time.monotonic() >= stop:
            break
    log.window_s = time.monotonic() - started
    log.window = conn.ops
    return log


def _wire_stream(conn: Conn, rng: random.Random, n_p: int, facilities, stop, log):
    method_weights = _zipf_cum_weights(len(METHOD_POPULARITY))
    id_weights = _zipf_cum_weights(n_p)
    ids = range(n_p)
    writer = conn.tag == "c0"
    added: list[int] = []  # live cids this connection added
    while time.monotonic() < stop:
        r = rng.random() if writer else rng.random() * 0.9
        if r < 0.5:
            method = rng.choices(METHOD_POPULARITY, cum_weights=method_weights)[0]
            conn.select(method)
        elif r < 0.7:
            conn.select(rng.choice(METHODS), no_cache=True)
        elif r < 0.9:
            k = rng.randint(1, 4)
            conn.evaluate(rng.choices(ids, cum_weights=id_weights, k=k))
        elif added and rng.random() < 0.5:
            cid = added.pop(rng.randrange(len(added)))
            op = conn.update("remove_client", cid=cid)
            if op.ok:
                log.mutations.append(("remove_client", {"cid": cid}, op.result))
        else:
            if rng.random() < 0.5:
                # Exactly on a facility: dnn 0, so the region is a point.
                x, y = facilities[rng.randrange(len(facilities))]
            else:
                x, y = rng.uniform(0.0, DOMAIN), rng.uniform(0.0, DOMAIN)
            op = conn.update("add_client", point=[x, y])
            if op.ok:
                added.append(op.result["cid"])
                log.mutations.append(("add_client", {"point": [x, y]}, op.result))


def run_wire(
    conns: list[Conn], workload: Workload, seed: int, points, seconds: float
) -> PassLog:
    """Two closed-loop connections with their own seeded streams; only
    connection 0 mutates, so the mutation log has one total order."""
    log = PassLog()
    facilities = [tuple(p) for p in points["facilities"].tolist()]
    started = time.monotonic()
    stop = started + seconds
    errors: list[BaseException] = []

    def drive(conn: Conn, rng: random.Random) -> None:
        try:
            _wire_stream(conn, rng, workload.n_p, facilities, stop, log)
        except BaseException as exc:  # re-raised on the main thread
            errors.append(exc)
            raise

    threads = [
        threading.Thread(
            target=drive, args=(conn, stream_rng(workload, seed, i)), daemon=True
        )
        for i, conn in enumerate(conns)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(seconds + 120.0)
        if thread.is_alive():
            raise RuntimeError("a wire-small connection did not finish")
    if errors:
        raise errors[0]
    log.window_s = time.monotonic() - started
    for conn in conns:
        log.window.extend(conn.ops)
        conn.ops = []
    for method in METHODS:
        conns[0].select(method, no_cache=True)
    log.probes = conns[0].ops
    return log


def churn_plan(count: int, rng: random.Random) -> list[str]:
    """``count`` churn operations in exactly the ``CHURN_MIX`` shares (up
    to rounding), shuffled: only their order depends on the seed, so the
    number of costly facility writes is the same on every seed."""
    shares = list(CHURN_MIX.items())
    plan = []
    for i in range(count):
        u = (i + 0.5) / count
        for action, share in shares:
            u -= share
            if u < 0:
                break
        plan.append(action)
    rng.shuffle(plan)
    return plan


def run_churn(
    conn: Conn, workload: Workload, seed: int, points, seconds: float
) -> PassLog:
    """A fixed count of churn operations, then uncached probe rounds."""
    rng = stream_rng(workload, seed, 0)
    log = PassLog()
    live_cids = list(range(workload.n_c))
    live_sids = list(range(workload.n_f))

    def take(ids: list[int]) -> int:
        # Swap-remove: O(1), and deterministic for one stream.
        i = rng.randrange(len(ids))
        ids[i], ids[-1] = ids[-1], ids[i]
        return ids.pop()

    plan = churn_plan(int(CHURN_OPS_PER_SECOND * seconds), rng)
    started = time.monotonic()
    for action in plan:
        if action == "select":
            conn.select("MND")
            continue
        if action in ("add_client", "add_facility"):
            params = {"point": [rng.uniform(0.0, DOMAIN), rng.uniform(0.0, DOMAIN)]}
        elif action == "remove_client":
            params = {"cid": take(live_cids)}
        else:
            params = {"sid": take(live_sids)}
        op = conn.update(action, **params)
        if not op.ok:
            continue
        log.mutations.append((action, params, op.result))
        if action == "add_client":
            live_cids.append(op.result["cid"])
        elif action == "add_facility":
            live_sids.append(op.result["sid"])
    log.window_s = time.monotonic() - started
    log.window = conn.ops
    conn.ops = []
    for _ in range(CHURN_PROBE_ROUNDS):
        for method in METHODS:
            conn.select(method, no_cache=True)
    log.probes = conn.ops
    return log
