"""Tracing from outside the program: timing wrappers and layer metrics.

The traced pass installs wrappers around public functions, each at the
name its caller actually resolves (``repro.service.server.decode``, not
``repro.service.protocol.decode``; ``repro.kernels.<fn>``, which every
caller reads through the package at call time; class attributes for
methods).  Nothing is added inside ``src/``.

A span is ``(id, parent, name, start, end, rid, n)``: ``rid`` is the
request's trace id (inherited from the enclosing span), ``n`` a count
the layer reports (tasks planned, queries batched, clients affected).
Spans nest per thread; engine tasks on pool threads are adopted by the
open ``run_batch`` span, since one batch runs at a time per workspace.
Start and end come from ``time.monotonic`` — one clock for the driver
and the child — so spans of both processes line up.

A layer's *self time* is its span's duration minus the part of that
interval its child spans cover.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import json
import statistics
import threading
import time
from collections import defaultdict
from dataclasses import replace
from pathlib import Path

from workloads import METHODS

#: Dispatch-control names of ``repro.kernels`` that are not kernels.
_KERNEL_CONTROLS = {"active_backend", "available_backends", "set_backend", "use_backend"}
#: Kernels every workload calls (and ``BENCHMARK.json`` lists).
KERNELS = (
    "accumulate_reductions",
    "circle_columns_from_rects",
    "min_dist_rects_rect",
    "rect_intersect_matrix",
    "rects_intersect_rect",
)
TREES = ("R_C", "R_F", "R_P", "R_Cn", "R_Cm")
#: A span's fields, in the order of its in-memory tuple.
FIELDS = ("id", "parent", "name", "start", "end", "rid", "n")
STAGES = ("plan", "kernel", "reduce")

#: Per-layer metrics every workload reports in its traced run.
PER_LAYER = {
    "service.decode_ms": "ms",
    "service.encode_ms": "ms",
    "service.queue_wait_ms": "ms",
    "service.batch_size": "count",
    "service.select_hit_ratio": "ratio",
    "service.evaluate_hit_ratio": "ratio",
    "exec.run_batch_ms": "ms",
    "exec.queries_per_batch": "count",
    **{
        f"core.{m}.{s}_ms": "ms" for m in METHODS for s in STAGES
    },
    **{f"core.{m}.tasks": "count" for m in METHODS},
    **{f"kernels.{k}.calls": "count" for k in KERNELS},
    **{f"kernels.{k}.ms": "ms" for k in KERNELS},
    **{f"rtree.reads.{t}": "pages" for t in TREES},
    "storage.reads.file.C": "pages",
    "storage.reads.file.P": "pages",
    "storage.leafcache_hit_ratio": "ratio",
    "knnjoin.affected_per_facility": "count",
    "regions.select_changed_ratio": "ratio",
    "setup.workspace_s": "s",
    **{f"setup.index_s.{t}": "s" for t in TREES},
    "trace.overhead_ratio": "ratio",
    "trace.coverage": "ratio",
}


def tree_label(name: str) -> str:
    """``R_C^n`` -> ``R_Cn``: tree names without ``^``."""
    return name.replace("^", "")


class Recorder:
    """Spans of one process, kept in memory until the run ends."""

    def __init__(self):
        self.spans: list[tuple] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        #: (id, rid) of the open ``QueryEngine.run_batch`` span.
        self.batch = None

    def add(self, name: str, start: float, end: float, rid=None, n=0) -> None:
        """A root span the caller timed itself."""
        self.spans.append((next(self._ids), None, name, start, end, rid, n))

    def wrap(self, fn, name, rid_of=None, n_of=None, adopt=False, batch=False):
        """``fn`` timed as a span.  ``name`` may be a function of the
        call's arguments; ``rid_of(args, out)`` and ``n_of(args, out)``
        read the request id and the count (``out`` is None before the
        call returns)."""
        rec, local = self, self._local

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            stack = local.__dict__.setdefault("stack", [])
            if stack:
                parent, rid = stack[-1]
            elif adopt and rec.batch is not None:
                parent, rid = rec.batch
            else:
                parent, rid = None, None
            if rid is None and rid_of is not None:
                rid = rid_of(args, None)
            sid = next(rec._ids)
            stack.append((sid, rid))
            if batch:
                rec.batch = (sid, rid)
            out = None
            start = time.monotonic()
            try:
                out = fn(*args, **kwargs)
                return out
            finally:
                end = time.monotonic()
                stack.pop()
                if batch:
                    rec.batch = None
                if rid is None and rid_of is not None:
                    rid = rid_of(args, out)
                n = n_of(args, out) if n_of is not None and out is not None else 0
                label = name(args) if callable(name) else name
                rec.spans.append((sid, parent, label, start, end, rid, n))

        return timed

    def dump(self, path: Path, process: str, append: bool = False) -> None:
        """Write the spans as JSON lines, each labelled with ``process``."""
        with open(path, "a" if append else "w") as out:
            for span in self.spans:
                out.write(json.dumps({"process": process, **dict(zip(FIELDS, span))}))
                out.write("\n")


def load_spans(path: Path, process: str) -> list[tuple]:
    """The spans ``process`` dumped into ``path``, as tuples."""
    with open(path) as lines:
        records = [json.loads(line) for line in lines]
    return [tuple(r[f] for f in FIELDS) for r in records if r["process"] == process]


def _patch(owner, attr: str, rec: Recorder, name, **kwargs) -> None:
    setattr(owner, attr, rec.wrap(getattr(owner, attr), name, **kwargs))


def _message_rid(args, out):
    message = out if out is not None else args[0]
    return message.get("trace_id") if isinstance(message, dict) else None


def _batch_rid(args, out):
    tags = args[2] if len(args) > 2 else None
    for tag in tags or ():
        if tag:
            return tag.get("trace_id")
    return None


def _with_stage_spans(rec: Recorder, method: str, plan):
    """``execution_plan`` whose call and stage callables are spans."""

    def execution_plan(self):
        stages = plan(self)
        return [
            replace(
                stage,
                plan=rec.wrap(
                    stage.plan,
                    f"core.{method}.plan",
                    n_of=lambda args, out: len(out),
                    adopt=True,
                ),
                reduce=None
                if stage.reduce is None
                else rec.wrap(stage.reduce, f"core.{method}.reduce", adopt=True),
            )
            for stage in stages
        ]

    return rec.wrap(execution_plan, f"core.{method}.query", adopt=True)


def install_server(rec: Recorder) -> None:
    """Wrap the server-side layers (call after set-up, before serving)."""
    import repro.kernels as kernels
    import repro.service.server as service_server
    from repro.core import (
        DynamicWorkspace,
        MaximumNFCDistance,
        NearestFacilityCircle,
        QuasiVoronoiCell,
        SequentialScan,
    )
    from repro.exec import QueryEngine
    from repro.knnjoin.incremental import DnnMaintainer
    from repro.rtree.rtree import RTree

    _patch(service_server, "decode", rec, "service.decode", rid_of=_message_rid)
    _patch(service_server, "encode", rec, "service.encode", rid_of=_message_rid)
    _patch(service_server, "evaluate_location", rec, "core.evaluate")
    _patch(service_server.WorkspaceHost, "_apply_update", rec, "service.update")
    _patch(
        QueryEngine,
        "run_batch",
        rec,
        "exec.run_batch",
        rid_of=_batch_rid,
        n_of=lambda args, out: len(args[1]),
        batch=True,
    )
    for cls in (SequentialScan, QuasiVoronoiCell, NearestFacilityCircle, MaximumNFCDistance):
        cls.execution_plan = _with_stage_spans(rec, cls.name, cls.execution_plan)
        for attr in ("run_scan_task", "run_air_task", "run_window_task", "run_join_task"):
            if attr in vars(cls):
                _patch(cls, attr, rec, f"core.{cls.name}.kernel", adopt=True)
    for fn in kernels.__all__:
        if fn not in _KERNEL_CONTROLS and inspect.isfunction(getattr(kernels, fn)):
            _patch(kernels, fn, rec, f"kernels.{fn}")
    for attr in ("insert", "delete"):
        _patch(RTree, attr, rec, lambda args, a=attr: f"rtree.{a}.{tree_label(args[0].name)}")
    for attr in ("add_client", "remove_client", "open_facility", "close_facility"):
        counted = attr.endswith("facility")
        _patch(
            DnnMaintainer,
            attr,
            rec,
            f"knnjoin.{attr}",
            n_of=(lambda args, out: len(out[0])) if counted else None,
        )
    for attr in ("add_client", "remove_client", "add_facility", "remove_facility"):
        _patch(DynamicWorkspace, attr, rec, f"dynamic.{attr}")


def install_driver(rec: Recorder) -> None:
    """Wrap the client-side codec the driver's requests go through."""
    import repro.service.client as service_client

    _patch(service_client, "encode", rec, "client.encode", rid_of=_message_rid)
    _patch(service_client, "decode", rec, "client.decode", rid_of=_message_rid)


# ----------------------------------------------------------------------
# Aggregation
# ----------------------------------------------------------------------
def _union(intervals) -> list[tuple[float, float]]:
    merged: list[list[float]] = []
    for start, end in sorted(intervals):
        if merged and start <= merged[-1][1]:
            merged[-1][1] = max(merged[-1][1], end)
        else:
            merged.append([start, end])
    return [(a, b) for a, b in merged]


def _length(intervals) -> float:
    return sum(b - a for a, b in intervals)


def _overlap(a, b) -> float:
    """Length of the intersection of two merged interval lists."""
    total, i, j = 0.0, 0, 0
    while i < len(a) and j < len(b):
        lo, hi = max(a[i][0], b[j][0]), min(a[i][1], b[j][1])
        total += max(0.0, hi - lo)
        if a[i][1] < b[j][1]:
            i += 1
        else:
            j += 1
    return total


def layer_totals(spans: list[tuple]) -> dict[str, dict]:
    """Per span name: calls, summed self seconds and summed counts."""
    children = defaultdict(list)
    for sid, parent, _, start, end, _, _ in spans:
        if parent is not None:
            children[parent].append((start, end))
    totals: dict[str, dict] = defaultdict(lambda: {"calls": 0, "self_s": 0.0, "n": 0})
    for sid, _, name, start, end, _, n in spans:
        covered = _length(
            _union((max(a, start), min(b, end)) for a, b in children[sid] if b > start)
        )
        entry = totals[name]
        entry["calls"] += 1
        entry["self_s"] += (end - start) - covered
        entry["n"] += n
    return totals


def coverage(driver_spans: list[tuple], server_spans: list[tuple]) -> float:
    """Share of client-observed request time some layer span covers."""
    requests = _union(
        (s[3], s[4]) for s in driver_spans if s[2].startswith("request.")
    )
    layers = _union(
        [(s[3], s[4]) for s in driver_spans if not s[2].startswith("request.")]
        + [(s[3], s[4]) for s in server_spans]
    )
    return _overlap(requests, layers) / _length(requests)


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def layer_metrics(totals, log, setup: dict, leafcache: dict) -> tuple[dict, dict]:
    """(per-layer metrics of ``PER_LAYER``, workload-specific extras).

    Times are self times.  ``per select`` figures divide by the selects
    the engine ran (``core.<M>.query`` spans); per-call figures by the
    calls of that span name.
    """
    from metrics import computed_selects

    def per_call_ms(name: str) -> float:
        entry = totals.get(name)
        return _ratio(entry["self_s"] * 1e3, entry["calls"]) if entry else 0.0

    def calls(name: str) -> int:
        return totals[name]["calls"] if name in totals else 0

    computed = computed_selects(log)
    plain = [op for op in log.window if op.kind == "select" and op.ok]
    evaluates = [op for op in log.window if op.kind == "evaluate" and op.ok]
    updates = [op for op in log.window if op.kind == "update" and op.ok]
    queries = {m: calls(f"core.{m}.query") for m in METHODS}
    all_queries = sum(queries.values())
    out = {
        "service.decode_ms": per_call_ms("service.decode"),
        "service.encode_ms": per_call_ms("service.encode"),
        "service.queue_wait_ms": statistics.fmean(
            op.envelope["queue_wait_s"] * 1e3 for op in computed
        ),
        "service.batch_size": statistics.fmean(
            op.envelope["batch_size"] for op in computed
        ),
        "service.select_hit_ratio": _ratio(sum(op.cached for op in plain), len(plain)),
        "service.evaluate_hit_ratio": _ratio(
            sum(op.cached for op in evaluates), len(evaluates)
        ),
        "exec.run_batch_ms": per_call_ms("exec.run_batch"),
        "exec.queries_per_batch": _ratio(
            totals["exec.run_batch"]["n"], calls("exec.run_batch")
        ),
    }
    for m in METHODS:
        for stage in STAGES:
            entry = totals.get(f"core.{m}.{stage}")
            out[f"core.{m}.{stage}_ms"] = (
                _ratio(entry["self_s"] * 1e3, queries[m]) if entry else 0.0
            )
        plan = totals.get(f"core.{m}.plan")
        out[f"core.{m}.tasks"] = _ratio(plan["n"], queries[m]) if plan else 0.0
    for k in KERNELS:
        entry = totals.get(f"kernels.{k}", {"calls": 0, "self_s": 0.0})
        out[f"kernels.{k}.calls"] = _ratio(entry["calls"], all_queries)
        out[f"kernels.{k}.ms"] = _ratio(entry["self_s"] * 1e3, all_queries)
    io_names = {"R_C": "R_C", "R_F": "R_F", "R_P": "R_P", "R_Cn": "R_C^n", "R_Cm": "R_C^m"}
    for t in TREES:
        out[f"rtree.reads.{t}"] = statistics.fmean(
            op.result["io_reads"].get(io_names[t], 0) for op in computed
        )
    for f in ("file.C", "file.P"):
        out[f"storage.reads.{f}"] = statistics.fmean(
            op.result["io_reads"].get(f, 0) for op in computed
        )
    out["storage.leafcache_hit_ratio"] = _ratio(
        leafcache["hits"], leafcache["hits"] + leafcache["misses"]
    )
    facility = [totals.get(f"knnjoin.{a}") for a in ("open_facility", "close_facility")]
    out["knnjoin.affected_per_facility"] = _ratio(
        sum(e["n"] for e in facility if e), sum(e["calls"] for e in facility if e)
    )
    out["regions.select_changed_ratio"] = _ratio(
        sum(bool(op.result.get("select_changed")) for op in updates), len(updates)
    )
    out["setup.workspace_s"] = setup["workspace_s"]
    for t in TREES:
        out[f"setup.index_s.{t}"] = setup[f"index_s.{t}"]

    # Layers only some workloads exercise: reported when they ran.
    extras = {}
    for name, metric in (
        ("service.update", "service.update_self_ms"),
        ("core.evaluate", "core.evaluate_ms"),
        *(
            (f"knnjoin.{a}", f"knnjoin.{a}_ms")
            for a in ("add_client", "remove_client", "open_facility", "close_facility")
        ),
        *(
            (f"dynamic.{a}", f"dynamic.{a}_ms")
            for a in ("add_client", "remove_client", "add_facility", "remove_facility")
        ),
        *((f"rtree.insert.{t}", f"rtree.insert_ms.{t}") for t in TREES),
        *((f"rtree.delete.{t}", f"rtree.delete_ms.{t}") for t in TREES),
    ):
        if calls(name):
            extras[metric] = {"value": per_call_ms(name), "unit": "ms", "n": calls(name)}
    for k in sorted(n.split(".", 1)[1] for n in totals if n.startswith("kernels.")):
        if k not in KERNELS:
            entry = totals[f"kernels.{k}"]
            extras[f"kernels.{k}.calls"] = {
                "value": _ratio(entry["calls"], all_queries), "unit": "count"
            }
            extras[f"kernels.{k}.ms"] = {
                "value": _ratio(entry["self_s"] * 1e3, all_queries), "unit": "ms"
            }
    for phase in ("persist_s", "open_s"):
        if phase in setup:
            extras[f"setup.{phase}"] = {"value": setup[phase], "unit": "s", "n": 1}
    return out, extras
