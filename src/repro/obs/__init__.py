"""Observability: hierarchical tracing, metrics and sinks.

Profiling a query takes three lines::

    from repro.obs import InMemorySink, Tracer, format_span_tree

    sink = InMemorySink()
    ws.attach_tracer(Tracer([sink]))
    result = MaximumNFCDistance(ws).select()
    print(format_span_tree(sink.last))

Every workspace defaults to :data:`NOOP_TRACER`, whose spans are inert
singletons — instrumentation costs effectively nothing until a real
tracer is attached.  Process-lifetime totals (page reads, page
allocations, node reads) accumulate in :data:`REGISTRY` regardless.
"""

from __future__ import annotations

from repro.obs.live import (
    AccessLog,
    RequestTrace,
    SlowQueryLog,
    SnapshotWriter,
    TraceBuffer,
    mint_trace_id,
)
from repro.obs.openmetrics import (
    labeled_name,
    lint_openmetrics,
    render_openmetrics,
)
from repro.obs.registry import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    REGISTRY,
    RollingWindow,
    WindowedCounter,
    WindowedHistogram,
)
from repro.obs.report import format_span_tree, merge_spans, phase_breakdown
from repro.obs.sinks import CallbackSink, InMemorySink, JsonLinesSink, read_jsonl
from repro.obs.trace import NOOP_SPAN, NOOP_TRACER, NoopTracer, Span, Tracer

__all__ = [
    "AccessLog",
    "CallbackSink",
    "Counter",
    "Gauge",
    "Histogram",
    "InMemorySink",
    "JsonLinesSink",
    "MetricsRegistry",
    "NOOP_SPAN",
    "NOOP_TRACER",
    "NoopTracer",
    "REGISTRY",
    "RequestTrace",
    "RollingWindow",
    "SlowQueryLog",
    "SnapshotWriter",
    "Span",
    "TraceBuffer",
    "Tracer",
    "WindowedCounter",
    "WindowedHistogram",
    "format_span_tree",
    "labeled_name",
    "lint_openmetrics",
    "merge_spans",
    "mint_trace_id",
    "phase_breakdown",
    "read_jsonl",
    "render_openmetrics",
]
