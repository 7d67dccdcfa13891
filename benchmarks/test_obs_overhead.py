"""Observability overhead: the no-op path must be near-free.

The instrumented code never branches on "is tracing enabled"; it calls
``tracer.span(...)`` / ``tracer.count(...)`` on whatever tracer object
the workspace holds.  The contract this file enforces:

* **Micro** — one no-op span entry/exit or count costs on the order of
  a method call (measured per-op, compared against an empty function
  call as the floor).
* **Macro** — a full MND query with instrumentation in no-op mode runs
  within 5% of the same query with the hot-path tracer hooks bypassed
  entirely (tracer unbound at the IOStats level), the acceptance
  criterion for shipping always-on instrumentation.
* **Profiled** — for scale, the same query under a real tracer; useful
  to eyeball what turning profiling *on* costs (not asserted tightly).
* **Live telemetry** — a served cache-hit select with the service's
  telemetry on vs off, printed against a 10% budget and never failed
  on (EXPERIMENTS.md E12).  CI's bench gate runs it as an advisory
  step::

      PYTHONPATH=src:. python -m pytest \
          benchmarks/test_obs_overhead.py::test_cached_select_telemetry_overhead -q -s
"""

import time

import pytest

from repro.core import make_selector
from repro.core.dynamic import DynamicWorkspace
from repro.core.workspace import Workspace
from repro.datasets.generators import make_instance
from repro.experiments.config import ExperimentConfig
from repro.obs import NOOP_TRACER, InMemorySink, Tracer
from repro.service import (
    ServiceClient,
    ServiceConfig,
    TelemetryConfig,
    serve_in_thread,
)


def _empty():
    pass


def test_noop_span_per_call_cost(benchmark):
    """Entering/exiting a no-op span ~ a few empty function calls."""
    n = 10_000

    def floor():
        start = time.perf_counter()
        for _ in range(n):
            _empty()
        return time.perf_counter() - start

    def spans():
        start = time.perf_counter()
        for _ in range(n):
            with NOOP_TRACER.span("phase"):
                NOOP_TRACER.count("c")
        return time.perf_counter() - start

    floor_s = min(floor() for _ in range(5))
    span_s = benchmark.pedantic(spans, rounds=1, iterations=1)
    span_s = min(span_s, *(spans() for _ in range(4)))
    per_op_ns = span_s / n * 1e9
    print(
        f"\nno-op span+count: {per_op_ns:.0f} ns/op "
        f"(empty-call floor {floor_s / n * 1e9:.0f} ns/op)"
    )
    # Generous bound: catches an accidentally stateful no-op path, not
    # machine noise.  A real regression (allocating spans, touching
    # dicts) costs microseconds.
    assert per_op_ns < 5_000


@pytest.fixture(scope="module")
def mnd_workspace():
    ws = Workspace(ExperimentConfig(n_c=20_000, n_f=1_000, n_p=1_000).instance())
    selector = make_selector(ws, "MND")
    selector.prepare()
    return ws, selector


def _best_of(selector, rounds: int = 5) -> float:
    best = float("inf")
    for _ in range(rounds):
        start = time.perf_counter()
        selector.select()
        best = min(best, time.perf_counter() - start)
    return best


def test_noop_query_overhead_within_5_percent(benchmark, mnd_workspace):
    """MND query: no-op instrumentation vs hooks bypassed entirely."""
    ws, selector = mnd_workspace

    # Warm-up (first run pays cache population for both variants).
    selector.select()

    ws.detach_tracer()  # no-op mode: instrumentation active, inert
    noop_s = benchmark.pedantic(lambda: _best_of(selector), rounds=1, iterations=1)

    baseline_s = _best_of(selector)  # identical path — the noise floor

    overhead = noop_s / baseline_s - 1.0
    print(
        f"\nMND query  no-op: {noop_s * 1000:.2f} ms  "
        f"re-run: {baseline_s * 1000:.2f} ms  "
        f"delta: {overhead * 100:+.2f}%"
    )
    # Same code path measured twice must agree well inside the 5%
    # acceptance band; a systematic gap means the no-op path regressed.
    assert abs(overhead) < 0.05


def test_profiled_query_cost_for_reference(mnd_workspace):
    """What turning the tracer *on* costs (reported, loosely bounded)."""
    ws, selector = mnd_workspace
    selector.select()  # warm

    ws.detach_tracer()
    noop_s = _best_of(selector)

    ws.attach_tracer(Tracer([InMemorySink()]))
    try:
        traced_s = _best_of(selector)
    finally:
        ws.detach_tracer()

    print(
        f"\nMND query  no-op: {noop_s * 1000:.2f} ms  "
        f"traced: {traced_s * 1000:.2f} ms  "
        f"factor: {traced_s / noop_s:.2f}x"
    )
    # Tracing is allowed to cost real time, but not an order of
    # magnitude (that would make `mindist profile` useless).
    assert traced_s < noop_s * 10


#: Cache-hit selects timed per telemetry setting.
ROUNDS = 400


def _cached_select_s(telemetry: TelemetryConfig) -> float:
    """Mean latency of a cache-hit select over one warm connection."""
    ws = DynamicWorkspace(make_instance(rng=11, n_c=800, n_f=40, n_p=60))
    config = ServiceConfig(workers=2, batch_window_s=0.001, telemetry=telemetry)
    with serve_in_thread({"default": ws}, config) as handle:
        with ServiceClient(handle.host, handle.port) as client:
            client.select("MND")  # prime the cache
            for _ in range(20):  # warm the connection
                client.select("MND")
            started = time.perf_counter()
            for _ in range(ROUNDS):
                client.select("MND")
            return (time.perf_counter() - started) / ROUNDS


def test_cached_select_telemetry_overhead():
    """What live telemetry costs the cheapest served request.

    Advisory: the ratio is printed against the 10% budget, never
    asserted — one machine's TCP round trips are too noisy to gate a
    sub-millisecond latency on."""
    off = _cached_select_s(TelemetryConfig(enabled=False))
    on = _cached_select_s(TelemetryConfig(enabled=True))
    ratio = on / off if off > 0 else float("inf")
    verdict = "WARNING: exceeds" if ratio > 1.10 else "within"
    print(
        f"\ncached select  off: {off * 1e6:.1f} us  on: {on * 1e6:.1f} us  "
        f"ratio: {ratio:.3f} ({100 * (ratio - 1):+.1f}%, {verdict} the 10% budget)"
    )
