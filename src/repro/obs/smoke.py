"""Observability smoke check (run in CI as ``python -m repro.obs.smoke``).

Boots a real server with live telemetry on an ephemeral port and
verifies the whole observability surface end to end:

1. **trace propagation** — a client-assigned ``trace_id`` is echoed on
   the response and recoverable from the server's trace buffer with
   admission / batch-assembly / engine-execution spans, the engine's
   span tree grafted in and tagged with the same id;
2. **exposition** — the ``metrics`` op and the plain-HTTP ``/metrics``
   listener both return a lint-clean OpenMetrics document carrying the
   labelled per-``(op, workspace)`` request families;
3. **structured logs** — the JSON access log holds exactly one
   standalone-parseable line per request, and the periodic snapshot
   sink wrote at least the final registry snapshot;
4. **parity** — with telemetry on, every method's answer (location,
   ``dr``, ``io_total``, per-structure reads) is byte-identical to a
   serial in-process ``select()`` on an identically-seeded workspace.

``--overhead`` instead measures the telemetry tax on cached selects
(telemetry on vs. off) and prints an advisory ratio; it never fails
the build — CI runs it ``continue-on-error`` in the bench gate.

Exits non-zero on the first violated invariant (default mode only).
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile
import time
import urllib.request
from pathlib import Path

from repro.core import METHODS, Workspace, make_selector
from repro.core.dynamic import DynamicWorkspace
from repro.core.types import fingerprint
from repro.datasets.generators import make_instance
from repro.obs.openmetrics import lint_openmetrics
from repro.service import (
    ServiceClient,
    ServiceConfig,
    TelemetryConfig,
    serve_in_thread,
)

SMOKE_SEED = 11
SMOKE_SIZES = dict(n_c=800, n_f=40, n_p=60)


def _walk(span: dict):
    yield span
    for child in span.get("children", []):
        yield from _walk(child)


def check_trace_propagation(host: str, port: int) -> list[str]:
    failures = []
    with ServiceClient(host, port) as client:
        for method in sorted(METHODS):
            trace_id = f"smoke-{method.lower()}"
            answer = client.select(method, no_cache=True, trace_id=trace_id)
            if answer.trace_id != trace_id:
                failures.append(f"{method}: response did not echo the trace id")
                continue
            traces = client.trace(trace_id=trace_id)
            if not traces:
                failures.append(f"{method}: trace not recoverable from buffer")
                continue
            (trace,) = traces
            names = [span["name"] for span in trace["spans"]]
            for required in ("admission", "batch", "execute"):
                if required not in names:
                    failures.append(f"{method}: missing {required!r} span")
            execute = trace["spans"][-1]
            engine = execute.get("engine")
            if not engine:
                failures.append(f"{method}: no engine span tree grafted")
                continue
            if engine.get("attrs", {}).get("trace_id") != trace_id:
                failures.append(f"{method}: engine root not tagged")
            if not any(
                span.get("attrs", {}).get("trace_id") == trace_id
                for span in _walk(engine)
                if span is not engine
            ):
                failures.append(f"{method}: no tagged per-task span")
        # A cached repeat records a cache-hit span.
        client.select("MND")
        answer = client.select("MND", trace_id="smoke-cached")
        (trace,) = client.trace(trace_id="smoke-cached")
        cache = trace["spans"][0]
        if not (answer.cached and cache["name"] == "cache" and cache["hit"]):
            failures.append("cached repeat did not record a cache-hit span")
    return failures


def check_exposition(host: str, port: int, metrics_address) -> list[str]:
    failures = []
    with ServiceClient(host, port) as client:
        body = client.metrics()
    problems = lint_openmetrics(body)
    failures += [f"metrics op: {p}" for p in problems]
    for needle in (
        "# TYPE service_request_count counter",
        'op="select"',
        "service_admitted_total",
    ):
        if needle not in body:
            failures.append(f"metrics op: missing {needle!r}")
    if metrics_address is None:
        failures.append("HTTP /metrics listener did not start")
        return failures
    http_host, http_port = metrics_address
    with urllib.request.urlopen(
        f"http://{http_host}:{http_port}/metrics", timeout=10
    ) as response:
        scraped = response.read().decode("utf-8")
        content_type = response.headers.get("Content-Type", "")
    if "openmetrics-text" not in content_type:
        failures.append(f"HTTP scrape content type {content_type!r}")
    failures += [f"HTTP scrape: {p}" for p in lint_openmetrics(scraped)]
    return failures


def check_logs(access_log: Path, snapshots: Path, n_requests: int) -> list[str]:
    failures = []
    try:
        lines = access_log.read_text().strip().splitlines()
    except OSError:
        return [f"access log {access_log} was never written"]
    records = []
    for line in lines:
        try:
            records.append(json.loads(line))
        except json.JSONDecodeError:
            failures.append(f"access log holds a torn line: {line[:60]!r}")
    if len(records) < n_requests:
        failures.append(
            f"access log holds {len(records)} lines < {n_requests} requests"
        )
    for key in ("trace_id", "op", "outcome", "latency_s", "ts"):
        if records and key not in records[0]:
            failures.append(f"access log records lack {key!r}")
    if not snapshots.exists():
        failures.append("snapshot sink wrote nothing (final snapshot missing)")
    else:
        snap = json.loads(snapshots.read_text().strip().splitlines()[-1])
        if "metrics" not in snap or "windows" not in snap:
            failures.append("snapshot line lacks metrics/windows sections")
    return failures


def check_parity(host: str, port: int, expected: dict) -> list[str]:
    failures = []
    with ServiceClient(host, port) as client:
        for method in sorted(METHODS):
            answer = client.select(method, no_cache=True)
            if fingerprint(answer.result) != expected[method]:
                failures.append(
                    f"{method}: answer differs from select() with telemetry on"
                )
    return failures


def measure_overhead(rounds: int = 400) -> None:
    """Advisory: cached-select latency with telemetry on vs. off."""

    def drive(telemetry: TelemetryConfig) -> float:
        ws = DynamicWorkspace(make_instance(rng=SMOKE_SEED, **SMOKE_SIZES))
        config = ServiceConfig(workers=2, batch_window_s=0.001, telemetry=telemetry)
        with serve_in_thread({"default": ws}, config) as handle:
            with ServiceClient(handle.host, handle.port) as client:
                client.select("MND")  # prime the cache
                for _ in range(20):  # warm the connection
                    client.select("MND")
                started = time.perf_counter()
                for _ in range(rounds):
                    client.select("MND")
                return (time.perf_counter() - started) / rounds

    off = drive(TelemetryConfig(enabled=False))
    on = drive(TelemetryConfig(enabled=True))
    ratio = on / off if off > 0 else float("inf")
    print(
        f"obs smoke overhead (advisory): cached select "
        f"off={off * 1e6:.1f}us on={on * 1e6:.1f}us ratio={ratio:.3f}"
    )
    if ratio > 1.10:
        print(
            f"WARNING: telemetry overhead {100 * (ratio - 1):.1f}% exceeds "
            "the 10% advisory budget on cached selects"
        )
    else:
        print(
            f"obs smoke overhead: within budget "
            f"({100 * (ratio - 1):+.1f}% vs. the 10% advisory cap)"
        )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--overhead",
        action="store_true",
        help="measure the telemetry tax on cached selects (advisory only)",
    )
    args = parser.parse_args(argv)
    if args.overhead:
        measure_overhead()
        return 0

    reference = Workspace(make_instance(rng=SMOKE_SEED, **SMOKE_SIZES))
    expected = {
        m: fingerprint(make_selector(reference, m).select()) for m in METHODS
    }

    failures: list[str] = []
    with tempfile.TemporaryDirectory(prefix="obs-smoke-") as tmp:
        access_log = Path(tmp) / "access.jsonl"
        snapshots = Path(tmp) / "snapshots.jsonl"
        ws = DynamicWorkspace(make_instance(rng=SMOKE_SEED, **SMOKE_SIZES))
        handle = serve_in_thread(
            {"default": ws},
            ServiceConfig(
                workers=2,
                batch_window_s=0.01,
                telemetry=TelemetryConfig(
                    access_log=access_log,
                    snapshot_path=snapshots,
                    snapshot_interval_s=3600.0,  # the final snapshot suffices
                    metrics_port=0,
                ),
            ),
        )
        print(f"obs smoke: serving on {handle.host}:{handle.port}")
        try:
            failures += check_trace_propagation(handle.host, handle.port)
            failures += check_exposition(
                handle.host, handle.port, handle.service.metrics_address
            )
            failures += check_parity(handle.host, handle.port, expected)
        finally:
            handle.stop()
        # Stop flushed the logs; every traced request above is select.
        failures += check_logs(access_log, snapshots, n_requests=len(METHODS))

    if failures:
        for failure in failures:
            print(f"FAIL: {failure}")
        return 1
    print(
        f"obs smoke: OK ({len(METHODS)} methods traced end-to-end, "
        "OpenMetrics lint-clean over op and HTTP, access log and "
        "snapshots verified, parity held with telemetry on)"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
