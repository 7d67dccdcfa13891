"""Live telemetry end-to-end over real TCP connections.

The acceptance bar (mirroring the wire-parity suite): a client-assigned
``trace_id`` must be recoverable from the server's trace buffer with
admission / batch / engine-execution / cache-lookup spans — the engine
span tree grafted in, its spans tagged with the same id — and turning
telemetry on must leave every answer byte-identical to a serial
in-process ``select()``.  The exports must hold up too: lint-clean
OpenMetrics from the ``metrics`` op and the plain-HTTP ``/metrics``
listener, one JSON line per request in the access log, and a final
registry snapshot when the server stops.  The tests marked ``smoke``
run in CI's smoke job.
"""

from __future__ import annotations

import json
import urllib.request

import pytest

from repro.core import METHODS, Workspace, make_selector
from repro.core.dynamic import DynamicWorkspace
from repro.core.types import fingerprint
from repro.datasets.generators import make_instance
from repro.loadgen.config import RetryPolicy
from repro.loadgen.loop import ServiceTransport, execute_request, plan_trace_id
from repro.loadgen.schedule import PlannedRequest
from repro.obs.openmetrics import CONTENT_TYPE, lint_openmetrics
from repro.service import (
    BadRequestError,
    ServiceClient,
    ServiceConfig,
    TelemetryConfig,
    UnknownMethodError,
    render_top,
    serve_in_thread,
)

SEED = 23
SIZES = dict(n_c=600, n_f=30, n_p=50)
#: Potentials for three 204-point blocks: SS and QVC cut them into one
#: task per worker, two here.
WIDE = dict(n_c=600, n_f=30, n_p=450)


@pytest.fixture(scope="module")
def expected():
    reference = Workspace(make_instance(rng=SEED, **SIZES))
    return {m: fingerprint(make_selector(reference, m).select()) for m in METHODS}


@pytest.fixture(scope="module")
def access_log_path(tmp_path_factory):
    return tmp_path_factory.mktemp("telemetry") / "access.jsonl"


@pytest.fixture(scope="module")
def server(access_log_path):
    handle = serve_in_thread(
        {
            "static": Workspace(make_instance(rng=SEED, **SIZES)),
            "dyn": DynamicWorkspace(make_instance(rng=SEED, **SIZES)),
            "wide": Workspace(make_instance(rng=SEED, **WIDE)),
        },
        ServiceConfig(
            workers=2,
            batch_window_s=0.02,
            telemetry=TelemetryConfig(access_log=str(access_log_path), metrics_port=0),
        ),
    )
    with handle:
        yield handle


@pytest.fixture
def client(server):
    with ServiceClient(server.host, server.port) as c:
        yield c


def walk(span):
    yield span
    for child in span.get("children", []):
        yield from walk(child)


def tagged_engine_tasks(client, method: str, workspace: str) -> list:
    """Run one uncached select and return its engine tree's task spans,
    checking that the root and every task span carry its trace id."""
    trace_id = f"e2e-tag-{workspace}-{method.lower()}"
    client.select(method, workspace=workspace, no_cache=True, trace_id=trace_id)
    (trace,) = client.trace(trace_id=trace_id)
    engine = next(
        span["engine"] for span in trace["spans"] if span["name"] == "execute"
    )
    assert engine["name"] == f"query.{method}"
    assert engine["attrs"]["trace_id"] == trace_id
    tasks = [span for span in walk(engine) if span["name"].endswith(".task")]
    for span in tasks:
        assert span.get("attrs", {}).get("trace_id") == trace_id, method
    return tasks


class TestTracePropagation:
    @pytest.mark.smoke
    def test_client_trace_id_recoverable_with_all_spans(self, client):
        for method in sorted(METHODS):
            trace_id = f"e2e-{method.lower()}-1"
            answer = client.select(
                method, workspace="static", no_cache=True, trace_id=trace_id
            )
            assert answer.trace_id == trace_id
            (trace,) = client.trace(trace_id=trace_id)
            assert trace["outcome"] == "ok"
            assert trace["op"] == "select"
            assert trace["method"] == method
            names = [span["name"] for span in trace["spans"]]
            assert names == ["admission", "batch", "execute"], method
            execute = trace["spans"][-1]
            assert execute["elapsed_s"] >= 0

    @pytest.mark.smoke
    def test_engine_span_tree_is_tagged_with_the_trace_id(self, client):
        """The engine root and every task span adopted from the pool
        carry the request's tag.  SS and QVC cut their tasks along whole
        potential blocks, and this instance's 50 potentials fill one:
        the engine runs each lone task inline on the driver, so their
        trees hold no adopted task span to tag."""
        for method in sorted(METHODS):
            tasks = tagged_engine_tasks(client, method, "static")
            assert bool(tasks) == (method not in ("SS", "QVC")), method

    @pytest.mark.smoke
    def test_task_spans_of_a_multi_block_instance_carry_the_trace_id(self, client):
        """With potentials for three blocks, every method plans several
        tasks, and each adopted task span carries the request's tag."""
        for method in sorted(METHODS):
            assert tagged_engine_tasks(client, method, "wide"), method

    def test_auto_minted_ids_always_present(self, client):
        answer = client.select("MND", workspace="static")
        assert answer.trace_id is not None
        assert answer.trace_id.startswith("c-")
        assert client.trace(trace_id=answer.trace_id)

    @pytest.mark.smoke
    def test_cached_select_records_a_cache_hit_span(self, client):
        client.select("MND", workspace="static")  # prime
        answer = client.select("MND", workspace="static", trace_id="e2e-cached")
        assert answer.cached
        (trace,) = client.trace(trace_id="e2e-cached")
        assert trace["cached"] is True
        cache_span = next(s for s in trace["spans"] if s["name"] == "cache")
        assert cache_span["hit"] is True

    def test_error_outcomes_are_traced_and_echoed(self, client):
        with pytest.raises(UnknownMethodError):
            client.call(
                "select", workspace="static", method="NOPE", trace_id="e2e-err"
            )
        (trace,) = client.trace(trace_id="e2e-err")
        assert trace["outcome"] == UnknownMethodError.code

    def test_recent_and_slow_views(self, client):
        client.select("MND", workspace="static")
        recent = client.trace(recent=5)
        assert recent and all("trace_id" in t for t in recent)
        slow = client.trace(slow=3)
        assert len(slow) <= 3
        latencies = [t["latency_s"] for t in slow]
        assert latencies == sorted(latencies, reverse=True)


class TestLoadgenTraceIds:
    def test_planned_request_trace_round_trips(self, server):
        planned = PlannedRequest(
            client=0, sequence=7, phase="measure", op="select", method="MND"
        )
        with ServiceTransport(
            server.host, server.port, workspace="static"
        ) as transport:
            outcome = execute_request(planned, transport, RetryPolicy())
        assert outcome.ok
        assert outcome.trace_id == plan_trace_id(planned) == "lg-measure-0-7"
        with ServiceClient(server.host, server.port) as probe:
            (trace,) = probe.trace(trace_id="lg-measure-0-7")
        assert trace["op"] == "select"
        assert trace["outcome"] == "ok"


class TestMetricsOp:
    @pytest.mark.smoke
    def test_exposition_is_conformant_and_labeled(self, client):
        client.select("MND", workspace="static")
        body = client.metrics()
        assert lint_openmetrics(body) == []
        assert "# TYPE service_request_count counter" in body
        assert 'op="select"' in body and 'workspace="static"' in body
        assert "service_admitted_total" in body

    @pytest.mark.smoke
    def test_http_listener_serves_lint_clean_openmetrics(self, server, client):
        client.select("MND", workspace="static")
        host, port = server.service.metrics_address
        url = f"http://{host}:{port}/metrics"
        with urllib.request.urlopen(url, timeout=10) as response:
            scraped = response.read().decode("utf-8")
            content_type = response.headers.get("Content-Type", "")
        assert "openmetrics-text" in content_type
        assert lint_openmetrics(scraped) == []
        assert "# TYPE service_request_count counter" in scraped

    def test_content_type_declared(self, client):
        response = client.call("metrics")
        assert response["result"]["content_type"] == CONTENT_TYPE


class TestStatsOp:
    def test_default_prefix_is_service_scoped(self, client):
        stats = client.stats()
        assert stats["counters"]
        assert all(name.startswith("service.") for name in stats["counters"])
        assert isinstance(stats["window"], dict)

    def test_empty_prefix_exposes_the_whole_registry(self, client):
        client.select("MND", workspace="static", no_cache=True)
        stats = client.stats(prefix="")
        assert any(not n.startswith("service.") for n in stats["counters"])

    def test_window_views_cover_labeled_request_metrics(self, client):
        client.select("MND", workspace="static")
        window = client.stats()["window"]
        assert any(n.startswith("service.request.count{") for n in window)
        assert any(n.startswith("service.request.latency_s{") for n in window)

    def test_bad_prefix_rejected(self, client):
        with pytest.raises(BadRequestError):
            client.call("stats", prefix=7)


class TestRenderTop:
    def test_renders_live_stats_payload(self, client):
        client.select("MND", workspace="static")
        screen = render_top(client.stats(), interval_s=1.0, endpoint="test:0")
        assert "mindist top test:0" in screen
        assert "static" in screen and "dyn" in screen
        assert "select" in screen
        assert "lifetime:" in screen


class TestAccessLog:
    @pytest.mark.smoke
    def test_requests_logged_as_standalone_json(self, server, client, access_log_path):
        client.select("MND", workspace="static", trace_id="e2e-logged")
        records = [
            json.loads(line)
            for line in access_log_path.read_text().strip().splitlines()
        ]
        assert records
        mine = [r for r in records if r.get("trace_id") == "e2e-logged"]
        assert mine and mine[0]["op"] == "select"
        assert mine[0]["outcome"] == "ok"
        assert mine[0]["latency_s"] >= 0
        assert mine[0]["ts"] > 0


class TestSnapshotSink:
    @pytest.mark.smoke
    def test_stop_writes_a_final_snapshot(self, tmp_path):
        snapshots = tmp_path / "snapshots.jsonl"
        handle = serve_in_thread(
            {"static": Workspace(make_instance(rng=SEED, **SIZES))},
            ServiceConfig(
                telemetry=TelemetryConfig(
                    snapshot_path=snapshots,
                    snapshot_interval_s=3600.0,  # only the final snapshot
                ),
            ),
        )
        with handle:
            with ServiceClient(handle.host, handle.port) as c:
                c.select("MND", workspace="static")
        last = json.loads(snapshots.read_text().strip().splitlines()[-1])
        assert "metrics" in last and "windows" in last


class TestTelemetryOffParity:
    def test_answers_identical_with_telemetry_disabled(self, expected):
        handle = serve_in_thread(
            {"static": Workspace(make_instance(rng=SEED, **SIZES))},
            ServiceConfig(
                workers=2,
                batch_window_s=0.02,
                telemetry=TelemetryConfig(enabled=False),
            ),
        )
        with handle:
            with ServiceClient(handle.host, handle.port) as c:
                for method in sorted(METHODS):
                    answer = c.select(method, workspace="static", no_cache=True)
                    assert fingerprint(answer.result) == expected[method]
                    assert answer.trace_id is None

    @pytest.mark.smoke
    def test_answers_identical_with_telemetry_enabled(self, client, expected):
        for method in sorted(METHODS):
            answer = client.select(method, workspace="static", no_cache=True)
            assert fingerprint(answer.result) == expected[method]
