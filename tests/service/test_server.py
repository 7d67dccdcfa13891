"""End-to-end service tests over real TCP connections.

The acceptance bar for the service is *answer transparency*: for every
method, the ``p*`` and ``dr`` that come back over the wire — batched,
cached or cache-cold — must be byte-identical to a serial in-process
``select()`` on an identically-seeded workspace, and a workspace
mutation between two identical requests must provably invalidate the
cached result.  The tests marked ``smoke`` (CI: ``pytest -m smoke
tests/service``) cover wire parity, micro-batching, cache hits and
invalidation, ``queue_full`` admission and a graceful drain.
"""

from __future__ import annotations

import json
import socket
import threading
import time

import pytest

from repro.core import METHODS, Workspace, make_selector
from repro.core.diskmode import DiskWorkspace, persist_indexes
from repro.core.dynamic import DynamicWorkspace
from repro.core.evaluate import evaluate_location
from repro.core.types import fingerprint
from repro.datasets.generators import make_instance
from repro.service import (
    BadRequestError,
    DeadlineExceededError,
    QueueFullError,
    ServiceClient,
    ServiceConfig,
    UnknownMethodError,
    UnknownWorkspaceError,
    UnsupportedError,
    serve_in_thread,
)
from repro.service.protocol import encode
from repro.service.server import MAX_LINE_BYTES

SEED = 11
SIZES = dict(n_c=800, n_f=40, n_p=60)

NAN, INF = float("nan"), float("inf")
#: Updates whose numbers must be rejected: a NaN or infinite coordinate
#: or weight turns every ``dr`` into NaN, a coordinate beyond ±2**510
#: can overflow a squared distance, a weight must be a number >= 0, and
#: JSON ``true`` is not a number.
MALFORMED_UPDATES = [
    pytest.param(
        "add_client", {"point": [1.0, 2.0], "weight": bad}, id=f"weight-{name}"
    )
    for name, bad in [
        ("nan", NAN),
        ("inf", INF),
        ("str", "abc"),
        ("null", None),
        ("list", [1]),
        ("negative", -1.0),
        ("bool", True),
    ]
] + [
    pytest.param(action, {"point": point}, id=f"{action}-{name}")
    for action in ("add_client", "add_facility")
    for name, point in [
        ("nan", [NAN, 2.0]),
        ("inf", [1.0, -INF]),
        ("overflow", [10**400, 2.0]),
        ("beyond-limit", [1e200, 0.0]),
    ]
]


@pytest.fixture(scope="module")
def expected():
    """Serial in-process answers on an identically-seeded workspace."""
    reference = Workspace(make_instance(rng=SEED, **SIZES))
    return {m: fingerprint(make_selector(reference, m).select()) for m in METHODS}


@pytest.fixture(scope="module")
def server():
    """One service hosting a static and a dynamic workspace."""
    handle = serve_in_thread(
        {
            "static": Workspace(make_instance(rng=SEED, **SIZES)),
            "dyn": DynamicWorkspace(make_instance(rng=SEED, **SIZES)),
        },
        ServiceConfig(workers=2, batch_window_s=0.05),
    )
    with handle:
        yield handle


@pytest.fixture
def client(server):
    with ServiceClient(server.host, server.port) as c:
        yield c


class TestWireParity:
    @pytest.mark.parametrize("method", sorted(METHODS))
    def test_cache_cold_answer_is_byte_identical(self, client, expected, method):
        answer = client.select(method, workspace="static", no_cache=True)
        assert not answer.cached
        assert fingerprint(answer.result) == expected[method]

    @pytest.mark.smoke
    def test_batched_answers_are_byte_identical(self, client, expected):
        methods = sorted(METHODS)
        answers = client.select_many(methods, workspace="static", no_cache=True)
        for method, answer in zip(methods, answers):
            assert fingerprint(answer.result) == expected[method]
        # A pipelined burst within one window coalesces into one batch.
        assert any(a.batch_size and a.batch_size > 1 for a in answers)

    def test_a_lone_select_does_not_wait_out_the_window(self, expected):
        """With nothing else admitted, the batcher runs a select at once
        instead of holding it for ``batch_window_s``."""
        ws = Workspace(make_instance(rng=SEED, **SIZES))
        config = ServiceConfig(batch_window_s=5.0, workers=1)
        with serve_in_thread({"default": ws}, config) as handle:
            with ServiceClient(handle.host, handle.port) as c:
                started = time.monotonic()
                answer = c.select("MND", no_cache=True)
                assert time.monotonic() - started < 2.5
        assert fingerprint(answer.result) == expected["MND"]

    @pytest.mark.smoke
    def test_cached_answers_are_byte_identical(self, client, expected):
        for method in sorted(METHODS):
            client.select(method, workspace="static")  # prime
            answer = client.select(method, workspace="static")
            assert answer.cached
            assert fingerprint(answer.result) == expected[method]

    @pytest.mark.smoke
    def test_concurrent_clients_all_get_the_same_answer(self, server, expected):
        failures: list[str] = []
        lock = threading.Lock()

        def worker(method: str) -> None:
            try:
                with ServiceClient(server.host, server.port) as c:
                    answer = c.select(method, workspace="static", no_cache=True)
                if fingerprint(answer.result) != expected[method]:
                    with lock:
                        failures.append(method)
            except Exception as exc:  # noqa: BLE001 — reported below
                with lock:
                    failures.append(f"{method}: {exc}")

        threads = [
            threading.Thread(target=worker, args=(m,))
            for m in sorted(METHODS) * 2
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(60)
        assert not failures

    def test_evaluate_matches_in_process(self, client):
        reference = Workspace(make_instance(rng=SEED, **SIZES))
        local = evaluate_location(reference, 3)
        (report,) = client.evaluate([3], workspace="static")
        assert report["sid"] == local.location.sid
        assert report["dr"] == local.dr
        assert report["influence_count"] == local.influence_count

    def test_served_disk_workspace_repeats_hit_the_cache_at_epoch_zero(
        self, tmp_path, expected
    ):
        """A read-only disk workspace carries a clock that never moves,
        so its repeated selects are cache hits at ``data_version`` 0."""
        instance = make_instance(rng=SEED, **SIZES)
        persisted = persist_indexes(Workspace(instance), tmp_path)
        with DiskWorkspace(persisted) as disk:
            with serve_in_thread({"default": disk}, ServiceConfig(workers=1)) as handle:
                with ServiceClient(handle.host, handle.port) as c:
                    cold = c.select("MND")
                    warm = c.select("MND")
                    clock = c.stats()["workspaces"]["default"]["region_clock"]
        assert (cold.cached, warm.cached) == (False, True)
        assert cold.data_version == warm.data_version == clock["epoch"] == 0
        assert fingerprint(warm.result) == expected["MND"]


class TestCacheInvalidation:
    @pytest.mark.smoke
    def test_mutation_between_identical_requests_invalidates(self, client):
        """Prime the cache, mutate, and prove the repeat recomputed."""
        before = client.select("MND", workspace="dyn")
        primed = client.select("MND", workspace="dyn")
        assert primed.cached
        assert fingerprint(primed.result) == fingerprint(before.result)

        report = client.update("add_facility", workspace="dyn", point=[250.0, 250.0])
        assert report["data_version"] > before.data_version

        after = client.select("MND", workspace="dyn")
        assert not after.cached  # the cached entry became unreachable
        assert after.data_version == report["data_version"]
        # And the repeat at the *new* version caches again.
        assert client.select("MND", workspace="dyn").cached

    def test_cached_answers_report_the_current_data_version(self, client):
        """A far facility moves the clock's epoch but no sub-epoch: the
        cached select, evaluate and partials answers survive it and
        report the new ``data_version``, not the one they were
        computed at."""
        client.select("MND", workspace="dyn")
        client.call("evaluate", workspace="dyn", ids=[0])
        client.partials("MND", workspace="dyn")
        far = client.update("add_facility", workspace="dyn", point=[1e9, 1e9])
        assert (far["select_changed"], far["evaluate_changed"]) == (False, False)
        select = client.select("MND", workspace="dyn")
        assert select.cached and select.data_version == far["data_version"]
        for response in (
            client.call("evaluate", workspace="dyn", ids=[0]),
            client.partials("MND", workspace="dyn"),
        ):
            assert response["cached"] is True
            assert response["data_version"] == far["data_version"]
        client.update("remove_facility", workspace="dyn", sid=far["sid"])

    def test_update_rejected_on_static_workspaces(self, client):
        with pytest.raises(UnsupportedError, match="static"):
            client.update("add_facility", workspace="static", point=[1.0, 2.0])


class TestTypedRejections:
    def test_unknown_workspace(self, client):
        with pytest.raises(UnknownWorkspaceError, match="nowhere"):
            client.select("MND", workspace="nowhere")

    def test_unknown_method(self, client):
        with pytest.raises(UnknownMethodError, match="XXX"):
            client.select("XXX", workspace="static")

    def test_oversized_request_line_is_a_typed_bad_request(self, server, client):
        """A line past the reader's limit gets ``bad_request`` naming the
        limit, then a clean close; other connections keep being served."""
        line = encode(
            {"id": 1, "op": "evaluate", "workspace": "static", "ids": [7] * 40_000}
        )
        assert len(line) > MAX_LINE_BYTES  # ~120 KB
        with socket.create_connection((server.host, server.port), timeout=30) as sock:
            sock.sendall(line)
            with sock.makefile("rb") as replies:
                response = json.loads(replies.readline())
                try:
                    tail = replies.readline()
                except ConnectionResetError:
                    tail = b""  # the hang-up raced the unread end of the line
                assert tail == b""  # no second answer: the server hung up
        assert response["ok"] is False
        assert response["error"]["code"] == "bad_request"
        assert f"{MAX_LINE_BYTES}-byte limit" in response["error"]["message"]
        assert client.health()["status"] == "serving"
        with ServiceClient(server.host, server.port) as fresh:
            assert fresh.health()["status"] == "serving"
        # Through the client: the null-id answer is this unpipelined
        # call's typed error, not a response-id mismatch.
        with ServiceClient(server.host, server.port) as oversized:
            with pytest.raises(BadRequestError, match=f"{MAX_LINE_BYTES}-byte limit"):
                oversized.call("evaluate", workspace="static", ids=[7] * 40_000)

    @pytest.mark.parametrize(
        "action, key", [("remove_client", "cid"), ("remove_facility", "sid")]
    )
    @pytest.mark.parametrize("bad_id", [True, 1.0, "1"])
    def test_non_integer_record_id_is_a_typed_bad_request(
        self, client, action, key, bad_id
    ):
        """JSON ``true`` and ``1.0`` compare equal to record 1 in Python;
        neither may name a record."""
        before = client.stats()["workspaces"]["dyn"]
        with pytest.raises(BadRequestError, match="integer id"):
            client.update(action, workspace="dyn", **{key: bad_id})
        after = client.stats()["workspaces"]["dyn"]
        assert (after["n_c"], after["n_f"]) == (before["n_c"], before["n_f"])

    @pytest.mark.parametrize("action, params", MALFORMED_UPDATES)
    def test_non_finite_or_malformed_update_numbers_are_bad_requests(
        self, client, action, params
    ):
        before = client.stats()["workspaces"]["dyn"]
        with pytest.raises(BadRequestError, match="finite"):
            client.update(action, workspace="dyn", **params)
        after = client.stats()["workspaces"]["dyn"]
        assert after["data_version"] == before["data_version"]
        assert (after["n_c"], after["n_f"]) == (before["n_c"], before["n_f"])

    @pytest.mark.smoke
    def test_queue_full_is_explicit(self):
        """A one-slot queue under a pipelined burst rejects loudly."""
        ws = DynamicWorkspace(make_instance(rng=SEED, **SIZES))
        config = ServiceConfig(max_pending=1, batch_window_s=0.25, workers=1)
        with serve_in_thread({"default": ws}, config) as handle:
            with ServiceClient(handle.host, handle.port) as c:
                with pytest.raises(QueueFullError, match="full"):
                    c.select_many(["MND"] * 6, no_cache=True)

    def test_deadline_exceeded_cancels_the_wait(self):
        """A deadline shorter than the batch window fires immediately.

        A lone select runs at once, so a pipelined burst on another
        connection holds the window open first, and the short-deadline
        request joins its batch."""
        ws = Workspace(make_instance(rng=SEED, **SIZES))
        config = ServiceConfig(batch_window_s=0.5, workers=1)
        with serve_in_thread({"default": ws}, config) as handle:
            with ServiceClient(handle.host, handle.port) as burst:
                answers = []
                sender = threading.Thread(
                    target=lambda: answers.extend(
                        burst.select_many(["SS", "MND"], no_cache=True)
                    )
                )
                sender.start()
                with ServiceClient(handle.host, handle.port) as c:
                    give_up = time.monotonic() + 10.0
                    while c.stats()["workspaces"]["default"]["pending"] < 2:
                        assert time.monotonic() < give_up, "the burst never queued"
                    with pytest.raises(DeadlineExceededError, match="deadline"):
                        c.select("MND", timeout_s=0.05, no_cache=True)
                sender.join()
        assert [a.result.method for a in answers] == ["SS", "MND"]


class TestIntrospection:
    def test_health(self, client):
        health = client.health()
        assert health["status"] == "serving"
        assert sorted(health["workspaces"]) == ["dyn", "static"]

    def test_stats_reports_cache_and_queues(self, client, expected):
        client.select("SS", workspace="static")
        stats = client.stats()
        assert set(stats["cache"]) >= {"hits", "misses", "entries"}
        assert stats["requests"]["select"] >= 1
        assert stats["workspaces"]["static"]["n_c"] == SIZES["n_c"]
        assert stats["workspaces"]["static"]["max_pending"] == 64

    def test_default_config_runs_the_engine_inline(self, expected):
        """A default ``ServiceConfig`` serves through one engine worker:
        a select is mostly short numpy calls under the GIL, so a second
        thread only adds hand-offs."""
        ws = Workspace(make_instance(rng=SEED, **SIZES))
        with serve_in_thread({"default": ws}, ServiceConfig()) as handle:
            with ServiceClient(handle.host, handle.port) as c:
                answer = c.select("MND", no_cache=True)
                stats = c.stats()
        assert stats["workspaces"]["default"]["engine_workers"] == 1
        assert fingerprint(answer.result) == expected["MND"]

    @pytest.mark.smoke
    def test_graceful_drain_answers_everything_admitted(self, expected):
        """stop(drain=True) lets in-flight selections finish."""
        ws = Workspace(make_instance(rng=SEED, **SIZES))
        handle = serve_in_thread(
            {"default": ws}, ServiceConfig(workers=1, batch_window_s=0.02)
        )
        with ServiceClient(handle.host, handle.port) as c:
            answers = c.select_many(sorted(METHODS), no_cache=True)
        handle.stop()  # raises if the drain hangs
        for method, answer in zip(sorted(METHODS), answers):
            assert fingerprint(answer.result) == expected[method]
