"""The asyncio query service: admission, micro-batching, caching.

:class:`QueryService` hosts one or more named workspaces behind a TCP
server speaking the newline-delimited JSON protocol of
:mod:`repro.service.protocol`.  Per hosted workspace:

* an :class:`~repro.service.admission.AdmissionQueue` bounds how much
  work may be outstanding (explicit ``queue_full`` rejection, per-
  request deadlines, graceful drain);
* a **micro-batcher** pulls admitted ``select`` tickets off the queue,
  holds the batch open for a short collection window, coalesces
  duplicate requests, and executes the whole batch through one
  :meth:`~repro.exec.engine.QueryEngine.run_batch` call off the event
  loop — so concurrent requests share one engine call and the
  workspace's decoded-leaf cache, and duplicates run once.  By default
  (``workers=1``) the engine runs each batch's tasks inline on that
  one thread.  Results are byte-identical to serial in-process
  ``select()`` at any worker count (the engine's determinism
  contract), which is what makes the result cache sound in the first
  place;
* ``update`` tickets travel the *same* queue, so a mutation is strictly
  ordered against the selections admitted around it: batch formation
  stops at an update, the preceding batch executes, then the mutation
  runs alone (advancing the workspace's region clock), then batching
  resumes.

Every hosted workspace carries one :class:`~repro.core.regions.RegionClock`
(a static workspace's never advances).  Finished ``select``,
``partials`` and ``evaluate`` results land in the shared
:class:`~repro.service.cache.ResultCache` keyed on the clock's
per-operation sub-epoch, and one helper,
:meth:`QueryService._answer`, serves them: a repeated request at an
unchanged sub-epoch is answered on the connection handler without ever
being admitted, and every response reports the clock's ``epoch`` as
its ``data_version``.  A mutation whose affected region misses every
potential location leaves ``select``/``partials`` answers cached, and a
facility mutation that changes no client leaves ``evaluate`` answers
cached too — the cache stays *warm* under spatially disjoint churn
instead of starting cold after every write.  Updates reject malformed
or non-finite numbers, and coordinates beyond ±2**510 (whose squared
distances could overflow), with a typed ``bad_request`` before touching
the workspace.

Every request is handled as its own task, so a single connection may
pipeline many requests (responses re-associate by ``id``) — that is
also how one client makes a micro-batch happen on purpose.

Every request also runs under a :class:`~repro.obs.live.RequestTrace`
(when :class:`~repro.service.telemetry.TelemetryConfig` is enabled, the
default): the client's ``trace_id`` — or a server-minted one — is
echoed on the response, correlated across the admission-wait, batch-
assembly, engine-execution and cache-lookup spans, propagated into the
engine's per-task span ``attrs``, and recoverable afterwards through
the ``trace`` op.  Telemetry never changes what a query computes.
"""

from __future__ import annotations

import asyncio
import math
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Awaitable, Callable, Optional

from repro.core import METHODS, make_selector
from repro.core.dynamic import DynamicWorkspace
from repro.core.evaluate import evaluate_location
from repro.core.regions import RegionClock
from repro.exec import QueryEngine
from repro.geometry.point import COORD_LIMIT
from repro.obs.openmetrics import CONTENT_TYPE
from repro.obs.registry import REGISTRY
from repro.obs.sinks import CallbackSink
from repro.obs.trace import Span, Tracer
from repro.service.admission import AdmissionQueue, Ticket
from repro.service.cache import ResultCache
from repro.service.telemetry import ServiceTelemetry, TelemetryConfig
from repro.service.protocol import (
    OPERATIONS,
    PROTOCOL_VERSION,
    BadRequestError,
    DeadlineExceededError,
    ServiceError,
    ShuttingDownError,
    UnknownMethodError,
    UnknownWorkspaceError,
    UnsupportedError,
    decode,
    encode,
    error_response,
    ok_response,
    selection_to_wire,
)


#: The longest request line the server frames: asyncio's default
#: ``StreamReader`` limit, passed explicitly so the error can name it.
MAX_LINE_BYTES = 2**16

#: The most unfinished requests one connection may hold.  At the bound
#: the server stops reading that connection until one of them finishes,
#: so a client that pipelines without reading its answers cannot grow
#: the server's task set without limit.
MAX_PIPELINED = 256


@dataclass(frozen=True)
class ServiceConfig:
    """Tunables of one :class:`QueryService`."""

    #: Admission bound per workspace (queued + in-flight requests).
    max_pending: int = 64
    #: How long the batcher holds a micro-batch open after its first
    #: ticket arrives, when another request of the workspace is
    #: admitted; a lone select runs at once.  Zero still batches
    #: whatever is already queued.
    batch_window_s: float = 0.002
    #: Largest micro-batch handed to one ``run_batch`` call.
    max_batch: int = 16
    #: Engine workers per workspace; 1 runs each batch inline on one
    #: thread.  More threads overlap only GIL-free numpy and simulated
    #: page latency: a select is mostly short numpy calls under the GIL,
    #: so a second thread adds hand-offs and slows every method.
    workers: int = 1
    #: Engine executor kind (``"thread"`` or ``"process"``).
    executor: str = "thread"
    #: Deadline applied to requests that do not carry ``timeout_s``.
    default_timeout_s: Optional[float] = 30.0
    #: Result-cache capacity (entries, LRU beyond it); 0 disables.
    cache_entries: int = 1024
    #: How long :meth:`QueryService.shutdown` waits for the queues to
    #: drain before abandoning stragglers.
    drain_timeout_s: float = 10.0
    #: Live-telemetry configuration (tracing, windows, exporters).
    telemetry: TelemetryConfig = field(default_factory=TelemetryConfig)


class WorkspaceHost:
    """One hosted workspace: engine + admission queue + micro-batcher."""

    def __init__(
        self,
        name: str,
        workspace,
        config: ServiceConfig,
        cache: ResultCache,
        telemetry: Optional[ServiceTelemetry] = None,
    ):
        self.name = name
        self.workspace = workspace
        #: The workspace's mutation clock: it keys, sweeps and reports
        #: every cached answer of this workspace.
        self.clock = workspace.region_clock
        self.config = config
        self.cache = cache
        self.telemetry = telemetry
        self.engine = QueryEngine(
            workspace, workers=config.workers, executor=config.executor
        )
        #: Engine span roots of the current batch, in query order.  Safe
        #: as plain state: one batch runs at a time per workspace, and
        #: the list is cleared before / drained after each run_batch.
        self._roots: list[Span] = []
        if telemetry is not None and telemetry.enabled:
            workspace.attach_tracer(Tracer([CallbackSink(self._roots.append)]))
        self.queue = AdmissionQueue(name, config.max_pending)
        self._task: Optional[asyncio.Task] = None
        self._batches = REGISTRY.counter("service.batches")
        self._batch_size = REGISTRY.histogram("service.batch.size")
        self._coalesced = REGISTRY.counter("service.coalesced")
        self._expired = REGISTRY.counter("service.expired")
        self._latency = REGISTRY.histogram("service.select.latency_s")

    # ------------------------------------------------------------------
    def start(self) -> None:
        self._task = asyncio.get_running_loop().create_task(
            self._batch_loop(), name=f"svc-batcher-{self.name}"
        )

    async def stop(self) -> None:
        """Cancel the batcher and fail anything still queued."""
        if self._task is not None:
            self._task.cancel()
            try:
                await self._task
            except asyncio.CancelledError:
                pass
            self._task = None
        while True:
            ticket = await self.queue.get_nowait_or_wait(0)
            if ticket is None:
                break
            ticket.fail(
                ShuttingDownError(
                    f"workspace {self.name!r} shut down before this request ran"
                )
            )
            self.queue.finish(ticket)
        self.engine.close()

    # ------------------------------------------------------------------
    # The micro-batch loop
    # ------------------------------------------------------------------
    async def _batch_loop(self) -> None:
        loop = asyncio.get_running_loop()
        carried: Optional[Ticket] = None
        while True:
            ticket = carried if carried is not None else await self.queue.get()
            carried = None
            # When the ticket was picked off the queue: the boundary
            # between its admission-wait and batch-assembly spans.
            ticket.meta.setdefault("picked_at", loop.time())
            if self._discard_if_dead(ticket, loop.time()):
                continue
            if ticket.op != "select":
                await self._run_single(ticket)
                continue
            batch = [ticket]
            # Let the lines already read be admitted, then hold the
            # window open only while another ticket is waiting for it.
            await asyncio.sleep(0)
            window = self.config.batch_window_s if self.queue.pending > 1 else 0.0
            window_end = loop.time() + window
            while len(batch) < self.config.max_batch:
                nxt = await self.queue.get_nowait_or_wait(window_end - loop.time())
                if nxt is None:
                    break
                nxt.meta.setdefault("picked_at", loop.time())
                if self._discard_if_dead(nxt, loop.time()):
                    continue
                if nxt.op != "select":
                    # A mutation: close the batch here so queue order is
                    # preserved — selects admitted before it see the old
                    # version, selects after it the new one.
                    carried = nxt
                    break
                batch.append(nxt)
            await self._run_selects(batch)

    def _discard_if_dead(self, ticket: Ticket, now: float) -> bool:
        """Retire a cancelled/expired ticket without executing it."""
        if ticket.cancelled:
            self.queue.finish(ticket)
            return True
        if ticket.expired(now):
            ticket.fail(
                DeadlineExceededError(
                    f"request deadline passed after "
                    f"{now - ticket.enqueued_at:.3f}s in the queue"
                )
            )
            self._expired.inc()
            self.queue.finish(ticket)
            return True
        return False

    async def _run_selects(self, batch: list[Ticket]) -> None:
        loop = asyncio.get_running_loop()
        live = [t for t in batch if not self._discard_if_dead(t, loop.time())]
        if not live:
            return
        version = self.clock.epoch
        # Coalesce duplicates: one engine execution answers every ticket
        # asking the same question of the same snapshot.
        groups: dict[str, list[Ticket]] = {}
        for ticket in live:
            groups.setdefault(ticket.params["method"], []).append(ticket)
        self._coalesced.inc(len(live) - len(groups))
        methods = list(groups)
        started = loop.time()
        traced = self.telemetry is not None and self.telemetry.enabled
        tags: Optional[list] = None
        if traced:
            # Admission wait ended when the batcher picked the ticket;
            # everything between that and the engine call is assembly.
            for ticket in live:
                trace = ticket.meta.get("trace")
                if trace is None:
                    continue
                picked = ticket.meta.get("picked_at", started)
                trace.add_span("admission", picked - ticket.enqueued_at)
                trace.add_span("batch", started - picked)
            # One tag set per engine query: the first traced ticket of
            # each coalesced group lends its id to the shared span tree.
            tags = []
            for method in methods:
                group_traces = [
                    t.meta["trace"]
                    for t in groups[method]
                    if t.meta.get("trace") is not None
                ]
                tags.append(
                    {"trace_id": group_traces[0].trace_id}
                    if group_traces
                    else None
                )
            self._roots.clear()
        try:
            results = await asyncio.to_thread(self.engine.run_batch, methods, tags)
        except Exception as exc:  # noqa: BLE001 — surfaced to every caller
            error = (
                exc
                if isinstance(exc, ServiceError)
                else ServiceError(f"engine failure: {exc}")
            )
            for ticket in live:
                ticket.fail(error)
                self.queue.finish(ticket)
            return
        execute_s = loop.time() - started
        roots = list(self._roots) if traced else []
        self._roots.clear()
        self._batches.inc()
        self._batch_size.observe(len(live))
        for index, (method, result) in enumerate(zip(methods, results)):
            wire = selection_to_wire(result)
            engine_tree = (
                roots[index].to_dict() if index < len(roots) else None
            )
            for ticket in groups[method]:
                trace = ticket.meta.get("trace")
                if trace is not None:
                    trace.batch_size = len(live)
                    extra: dict[str, Any] = {
                        "coalesced_with": len(groups[method]) - 1
                    }
                    if engine_tree is not None:
                        extra["engine"] = engine_tree
                    trace.add_span("execute", execute_s, **extra)
                ticket.resolve(
                    {
                        "result": wire,
                        "cached": False,
                        "batch_size": len(live),
                        "data_version": version,
                        "queue_wait_s": started - ticket.enqueued_at,
                    }
                )
                self._latency.observe(loop.time() - ticket.enqueued_at)
                self.queue.finish(ticket)

    # ------------------------------------------------------------------
    # Non-batched operations (updates, evaluations)
    # ------------------------------------------------------------------
    async def _run_single(self, ticket: Ticket) -> None:
        loop = asyncio.get_running_loop()
        started = loop.time()
        trace = ticket.meta.get("trace")
        if trace is not None:
            picked = ticket.meta.get("picked_at", started)
            trace.add_span("admission", picked - ticket.enqueued_at)
        try:
            if ticket.op == "update":
                payload = await asyncio.to_thread(self._apply_update, ticket.params)
                self.cache.invalidate(self.name, self.clock)
            elif ticket.op == "evaluate":
                payload = await asyncio.to_thread(self._apply_evaluate, ticket.params)
            elif ticket.op == "partials":
                payload = await asyncio.to_thread(self._apply_partials, ticket.params)
            else:
                raise BadRequestError(f"unknown queued operation {ticket.op!r}")
            if trace is not None:
                trace.add_span("execute", loop.time() - started)
            ticket.resolve(payload)
        except ServiceError as exc:
            ticket.fail(exc)
        except Exception as exc:  # noqa: BLE001 — surfaced to the caller
            ticket.fail(ServiceError(f"{ticket.op} failure: {exc}"))
        finally:
            self.queue.finish(ticket)

    def _apply_update(self, params: dict) -> dict:
        ws = self.workspace
        if not isinstance(ws, DynamicWorkspace):
            raise UnsupportedError(
                f"workspace {self.name!r} is static; serve a DynamicWorkspace "
                "to accept updates"
            )
        action = params.get("action")
        before = self.clock.snapshot()
        if action == "add_client":
            point = update_point(params)
            client = ws.add_client(point, weight=update_weight(params))
            detail: dict[str, Any] = {"cid": client.cid, "dnn": client.dnn}
        elif action == "remove_client":
            cid = record_id(params, "cid")
            client = ws.client_by_cid(cid)
            if client is None:
                raise BadRequestError(f"no client with cid {cid!r}")
            ws.remove_client(client)
            detail = {"cid": cid}
        elif action == "add_facility":
            site = ws.add_facility(update_point(params))
            detail = {"sid": site.sid}
        elif action == "remove_facility":
            sid = record_id(params, "sid")
            site = ws.facility_by_sid(sid)
            if site is None:
                raise BadRequestError(f"no facility with sid {sid!r}")
            ws.remove_facility(site)
            detail = {"sid": sid}
        else:
            raise BadRequestError(
                f"unknown update action {action!r}; expected add_client, "
                "remove_client, add_facility or remove_facility"
            )
        after = self.clock.snapshot()
        detail.update(
            {
                "action": action,
                "data_version": after["epoch"],
                "n_c": ws.n_c,
                "n_f": ws.n_f,
                "n_p": ws.n_p,
                # Which answer classes this mutation actually aged — a
                # shard coordinator folds these into its own clock.
                "select_changed": after["select_epoch"] != before["select_epoch"],
                "evaluate_changed": (
                    after["evaluate_epoch"] != before["evaluate_epoch"]
                ),
                "region": after["last_region"],
            }
        )
        return {"result": detail, "data_version": after["epoch"]}

    def _apply_evaluate(self, params: dict) -> dict:
        ids = params.get("ids")
        if not isinstance(ids, list) or not all(isinstance(i, int) for i in ids):
            raise BadRequestError("evaluate needs 'ids': a list of candidate ids")
        version = self.clock.epoch
        reports = []
        for candidate in ids:
            try:
                report = evaluate_location(self.workspace, candidate)
            except ValueError as exc:
                raise BadRequestError(str(exc)) from None
            # The additive companions of the averages, so a shard
            # coordinator can fold per-tile reports exactly (sums in
            # tile order, averages recomputed from the folded sums).
            reports.append(
                {
                    "sid": report.location.sid,
                    "x": report.location.x,
                    "y": report.location.y,
                    "influence_count": report.influence_count,
                    "dr": report.dr,
                    "avg_nfd_before": report.avg_nfd_before,
                    "avg_nfd_after": report.avg_nfd_after,
                    "max_client_gain": report.max_client_gain,
                    "n_c": self.workspace.n_c,
                    "nfd_sum_before": report.nfd_sum_before,
                    "nfd_sum_after": report.nfd_sum_after,
                }
            )
        return {"result": reports, "cached": False, "data_version": version}

    def _apply_partials(self, params: dict) -> dict:
        """One method's full ``dr`` vector plus I/O snapshot.

        The scatter half of the shard coordinator's exact merge
        (:mod:`repro.shard.merge`): the engine runs the method over this
        workspace alone and the *whole* distance-reduction vector
        crosses the wire (floats round-trip exactly), so the
        coordinator's tile-order fold reproduces the serial reference
        bit for bit.  Generic — any hosted workspace can answer it.
        """
        method = params["method"]
        version = self.clock.epoch
        selector = make_selector(self.workspace, method)
        result = self.engine.run(selector)
        dr = selector.distance_reductions()
        return {
            "result": {
                "method": result.method,
                "tile_id": getattr(self.workspace, "tile_id", -1),
                "n_p": len(dr),
                "dr": [float(v) for v in dr],
                "io_total": result.io_total,
                "io_reads": dict(result.io_reads),
                "index_pages": result.index_pages,
                "elapsed_s": result.elapsed_s,
                "cpu_s": result.cpu_s,
            },
            "cached": False,
            "data_version": version,
        }

    def describe(self) -> dict:
        ws = self.workspace
        return {
            "n_c": ws.n_c,
            "n_f": ws.n_f,
            "n_p": ws.n_p,
            "data_version": self.clock.epoch,
            "dynamic": isinstance(ws, DynamicWorkspace),
            "pending": self.queue.pending,
            "queue_depth": self.queue.depth,
            "max_pending": self.queue.max_pending,
            "engine_workers": self.engine.workers,
            "region_clock": self.clock.snapshot(),
            "cache_survival": self.cache.survival(self.name),
        }


def _finite(value: Any) -> Optional[float]:
    """``value`` as a float when it is a finite real number (JSON
    ``true`` is not one), else None."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return None
    try:
        number = float(value)
    except OverflowError:  # an integer beyond the float range
        return None
    return number if math.isfinite(number) else None


def update_point(params: dict) -> tuple[float, float]:
    """The ``point`` an update names: two finite real coordinates, each
    at most :data:`~repro.geometry.point.COORD_LIMIT` in magnitude."""
    point = params.get("point")
    xy = (
        [_finite(v) for v in point]
        if isinstance(point, (list, tuple)) and len(point) == 2
        else [None]
    )
    if None in xy or max(abs(v) for v in xy) > COORD_LIMIT:
        raise BadRequestError(
            "update needs 'point': [x, y] of finite numbers within "
            f"±2**510, got {point!r}"
        )
    return xy[0], xy[1]


def update_weight(params: dict) -> float:
    """The ``weight`` an ``add_client`` names: a finite real >= 0
    (1.0 when absent)."""
    weight = _finite(params.get("weight", 1.0))
    if weight is None or weight < 0:
        raise BadRequestError(
            "update needs 'weight': a finite number >= 0, "
            f"got {params.get('weight')!r}"
        )
    return weight


def requested_method(message: dict, trace) -> str:
    """The request's ``method`` (MND when absent), upper-cased."""
    method = message.get("method", "MND")
    if not isinstance(method, str) or method.upper() not in METHODS:
        raise UnknownMethodError(
            f"unknown method {method!r}; expected one of "
            f"{', '.join(sorted(METHODS))}"
        )
    method = method.upper()
    if trace is not None:
        trace.method = method
    return method


def _reply(request_id: Any, payload: dict) -> dict:
    """A computed payload — ``result`` plus envelope fields such as
    ``cached`` and ``data_version`` — as a response."""
    envelope = {k: v for k, v in payload.items() if k != "result"}
    return ok_response(request_id, payload["result"], **envelope)


def record_id(params: dict, key: str) -> int:
    """The ``cid``/``sid`` an update names: an ``int`` and not a
    ``bool`` (JSON ``true`` would otherwise pass as record 1)."""
    value = params.get(key)
    if not isinstance(value, int) or isinstance(value, bool):
        raise BadRequestError(f"update needs {key!r}: an integer id, got {value!r}")
    return value


class QueryService:
    """The long-lived service: hosts, dispatch and the TCP front end."""

    def __init__(
        self,
        workspaces: dict[str, Any],
        config: Optional[ServiceConfig] = None,
    ):
        if not workspaces:
            raise ValueError("a service needs at least one named workspace")
        self.config = config or ServiceConfig()
        # Telemetry first: it upgrades the shared registry metrics to
        # their windowed variants *before* the cache, queues and hosts
        # fetch handles, so their increments feed the rolling windows.
        self.telemetry = ServiceTelemetry(self.config.telemetry)
        self.cache = ResultCache(self.config.cache_entries)
        self.hosts = {
            name: WorkspaceHost(name, ws, self.config, self.cache, self.telemetry)
            for name, ws in workspaces.items()
        }
        self._server: Optional[asyncio.base_events.Server] = None
        #: Bound (host, port) of the plain-HTTP metrics listener, once
        #: started (None when the listener is not configured).
        self.metrics_address: Optional[tuple[str, int]] = None
        self._draining = False
        self._started_at = time.monotonic()
        self._requests = {
            op: REGISTRY.counter(f"service.requests.{op}") for op in OPERATIONS
        }
        self._connections = REGISTRY.gauge("service.connections")

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def start(self, host: str = "127.0.0.1", port: int = 0) -> tuple[str, int]:
        """Bind the TCP server and start the batchers; returns the
        actual (host, port) — pass port 0 for an ephemeral one."""
        for workspace_host in self.hosts.values():
            workspace_host.start()
        self._server = await asyncio.start_server(
            self._handle_connection, host, port, limit=MAX_LINE_BYTES
        )
        self.metrics_address = await self.telemetry.start_exporters(host)
        sockname = self._server.sockets[0].getsockname()
        return sockname[0], sockname[1]

    async def serve_forever(self) -> None:
        if self._server is None:
            raise RuntimeError("call start() before serve_forever()")
        await self._server.serve_forever()

    async def shutdown(self, drain: bool = True) -> None:
        """Stop accepting, optionally drain, then tear everything down.

        With ``drain=True`` (the default) every already-admitted request
        still gets its response before the batchers stop; new requests
        are rejected with ``shutting_down`` the moment the drain begins.
        """
        self._draining = True
        for host in self.hosts.values():
            host.queue.close()
        if drain:
            for host in self.hosts.values():
                await host.queue.drain(self.config.drain_timeout_s)
        for host in self.hosts.values():
            await host.stop()
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        await self.telemetry.stop_exporters()
        self.metrics_address = None

    @property
    def draining(self) -> bool:
        return self._draining

    # ------------------------------------------------------------------
    # Connection plumbing
    # ------------------------------------------------------------------
    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self._connections.inc()
        write_lock = asyncio.Lock()
        tasks: set[asyncio.Task] = set()
        slots = asyncio.Semaphore(MAX_PIPELINED)
        try:
            while True:
                await slots.acquire()  # read on only below MAX_PIPELINED
                try:
                    line = await reader.readline()
                except ValueError:
                    # The line overran the reader's limit and asyncio has
                    # dropped what it buffered, so the rest of the stream
                    # cannot be framed: answer once, then hang up.
                    error = BadRequestError(
                        f"request line exceeds the {MAX_LINE_BYTES}-byte limit"
                    )
                    await self._send(writer, write_lock, error_response(None, error))
                    break
                if not line:
                    break
                if not line.strip():
                    slots.release()
                    continue
                # One task per request: pipelined requests on one
                # connection run concurrently (and so can micro-batch).
                task = asyncio.ensure_future(
                    self._handle_line(line, writer, write_lock)
                )
                tasks.add(task)
                task.add_done_callback(tasks.discard)
                task.add_done_callback(lambda __: slots.release())
        except (ConnectionError, asyncio.IncompleteReadError):
            pass
        finally:
            if tasks:
                await asyncio.gather(*tasks, return_exceptions=True)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass
            self._connections.dec()

    async def _handle_line(
        self,
        line: bytes,
        writer: asyncio.StreamWriter,
        write_lock: asyncio.Lock,
    ) -> None:
        request_id: Any = None
        try:
            message = decode(line)
            request_id = message.get("id")
            response = await self.handle_request(message)
        except ServiceError as exc:
            response = error_response(request_id, exc)
            trace_id = getattr(exc, "trace_id", None)
            if trace_id is not None:
                response["trace_id"] = trace_id
        except Exception as exc:  # noqa: BLE001 — protocol must answer
            response = error_response(request_id, ServiceError(str(exc)))
        await self._send(writer, write_lock, response)

    @staticmethod
    async def _send(
        writer: asyncio.StreamWriter, write_lock: asyncio.Lock, response: dict
    ) -> None:
        async with write_lock:
            try:
                writer.write(encode(response))
                await writer.drain()
            except (ConnectionError, OSError):
                pass  # the caller went away; nothing left to tell them

    # ------------------------------------------------------------------
    # Dispatch (also the in-process API the tests exercise directly)
    # ------------------------------------------------------------------
    async def handle_request(self, message: dict) -> dict:
        """One request dict in, one response dict out.

        The whole request runs under one :class:`RequestTrace` (when
        telemetry is on): successful responses echo its ``trace_id``,
        failed ones carry it on the raised :class:`ServiceError` so the
        connection handler can still echo it.
        """
        trace = self.telemetry.begin(message)
        try:
            response = await self._dispatch(message, trace)
        except ServiceError as exc:
            self.telemetry.finish(trace, outcome=exc.code)
            if trace is not None:
                exc.trace_id = trace.trace_id
            raise
        except Exception:
            self.telemetry.finish(trace, outcome="internal")
            raise
        self.telemetry.finish(trace)
        if trace is not None:
            response.setdefault("trace_id", trace.trace_id)
        return response

    async def _dispatch(self, message: dict, trace) -> dict:
        request_id = message.get("id")
        op = message.get("op")
        if op not in OPERATIONS:
            raise BadRequestError(
                f"unknown op {op!r}; expected one of {', '.join(OPERATIONS)}"
            )
        self._requests[op].inc()
        if op == "health":
            return ok_response(request_id, self._health())
        if op == "stats":
            return ok_response(request_id, self._stats(message))
        if op == "metrics":
            return ok_response(
                request_id,
                {
                    "content_type": CONTENT_TYPE,
                    "body": self.telemetry.render_metrics(),
                },
            )
        if op == "trace":
            return ok_response(request_id, self.telemetry.trace_payload(message))
        host = self._resolve_host(message)
        if op == "update":
            params = {
                k: v
                for k, v in message.items()
                if k not in ("id", "op", "workspace", "trace_id")
            }
            payload = await self._admit_and_wait(host, op, params, message, trace)
            return _reply(request_id, payload)
        if op == "evaluate":
            params = {"ids": message.get("ids")}
        else:
            params = {"method": requested_method(message, trace)}
        return await self._answer(
            request_id,
            message,
            trace,
            host.name,
            host.clock,
            op,
            params,
            lambda: self._admit_and_wait(host, op, params, message, trace),
        )

    def _resolve_host(self, message: dict) -> WorkspaceHost:
        name = message.get("workspace", "default")
        host = self.hosts.get(name)
        if host is None:
            raise UnknownWorkspaceError(
                f"unknown workspace {name!r}; serving: {', '.join(sorted(self.hosts))}"
            )
        return host

    async def _answer(
        self,
        request_id: Any,
        message: dict,
        trace,
        name: str,
        clock: RegionClock,
        op: str,
        params: dict,
        compute: Callable[[], Awaitable[dict]],
    ) -> dict:
        """One ``select``/``partials``/``evaluate`` response, cached or
        computed.

        A hit reports the clock's ``epoch`` now.  A miss returns
        ``compute``'s payload (``result`` plus envelope fields, its
        ``data_version`` the epoch the answer was computed at) and
        stores the result under the clock as that answer saw it.
        ``no_cache`` skips both the lookup and the store.
        """
        use_cache = not message.get("no_cache", False)
        if use_cache:
            started = time.perf_counter()
            result = self.cache.get(self.cache.key(name, clock, op, params))
            if trace is not None:
                trace.add_span(
                    "cache", time.perf_counter() - started, hit=result is not None
                )
            if result is not None:
                if trace is not None:
                    trace.cached = True
                return ok_response(
                    request_id, result, cached=True, data_version=clock.epoch
                )
        payload = await compute()
        if use_cache:
            # A mutation may have run (or be running, on a worker
            # thread) since the answer was computed.  Read the key
            # first, then the epoch, which ``RegionClock.advance`` moves
            # before any sub-epoch: an unchanged epoch means the key is
            # the one the answer saw.
            key = self.cache.key(name, clock, op, params)
            if clock.epoch == payload["data_version"]:
                self.cache.put(key, payload["result"])
        return _reply(request_id, payload)

    async def _admit_and_wait(
        self, host: WorkspaceHost, op: str, params: dict, message: dict, trace=None
    ) -> dict:
        """Admit one ticket and await its payload, enforcing the deadline."""
        if self._draining:
            raise ShuttingDownError("service is draining; request rejected")
        loop = asyncio.get_running_loop()
        timeout = message.get("timeout_s", self.config.default_timeout_s)
        if timeout is not None:
            timeout = float(timeout)
        ticket = Ticket(
            op=op,
            params=params,
            future=loop.create_future(),
            enqueued_at=loop.time(),
            deadline=None if timeout is None else loop.time() + timeout,
        )
        if trace is not None:
            trace.queue_depth = host.queue.depth
            ticket.meta["trace"] = trace
        host.queue.submit(ticket)  # raises QueueFull / ShuttingDown
        try:
            if timeout is None:
                return await ticket.future
            return await asyncio.wait_for(ticket.future, timeout)
        except asyncio.TimeoutError:
            # The batcher retires the cancelled ticket when it reaches
            # it; the caller hears about the deadline immediately.
            ticket.cancelled = True
            raise DeadlineExceededError(
                f"{op} missed its {timeout:g}s deadline on "
                f"workspace {host.name!r}"
            ) from None

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def _health(self) -> dict:
        return {
            "status": "draining" if self._draining else "serving",
            "protocol": PROTOCOL_VERSION,
            "uptime_s": time.monotonic() - self._started_at,
            "workspaces": sorted(self.hosts),
        }

    def _stats(self, message: Optional[dict] = None) -> dict:
        """Service stats; ``prefix`` widens the registry view.

        The default prefix ``"service."`` keeps the historical payload
        shape; ``prefix: ""`` exposes the *whole* process registry —
        pager, leaf-cache and exec counters included — and any other
        prefix selects its slice.  ``window`` holds the rolling-window
        views of every windowed metric under the same prefix.
        """
        message = message or {}
        prefix = message.get("prefix", "service.")
        if not isinstance(prefix, str):
            raise BadRequestError("stats 'prefix' must be a string")
        return {
            "uptime_s": time.monotonic() - self._started_at,
            "status": "draining" if self._draining else "serving",
            "requests": {
                op: counter.value for op, counter in self._requests.items()
            },
            "cache": {
                "entries": len(self.cache),
                "hits": self.cache.hits.value,
                "misses": self.cache.misses.value,
                "evictions": self.cache.evictions.value,
                "invalidations": self.cache.invalidations.value,
            },
            "counters": REGISTRY.snapshot(prefix),
            "window": REGISTRY.window_snapshot(prefix),
            "workspaces": {
                name: host.describe() for name, host in sorted(self.hosts.items())
            },
        }


# ----------------------------------------------------------------------
# Threaded embedding (tests, benchmarks, notebooks)
# ----------------------------------------------------------------------
class ServiceHandle:
    """A running service on a background thread; ``stop()`` tears it down."""

    def __init__(self, thread: threading.Thread, box: dict):
        self._thread = thread
        self._box = box
        self.host: str = box["host"]
        self.port: int = box["port"]

    @property
    def service(self) -> QueryService:
        return self._box["service"]

    def stop(self, drain: bool = True, timeout: float = 15.0) -> None:
        box = self._box
        if self._thread.is_alive():
            box["drain"] = drain
            box["loop"].call_soon_threadsafe(box["stopped"].set)
        self._thread.join(timeout)
        if self._thread.is_alive():
            raise RuntimeError("service thread did not stop in time")
        error = box.get("error")
        if error is not None:
            raise error

    def __enter__(self) -> "ServiceHandle":
        return self

    def __exit__(self, *exc: object) -> None:
        self.stop()


def serve_in_thread(
    workspaces: dict[str, Any],
    config: Optional[ServiceConfig] = None,
    host: str = "127.0.0.1",
    port: int = 0,
) -> ServiceHandle:
    """Run a :class:`QueryService` on a daemon thread; returns once it
    is accepting connections (with the bound host/port filled in)."""
    started = threading.Event()
    box: dict = {}

    def _run() -> None:
        async def _main() -> None:
            service = QueryService(workspaces, config)
            try:
                box["host"], box["port"] = await service.start(host, port)
            except Exception as exc:  # noqa: BLE001 — reported to caller
                box["error"] = exc
                return
            box["service"] = service
            box["loop"] = asyncio.get_running_loop()
            box["stopped"] = asyncio.Event()
            started.set()
            await box["stopped"].wait()
            await service.shutdown(drain=box.get("drain", True))

        try:
            asyncio.run(_main())
        except Exception as exc:  # noqa: BLE001 — reported to caller
            box.setdefault("error", exc)
        finally:
            started.set()

    thread = threading.Thread(target=_run, name="repro-service", daemon=True)
    thread.start()
    if not started.wait(30.0):
        raise RuntimeError("service did not start within 30s")
    if "error" in box:
        raise box["error"]
    return ServiceHandle(thread, box)
