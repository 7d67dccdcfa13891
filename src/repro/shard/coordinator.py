"""The shard coordinator: one logical workspace over a shard fleet.

:class:`ShardCoordinator` is a :class:`~repro.service.server.QueryService`
that hosts **no** workspaces of its own: every data-bearing request fans
out over the existing TCP protocol to K shard servers (each a plain
``QueryService`` hosting its assigned tile workspaces under
``tile-NNNN`` names) and the replies merge through
:mod:`repro.shard.merge` in fixed global tile order — so the coordinator
serves the same bytes as the serial tile-order reference at any shard
count.

* ``select`` — one ``partials`` call per tile to its owning shard
  (concurrently; calls to the same shard pipeline on one connection),
  merged into a full :class:`~repro.core.types.SelectionResult`;
* ``evaluate`` — fanned to every tile, additive report fields folded in
  tile order;
* ``update`` — ``add_client`` routes by point to the owning tile,
  ``remove_client`` routes by cid through the partition plan's
  directory (original cids) or the tile-stride congruence (minted
  cids), falling back to a tile-order probe only when the topology
  carries no directory; facility changes broadcast to every tile
  sequentially in tile order (facilities are replicated, so sids stay
  aligned across tiles).  Points and weights are checked before any
  tile sees them.  Every successful update advances the coordinator's
  own :class:`~repro.core.regions.RegionClock` by the
  ``select_changed``/``evaluate_changed`` flags and regions the tiles'
  clocks report (ORed and united across a broadcast); the result cache
  keys ``select`` and ``evaluate`` answers on it through the same
  helper a :class:`~repro.service.server.QueryService` uses, so a
  spatially disjoint mutation on one tile leaves the fleet-wide cached
  answers warm, and every response's ``data_version`` is the clock's
  ``epoch``;
* any transport failure to a shard surfaces as a typed
  ``shard_unavailable`` error — the coordinator never serves a partial
  answer — and the failed link reconnects lazily on the next request,
  so a restarted shard rejoins with no coordinator restart;
* the coordinator reuses the client-assigned ``trace_id`` on every
  fan-out call and the ``trace`` op grafts the shards' finished traces
  under the coordinator's own, so a sharded request reads as one tree.
"""

from __future__ import annotations

import asyncio
import json
import threading
import time
from dataclasses import dataclass
from typing import Any, Optional, Sequence

from repro.core.regions import RegionClock
from repro.core.types import Site
from repro.geometry.rect import Rect
from repro.obs.openmetrics import CONTENT_TYPE
from repro.obs.registry import REGISTRY
from repro.service.cache import ResultCache
from repro.service.client import ServiceClient
from repro.service.protocol import (
    OPERATIONS,
    BadRequestError,
    ClientConnectionError,
    ServiceError,
    ShardUnavailableError,
    UnknownWorkspaceError,
    ok_response,
    selection_to_wire,
)
from repro.service.server import (
    QueryService,
    ServiceConfig,
    ServiceHandle,
    record_id,
    requested_method,
    update_point,
    update_weight,
)
from repro.service.telemetry import ServiceTelemetry
from repro.shard.executor import assign_tiles
from repro.shard.merge import (
    merge_evaluate_reports,
    merge_partials,
    partial_from_wire,
)
from repro.shard.partition import TILE_MANIFEST, PersistedPartition, TilePlan


def tile_workspace_name(tile_id: int) -> str:
    """The workspace name a shard server hosts tile ``tile_id`` under."""
    return f"tile-{tile_id:04d}"


@dataclass(frozen=True)
class ShardSpec:
    """One shard server: its name, address and contiguous tile range."""

    name: str
    host: str
    port: int
    tile_ids: tuple[int, ...]


@dataclass(frozen=True)
class ShardTopology:
    """The fleet layout: the tile plan plus who serves which tiles."""

    plan: TilePlan
    potentials: tuple[Site, ...]
    shards: tuple[ShardSpec, ...]
    #: The single logical workspace name the coordinator serves.
    workspace: str = "default"
    #: Original cid -> owning tile, from the partition plan.  Fresh cids
    #: minted after partitioning are ``>= cid_stride_base`` and congruent
    #: to their tile id modulo the tile count, so together these two
    #: fields route any existing cid without probing.  ``None`` (a
    #: hand-built topology) falls back to the tile-order probe.
    cid_tiles: Optional[dict] = None
    cid_stride_base: Optional[int] = None

    @classmethod
    def from_partition(
        cls,
        partition: PersistedPartition,
        addresses: Sequence[tuple[str, int]],
        workspace: str = "default",
    ) -> "ShardTopology":
        """Addresses in shard-id order; tiles assigned contiguously.

        Accepts a :class:`~repro.shard.partition.PersistedPartition` or
        an in-memory :class:`~repro.shard.partition.ShardPartition`.
        """
        groups = assign_tiles(partition.n_tiles, len(addresses))
        shards = tuple(
            ShardSpec(f"shard-{i}", host, port, group)
            for i, ((host, port), group) in enumerate(zip(addresses, groups))
        )
        if hasattr(partition, "potential_sites"):
            potentials = tuple(partition.potential_sites())
        else:
            potentials = tuple(partition.potentials)
        cid_tiles: dict[int, int] = {}
        if hasattr(partition, "tiles") and hasattr(partition, "cid_stride_base"):
            # In-memory ShardPartition: the tile workspaces are here.
            for tile in partition.tiles:
                for client in tile.clients:
                    cid_tiles[int(client.cid)] = tile.tile_id
        elif hasattr(partition, "tile_dir"):
            # PersistedPartition: each tile's sidecar lists its cids.
            for tile_id in range(partition.n_tiles):
                sidecar = json.loads(
                    (partition.tile_dir(tile_id) / TILE_MANIFEST).read_text()
                )
                for cid in sidecar["cids"]:
                    cid_tiles[int(cid)] = tile_id
        return cls(
            plan=partition.plan,
            potentials=potentials,
            shards=shards,
            workspace=workspace,
            cid_tiles=cid_tiles or None,
            cid_stride_base=getattr(partition, "cid_stride_base", None),
        )

    @property
    def n_tiles(self) -> int:
        return self.plan.n_tiles

    def owner_of(self, tile_id: int) -> ShardSpec:
        for shard in self.shards:
            if tile_id in shard.tile_ids:
                return shard
        raise ValueError(f"no shard owns tile {tile_id}")


class ShardLink:
    """A lazily (re)connecting client to one shard server.

    Transport failures close the connection and raise the typed
    ``shard_unavailable`` error; the *next* call reconnects — which is
    exactly how a restarted shard rejoins the fleet.  A lock serialises
    calls, so concurrent tile fetches to one shard pipeline safely on
    the single connection.
    """

    def __init__(
        self,
        spec: ShardSpec,
        connect_timeout_s: float = 5.0,
        connect_retries: int = 1,
        retry_delay_s: float = 0.2,
        io_timeout_s: Optional[float] = 60.0,
    ):
        self.spec = spec
        self.connect_timeout_s = connect_timeout_s
        self.connect_retries = connect_retries
        self.retry_delay_s = retry_delay_s
        self.io_timeout_s = io_timeout_s
        self._client: Optional[ServiceClient] = None
        self._lock = threading.Lock()

    @property
    def connected(self) -> bool:
        return self._client is not None

    def _drop(self) -> None:
        if self._client is not None:
            try:
                self._client.close()
            except OSError:
                pass
            self._client = None

    def call(self, op: str, **params: Any) -> dict:
        spec = self.spec
        with self._lock:
            if self._client is None:
                try:
                    self._client = ServiceClient(
                        spec.host,
                        spec.port,
                        connect_timeout_s=self.connect_timeout_s,
                        io_timeout_s=self.io_timeout_s,
                        connect_retries=self.connect_retries,
                        retry_delay_s=self.retry_delay_s,
                    )
                except ClientConnectionError as exc:
                    raise ShardUnavailableError(
                        f"shard {spec.name!r} at {spec.host}:{spec.port} "
                        f"is unreachable: {exc}"
                    ) from exc
            try:
                return self._client.call(op, **params)
            except ClientConnectionError as exc:
                self._drop()
                raise ShardUnavailableError(
                    f"shard {spec.name!r} at {spec.host}:{spec.port} "
                    f"failed mid-request: {exc}"
                ) from exc

    def close(self) -> None:
        with self._lock:
            self._drop()


class ShardCoordinator(QueryService):
    """A ``QueryService`` front end that scatters to shard servers.

    Deliberately does **not** call ``QueryService.__init__``: a
    coordinator has no hosted workspaces, no admission queues and no
    batchers — ``self.hosts`` stays empty, so the inherited lifecycle
    (``start``/``serve_forever``/``shutdown``), connection plumbing and
    telemetry wrapper run unchanged over an empty host table while
    ``_dispatch`` is replaced wholesale with the scatter-gather paths.
    """

    def __init__(
        self,
        topology: ShardTopology,
        config: Optional[ServiceConfig] = None,
        connect_timeout_s: float = 5.0,
        connect_retries: int = 1,
    ):
        self.topology = topology
        self.config = config or ServiceConfig()
        # Telemetry first (registry upgrade ordering), then the cache —
        # the same construction order QueryService.__init__ documents.
        self.telemetry = ServiceTelemetry(self.config.telemetry)
        self.cache = ResultCache(self.config.cache_entries)
        self.hosts: dict = {}
        self._server = None
        self.metrics_address = None
        self._draining = False
        self._started_at = time.monotonic()
        self._requests = {
            op: REGISTRY.counter(f"service.requests.{op}") for op in OPERATIONS
        }
        self._connections = REGISTRY.gauge("service.connections")
        #: The fleet's mutation clock, advanced by the flags the tiles
        #: report: a mutation that provably changed no answer of a
        #: class leaves that class's cached fleet-wide results live.
        self.region_clock = RegionClock()
        self.links = {
            shard.name: ShardLink(
                shard,
                connect_timeout_s=connect_timeout_s,
                connect_retries=connect_retries,
            )
            for shard in topology.shards
        }
        self._link_of_tile = {
            tile_id: self.links[shard.name]
            for shard in topology.shards
            for tile_id in shard.tile_ids
        }
        self._scatters = REGISTRY.counter("service.shard.scatters")
        self._shard_errors = REGISTRY.counter("service.shard.errors")

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def shutdown(self, drain: bool = True) -> None:
        await super().shutdown(drain=drain)
        for link in self.links.values():
            link.close()

    # ------------------------------------------------------------------
    # Scatter plumbing
    # ------------------------------------------------------------------
    def _require_workspace(self, message: dict) -> None:
        name = message.get("workspace", "default")
        if name != self.topology.workspace:
            raise UnknownWorkspaceError(
                f"unknown workspace {name!r}; this coordinator serves "
                f"{self.topology.workspace!r}"
            )

    def _fetch_partial(self, tile_id: int, method: str, trace_id):
        link = self._link_of_tile[tile_id]
        response = link.call(
            "partials",
            workspace=tile_workspace_name(tile_id),
            method=method,
            **({} if trace_id is None else {"trace_id": trace_id}),
        )
        return partial_from_wire(response["result"], tile_id=tile_id)

    async def _scatter(self, fn, tile_ids: Sequence[int]) -> list:
        """Run ``fn(tile_id)`` for every tile concurrently.

        Any shard failure fails the whole scatter — a coordinator never
        serves a partial answer.
        """
        self._scatters.inc()
        try:
            return await asyncio.gather(
                *(asyncio.to_thread(fn, tile_id) for tile_id in tile_ids)
            )
        except ShardUnavailableError:
            self._shard_errors.inc()
            raise

    # ------------------------------------------------------------------
    # Dispatch
    # ------------------------------------------------------------------
    async def _dispatch(self, message: dict, trace) -> dict:
        request_id = message.get("id")
        op = message.get("op")
        if op not in OPERATIONS:
            raise BadRequestError(
                f"unknown op {op!r}; expected one of {', '.join(OPERATIONS)}"
            )
        self._requests[op].inc()
        if op == "health":
            return ok_response(request_id, await self._coord_health())
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
            payload = await asyncio.to_thread(self._grafted_traces, message)
            return ok_response(request_id, payload)
        if op == "partials":
            raise BadRequestError(
                "the coordinator merges partials; ask a shard server for them"
            )
        self._require_workspace(message)
        if op == "select":
            return await self._coord_select(request_id, message, trace)
        if op == "evaluate":
            return await self._coord_evaluate(request_id, message, trace)
        return await self._coord_update(request_id, message, trace)

    # ------------------------------------------------------------------
    # select / evaluate
    # ------------------------------------------------------------------
    async def _coord_select(self, request_id, message: dict, trace) -> dict:
        method = requested_method(message, trace)

        async def merged() -> dict:
            version = self.region_clock.epoch
            trace_id = trace.trace_id if trace is not None else None
            started = time.perf_counter()
            partials = await self._scatter(
                lambda tile_id: self._fetch_partial(tile_id, method, trace_id),
                range(self.topology.n_tiles),
            )
            scatter_s = time.perf_counter() - started
            started = time.perf_counter()
            result = merge_partials(partials, self.topology.potentials)
            wire = selection_to_wire(result)
            if trace is not None:
                trace.add_span(
                    "scatter",
                    scatter_s,
                    tiles=self.topology.n_tiles,
                    shards=len(self.topology.shards),
                )
                trace.add_span("merge", time.perf_counter() - started)
            return {
                "result": wire,
                "cached": False,
                "data_version": version,
                "shards": len(self.topology.shards),
                "tiles": self.topology.n_tiles,
            }

        return await self._answer(
            request_id,
            message,
            trace,
            self.topology.workspace,
            self.region_clock,
            "select",
            {"method": method},
            merged,
        )

    async def _coord_evaluate(self, request_id, message: dict, trace) -> dict:
        ids = message.get("ids")
        if not isinstance(ids, list) or not all(isinstance(i, int) for i in ids):
            raise BadRequestError("evaluate needs 'ids': a list of candidate ids")
        trace_id = trace.trace_id if trace is not None else None

        def _tile_reports(tile_id: int) -> list[dict]:
            link = self._link_of_tile[tile_id]
            response = link.call(
                "evaluate",
                workspace=tile_workspace_name(tile_id),
                ids=ids,
                **({} if trace_id is None else {"trace_id": trace_id}),
            )
            return response["result"]

        async def merged() -> dict:
            version = self.region_clock.epoch
            per_tile = await self._scatter(_tile_reports, range(self.topology.n_tiles))
            return {
                "result": merge_evaluate_reports(per_tile),
                "cached": False,
                "data_version": version,
            }

        return await self._answer(
            request_id,
            message,
            trace,
            self.topology.workspace,
            self.region_clock,
            "evaluate",
            {"ids": ids},
            merged,
        )

    # ------------------------------------------------------------------
    # update
    # ------------------------------------------------------------------
    async def _coord_update(self, request_id, message: dict, trace) -> dict:
        action = message.get("action")
        trace_id = trace.trace_id if trace is not None else None
        extra = {} if trace_id is None else {"trace_id": trace_id}

        def _tile_update(tile_id: int, **params: Any) -> dict:
            link = self._link_of_tile[tile_id]
            response = link.call(
                "update",
                workspace=tile_workspace_name(tile_id),
                action=action,
                **params,
                **extra,
            )
            return response["result"]

        if action == "add_client":
            x, y = update_point(message)
            tile_id = self.topology.plan.route(x, y)
            detail = await asyncio.to_thread(
                _tile_update, tile_id, point=[x, y], weight=update_weight(message)
            )
            detail["tile_id"] = tile_id
            details = [detail]
        elif action == "remove_client":
            cid = record_id(message, "cid")
            tile_id = self._route_cid(cid)
            if tile_id is not None:
                # Routed through the partition plan: the owning tile is
                # known, and cids are never reused, so a miss there is
                # terminal — no other tile can hold this client.
                try:
                    detail = await asyncio.to_thread(_tile_update, tile_id, cid=cid)
                except BadRequestError:
                    raise BadRequestError(
                        f"no client with cid {cid!r} on any tile"
                    ) from None
                detail["tile_id"] = tile_id
            else:
                # No cid directory (hand-built topology): probe in fixed
                # tile order — cids are globally unique, so at most one
                # tile answers.
                detail = None
                for tile_id in range(self.topology.n_tiles):
                    try:
                        detail = await asyncio.to_thread(
                            _tile_update, tile_id, cid=cid
                        )
                        detail["tile_id"] = tile_id
                        break
                    except BadRequestError:
                        continue
                if detail is None:
                    raise BadRequestError(
                        f"no client with cid {cid!r} on any tile"
                    )
            details = [detail]
        elif action in ("add_facility", "remove_facility"):
            # Facilities are replicated: broadcast sequentially in tile
            # order so every tile applies the same mutation in the same
            # sequence and sids stay aligned fleet-wide.
            params = (
                {"point": list(update_point(message))}
                if action == "add_facility"
                else {"sid": record_id(message, "sid")}
            )
            details = [
                await asyncio.to_thread(_tile_update, tile_id, **params)
                for tile_id in range(self.topology.n_tiles)
            ]
            detail = details[-1]
            detail["broadcast_tiles"] = self.topology.n_tiles
        else:
            raise BadRequestError(
                f"unknown update action {action!r}; expected add_client, "
                "remove_client, add_facility or remove_facility"
            )
        # One affected tile ages the fleet answer: the flags OR and the
        # regions unite across the tiles that applied the mutation.
        select_changed = any(d["select_changed"] for d in details)
        evaluate_changed = any(d["evaluate_changed"] for d in details)
        regions = [Rect(*d["region"]) for d in details if d["region"] is not None]
        self.region_clock.advance(
            Rect.union_all(regions) if regions else None,
            affects_select=select_changed,
            affects_evaluate=evaluate_changed,
        )
        self.cache.invalidate(self.topology.workspace, self.region_clock)
        after = self.region_clock.snapshot()
        detail.update(
            data_version=after["epoch"],
            select_changed=select_changed,
            evaluate_changed=evaluate_changed,
            region=after["last_region"],
        )
        return ok_response(request_id, detail, data_version=after["epoch"])

    def _route_cid(self, cid: int) -> Optional[int]:
        """The owning tile of ``cid`` per the partition plan, or None
        when this topology carries no cid directory."""
        topo = self.topology
        base = topo.cid_stride_base
        if base is not None and cid >= base:
            # Minted ids are congruent to their tile id mod n_tiles.
            return (cid - base) % topo.n_tiles
        if topo.cid_tiles:
            tile = topo.cid_tiles.get(cid)
            if tile is None and base is not None:
                # The directory plus the stride cover every cid ever
                # issued: this one never existed.
                raise BadRequestError(f"no client with cid {cid!r} on any tile")
            return tile
        return None

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    async def _coord_health(self) -> dict:
        def _probe(shard: ShardSpec) -> dict:
            info: dict[str, Any] = {
                "address": [shard.host, shard.port],
                "tiles": list(shard.tile_ids),
            }
            try:
                health = self.links[shard.name].call("health")["result"]
                info["status"] = health.get("status", "unknown")
            except ServiceError as exc:
                info["status"] = "down"
                info["error"] = exc.code
            return info

        probes = await asyncio.gather(
            *(asyncio.to_thread(_probe, shard) for shard in self.topology.shards)
        )
        shards = {
            shard.name: probe
            for shard, probe in zip(self.topology.shards, probes)
        }
        degraded = any(p["status"] != "serving" for p in shards.values())
        base = self._health()
        base["workspaces"] = [self.topology.workspace]
        base["role"] = "coordinator"
        base["status"] = (
            "draining"
            if self._draining
            else ("degraded" if degraded else "serving")
        )
        base["data_version"] = self.region_clock.epoch
        base["shards"] = shards
        return base

    def _stats(self, message: Optional[dict] = None) -> dict:
        payload = super()._stats(message)
        clock = self.region_clock
        payload["role"] = "coordinator"
        payload["data_version"] = clock.epoch
        payload["select_epoch"] = clock.select_epoch
        payload["evaluate_epoch"] = clock.evaluate_epoch
        payload["cache_survival"] = self.cache.survival(self.topology.workspace)
        payload["shards"] = {
            shard.name: {
                "address": [shard.host, shard.port],
                "tiles": list(shard.tile_ids),
                "connected": self.links[shard.name].connected,
            }
            for shard in self.topology.shards
        }
        return payload

    def _grafted_traces(self, message: dict) -> dict:
        """The coordinator's traces with each shard's grafted under it.

        Shard lookups are best-effort: an unreachable shard simply
        contributes nothing (the trace op is an investigation tool, not
        an answer path).
        """
        payload = self.telemetry.trace_payload(message)
        for trace in payload.get("traces", []):
            trace_id = trace.get("trace_id")
            if trace_id is None:
                continue
            shards: dict[str, list] = {}
            for shard in self.topology.shards:
                try:
                    found = self.links[shard.name].call(
                        "trace", trace_id=trace_id
                    )["result"]["traces"]
                except ServiceError:
                    continue
                if found:
                    shards[shard.name] = found
            if shards:
                trace["shards"] = shards
        return payload


# ----------------------------------------------------------------------
# Threaded embedding (tests, benchmarks, smoke)
# ----------------------------------------------------------------------
CoordinatorHandle = ServiceHandle


def serve_coordinator_in_thread(
    topology: ShardTopology,
    config: Optional[ServiceConfig] = None,
    host: str = "127.0.0.1",
    port: int = 0,
    connect_retries: int = 1,
) -> ServiceHandle:
    """Run a :class:`ShardCoordinator` on a daemon thread (mirrors
    :func:`~repro.service.server.serve_in_thread`)."""
    started = threading.Event()
    box: dict = {}

    def _run() -> None:
        async def _main() -> None:
            service = ShardCoordinator(
                topology, config, connect_retries=connect_retries
            )
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

    thread = threading.Thread(target=_run, name="repro-coordinator", daemon=True)
    thread.start()
    if not started.wait(30.0):
        raise RuntimeError("coordinator did not start within 30s")
    if "error" in box:
        raise box["error"]
    return ServiceHandle(thread, box)
