"""The blocking client of the query service.

:class:`ServiceClient` speaks the newline-delimited JSON protocol over
one TCP connection.  Two calling styles:

* request/response — :meth:`select`, :meth:`evaluate`, :meth:`update`,
  :meth:`stats`, :meth:`health` each send one request and block for its
  response;
* pipelined — :meth:`select_many` writes a burst of requests before
  reading any response, so they all land inside the server's micro-
  batch window and are executed through a single engine batch.  The
  responses are re-associated by ``id`` (the server answers in
  completion order, not request order).

``select`` returns a :class:`ServiceSelection`: the reconstructed
:class:`~repro.core.types.SelectionResult` — floats round-trip the wire
exactly, so it compares ``==`` against an in-process ``select()`` —
plus the service-side envelope (cache hit?, micro-batch size, queue
wait, data version).

The client is thread-safe in the simple sense: a lock serialises whole
calls, so concurrent *load* should use one client per thread (or
pipelining), not one shared client.
"""

from __future__ import annotations

import socket
import threading
import time
import uuid
from dataclasses import dataclass
from typing import Any, Optional, Sequence

from repro.core.types import SelectionResult
from repro.service.protocol import (
    ClientConnectionError,
    decode,
    encode,
    error_from_wire,
    selection_from_wire,
)


@dataclass(frozen=True)
class ServiceSelection:
    """One ``select`` answer plus its service envelope."""

    result: SelectionResult
    cached: bool
    data_version: int
    batch_size: Optional[int] = None
    queue_wait_s: Optional[float] = None
    #: The id this request's server-side spans were correlated under
    #: (client-assigned or server-minted); look it up with ``trace``.
    trace_id: Optional[str] = None

    @classmethod
    def from_response(cls, response: dict) -> "ServiceSelection":
        return cls(
            result=selection_from_wire(response["result"]),
            cached=bool(response.get("cached", False)),
            data_version=int(response.get("data_version", 0)),
            batch_size=response.get("batch_size"),
            queue_wait_s=response.get("queue_wait_s"),
            trace_id=response.get("trace_id"),
        )


class ServiceClient:
    """A blocking newline-JSON client; usable as a context manager."""

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 7733,
        connect_timeout_s: float = 10.0,
        io_timeout_s: Optional[float] = 60.0,
        connect_retries: int = 0,
        retry_delay_s: float = 0.1,
    ):
        """Connect eagerly; raises :class:`ClientConnectionError` on failure.

        ``connect_retries`` bounds *re*-attempts after a refused/failed
        connect (0 = the historical single attempt), each preceded by a
        ``retry_delay_s`` pause — enough for a server that is still
        binding its port, or a shard coordinator waiting out a shard
        restart, without ever hanging on one that never comes up.
        """
        if connect_retries < 0:
            raise ValueError("connect_retries must be >= 0")
        self.host = host
        self.port = port
        last_error: Optional[OSError] = None
        for attempt in range(connect_retries + 1):
            if attempt:
                time.sleep(retry_delay_s)
            try:
                self._sock = socket.create_connection(
                    (host, port), timeout=connect_timeout_s
                )
                break
            except OSError as exc:
                last_error = exc
        else:
            raise ClientConnectionError(
                f"cannot connect to {host}:{port} after "
                f"{connect_retries + 1} attempt(s): {last_error}"
            ) from last_error
        self._sock.settimeout(io_timeout_s)
        self._file = self._sock.makefile("rwb")
        self._lock = threading.Lock()
        self._next_id = 0
        #: Per-connection tag making auto-assigned trace ids unique
        #: across clients without any coordination.
        self._trace_tag = uuid.uuid4().hex[:12]

    # ------------------------------------------------------------------
    def close(self) -> None:
        with self._lock:
            try:
                self._file.close()
            finally:
                self._sock.close()

    def __enter__(self) -> "ServiceClient":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Wire plumbing
    # ------------------------------------------------------------------
    def _take_id(self) -> int:
        self._next_id += 1
        return self._next_id

    def _mint_trace_id(self, request_id: int) -> str:
        return f"c-{self._trace_tag}-{request_id}"

    def _send(self, message: dict) -> None:
        self._file.write(encode(message))

    def _read_response(self) -> dict:
        line = self._file.readline()
        if not line:
            raise ClientConnectionError(
                "service closed the connection mid-request"
            )
        return decode(line)

    def _roundtrip(self, message: dict) -> dict:
        """Send one request; return its ``ok`` response or raise.

        Transport failures (reset, timeout, mid-request EOF) surface as
        :class:`ClientConnectionError`, never a raw ``OSError``.
        """
        with self._lock:
            try:
                self._send(message)
                self._file.flush()
                response = self._read_response()
            except ClientConnectionError:
                raise
            except OSError as exc:
                raise ClientConnectionError(
                    f"connection to {self.host}:{self.port} failed "
                    f"mid-request: {exc}"
                ) from exc
        return _unwrap(response, expected_id=message["id"])

    def call(self, op: str, **params: Any) -> dict:
        """Issue one raw operation; returns the full response dict."""
        message = {"id": self._take_id(), "op": op, **params}
        return self._roundtrip(message)

    # ------------------------------------------------------------------
    # Operations
    # ------------------------------------------------------------------
    def select(
        self,
        method: str = "MND",
        workspace: str = "default",
        timeout_s: Optional[float] = None,
        no_cache: bool = False,
        trace_id: Optional[str] = None,
    ) -> ServiceSelection:
        """Answer one min-dist location selection query over the wire.

        Every request carries a ``trace_id`` — the caller's, or an
        auto-assigned per-connection one — so server-side spans are
        always recoverable via :meth:`trace`.
        """
        request_id = self._take_id()
        message: dict[str, Any] = {
            "id": request_id,
            "op": "select",
            "workspace": workspace,
            "method": method,
            "trace_id": trace_id or self._mint_trace_id(request_id),
        }
        if timeout_s is not None:
            message["timeout_s"] = timeout_s
        if no_cache:
            message["no_cache"] = True
        return ServiceSelection.from_response(self._roundtrip(message))

    def select_many(
        self,
        methods: Sequence[str],
        workspace: str = "default",
        timeout_s: Optional[float] = None,
        no_cache: bool = False,
    ) -> list[ServiceSelection]:
        """Pipeline many selections on this one connection.

        All requests are written before any response is read, so the
        server sees them (near-)simultaneously and coalesces them into
        a micro-batch.  Results come back in ``methods`` order no
        matter the completion order; the first error is raised after
        every response arrived.
        """
        if not methods:
            return []
        with self._lock:
            try:
                ids = []
                for method in methods:
                    request_id = self._take_id()
                    message: dict[str, Any] = {
                        "id": request_id,
                        "op": "select",
                        "workspace": workspace,
                        "method": method,
                        "trace_id": self._mint_trace_id(request_id),
                    }
                    if timeout_s is not None:
                        message["timeout_s"] = timeout_s
                    if no_cache:
                        message["no_cache"] = True
                    ids.append(message["id"])
                    self._send(message)
                self._file.flush()
                by_id: dict[Any, dict] = {}
                for _ in ids:
                    response = self._read_response()
                    by_id[response.get("id")] = response
            except ClientConnectionError:
                raise
            except OSError as exc:
                raise ClientConnectionError(
                    f"connection to {self.host}:{self.port} failed "
                    f"mid-pipeline: {exc}"
                ) from exc
        missing = [i for i in ids if i not in by_id]
        if missing:
            raise ClientConnectionError(
                f"no response for request id(s) {missing}"
            )
        return [
            ServiceSelection.from_response(_unwrap(by_id[i], expected_id=i))
            for i in ids
        ]

    def partials(
        self,
        method: str = "MND",
        workspace: str = "default",
        trace_id: Optional[str] = None,
    ) -> dict:
        """One workspace's full ``dr`` vector + I/O snapshot (the
        scatter half of a shard coordinator's merge); returns the whole
        response so callers see ``data_version`` and ``cached`` too."""
        params: dict[str, Any] = {"workspace": workspace, "method": method}
        if trace_id is not None:
            params["trace_id"] = trace_id
        return self.call("partials", **params)

    def evaluate(
        self, ids: Sequence[int], workspace: str = "default"
    ) -> list[dict]:
        response = self.call("evaluate", workspace=workspace, ids=list(ids))
        return response["result"]

    def update(self, action: str, workspace: str = "default", **params: Any) -> dict:
        """Apply one mutation (``add_client``, ``remove_client``,
        ``add_facility``, ``remove_facility``) and return its report."""
        response = self.call(
            "update", workspace=workspace, action=action, **params
        )
        return response["result"]

    def stats(self, prefix: Optional[str] = None) -> dict:
        """Service stats; ``prefix=""`` exposes the whole registry."""
        if prefix is None:
            return self.call("stats")["result"]
        return self.call("stats", prefix=prefix)["result"]

    def health(self) -> dict:
        return self.call("health")["result"]

    def metrics(self) -> str:
        """The registry in OpenMetrics text exposition form."""
        return self.call("metrics")["result"]["body"]

    def trace(
        self,
        trace_id: Optional[str] = None,
        recent: Optional[int] = None,
        slow: Optional[int] = None,
    ) -> list[dict]:
        """Finished request traces: one by id, the slow log, or recent."""
        params: dict[str, Any] = {}
        if trace_id is not None:
            params["trace_id"] = trace_id
        elif slow is not None:
            params["slow"] = slow
        elif recent is not None:
            params["recent"] = recent
        return self.call("trace", **params)["result"]["traces"]


def _unwrap(response: dict, expected_id: Any = None) -> dict:
    if expected_id is not None and response.get("id") != expected_id:
        if response.get("id") is None and not response.get("ok", False):
            # The server answered a request whose id it could not read
            # (an oversized line); on an unpipelined call that answer
            # can only be ours, so surface its typed error.
            raise error_from_wire(response.get("error", {}))
        raise ClientConnectionError(
            f"response id {response.get('id')!r} does not match "
            f"request id {expected_id!r} (unpipelined call)"
        )
    if not response.get("ok", False):
        raise error_from_wire(response.get("error", {}))
    return response
