"""The async query service: serving min-dist selections over TCP.

The layers below the wire (four query methods, the deterministic
parallel engine, the obs/bench stack) answer queries *inside* one
Python process; this package serves them to the outside.  One
long-lived :class:`QueryService` hosts named workspaces behind a
newline-delimited JSON protocol with

* **admission control** — a bounded per-workspace queue with explicit
  ``queue_full`` rejection, per-request deadlines and graceful drain;
* **micro-batching** — concurrent selections coalesce into single
  :meth:`~repro.exec.engine.QueryEngine.run_batch` calls that run
  duplicates once and share the decoded-leaf cache across requests;
* a **versioned result cache** — keyed on each workspace's
  :class:`~repro.core.regions.RegionClock`, so a ``DynamicWorkspace``
  mutation invalidates exactly the answers it could change, by
  construction, and every response reports the clock's ``epoch`` as
  its ``data_version``;
* **typed rejection** of malformed input, non-finite update numbers
  included, as ``bad_request``;
* **live telemetry** — request tracing under client-assigned trace
  ids, rolling-window metrics with an OpenMetrics exposition, a JSON
  access log and the ``mindist top`` live view (see
  :mod:`repro.service.telemetry`).

Quick usage::

    from repro.core import DynamicWorkspace
    from repro.datasets import make_instance
    from repro.service import ServiceClient, serve_in_thread

    ws = DynamicWorkspace(make_instance(10_000, 500, 500, rng=7))
    with serve_in_thread({"default": ws}) as handle:
        with ServiceClient(handle.host, handle.port) as client:
            answer = client.select("MND")
            print(answer.result.location, answer.result.dr)

or from a shell: ``mindist serve --random 10000 500 500 --port 7733``
and ``mindist call select --method MND --port 7733``.
"""

from repro.service.admission import AdmissionQueue, Ticket
from repro.service.cache import ResultCache
from repro.service.client import ServiceClient, ServiceSelection
from repro.service.protocol import (
    PROTOCOL_VERSION,
    BadRequestError,
    ClientConnectionError,
    DeadlineExceededError,
    QueueFullError,
    ServiceError,
    ShardUnavailableError,
    ShuttingDownError,
    UnknownMethodError,
    UnknownWorkspaceError,
    UnsupportedError,
)
from repro.service.server import (
    QueryService,
    ServiceConfig,
    ServiceHandle,
    WorkspaceHost,
    serve_in_thread,
)
from repro.service.telemetry import ServiceTelemetry, TelemetryConfig
from repro.service.top import render_top

__all__ = [
    "AdmissionQueue",
    "BadRequestError",
    "ClientConnectionError",
    "DeadlineExceededError",
    "PROTOCOL_VERSION",
    "QueryService",
    "QueueFullError",
    "ResultCache",
    "ServiceClient",
    "ServiceConfig",
    "ServiceError",
    "ServiceHandle",
    "ServiceSelection",
    "ServiceTelemetry",
    "ShardUnavailableError",
    "ShuttingDownError",
    "TelemetryConfig",
    "Ticket",
    "UnknownMethodError",
    "UnknownWorkspaceError",
    "UnsupportedError",
    "WorkspaceHost",
    "render_top",
    "serve_in_thread",
]
