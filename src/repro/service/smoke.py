"""Service smoke check (run in CI as ``python -m repro.service.smoke``).

Boots a real server on an ephemeral port and drives it over TCP:

1. **parity** — for every method, the batched-over-the-wire answer
   (location, ``dr``, ``io_total``, per-structure reads) equals the
   serial in-process ``select()`` on an identical workspace, and a
   repeated request is served from the cache with the same bytes;
2. **admission** — with a one-slot queue and a long batch window, a
   burst of selections produces at least one explicit ``queue_full``
   rejection and no hung request;
3. **invalidation** — a workspace mutation between two identical
   requests bumps the served ``data_version`` and forces recomputation;
4. **graceful shutdown** — a drain-stop completes with every accepted
   request answered.

Exits non-zero on the first violated invariant.
"""

from __future__ import annotations

import sys
import threading

from repro.core import DynamicWorkspace, METHODS, Workspace, make_selector
from repro.core.types import fingerprint
from repro.datasets.generators import make_instance
from repro.service import (
    QueueFullError,
    ServiceClient,
    ServiceConfig,
    serve_in_thread,
)

SMOKE_SEED = 11
SMOKE_SIZES = dict(n_c=800, n_f=40, n_p=60)


def check_parity_and_cache(host: str, port: int, expected: dict) -> list[str]:
    failures = []
    with ServiceClient(host, port) as client:
        methods = sorted(METHODS)
        batched = client.select_many(methods)  # pipelined -> micro-batched
        for method, answer in zip(methods, batched):
            if fingerprint(answer.result) != expected[method]:
                failures.append(f"{method}: wire result differs from select()")
            if answer.cached:
                failures.append(f"{method}: first request claimed a cache hit")
        if not any(a.batch_size and a.batch_size > 1 for a in batched):
            failures.append("pipelined burst never coalesced into a micro-batch")
        for method in methods:
            answer = client.select(method)
            if not answer.cached:
                failures.append(f"{method}: repeat was not served from cache")
            if fingerprint(answer.result) != expected[method]:
                failures.append(f"{method}: cached result differs from select()")
    return failures


def check_concurrent_clients(host: str, port: int, expected: dict) -> list[str]:
    failures: list[str] = []
    lock = threading.Lock()

    def _worker(method: str) -> None:
        try:
            with ServiceClient(host, port) as client:
                answer = client.select(method, no_cache=True)
            if fingerprint(answer.result) != expected[method]:
                with lock:
                    failures.append(f"{method}: concurrent result differs")
        except Exception as exc:  # noqa: BLE001 — collected, not raised
            with lock:
                failures.append(f"{method}: concurrent request failed: {exc}")

    threads = [
        threading.Thread(target=_worker, args=(m,))
        for m in sorted(METHODS) * 3
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join(60)
    return failures


def check_invalidation(host: str, port: int) -> list[str]:
    failures = []
    with ServiceClient(host, port) as client:
        before = client.select("MND")
        if not before.cached:
            pass  # cold here is fine; what matters is the flip below
        client.update("add_facility", point=[250.0, 250.0])
        after = client.select("MND")
        if after.data_version <= before.data_version:
            failures.append("update did not bump the served data_version")
        if after.cached:
            failures.append("post-update request was served from a stale cache")
    return failures


def check_queue_full() -> list[str]:
    """A one-slot queue under a pipelined burst must reject explicitly."""
    ws = DynamicWorkspace(make_instance(rng=SMOKE_SEED, **SMOKE_SIZES))
    config = ServiceConfig(max_pending=1, batch_window_s=0.25, workers=1)
    failures = []
    with serve_in_thread({"default": ws}, config) as handle:
        with ServiceClient(handle.host, handle.port) as client:
            rejected = 0
            try:
                client.select_many(["MND"] * 6, no_cache=True)
            except QueueFullError:
                rejected += 1
            if not rejected:
                failures.append(
                    "six pipelined selects against a one-slot queue were all "
                    "admitted — admission control is not bounding"
                )
    return failures


def main() -> int:
    instance = make_instance(rng=SMOKE_SEED, **SMOKE_SIZES)
    reference = Workspace(make_instance(rng=SMOKE_SEED, **SMOKE_SIZES))
    expected = {
        m: fingerprint(make_selector(reference, m).select()) for m in METHODS
    }

    failures: list[str] = []
    ws = DynamicWorkspace(instance)
    handle = serve_in_thread(
        {"default": ws}, ServiceConfig(workers=2, batch_window_s=0.05)
    )
    print(f"service smoke: serving on {handle.host}:{handle.port}")
    try:
        failures += check_parity_and_cache(handle.host, handle.port, expected)
        failures += check_concurrent_clients(handle.host, handle.port, expected)
        failures += check_invalidation(handle.host, handle.port)
    finally:
        handle.stop()  # graceful drain; raises if the thread hangs
    print("service smoke: drain-stop completed")
    failures += check_queue_full()

    if failures:
        for failure in failures:
            print(f"FAIL: {failure}")
        return 1
    print(f"service smoke: OK ({len(METHODS)} methods, parity/batch/cache/"
          "admission/drain all verified)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
