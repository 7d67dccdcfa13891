"""Thread-safety of the shared observability/storage counters.

The execution engine's threaded tasks share the metrics registry; a
lost update would silently corrupt I/O accounting.  These tests hammer
the shared structures from 8 threads and assert *exact* totals — not
approximate ones — so a data race shows up as a hard failure rather
than flaky noise.  All
assertions are on deltas, so the tests are safe under test
parallelism themselves.
"""

from __future__ import annotations

import threading
from concurrent.futures import ThreadPoolExecutor

from repro.obs import REGISTRY
from repro.storage.stats import IOStats

THREADS = 8
ROUNDS = 2_000


def _hammer(fn) -> None:
    """Run ``fn(worker_index)`` on THREADS threads, all released at once."""
    barrier = threading.Barrier(THREADS)

    def task(i: int) -> None:
        barrier.wait()
        fn(i)

    with ThreadPoolExecutor(max_workers=THREADS) as pool:
        for future in [pool.submit(task, i) for i in range(THREADS)]:
            future.result()


class TestRegistryCounters:
    def test_concurrent_increments_are_exact(self):
        counter = REGISTRY.counter("test.concurrency.counter")
        before = counter.value
        _hammer(lambda i: [counter.inc() for _ in range(ROUNDS)])
        assert counter.value - before == THREADS * ROUNDS

    def test_concurrent_weighted_increments_are_exact(self):
        counter = REGISTRY.counter("test.concurrency.weighted")
        before = counter.value
        _hammer(lambda i: [counter.inc(3) for _ in range(ROUNDS)])
        assert counter.value - before == THREADS * ROUNDS * 3


class TestIOStats:
    def test_private_stats_feed_exact_registry_totals(self):
        # The engine's actual pattern: every task records into a
        # *private* IOStats (per-query Counter dicts are not shared
        # across threads), while all of them feed the one process-wide
        # registry counter — which must not lose a single page.
        reg = REGISTRY.counter("storage.page_reads")
        before = reg.value
        parts = [IOStats() for _ in range(THREADS)]
        _hammer(lambda i: [parts[i].record_read("leaf") for _ in range(ROUNDS)])
        assert all(p.total_reads == ROUNDS for p in parts)
        assert reg.value - before == THREADS * ROUNDS

    def test_ordered_merge_of_partials_is_exact(self):
        parts = [IOStats() for _ in range(THREADS)]
        _hammer(
            lambda i: [parts[i].record_read(f"src{i % 2}") for _ in range(ROUNDS)]
        )
        total = IOStats()
        for part in parts:  # the driver folds in fixed task order
            total.merge(part)
        assert total.total_reads == THREADS * ROUNDS
        assert total.reads["src0"] == THREADS // 2 * ROUNDS
        assert total.reads["src1"] == THREADS // 2 * ROUNDS
