"""The versioned result cache of the query service.

Location-selection is a repeated, interactive workload: many concurrent
requests ask the same question of the same dataset.  The cache stores
finished ``select``, ``partials`` and ``evaluate`` results keyed by

    (workspace name, clock sub-epoch of the operation, operation, params)

where the clock is the workspace's
:class:`~repro.core.regions.RegionClock` (the shard coordinator keeps
its own): ``select``/``partials`` answers key on ``select_epoch``
(bumped only when a mutation's affected region covers a potential
location) and ``evaluate`` on ``evaluate_epoch`` (bumped when any
client state changed).  A repeated request is answered without touching
the engine at all, and a mutation that could change an answer moves its
sub-epoch, which makes every cached result it could have changed
unreachable *by construction*.  There is no TTL to tune and no
invalidation message to lose; a spatially disjoint mutation leaves the
matching cached answers *live*, not just lazily reclaimed.

:meth:`ResultCache.invalidate` sweeps one workspace after a mutation:
it drops only the entries whose sub-epoch moved and tallies how many
were dropped and how many survived, which :meth:`ResultCache.survival`
reports as the per-workspace cache-survival gauge of
``describe()``/``mindist top``.

Hit/miss/eviction/invalidation counts are reported into the process
:data:`~repro.obs.registry.REGISTRY` (``service.cache.*``), next to the
storage layer's metrics, so one ``stats`` call shows how much of the
offered load the cache absorbed.
"""

from __future__ import annotations

import json
import threading
from collections import OrderedDict
from typing import Any, Optional

from repro.core.regions import RegionClock
from repro.obs.registry import REGISTRY

#: Default maximum number of cached results (LRU beyond this).
DEFAULT_CAPACITY = 1024


def params_key(params: dict) -> str:
    """A canonical, hashable fingerprint of request parameters.

    Sorted-key JSON, so two requests that differ only in key order (or
    in fields that do not affect the answer and were already stripped by
    the caller) produce the same cache key.
    """
    return json.dumps(params, sort_keys=True, separators=(",", ":"))


class ResultCache:
    """An LRU cache of finished results, keyed by region-clock version."""

    def __init__(self, capacity: int = DEFAULT_CAPACITY):
        if capacity < 0:
            raise ValueError("capacity must be >= 0")
        self.capacity = capacity
        self._entries: OrderedDict[tuple, Any] = OrderedDict()
        self._lock = threading.Lock()
        #: Per workspace: entries dropped / kept alive by its sweeps.
        self._swept: dict[str, list[int]] = {}
        self.hits = REGISTRY.counter("service.cache.hits")
        self.misses = REGISTRY.counter("service.cache.misses")
        self.evictions = REGISTRY.counter("service.cache.evictions")
        self.invalidations = REGISTRY.counter("service.cache.invalidations")

    @staticmethod
    def key(workspace: str, clock: RegionClock, op: str, params: dict) -> tuple:
        return (workspace, clock.version_for(op), op, params_key(params))

    # ------------------------------------------------------------------
    def get(self, key: tuple) -> Optional[Any]:
        """The cached value, refreshing its LRU position; None on miss."""
        with self._lock:
            value = self._entries.get(key)
            if value is None:
                self.misses.inc()
                return None
            self._entries.move_to_end(key)
        self.hits.inc()
        return value

    def put(self, key: tuple, value: Any) -> None:
        if self.capacity == 0:
            return
        with self._lock:
            self._entries[key] = value
            self._entries.move_to_end(key)
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)
                self.evictions.inc()

    def invalidate(self, workspace: str, clock: RegionClock) -> tuple[int, int]:
        """Drop ``workspace``'s entries whose sub-epoch on ``clock`` has
        moved; returns and tallies ``(dropped, survived)``.

        Version keying already guarantees correctness without this — the
        eager drop only reclaims memory promptly after mutations; the
        tally is what makes cache warmth under churn observable.
        """
        with self._lock:
            mine = [key for key in self._entries if key[0] == workspace]
            stale = [key for key in mine if key[1] != clock.version_for(key[2])]
            for key in stale:
                del self._entries[key]
            tally = self._swept.setdefault(workspace, [0, 0])
            tally[0] += len(stale)
            tally[1] += len(mine) - len(stale)
        if stale:
            self.invalidations.inc(len(stale))
        return len(stale), len(mine) - len(stale)

    def survival(self, workspace: str) -> Optional[float]:
        """The share of ``workspace``'s swept entries that survived
        their sweeps, or None before its first sweep."""
        dropped, survived = self._swept.get(workspace, (0, 0))
        swept = dropped + survived
        return survived / swept if swept else None

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()

    def __len__(self) -> int:
        return len(self._entries)

    def __repr__(self) -> str:
        return (
            f"ResultCache(size={len(self._entries)}, capacity={self.capacity}, "
            f"hits={self.hits.value}, misses={self.misses.value})"
        )
