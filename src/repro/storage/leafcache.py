"""Workspace-level cache of decoded leaf-node arrays.

The join methods (NFC, MND) and the QVC window query evaluate leaf
nodes with vectorised numpy kernels, which requires *decoding* a leaf's
entry list into flat coordinate/weight arrays.  The paper charges the
page **read**; the decode is a pure CPU artefact of our implementation.
Historically each selector kept a private ``self._leaf_cache`` dict that
was rebuilt per query and — in the MND case — never cleared, pinning
decoded arrays on the selector for its lifetime.

:class:`DecodedLeafCache` replaces those instance attributes with one
workspace-owned cache:

* keyed by ``(tree_name, node_id)``, so all methods and all queries over
  the same workspace share one decode per leaf;
* the page read is still charged by the caller *before* consulting the
  cache — caching never changes ``io_total``;
* versioned per tree: an R-tree bumps its ``version`` on every
  insert/delete, and the cache drops a tree's entries wholesale when it
  observes a new version (plus :meth:`invalidate_tree` / :meth:`clear`
  for explicit control);
* **scoped invalidation for tracked trees**: a tree that binds the
  cache (``RTree.bind_leaf_cache``) reports exactly the node ids its
  mutations dirtied (:meth:`note_dirty`) and drops freed node ids at
  free time (:meth:`drop_node` — which makes node-id recycling sound),
  so a version change on a *tracked* tree keeps every untouched decode
  instead of clearing the tree wholesale.  Under a mutation stream the
  cache stays warm everywhere the mutation didn't reach;
* looked up a call at a time: :meth:`DecodedLeafCache.get_many` takes a
  caller's node ids (a descent level's distinct nodes, a task's
  leaves), looks them all up under one lock, decodes the missing ones
  outside it and stores them under a second, and moves the hit and
  miss counters once each; :meth:`~DecodedLeafCache.get` is its
  one-id case;
* guarded by a lock so concurrent tasks of the execution engine can
  share it safely.  Decodes are pure functions of immutable node
  payloads, so a racing double-decode is benign — the lock only
  protects the dict bookkeeping, and the first decode stored wins.

Since the columnar kernels landed, the cached values are the
structure-of-arrays buffers of :mod:`repro.kernels.columnar`
(``SiteColumns``/``ClientColumns``) rather than ad-hoc array tuples.
Each instance keeps local ``hits``/``misses`` attributes for tests and
``repr`` and also reports into the process-wide obs registry as
``leafcache.hits`` / ``leafcache.misses``.
"""

from __future__ import annotations

import threading
from typing import Any, Callable, Iterable

from repro.obs.registry import REGISTRY


class DecodedLeafCache:
    """Shared, versioned cache of decoded leaf arrays."""

    __slots__ = (
        "_entries",
        "_versions",
        "_tracked",
        "_lock",
        "hits",
        "misses",
        "_hits_metric",
        "_misses_metric",
    )

    def __init__(self) -> None:
        self._entries: dict[tuple[str, int], Any] = {}
        self._versions: dict[str, int] = {}
        self._tracked: set[str] = set()
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self._hits_metric = REGISTRY.counter("leafcache.hits")
        self._misses_metric = REGISTRY.counter("leafcache.misses")

    # ------------------------------------------------------------------
    def track(self, tree_name: str) -> None:
        """Opt a tree into scoped invalidation: its version bumps no
        longer clear the tree wholesale, because the tree promises to
        report every dirtied node via :meth:`note_dirty` and every freed
        node via :meth:`drop_node`."""
        with self._lock:
            self._tracked.add(tree_name)

    def note_dirty(self, tree_name: str, node_ids) -> None:
        """Drop exactly the decodes a mutation invalidated."""
        with self._lock:
            for node_id in node_ids:
                self._entries.pop((tree_name, node_id), None)

    def drop_node(self, tree_name: str, node_id: int) -> None:
        """Drop one node's decode the moment its page is freed (node
        ids are recycled, so this must happen before reuse)."""
        with self._lock:
            self._entries.pop((tree_name, node_id), None)

    # ------------------------------------------------------------------
    def get(
        self,
        tree_name: str,
        version: int,
        node_id: int,
        decode: Callable[[], Any],
    ) -> Any:
        """The decoded arrays for one leaf: :meth:`get_many` of one id."""
        return self.get_many(tree_name, version, (node_id,), lambda __: decode())[0]

    def get_many(
        self,
        tree_name: str,
        version: int,
        node_ids: Iterable[int],
        decode: Callable[[int], Any],
    ) -> list[Any]:
        """The decoded arrays for each of ``node_ids``, in order;
        ``decode(node_id)`` runs once per id not yet cached.

        The call takes the lock once to look every id up and once to
        store the decodes, and moves each hit/miss counter once, by the
        counts that per-id lookups would give (a repeated missing id
        misses once, then hits).  ``version`` is the owning tree's
        current mutation counter; a version change invalidates every
        cached leaf of that tree — unless the tree is *tracked* (see
        :meth:`track`), in which case the dirty notifications already
        dropped the stale decodes and everything else is still exact.
        (For untracked trees node ids recycled by splits/merges make
        per-node invalidation unsound, hence the wholesale drop.)
        """
        keys = [(tree_name, node_id) for node_id in node_ids]
        with self._lock:
            if (
                self._versions.get(tree_name, version) != version
                and tree_name not in self._tracked
            ):
                self._drop_tree_locked(tree_name)
            self._versions[tree_name] = version
            found = [self._entries.get(key) for key in keys]
            missing = dict.fromkeys(k for k, v in zip(keys, found) if v is None)
            hits, misses = len(keys) - len(missing), len(missing)
            self.hits += hits
            self.misses += misses
        if hits:
            self._hits_metric.inc(hits)
        if not misses:
            return found
        self._misses_metric.inc(misses)
        decoded = {key: decode(key[1]) for key in missing}
        with self._lock:
            # Keep the first decode if another task raced us (both are
            # identical by construction).
            for key, value in decoded.items():
                decoded[key] = self._entries.setdefault(key, value)
        return [decoded[key] if v is None else v for key, v in zip(keys, found)]

    # ------------------------------------------------------------------
    def _drop_tree_locked(self, tree_name: str) -> None:
        stale = [key for key in self._entries if key[0] == tree_name]
        for key in stale:
            del self._entries[key]

    def invalidate_tree(self, tree_name: str) -> None:
        """Explicitly drop every cached leaf of one tree."""
        with self._lock:
            self._drop_tree_locked(tree_name)
            self._versions.pop(tree_name, None)

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self._versions.clear()

    def __len__(self) -> int:
        return len(self._entries)

    def __repr__(self) -> str:
        return (
            f"DecodedLeafCache(size={len(self._entries)}, "
            f"hits={self.hits}, misses={self.misses})"
        )
