"""The ``churn`` benchmark suite: the write path under load.

Two parts, both with their correctness contract enforced at record
time (the recorder raises; a maintenance bug can never produce a
plausible-looking record):

* **maintenance speedup** (the 100K-client scale rung) — a scripted
  stream of interleaved client/facility mutations runs against a
  :class:`DynamicWorkspace` with every index built, measuring
  maintained mutations per second; the baseline rebuilds the workspace
  (grid NN join + every index) from scratch per mutation, the only
  strategy available before incremental upkeep.  The recorder asserts
  the speedup is **>= 10x** and that the mutated workspace passes the
  full :func:`repro.churn.verify_parity` rebuild-twin check;
* **warm cache under churn** (the micro service dataset) — a mixed
  select/update stream over TCP where most mutations are spatially
  disjoint from every potential site (clients arriving exactly on a
  facility, then departing).  The recorder asserts the region clock
  classified every mutation as expected (``select_changed`` false for
  the disjoint ones, true for the covering ones) and that the select
  cache hit rate over the whole stream — cold start included — is
  **>= 0.5**, the headline claim: under region-scoped invalidation a
  write-heavy stream no longer empties the cache.  Post-stream cold
  selects per method record the usual page-read metrics, exact-gated:
  the mutation stream is deterministic, so the post-churn tree shapes
  (incrementally grown, not bulk-loaded) are too.

Gated metrics: page reads exact; stream shape (mutation/select counts,
mix) pinned; rates advisory (higher is better); wall times advisory.
"""

from __future__ import annotations

import statistics
import time
from typing import Callable, Optional, Sequence

from repro.bench.record import (
    POLICY_INFO,
    POLICY_PIN,
    POLICY_RATE,
    BenchEntry,
    BenchRecord,
    environment_fingerprint,
)
from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import DEFAULT_METHODS

#: The maintenance-speedup rung: the scale suite's 100K-client dataset.
CHURN_RUNG_N_C = 100_000

#: Mutations applied incrementally at the rung (timed as one stream).
CHURN_RUNG_MUTATIONS = 200

#: From-scratch rebuilds timed for the baseline rate (each one is a
#: full grid join + index build; two are plenty to estimate the rate).
CHURN_RUNG_REBUILDS = 2

#: The record-time floor on incremental-vs-rebuild speedup.
CHURN_MIN_SPEEDUP = 10.0

#: The service-stream dataset (the loadgen micro size).
CHURN_MICRO = ExperimentConfig(n_c=2_000, n_f=100, n_p=100)

#: Service-stream shape: select rounds and where the covering
#: mutations land (after these rounds the cache must go cold once).
CHURN_ROUNDS = 6
CHURN_COVERING_AFTER = (2, 4)

#: The record-time floor on the stream's select cache hit rate.
CHURN_MIN_HIT_RATE = 0.5

#: Deterministic seed for the rung's scripted mutation stream.
CHURN_STREAM_SEED = 23


def churn_metric_policies() -> dict[str, str]:
    """The suite's schema-v2 metric -> policy declaration (page reads
    and ``elapsed_s`` keep the classic defaults)."""
    return {
        "mutations": POLICY_PIN,
        "rebuilds": POLICY_PIN,
        "n_c": POLICY_PIN,
        "selects": POLICY_PIN,
        "disjoint_mutations": POLICY_PIN,
        "covering_mutations": POLICY_PIN,
        "incremental_mutations_per_s": POLICY_RATE,
        "maintenance_speedup": POLICY_RATE,
        "select_hit_rate": POLICY_RATE,
        "rebuild_mutations_per_s": POLICY_INFO,
        "cache_survival": POLICY_INFO,
        "duration_s": POLICY_INFO,
    }


def _build_indexes(ws) -> None:
    """Force every index so mutations maintain, never lazily rebuild."""
    for name in ("r_c", "r_f", "rnn_tree", "mnd_tree"):
        getattr(ws, name)


def _rung_stream(ws, mutations: int, seed: int) -> None:
    """The rung's deterministic interleaved mutation stream."""
    import random

    rng = random.Random(seed)
    for _ in range(mutations):
        roll = rng.random()
        if roll < 0.40:
            ws.add_client((rng.uniform(0.0, 1000.0), rng.uniform(0.0, 1000.0)))
        elif roll < 0.60:
            ws.remove_client(ws.clients[rng.randrange(ws.n_c)])
        elif roll < 0.85:
            ws.add_facility(
                (rng.uniform(0.0, 1000.0), rng.uniform(0.0, 1000.0))
            )
        else:
            ws.remove_facility(ws.facilities[rng.randrange(ws.n_f)])


def _speedup_entries(
    progress: Optional[Callable[[str], None]],
) -> list[BenchEntry]:
    from repro.bench.scale import config_for_rung
    from repro.churn.parity import verify_parity
    from repro.core import DynamicWorkspace, Workspace

    config = config_for_rung(CHURN_RUNG_N_C)
    label = config.label()
    if progress is not None:
        progress(f"building {label} with all indexes ...")
    ws = DynamicWorkspace(config.instance())
    _build_indexes(ws)

    if progress is not None:
        progress(
            f"applying {CHURN_RUNG_MUTATIONS} incremental mutations ..."
        )
    t0 = time.perf_counter()
    _rung_stream(ws, CHURN_RUNG_MUTATIONS, CHURN_STREAM_SEED)
    incremental_s = time.perf_counter() - t0
    incremental_rate = CHURN_RUNG_MUTATIONS / incremental_s

    if progress is not None:
        progress("verifying rebuild-twin parity after the stream ...")
    verify_parity(ws, methods=("SS", "MND"))

    if progress is not None:
        progress(f"timing {CHURN_RUNG_REBUILDS} from-scratch rebuilds ...")
    t0 = time.perf_counter()
    for _ in range(CHURN_RUNG_REBUILDS):
        _build_indexes(Workspace(ws.instance))
    rebuild_s = time.perf_counter() - t0
    rebuild_rate = CHURN_RUNG_REBUILDS / rebuild_s

    speedup = incremental_rate / rebuild_rate
    if speedup < CHURN_MIN_SPEEDUP:
        raise AssertionError(
            f"incremental maintenance is only {speedup:.1f}x a per-mutation "
            f"rebuild at n_c={CHURN_RUNG_N_C} (floor {CHURN_MIN_SPEEDUP}x)"
        )
    return [
        BenchEntry(
            config=label,
            method="incremental",
            x=float(CHURN_RUNG_N_C),
            metrics={
                "mutations": float(CHURN_RUNG_MUTATIONS),
                "incremental_mutations_per_s": incremental_rate,
                "elapsed_s": incremental_s,
            },
            elapsed_samples=[incremental_s],
        ),
        BenchEntry(
            config=label,
            method="rebuild",
            x=float(CHURN_RUNG_N_C),
            metrics={
                "rebuilds": float(CHURN_RUNG_REBUILDS),
                "rebuild_mutations_per_s": rebuild_rate,
                "elapsed_s": rebuild_s,
            },
            elapsed_samples=[rebuild_s],
        ),
        BenchEntry(
            config=label,
            method="speedup",
            x=float(CHURN_RUNG_N_C),
            metrics={
                "n_c": float(CHURN_RUNG_N_C),
                "maintenance_speedup": speedup,
            },
        ),
    ]


def _stream_entries(
    repeats: int,
    chosen: Sequence[str],
    progress: Optional[Callable[[str], None]],
    workers: int,
) -> list[BenchEntry]:
    from repro.churn.parity import verify_parity
    from repro.core import DynamicWorkspace, make_selector
    from repro.service import ServiceClient, ServiceConfig, serve_in_thread

    config = CHURN_MICRO
    label = config.label()
    if progress is not None:
        progress(f"running {label} mixed select/update stream over TCP ...")
    ws = DynamicWorkspace(config.instance())
    handle = serve_in_thread({"default": ws}, ServiceConfig(workers=workers))
    hits = selects = disjoint = covering = 0
    t0 = time.perf_counter()
    try:
        with ServiceClient(handle.host, handle.port) as client:
            def run_selects() -> None:
                nonlocal hits, selects
                for name in chosen:
                    selects += 1
                    hits += bool(client.select(name).cached)

            run_selects()  # cold start — counted against the hit rate
            for round_no in range(CHURN_ROUNDS):
                # Two disjoint mutations: a client arrives exactly on a
                # facility (its NFC is a point covering no potential
                # site) and departs again.
                site = ws.facilities[round_no % ws.n_f]
                added = client.update(
                    "add_client", point=[site.x, site.y]
                )
                removed_detail = client.update(
                    "remove_client", cid=added["cid"]
                )
                for detail in (added, removed_detail):
                    if detail.get("select_changed") is not False:
                        raise AssertionError(
                            "disjoint mutation reported select_changed="
                            f"{detail.get('select_changed')!r}; the region "
                            "clock must keep the select cache warm"
                        )
                disjoint += 2
                if round_no in CHURN_COVERING_AFTER:
                    # One covering mutation: a client arrives on a
                    # potential site, which its NFC box then contains.
                    spot = ws.potentials[round_no]
                    detail = client.update(
                        "add_client", point=[spot.x, spot.y]
                    )
                    if detail.get("select_changed") is not True:
                        raise AssertionError(
                            "covering mutation reported select_changed="
                            f"{detail.get('select_changed')!r}; stale "
                            "selects would be served"
                        )
                    covering += 1
                run_selects()
            stats = client.stats()
    finally:
        handle.stop()
    duration_s = time.perf_counter() - t0

    hit_rate = hits / selects
    if hit_rate < CHURN_MIN_HIT_RATE:
        raise AssertionError(
            f"select cache hit rate {hit_rate:.2f} under the churn stream "
            f"is below the {CHURN_MIN_HIT_RATE} floor"
        )
    verify_parity(ws)

    survival = (
        stats.get("workspaces", {}).get("default", {}).get("cache_survival")
    )
    entries = [
        BenchEntry(
            config=label,
            method="service-stream",
            x=None,
            metrics={
                "selects": float(selects),
                "mutations": float(disjoint + covering),
                "disjoint_mutations": float(disjoint),
                "covering_mutations": float(covering),
                "select_hit_rate": hit_rate,
                "cache_survival": float(survival or 0.0),
                "duration_s": duration_s,
            },
        )
    ]

    # Post-churn cold selects: the page-read contract of the maintained
    # (incrementally grown) indexes, deterministic given the stream.
    for name in chosen:
        if progress is not None:
            progress(f"running post-churn cold {name} ...")
        samples = []
        result = None
        for _ in range(repeats):
            ws.invalidate_leaf_cache()
            result = make_selector(ws, name).select()
            samples.append(result.elapsed_s)
        assert result is not None
        index_reads = sum(
            pages
            for source, pages in result.io_reads.items()
            if source.startswith("R_")
        )
        entries.append(
            BenchEntry(
                config=label,
                method=name,
                x=None,
                metrics={
                    "io_total": float(result.io_total),
                    "index_reads": float(index_reads),
                    "data_reads": float(result.io_total - index_reads),
                    "index_pages": float(result.index_pages),
                    "elapsed_s": statistics.median(samples),
                },
                io_breakdown=dict(result.io_reads),
                elapsed_samples=samples,
            )
        )
    return entries


def run_churn_suite(
    repeats: int = 3,
    methods: Optional[Sequence[str]] = None,
    progress: Optional[Callable[[str], None]] = None,
    workers: Optional[int] = None,
) -> BenchRecord:
    """Record one execution of the ``churn`` suite (see module docstring;
    raises on any violated correctness floor)."""
    if repeats < 1:
        raise ValueError("repeats must be >= 1")
    chosen = tuple(methods) if methods is not None else DEFAULT_METHODS
    record = BenchRecord(
        suite="churn",
        repeats=repeats,
        environment=environment_fingerprint(
            dataset_seed=CHURN_MICRO.seed
        ),
        metric_policies=churn_metric_policies(),
    )
    record.entries.extend(_speedup_entries(progress))
    record.entries.extend(
        _stream_entries(repeats, chosen, progress, workers or 1)
    )
    return record
