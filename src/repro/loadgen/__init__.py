"""Load generation and SLO measurement for the query service.

PR 4 gave the TCP service admission control, micro-batching and a
versioned result cache; this package is their adversary.  It drives a
live server — ``mindist serve`` or an in-thread handle — with
deterministic, realistically *skewed* traffic and measures whether
"heavy traffic" actually holds:

* :mod:`repro.loadgen.config` — the experiment description: open
  (Poisson arrivals at a target qps) or closed (fixed client count)
  loop, select/evaluate/update mix, Zipf key skew, per-request
  deadlines, ramp/warmup/measure phases, bounded retry policy;
* :mod:`repro.loadgen.schedule` — the deterministic plan: every
  arrival, op and key decided up front from the seed, so request
  counts and mix gate exactly in the bench harness;
* :mod:`repro.loadgen.loop` — the per-request client loop (bounded
  ``queue_full`` retries with capped exponential backoff, typed error
  accounting) over an injectable transport;
* :mod:`repro.loadgen.metrics` — p50/p99/p999 latency, throughput,
  queue-full / deadline-miss / protocol-error rates, cache hit rate,
  :class:`SLOPolicy` checks and the markdown SLO report;
* :mod:`repro.loadgen.runner` — the thread-pooled drivers and the
  before/after scrape of the service's own ``stats`` counters.

The CI smoke check is ``tests/loadgen/test_smoke.py``
(``pytest -m smoke tests/loadgen``).

Quick usage::

    from repro.loadgen import LoadgenConfig, run_loadgen, self_hosted

    with self_hosted(n_c=2_000, n_f=100, n_p=100) as handle:
        result = run_loadgen(LoadgenConfig(mode="open", qps=200),
                             handle.host, handle.port)
    print(result.stats.latency.p99_s, result.stats.cache_hit_rate)

or from a shell: ``mindist loadgen --random 10000 500 500 --mode open
--qps 300 --report slo.md``.  The ``loadgen`` bench suite
(``mindist bench run loadgen``) records the same drive into the
regression-gated history.
"""

from repro.loadgen.config import (
    MIX_PROFILES,
    MODE_CLOSED,
    MODE_OPEN,
    MODES,
    OPS,
    PHASE_MEASURE,
    PHASE_WARMUP,
    LoadgenConfig,
    RetryPolicy,
    parse_mix,
)
from repro.loadgen.loop import (
    RequestOutcome,
    ServiceTransport,
    TransportReply,
    execute_request,
)
from repro.loadgen.metrics import (
    PUSHBACK_CODES,
    LatencyStats,
    LoadgenStats,
    SLOCheck,
    SLOPolicy,
    aggregate_outcomes,
    percentile,
    render_slo_report,
)
from repro.loadgen.runner import LoadgenResult, run_loadgen, self_hosted
from repro.loadgen.schedule import (
    PlannedRequest,
    closed_schedule,
    open_schedule,
    plan_requests,
    schedule_summary,
)

__all__ = [
    "LatencyStats",
    "LoadgenConfig",
    "LoadgenResult",
    "LoadgenStats",
    "MIX_PROFILES",
    "MODES",
    "MODE_CLOSED",
    "MODE_OPEN",
    "OPS",
    "PHASE_MEASURE",
    "PHASE_WARMUP",
    "PUSHBACK_CODES",
    "PlannedRequest",
    "RequestOutcome",
    "RetryPolicy",
    "SLOCheck",
    "SLOPolicy",
    "ServiceTransport",
    "TransportReply",
    "aggregate_outcomes",
    "closed_schedule",
    "execute_request",
    "open_schedule",
    "parse_mix",
    "percentile",
    "plan_requests",
    "render_slo_report",
    "run_loadgen",
    "schedule_summary",
    "self_hosted",
]
