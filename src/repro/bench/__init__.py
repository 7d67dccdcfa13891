"""Benchmark recording, regression gating and history (`repro.bench`).

The paper's contribution is a set of comparative cost curves; this
package keeps the reproduction honest about its own curves over time.
It layers on the observability of :mod:`repro.obs` and the experiment
harness of :mod:`repro.experiments`:

* :mod:`repro.bench.record` — the schema-versioned measurement record
  (``BENCH_<suite>.json``): per method/config I/O totals, index vs.
  data page splits, per-phase breakdowns, median-of-k wall times, and
  an environment fingerprint;
* :mod:`repro.bench.suites` — named suites (``smoke``, ``micro``,
  ``kernels``, ``parallel``, ``service``, ``loadgen``,
  ``fig10``/``fig11``/``fig12``) and the recorder that runs them;
* :mod:`repro.bench.compare` — policy-driven comparison (schema v2):
  exact/pinned policies for deterministic quantities (page counts,
  planned request mixes), relative tolerance for wall times and rates,
  structured improved/unchanged/regressed verdicts;
* :mod:`repro.bench.history` — the append-only JSON-lines trajectory
  (``benchmarks/history.jsonl``) and its sparkline/markdown reports.

Recording and gating in three lines::

    from repro.bench import run_suite, compare_records, BenchRecord

    baseline = BenchRecord.read("BENCH_smoke.json")
    report = compare_records(baseline, run_suite("smoke"))
    assert report.ok(), report.format()

The CLI front end is ``mindist bench run|compare|report|suites``.
"""

from __future__ import annotations

from repro.bench.compare import (
    DEFAULT_TIME_TOLERANCE,
    IMPROVED,
    MISSING,
    NEW,
    REGRESSED,
    UNCHANGED,
    ComparisonReport,
    Verdict,
    compare_records,
    resolve_policies,
)
from repro.bench.history import (
    DEFAULT_HISTORY_PATH,
    append_history,
    history_row,
    load_history,
    markdown_summary,
    sparkline,
    trend_report,
)
from repro.bench.loadgen import (
    LOADGEN_CLOSED,
    LOADGEN_DATASET,
    LOADGEN_MODES,
    LOADGEN_OPEN,
    loadgen_metric_policies,
    run_loadgen_suite,
)
from repro.bench.kernels import (
    KERNELS_CONFIGS,
    KERNELS_IO_LATENCY_S,
    TARGET_SPEEDUP,
    run_kernels_suite,
)
from repro.bench.parallel import (
    DEFAULT_WORKER_LADDER,
    PARALLEL_CONFIG,
    PARALLEL_IO_LATENCY_S,
    PARALLEL_TASK_TARGET,
    run_parallel_suite,
)
from repro.bench.scale import SCALE_IO_LATENCY_S, SCALE_RUNGS, run_scale_suite
from repro.bench.record import (
    DETERMINISTIC_METRICS,
    POLICIES,
    POLICY_EXACT,
    POLICY_INFO,
    POLICY_PIN,
    POLICY_RATE,
    POLICY_TIME,
    SCHEMA_VERSION,
    TIMING_METRICS,
    BenchEntry,
    BenchRecord,
    default_metric_policies,
    environment_fingerprint,
    git_sha,
)
from repro.bench.service import (
    PIPELINE_ROUNDS,
    SERVICE_BATCH_WINDOW_S,
    SERVICE_CONFIG,
    run_service_suite,
)
from repro.bench.suites import (
    DEFAULT_REPEATS,
    SUITES,
    Suite,
    get_suite,
    run_suite,
    suite_names,
)

__all__ = [
    "BenchEntry",
    "BenchRecord",
    "ComparisonReport",
    "DEFAULT_HISTORY_PATH",
    "DEFAULT_REPEATS",
    "DEFAULT_TIME_TOLERANCE",
    "DEFAULT_WORKER_LADDER",
    "DETERMINISTIC_METRICS",
    "IMPROVED",
    "KERNELS_CONFIGS",
    "KERNELS_IO_LATENCY_S",
    "LOADGEN_CLOSED",
    "LOADGEN_DATASET",
    "LOADGEN_MODES",
    "LOADGEN_OPEN",
    "MISSING",
    "NEW",
    "PARALLEL_CONFIG",
    "PARALLEL_IO_LATENCY_S",
    "PARALLEL_TASK_TARGET",
    "PIPELINE_ROUNDS",
    "POLICIES",
    "POLICY_EXACT",
    "POLICY_INFO",
    "POLICY_PIN",
    "POLICY_RATE",
    "POLICY_TIME",
    "REGRESSED",
    "SCALE_IO_LATENCY_S",
    "SCALE_RUNGS",
    "SCHEMA_VERSION",
    "SERVICE_BATCH_WINDOW_S",
    "SERVICE_CONFIG",
    "SUITES",
    "Suite",
    "TARGET_SPEEDUP",
    "TIMING_METRICS",
    "UNCHANGED",
    "Verdict",
    "append_history",
    "compare_records",
    "default_metric_policies",
    "environment_fingerprint",
    "get_suite",
    "git_sha",
    "history_row",
    "load_history",
    "loadgen_metric_policies",
    "markdown_summary",
    "resolve_policies",
    "run_kernels_suite",
    "run_loadgen_suite",
    "run_parallel_suite",
    "run_scale_suite",
    "run_service_suite",
    "run_suite",
    "sparkline",
    "suite_names",
    "trend_report",
]
