"""End-to-end metrics from one measured pass.

Timings are reported as a central value and as the *tail*: the highest
percentile that still has at least ``TAIL_BEYOND`` samples beyond it,
recorded with that percentile and the sample count.  A failed or
refused request counts as an infinitely slow one, so it misses every
latency limit.

The central value of an uncached select is the interquartile mean (the
mean of the middle half of the samples), not the median.  On
``wire-small`` a cold select either runs alone or waits behind the
other connection's request, so its round trips are bimodal and the
median sits on the cliff between the modes, jumping by a third from
run to run; on ``churn-100k`` the first probe after the write stream
pays deferred index work.  The middle half drops such outliers and
averages across the cliff.  Other per-operation figures stay medians.

``cold_select_ms`` is the geometric mean of the four methods'
interquartile means, so a change of the same share in any one method
moves it by the same amount.  Per method the figure does not hold
still: on a 100K workspace a QVC select reads the same pages on every
seed yet its round trip moves by a fifth from run to run, and a run
fits only about ten selects of each method.  The per-method figures and
their tails are printed on the report line, each with its sample count.

``END_TO_END`` are the metrics every workload reports (and
``BENCHMARK.json`` lists).  ``by_op`` figures exist only on some
workloads (no updates on the static ``scan-100k``, no evaluates on
``churn-100k``) or do not hold still across runs, so they are printed
on the report line beside the metrics.
"""

from __future__ import annotations

import math
import statistics

from serverproc import BenchError
from workloads import METHODS, PassLog

TAIL_BEYOND = 10
#: Stands in for an infinite latency (a failed request) in JSON output.
FAILED_MS = 1e9

END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "ops/s",
    "cold_select_ms": "ms",
    "pages_per_select": "pages",
    "index_pages": "pages",
    "server_rss_mb": "MiB",
}


def _finite(value: float) -> float:
    return value if math.isfinite(value) else FAILED_MS


def tail(values: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with at least
    ``TAIL_BEYOND`` samples beyond it; the maximum when there are too
    few samples for any."""
    ordered = sorted(values)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def latency_ms(ops) -> list[float]:
    return [op.ms if op.ok else math.inf for op in ops]


def _samples(name: str, values: list) -> list:
    if not values:
        raise BenchError(f"no samples for {name}")
    return values


def interquartile_mean(values: list[float]) -> float:
    """Mean of the middle half of ``values`` (all of them below four)."""
    ordered = sorted(values)
    cut = len(ordered) // 4
    return statistics.fmean(ordered[cut : len(ordered) - cut])


def _timing(name: str, values: list[float], centre=statistics.median) -> dict:
    values = _samples(name, values)
    return {"value": _finite(centre(values)), "unit": "ms", "n": len(values)}


def _tail(name: str, values: list[float]) -> dict:
    value, percentile = tail(_samples(name, values))
    return {
        "value": _finite(value),
        "unit": "ms",
        "n": len(values),
        "percentile": percentile,
    }


def computed_selects(log: PassLog):
    """Selects the engine actually ran (cache misses and no_cache)."""
    return [
        op
        for op in log.window + log.probes
        if op.kind in ("select", "cold") and op.ok and not op.cached
    ]


def _cold(log: PassLog, method: str) -> list:
    ops = log.window + log.probes
    return [op for op in ops if op.kind == "cold" and op.method == method]


def cold_by_method(log: PassLog) -> dict[str, dict]:
    """Per method, the interquartile mean of its uncached round trips."""
    return {
        m: _timing(f"cold_select_ms.{m}", latency_ms(_cold(log, m)), interquartile_mean)
        for m in METHODS
    }


def end_to_end(log: PassLog, setup_times: list[float], rss_mib: float) -> dict:
    """Every ``END_TO_END`` metric, each with its unit and sample count.

    ``pages_per_select`` weighs the four methods equally (the mean over
    methods of each one's mean uncached ``io_total``), so it does not
    depend on how many selects of each method a run fitted in.
    """
    answers = log.final_answers()
    missing = [m for m in METHODS if m not in answers]
    if missing:
        raise BenchError(f"no successful uncached select of {', '.join(missing)}")
    done = sum(op.ok for op in log.window)
    if not done:
        raise BenchError("no operation of the window completed")
    cold = cold_by_method(log)
    pages = [
        statistics.fmean(op.result["io_total"] for op in _cold(log, m) if op.ok)
        for m in METHODS
    ]
    return {
        "setup_s": {
            "value": statistics.median(_samples("setup_s", setup_times)),
            "unit": "s",
            "n": len(setup_times),
        },
        "ops_per_s": {"value": done / log.window_s, "unit": "ops/s", "n": done},
        "cold_select_ms": {
            "value": statistics.geometric_mean(c["value"] for c in cold.values()),
            "unit": "ms",
            "n": sum(c["n"] for c in cold.values()),
        },
        "pages_per_select": {
            "value": statistics.fmean(pages),
            "unit": "pages",
            "n": sum(c["n"] for c in cold.values()),
        },
        "index_pages": {
            "value": sum(answers[m].result["index_pages"] for m in METHODS),
            "unit": "pages",
            "n": len(answers),
        },
        "server_rss_mb": {"value": rss_mib, "unit": "MiB", "n": 1},
    }


def by_op(log: PassLog) -> dict:
    """Per-operation latencies, per-method cold selects and their tails,
    and the failure ratio (report line only)."""
    out = {}
    for kind in ("select", "evaluate", "update"):
        values = latency_ms([op for op in log.window if op.kind == kind])
        if values:
            out[f"{kind}_p50_ms"] = _timing(kind, values)
            if kind != "evaluate":
                out[f"{kind}_tail_ms"] = _tail(kind, values)
    for method, timing in cold_by_method(log).items():
        out[f"cold_select_ms.{method}"] = timing
        name = f"cold_select_tail_ms.{method}"
        out[name] = _tail(name, latency_ms(_cold(log, method)))
    ops = log.window + log.probes
    failed = [op for op in ops if not op.ok]
    out["failed_ratio"] = {
        "value": len(failed) / len(ops),
        "unit": "ratio",
        "n": len(ops),
        "by_code": {
            code: sum(op.code == code for op in failed)
            for code in sorted({op.code for op in failed})
        },
    }
    return out
