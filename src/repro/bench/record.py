"""The benchmark record schema (``BENCH_<suite>.json``).

A :class:`BenchRecord` is one recorded execution of a named suite: per
(configuration, method) it stores the paper's three metrics plus the
observability breakdowns PR 1 made available — per-source page splits
(index vs. data), per-phase span attribution and the raw wall-time
samples behind the median — and an environment fingerprint that makes
two records comparable (or explains why they are not).

The schema is versioned.  Readers refuse records from a *newer* schema
than they understand; older versions are migrated forward here when the
schema evolves, so committed baselines never go unreadable.

Schema version 2 added **metric policies**: a record may declare, per
metric name, how the comparator must treat it — ``exact`` (fully
deterministic, any increase gates), ``time`` (lower is better, relative
tolerance, advisory unless time-gating is requested), ``rate`` (higher
is better, same tolerance/advisory treatment) or ``info`` (recorded but
never compared).  Suites whose deterministic quantities are *not* page
counts (the ``loadgen`` suite gates request counts and workload mix)
declare them here instead of stretching the page-read metric list.
Version-1 records migrate forward with an empty policy map, which
leaves the classic defaults below in charge.
"""

from __future__ import annotations

import json
import platform
import subprocess
from dataclasses import dataclass, field
from datetime import datetime, timezone
from pathlib import Path
from typing import Optional, Union

from repro.experiments.config import BENCH_SCALE
from repro.experiments.metrics import MeasuredRun
from repro.storage.records import PAGE_SIZE

#: Bump on any backward-incompatible change to the JSON layout; add a
#: migration in :func:`_migrate` alongside.
SCHEMA_VERSION = 2

#: Metrics whose values are fully determined by the dataset seed.  The
#: comparator holds these to an exact-match policy; everything else
#: (wall times) is noise-smoothed and tolerance-compared.
DETERMINISTIC_METRICS = ("io_total", "index_reads", "data_reads", "index_pages")

#: Wall-time metrics (noise-aware comparison).
TIMING_METRICS = ("elapsed_s",)

# -- metric policies (schema v2) ---------------------------------------
#: Deterministic: any increase is a gated regression, any decrease an
#: improvement; no tolerance.
POLICY_EXACT = "exact"
#: Lower is better; relative tolerance; advisory unless time-gating.
POLICY_TIME = "time"
#: Higher is better; relative tolerance; advisory unless time-gating.
POLICY_RATE = "rate"
#: Recorded for history/reporting only; the comparator skips it.
POLICY_INFO = "info"
#: Pinned: *any* difference from the baseline is a gated mismatch.
#: For quantities with no better/worse direction — request counts, a
#: workload mix, a seed — where drift in either direction means the
#: deterministic contract broke.
POLICY_PIN = "pin"

POLICIES = (POLICY_EXACT, POLICY_TIME, POLICY_RATE, POLICY_INFO, POLICY_PIN)


def default_metric_policies() -> dict[str, str]:
    """The classic pre-v2 policy assignment (page counts + wall time)."""
    policies = {metric: POLICY_EXACT for metric in DETERMINISTIC_METRICS}
    policies.update({metric: POLICY_TIME for metric in TIMING_METRICS})
    return policies


def git_sha(short: bool = True, directory: Optional[str | Path] = None) -> str:
    """The commit checked out at ``directory`` (default: this package's
    own checkout), or ``"unknown"`` outside a checkout."""
    cmd = ["git", "rev-parse"] + (["--short", "HEAD"] if short else ["HEAD"])
    try:
        out = subprocess.run(
            cmd,
            capture_output=True,
            text=True,
            timeout=10,
            cwd=Path(__file__).resolve().parent if directory is None else directory,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def environment_fingerprint(dataset_seed: Optional[int] = None) -> dict:
    """Everything that could legitimately change a measurement.

    Two records with different fingerprints are still comparable on
    deterministic metrics (page reads depend only on the seed), but the
    comparator annotates wall-time verdicts when the platform differs.
    """
    return {
        "git_sha": git_sha(),
        "date_utc": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "page_size": PAGE_SIZE,
        "bench_scale": BENCH_SCALE,
        "dataset_seed": dataset_seed,
    }


@dataclass
class BenchEntry:
    """One (configuration, method) measurement inside a record."""

    config: str  # the configuration label (ExperimentConfig.label())
    method: str
    x: Optional[float]  # swept parameter value, None for single configs
    metrics: dict[str, float] = field(default_factory=dict)
    io_breakdown: dict[str, int] = field(default_factory=dict)
    phases: dict[str, dict[str, float]] = field(default_factory=dict)
    elapsed_samples: list[float] = field(default_factory=list)

    @property
    def key(self) -> tuple[str, str]:
        """The identity the comparator joins baseline/current rows on."""
        return (self.config, self.method)

    @classmethod
    def from_run(cls, run: MeasuredRun) -> "BenchEntry":
        import math

        return cls(
            config=run.config_label,
            method=run.method,
            x=None if math.isnan(run.x) else run.x,
            metrics={
                "io_total": float(run.io_total),
                "index_reads": float(run.index_reads()),
                "data_reads": float(run.data_reads()),
                "index_pages": float(run.index_pages),
                "elapsed_s": run.elapsed_s,
            },
            io_breakdown=dict(run.io_breakdown),
            phases={name: dict(row) for name, row in run.phases.items()},
            elapsed_samples=list(run.elapsed_samples) or [run.elapsed_s],
        )

    def to_dict(self) -> dict:
        return {
            "config": self.config,
            "method": self.method,
            "x": self.x,
            "metrics": self.metrics,
            "io_breakdown": self.io_breakdown,
            "phases": self.phases,
            "elapsed_samples": self.elapsed_samples,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "BenchEntry":
        return cls(
            config=data["config"],
            method=data["method"],
            x=data.get("x"),
            metrics=dict(data.get("metrics", {})),
            io_breakdown=dict(data.get("io_breakdown", {})),
            phases={k: dict(v) for k, v in data.get("phases", {}).items()},
            elapsed_samples=list(data.get("elapsed_samples", [])),
        )


@dataclass
class BenchRecord:
    """One recorded execution of a named benchmark suite."""

    suite: str
    repeats: int
    environment: dict = field(default_factory=dict)
    entries: list[BenchEntry] = field(default_factory=list)
    schema_version: int = SCHEMA_VERSION
    #: Per-metric comparator policy overrides (see ``POLICY_*``).  Empty
    #: means the classic defaults: page counts exact, wall times timed.
    metric_policies: dict[str, str] = field(default_factory=dict)

    def by_key(self) -> dict[tuple[str, str], BenchEntry]:
        return {entry.key: entry for entry in self.entries}

    def methods(self) -> list[str]:
        seen: list[str] = []
        for entry in self.entries:
            if entry.method not in seen:
                seen.append(entry.method)
        return seen

    def totals(self, metric: str) -> dict[str, float]:
        """Per-method sum of ``metric`` across every configuration —
        the scalar trajectory the history module tracks."""
        out: dict[str, float] = {}
        for entry in self.entries:
            out[entry.method] = out.get(entry.method, 0.0) + entry.metrics.get(
                metric, 0.0
            )
        return out

    # -- serialisation -------------------------------------------------
    def to_dict(self) -> dict:
        return {
            "schema_version": self.schema_version,
            "suite": self.suite,
            "repeats": self.repeats,
            "environment": self.environment,
            "metric_policies": self.metric_policies,
            "entries": [entry.to_dict() for entry in self.entries],
        }

    def dumps(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n"

    def write(self, path: Union[str, Path]) -> Path:
        path = Path(path)
        path.write_text(self.dumps(), encoding="utf-8")
        return path

    @classmethod
    def from_dict(cls, data: dict) -> "BenchRecord":
        data = _migrate(data)
        version = data.get("schema_version")
        if version != SCHEMA_VERSION:
            raise ValueError(
                f"unsupported benchmark schema version {version!r} "
                f"(this build reads version {SCHEMA_VERSION})"
            )
        policies = dict(data.get("metric_policies", {}))
        unknown = sorted(
            policy for policy in set(policies.values()) if policy not in POLICIES
        )
        if unknown:
            raise ValueError(
                f"unknown metric policy {', '.join(map(repr, unknown))}; "
                f"expected one of {', '.join(POLICIES)}"
            )
        return cls(
            suite=data["suite"],
            repeats=int(data.get("repeats", 1)),
            environment=dict(data.get("environment", {})),
            entries=[BenchEntry.from_dict(e) for e in data.get("entries", [])],
            schema_version=version,
            metric_policies=policies,
        )

    @classmethod
    def loads(cls, text: str) -> "BenchRecord":
        return cls.from_dict(json.loads(text))

    @classmethod
    def read(cls, path: Union[str, Path]) -> "BenchRecord":
        return cls.loads(Path(path).read_text(encoding="utf-8"))


def _migrate(data: dict) -> dict:
    """Migrate an older schema's dict forward to :data:`SCHEMA_VERSION`.

    Upgrades chain (1 -> 2 -> ...), so a committed baseline written by
    any earlier build stays readable forever.
    """
    if data.get("schema_version") == 1:
        # v1 -> v2: records gained an explicit metric-policy map.  An
        # empty map keeps the classic defaults (page counts exact, wall
        # times tolerance-compared) in force, which is exactly what v1
        # records meant implicitly.
        data = dict(data)
        data["schema_version"] = 2
        data.setdefault("metric_policies", {})
    return data
