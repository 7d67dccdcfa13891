"""Record schema: construction, serialisation, versioning, fingerprint."""

from __future__ import annotations

import json
import shutil
import subprocess

import pytest

from repro.bench import (
    SCHEMA_VERSION,
    BenchEntry,
    BenchRecord,
    environment_fingerprint,
    git_sha,
)
from repro.experiments.config import BENCH_SCALE
from repro.experiments.metrics import MeasuredRun
from repro.storage.records import PAGE_SIZE


def _run(method="MND", io=100, index=70, elapsed=0.5) -> MeasuredRun:
    return MeasuredRun(
        config_label="uniform(nc=10,nf=2,np=2)",
        method=method,
        x=float("nan"),
        elapsed_s=elapsed,
        io_total=io,
        index_pages=12,
        dr=1.0,
        location_id=0,
        io_breakdown={"R_P": index, "file.C": io - index},
        phases={"join": {"page_reads": float(io), "elapsed_s": elapsed}},
        elapsed_samples=[elapsed, elapsed * 1.1],
    )


class TestBenchEntry:
    def test_from_run_splits_index_and_data_reads(self):
        entry = BenchEntry.from_run(_run(io=100, index=70))
        assert entry.metrics["io_total"] == 100
        assert entry.metrics["index_reads"] == 70
        assert entry.metrics["data_reads"] == 30
        assert entry.metrics["index_pages"] == 12
        assert entry.x is None  # NaN x maps to None in the schema

    def test_from_run_keeps_samples_and_phases(self):
        entry = BenchEntry.from_run(_run(elapsed=0.5))
        assert entry.elapsed_samples == pytest.approx([0.5, 0.55])
        assert entry.phases["join"]["page_reads"] == 100.0

    def test_key_identity(self):
        entry = BenchEntry.from_run(_run())
        assert entry.key == ("uniform(nc=10,nf=2,np=2)", "MND")


class TestRoundTrip:
    def test_json_round_trip_preserves_everything(self):
        record = BenchRecord(
            suite="unit",
            repeats=2,
            environment=environment_fingerprint(dataset_seed=7),
            entries=[BenchEntry.from_run(_run()), BenchEntry.from_run(_run("SS"))],
        )
        clone = BenchRecord.loads(record.dumps())
        assert clone.to_dict() == record.to_dict()

    def test_write_and_read(self, tmp_path):
        record = BenchRecord(suite="unit", repeats=1)
        path = record.write(tmp_path / "BENCH_unit.json")
        assert BenchRecord.read(path).suite == "unit"

    def test_newer_schema_is_refused(self):
        payload = {"schema_version": SCHEMA_VERSION + 1, "suite": "x"}
        with pytest.raises(ValueError, match="schema version"):
            BenchRecord.from_dict(payload)

    def test_dumps_is_stable_json(self):
        record = BenchRecord(suite="unit", repeats=1)
        assert json.loads(record.dumps())["suite"] == "unit"
        assert record.dumps() == record.dumps()


class TestTotals:
    def test_totals_sum_across_configs(self):
        a, b = BenchEntry.from_run(_run(io=10)), BenchEntry.from_run(_run(io=30))
        b.config = "other-config"
        record = BenchRecord(suite="unit", repeats=1, entries=[a, b])
        assert record.totals("io_total") == {"MND": 40.0}
        assert record.methods() == ["MND"]


class TestFingerprint:
    def test_contains_required_keys(self):
        env = environment_fingerprint(dataset_seed=42)
        assert env["dataset_seed"] == 42
        assert env["page_size"] == PAGE_SIZE
        assert env["bench_scale"] == BENCH_SCALE
        for key in ("git_sha", "date_utc", "python", "platform"):
            assert env[key]

    def test_git_sha_in_repo(self, tmp_path):
        """A throwaway repository with one commit gives its SHA back, so
        the check holds in an export of this tree without ``.git``."""
        git = _git_or_skip()

        def run(*args: str) -> str:
            return subprocess.run(
                [git, *GIT_IDENTITY, *args],
                cwd=tmp_path,
                check=True,
                capture_output=True,
                text=True,
            ).stdout.strip()

        run("init", "-q")
        (tmp_path / "tracked.txt").write_text("one\n")
        run("add", "tracked.txt")
        run("commit", "-q", "-m", "one")
        sha = git_sha(directory=tmp_path)
        assert sha == run("rev-parse", "--short", "HEAD")
        assert 6 <= len(sha) <= 40
        assert git_sha(short=False, directory=tmp_path) == run("rev-parse", "HEAD")

    def test_git_sha_outside_a_repository(self, tmp_path):
        _git_or_skip()
        assert git_sha(directory=tmp_path) == "unknown"


#: A committer for the throwaway repository, whatever the host's config.
GIT_IDENTITY = (
    "-c",
    "user.name=bench",
    "-c",
    "user.email=bench@example.invalid",
    "-c",
    "commit.gpgsign=false",
)


def _git_or_skip() -> str:
    git = shutil.which("git")
    if git is None:
        pytest.skip("no git executable")
    return git
