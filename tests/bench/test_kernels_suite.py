"""The ``kernels`` suite: registry wiring, one real run, and the
committed record's speedup claim.

The full suite runs every method at two configuration rungs plus a
scalar twin per point; the recording test here runs one method with one
repeat — enough to exercise the whole path (the reference swap, parity
enforcement, record shape) without slowing the test-suite down.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.bench import (
    KERNELS_CONFIGS,
    TARGET_SPEEDUP,
    get_suite,
    run_suite,
)
from repro.bench.record import DETERMINISTIC_METRICS

REPO_ROOT = Path(__file__).resolve().parents[2]


class TestRegistry:
    def test_kernels_suite_is_registered(self):
        suite = get_suite("kernels")
        assert suite.runner is not None
        assert suite.configs == tuple(
            (float(config.n_c), config) for config in KERNELS_CONFIGS
        )
        assert suite.seed() is not None

    def test_rejects_a_worker_count(self):
        with pytest.raises(ValueError, match="worker"):
            run_suite("kernels", workers=2)

    def test_rejects_nonpositive_repeats(self):
        with pytest.raises(ValueError, match="repeats"):
            run_suite("kernels", repeats=0)


class TestRecording:
    @pytest.fixture(scope="class")
    def record(self):
        return run_suite("kernels", repeats=1, methods=["NFC"])

    def test_one_entry_per_config(self, record):
        assert record.suite == "kernels"
        assert [e.method for e in record.entries] == ["NFC"] * len(KERNELS_CONFIGS)
        assert [e.x for e in record.entries] == [
            float(config.n_c) for config in KERNELS_CONFIGS
        ]

    def test_entries_carry_gated_and_advisory_metrics(self, record):
        for entry in record.entries:
            for metric in DETERMINISTIC_METRICS:
                assert entry.metrics[metric] >= 0
            assert (
                entry.metrics["index_reads"] + entry.metrics["data_reads"]
                == entry.metrics["io_total"]
            )
            assert entry.metrics["elapsed_s"] > 0
            assert entry.metrics["scalar_elapsed_s"] > 0
            assert entry.metrics["speedup"] > 0
            assert entry.io_breakdown
            assert sum(entry.io_breakdown.values()) == entry.metrics["io_total"]
            assert len(entry.elapsed_samples) == 1


class TestCommittedRecord:
    @pytest.fixture(scope="class")
    def committed(self):
        path = REPO_ROOT / "BENCH_kernels.json"
        assert path.exists(), "the kernels baseline must be committed"
        return json.loads(path.read_text())

    def test_covers_every_config_and_method(self, committed):
        keys = {(e["config"], e["method"]) for e in committed["entries"]}
        assert len(keys) == len(committed["entries"])
        methods = {m for __, m in keys}
        assert methods == {"SS", "QVC", "NFC", "MND"}
        assert len({c for c, __ in keys}) == len(KERNELS_CONFIGS)

    def test_ss_and_mnd_meet_the_speedup_target(self, committed):
        """The acceptance claim: the columnar fast path buys at least
        ``TARGET_SPEEDUP`` on every SS and MND ladder point."""
        rows = [
            e for e in committed["entries"] if e["method"] in ("SS", "MND")
        ]
        assert len(rows) == 2 * len(KERNELS_CONFIGS)
        for entry in rows:
            assert entry["metrics"]["speedup"] >= TARGET_SPEEDUP, (
                entry["config"],
                entry["method"],
            )
