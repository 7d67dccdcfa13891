"""Suite registry and the recorder (run_suite)."""

from __future__ import annotations

import pytest

from repro.bench import SUITES, get_suite, run_suite, suite_names
from repro.bench.record import DETERMINISTIC_METRICS, SCHEMA_VERSION
from repro.bench.suites import SMOKE_CONFIG


class TestRegistry:
    def test_required_suites_exist(self):
        for name in ("smoke", "micro", "fig10", "fig11", "fig12"):
            assert name in SUITES
        assert suite_names() == sorted(SUITES)

    def test_unknown_suite_raises_with_choices(self):
        with pytest.raises(ValueError, match="micro"):
            get_suite("nope")

    def test_smoke_suite_wraps_the_ci_smoke_config(self):
        suite = get_suite("smoke")
        assert suite.configs == ((None, SMOKE_CONFIG),)
        assert suite.methods == ("SS", "QVC", "NFC", "MND")

    def test_sweep_suites_vary_their_parameter(self):
        suite = get_suite("fig10")
        n_cs = [config.n_c for _, config in suite.configs]
        assert len(set(n_cs)) == len(n_cs)  # strictly varying |C|
        assert [x for x, _ in suite.configs] == [float(n) for n in n_cs]
        # The other cardinalities stay fixed across the sweep.
        assert len({config.n_f for _, config in suite.configs}) == 1

    def test_suites_share_one_dataset_seed(self):
        for name in suite_names():
            assert SUITES[name].seed() is not None


class TestRunSuite:
    def test_micro_record_shape(self, micro_record):
        assert micro_record.schema_version == SCHEMA_VERSION
        assert micro_record.suite == "micro"
        assert micro_record.repeats == 2
        assert micro_record.methods() == ["SS", "QVC", "NFC", "MND"]
        for entry in micro_record.entries:
            for metric in DETERMINISTIC_METRICS:
                assert metric in entry.metrics
            assert entry.metrics["index_reads"] + entry.metrics[
                "data_reads"
            ] == pytest.approx(entry.metrics["io_total"])
            assert entry.phases  # profiled: phase breakdown present
            assert len(entry.elapsed_samples) == 2

    def test_environment_fingerprint_recorded(self, micro_record):
        env = micro_record.environment
        assert env["dataset_seed"] == 20120401
        assert env["git_sha"]
        assert env["page_size"] > 0

    def test_deterministic_io_across_recordings(self, micro_record):
        again = run_suite("micro", repeats=1)
        assert {e.key: e.metrics["io_total"] for e in again.entries} == {
            e.key: e.metrics["io_total"] for e in micro_record.entries
        }

    def test_method_subset_and_progress(self):
        lines: list[str] = []
        record = run_suite(
            "micro", repeats=1, methods=("SS", "MND"), progress=lines.append
        )
        assert record.methods() == ["SS", "MND"]
        assert lines and "running" in lines[0]

    def test_invalid_repeats_rejected(self):
        with pytest.raises(ValueError):
            run_suite("micro", repeats=0)
