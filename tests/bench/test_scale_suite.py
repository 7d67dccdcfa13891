"""The ``scale`` suite: registry wiring, a tiny-rung run with full
parity enforcement, the committed record's coverage, subset-mode
comparison, and the ``--rungs`` / ``--subset`` CLI surface.

The real ladder (100K/500K/1M clients) takes minutes; the recording
test here runs one tiny rung through the whole path — persist, the
mmap-served disk workspace, serial and engine-parallel parity checks,
record shape — in about a second.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.bench import (
    SCALE_RUNGS,
    BenchRecord,
    compare_records,
    get_suite,
    run_suite,
)
from repro.bench.scale import _check_parity, config_for_rung, run_scale_suite
from repro.cli import main

REPO_ROOT = Path(__file__).resolve().parents[2]

TINY_RUNG = 400


@pytest.fixture(scope="module")
def tiny_record() -> BenchRecord:
    """One full recording pass at a tiny rung (all methods, serial +
    engine parity enforced by the runner itself)."""
    return run_scale_suite(repeats=1, rungs=[TINY_RUNG])


class TestRegistry:
    def test_scale_suite_is_registered(self):
        suite = get_suite("scale")
        assert suite.runner is not None
        assert suite.configs == tuple(
            (float(n), config_for_rung(n)) for n in SCALE_RUNGS
        )

    def test_rejects_a_worker_count(self):
        with pytest.raises(ValueError, match="worker"):
            run_suite("scale", workers=2)

    def test_rejects_bad_rungs(self):
        with pytest.raises(ValueError, match="rung"):
            run_scale_suite(rungs=[])
        with pytest.raises(ValueError, match="rung"):
            run_scale_suite(rungs=[0])

    def test_rungs_rejected_for_other_suites(self):
        with pytest.raises(ValueError, match="rung ladder"):
            run_suite("micro", rungs=[100])


class TestRecording:
    def test_one_entry_per_method(self, tiny_record):
        assert tiny_record.suite == "scale"
        label = config_for_rung(TINY_RUNG).label()
        keys = [(e.config, e.method) for e in tiny_record.entries]
        assert keys == [(label, method) for method in ("SS", "QVC", "NFC", "MND")]
        assert all(e.x == float(TINY_RUNG) for e in tiny_record.entries)

    def test_parity_check_rejects_a_divergent_result(self):
        """The recorder's exactness gate can fail: one page off raises."""
        from dataclasses import replace

        from repro.core import Workspace, make_selector

        workspace = Workspace(config_for_rung(TINY_RUNG).instance())
        reference = make_selector(workspace, "MND").select()
        _check_parity("tiny", "MND", "serial", reference, None, reference, None)
        off_by_one = replace(reference, io_total=reference.io_total + 1)
        with pytest.raises(AssertionError, match="io_total"):
            _check_parity("tiny", "MND", "serial", off_by_one, None, reference, None)

    def test_entries_carry_consistent_io_split(self, tiny_record):
        for entry in tiny_record.entries:
            assert (
                entry.metrics["index_reads"] + entry.metrics["data_reads"]
                == entry.metrics["io_total"]
            )
            assert sum(entry.io_breakdown.values()) == entry.metrics["io_total"]
            assert entry.metrics["elapsed_s"] > 0


class TestSubsetCompare:
    def test_missing_rows_gate_unless_subset(self, tiny_record):
        current = BenchRecord.loads(tiny_record.dumps())
        current.entries = [e for e in current.entries if e.method == "NFC"]
        strict = compare_records(tiny_record, current)
        assert not strict.ok()
        assert any(v.status == "missing" and v.gating for v in strict.verdicts)
        loose = compare_records(tiny_record, current, subset=True)
        assert loose.ok()
        assert any(
            v.status == "missing" and not v.gating for v in loose.verdicts
        )


class TestCommittedRecord:
    @pytest.fixture(scope="class")
    def committed(self):
        path = REPO_ROOT / "BENCH_scale.json"
        assert path.exists(), "the scale baseline must be committed"
        return json.loads(path.read_text())

    def test_covers_the_full_ladder(self, committed):
        keys = [(e["config"], e["method"]) for e in committed["entries"]]
        assert sorted(keys) == sorted(
            (config_for_rung(n).label(), method)
            for n in SCALE_RUNGS
            for method in ("SS", "QVC", "NFC", "MND")
        )


class TestCLI:
    def test_run_with_rungs_and_subset_compare(self, tmp_path, capsys):
        out = tmp_path / "BENCH_scale.json"
        code = main(
            [
                "bench", "run", "scale",
                "--rungs", str(TINY_RUNG),
                "--repeats", "1",
                "--methods", "NFC",
                "--out", str(out),
                "--history", str(tmp_path / "h.jsonl"),
                "--no-history",
            ]
        )
        assert code == 0
        record = BenchRecord.read(out)
        assert [e.method for e in record.entries] == ["NFC"]
        capsys.readouterr()

        # Strict compare against a fuller baseline fails on the missing
        # methods; --subset gates only the rows the current run has.
        baseline = tmp_path / "baseline.json"
        fuller = run_scale_suite(repeats=1, rungs=[TINY_RUNG], methods=["NFC", "MND"])
        fuller.write(baseline)
        strict = main(["bench", "compare", str(baseline), "--current", str(out)])
        assert strict == 1
        capsys.readouterr()
        loose = main(
            ["bench", "compare", str(baseline), "--current", str(out), "--subset"]
        )
        assert loose == 0

    def test_rungs_rejected_for_other_suites(self, tmp_path, capsys):
        with pytest.raises(ValueError, match="rung ladder"):
            main(
                [
                    "bench", "run", "micro",
                    "--rungs", "100",
                    "--out", str(tmp_path / "x.json"),
                ]
            )
        capsys.readouterr()
