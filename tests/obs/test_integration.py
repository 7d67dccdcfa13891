"""End-to-end observability: queries, storage, runner and CLI.

The load-bearing invariant (also asserted by the CI smoke benchmark):
for every query method, the page reads attributed to spans sum exactly
to the workspace ``IOStats`` total — no I/O escapes attribution and
none is double-counted.
"""

from __future__ import annotations

import pytest

from repro.cli import main as cli_main
from repro.core import METHODS, Workspace, make_selector
from repro.core.diskmode import DiskWorkspace, persist_indexes
from repro.datasets import make_instance
from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import run_config
from repro.obs import (
    NOOP_TRACER,
    InMemorySink,
    REGISTRY,
    Tracer,
    phase_breakdown,
)
from repro.storage.blockfile import BlockFile
from repro.storage.pager import Pager
from repro.storage.records import POINT_RECORD
from repro.storage.stats import IOStats


@pytest.fixture(scope="module")
def ws() -> Workspace:
    return Workspace(make_instance(n_c=2_000, n_f=100, n_p=100, rng=11))


@pytest.fixture(scope="module")
def served(tmp_path_factory):
    """Two potential blocks (n_p = 300), in memory and on a mapped disk
    workspace."""
    mem = Workspace(make_instance(n_c=2_000, n_f=100, n_p=300, rng=11))
    directory = tmp_path_factory.mktemp("served")
    with DiskWorkspace(persist_indexes(mem, directory), mapped=True) as disk:
        yield {"memory": mem, "disk": disk}


def _profiled_select(ws: Workspace, method: str):
    selector = make_selector(ws, method)
    selector.prepare()
    sink = InMemorySink()
    ws.attach_tracer(Tracer([sink]))
    try:
        result = selector.select()
    finally:
        ws.detach_tracer()
    return result, sink.last


class TestQueryAttribution:
    @pytest.mark.parametrize("method", sorted(METHODS))
    def test_phase_reads_sum_to_io_total(self, ws, method):
        result, root = _profiled_select(ws, method)
        assert root is not None
        assert root.name == f"query.{method}"
        assert root.total_reads == result.io_total
        rows = phase_breakdown(root)
        assert sum(r["page_reads"] for r in rows.values()) == result.io_total

    @pytest.mark.parametrize("method", sorted(METHODS))
    def test_per_structure_reads_match_iostats(self, ws, method):
        result, root = _profiled_select(ws, method)
        by_source: dict[str, int] = {}
        for span in root.walk():
            for source, pages in span.reads.items():
                by_source[source] = by_source.get(source, 0) + pages
        assert by_source == dict(result.io_reads)

    def test_profiling_does_not_change_the_answer(self, ws):
        baseline = make_selector(ws, "MND").select()
        profiled, root = _profiled_select(ws, "MND")
        assert profiled.location.sid == baseline.location.sid
        assert profiled.dr == pytest.approx(baseline.dr)
        assert profiled.io_total == baseline.io_total

    def test_leaf_branch_counters_sum_to_tree_reads(self, ws):
        result, root = _profiled_select(ws, "MND")
        leaf = branch = 0
        for span in root.walk():
            leaf += span.counters.get("reads.R_C^m.leaf", 0)
            branch += span.counters.get("reads.R_C^m.branch", 0)
        assert leaf + branch == result.io_reads.get("R_C^m", 0)
        assert leaf > 0 and branch > 0

    @pytest.mark.parametrize("backend", ["memory", "disk"])
    @pytest.mark.parametrize("method", sorted(METHODS))
    def test_every_tree_charge_reaches_every_counter(self, served, backend, method):
        """For every tree a select reads, the span leaf and branch counts
        add up to its reads; the registry's node and page reads advance
        by the select's tree reads and its ``io_total``."""
        node_reads = REGISTRY.counter("rtree.node_reads")
        page_reads = REGISTRY.counter("storage.page_reads")
        before = node_reads.value, page_reads.value
        result, root = _profiled_select(served[backend], method)
        trees = {
            name: reads
            for name, reads in result.io_reads.items()
            if not name.startswith("file.")
        }
        for name, reads in trees.items():
            kinds = [f"reads.{name}.leaf", f"reads.{name}.branch"]
            counted = sum(
                span.counters.get(k, 0) for span in root.walk() for k in kinds
            )
            assert counted == reads, name
        assert bool(trees) == (method != "SS")
        assert node_reads.value - before[0] == sum(trees.values())
        assert page_reads.value - before[1] == result.io_total

    def test_detach_restores_noop(self, ws):
        _profiled_select(ws, "NFC")
        assert ws.tracer is NOOP_TRACER
        assert ws.stats._tracer is None


class TestStorageAttribution:
    def test_pager_reads_attributed_under_nested_spans(self):
        """Block reads land on the span open when they are charged."""
        stats = IOStats()
        blocks = BlockFile("T", [(0.0, 0.0)] * 600, POINT_RECORD, stats)
        assert blocks.num_blocks == 3
        tracer = Tracer()
        stats.bind_tracer(tracer)
        with tracer.span("outer") as outer:
            blocks.read_block(0)
            with tracer.span("inner") as inner:
                blocks.read_block(1)
                blocks.read_block(2)
        assert outer.reads == {"T": 1}
        assert inner.reads == {"T": 2}
        assert outer.total_reads == stats.total_reads == 3

    def test_unbound_stats_still_count(self):
        stats = IOStats()
        BlockFile("T", ["x"], POINT_RECORD, stats).read_block(0)
        assert stats.total_reads == 1

    def test_binding_noop_tracer_unbinds(self):
        stats = IOStats()
        stats.bind_tracer(Tracer())
        assert stats._tracer is not None
        stats.bind_tracer(NOOP_TRACER)
        assert stats._tracer is None
        assert stats.tracer is NOOP_TRACER

    def test_pager_allocate_reports_registry(self):
        allocated = REGISTRY.counter("storage.pages_allocated")
        before = allocated.value
        pager = Pager("T", POINT_RECORD, IOStats())
        pager.allocate("x")
        pager.allocate("y")
        assert allocated.value - before == 2


class TestRunnerIntegration:
    def test_run_config_attaches_phase_breakdowns(self):
        config = ExperimentConfig(n_c=1_500, n_f=80, n_p=80)
        runs = run_config(config, methods=("SS", "MND"))
        assert [r.method for r in runs] == ["SS", "MND"]
        for run in runs:
            assert run.phases, f"{run.method} has no phase rows"
            assert run.phase_reads() == run.io_total

    def test_run_config_profile_off(self):
        config = ExperimentConfig(n_c=1_500, n_f=80, n_p=80)
        runs = run_config(config, methods=("MND",), profile=False)
        assert runs[0].phases == {}
        assert runs[0].phase_reads() == 0
        assert runs[0].io_total > 0


class TestProfileCli:
    def test_profile_single_method(self, capsys):
        rc = cli_main(["profile", "--random", "1500", "80", "80", "--method", "MND"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "query.MND" in out
        assert "attributed across phases" in out
        assert "WARNING" not in out

    def test_profile_all_methods_and_jsonl(self, capsys, tmp_path):
        from repro.obs import read_jsonl

        path = tmp_path / "spans.jsonl"
        rc = cli_main(
            [
                "profile",
                "--random",
                "1500",
                "80",
                "80",
                "--method",
                "all",
                "--jsonl",
                str(path),
            ]
        )
        out = capsys.readouterr().out
        assert rc == 0
        for method in METHODS:
            assert f"query.{method}" in out
        roots = read_jsonl(path)
        assert sorted(r.name for r in roots) == sorted(f"query.{m}" for m in METHODS)
