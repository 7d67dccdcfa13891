"""The execution engine's API surface and serial equivalence.

The determinism ladder (identical numbers at every worker count) lives
in test_determinism.py; here we pin the contract around it: engine
results at one worker are *exactly* the legacy ``select()`` numbers,
batches preserve order and leave shared counters untouched, and the
engine refuses invalid configurations.
"""

from __future__ import annotations

import pytest

from repro.core import METHODS, Workspace, make_selector
from repro.core.types import fingerprint
from repro.datasets.generators import make_instance
from repro.exec import QueryEngine, run_batch, run_query


@pytest.fixture(scope="module")
def ws(small_instance_module):
    return Workspace(small_instance_module)


@pytest.fixture(scope="module")
def small_instance_module():
    from repro.datasets.generators import make_instance

    return make_instance(n_c=800, n_f=40, n_p=60, rng=11)


class TestSerialEquivalence:
    @pytest.mark.parametrize("method", sorted(METHODS))
    def test_one_worker_matches_legacy_select(self, ws, method):
        legacy = fingerprint(make_selector(ws, method).select())
        with QueryEngine(ws, workers=1) as engine:
            engine_result = fingerprint(engine.run(method))
        assert engine_result == legacy

    def test_run_query_wrapper(self, ws):
        legacy = fingerprint(make_selector(ws, "MND").select())
        assert fingerprint(run_query(ws, "MND")) == legacy

    def test_accepts_prebuilt_selector(self, ws):
        selector = make_selector(ws, "NFC")
        with QueryEngine(ws, workers=2) as engine:
            result = engine.run(selector)
        assert fingerprint(result) == fingerprint(
            make_selector(ws, "NFC").select()
        )


class TestBatch:
    def test_results_in_input_order_with_private_accounting(self, ws):
        expected = {m: fingerprint(make_selector(ws, m).select()) for m in METHODS}
        queries = ["MND", "SS", "MND", "QVC", "NFC"]
        ws.reset_stats()
        results = run_batch(ws, queries, workers=4)
        assert [r.method for r in results] == queries
        for query, result in zip(queries, results):
            assert fingerprint(result) == expected[query]
        # Batch accounting is per-query; the workspace's shared counters
        # never observed the batch at all.
        assert ws.stats.total_reads == 0

    def test_batch_of_one(self, ws):
        (result,) = run_batch(ws, ["SS"], workers=2)
        assert fingerprint(result) == fingerprint(make_selector(ws, "SS").select())


class TestTraceTags:
    """Correlation tags thread through to every adopted span — and
    change nothing about the answers."""

    def _traced_ws(self, instance):
        from repro.obs import InMemorySink, Tracer

        ws = Workspace(instance)
        sink = InMemorySink()
        ws.attach_tracer(Tracer([sink]))
        return ws, sink

    @staticmethod
    def _walk(span):
        yield span
        for child in span.children:
            yield from TestTraceTags._walk(child)

    def test_run_tags_root_and_task_spans(self, small_instance_module):
        ws, sink = self._traced_ws(small_instance_module)
        with QueryEngine(ws, workers=2) as engine:
            result = engine.run("NFC", tags={"trace_id": "tag-1"})
        root = sink.last
        assert root.attrs == {"trace_id": "tag-1"}
        tagged = [
            s
            for s in self._walk(root)
            if s is not root and s.attrs.get("trace_id") == "tag-1"
        ]
        assert tagged  # adopted per-task spans carry the tag too
        assert result.method == "NFC"

    def test_run_batch_tags_align_per_query(self, small_instance_module):
        ws, sink = self._traced_ws(small_instance_module)
        with QueryEngine(ws, workers=2) as engine:
            engine.run_batch(
                ["MND", "SS"], tags=[{"trace_id": "a"}, None]
            )
        by_name = {root.name: root for root in sink.roots}
        assert by_name["query.MND"].attrs == {"trace_id": "a"}
        assert by_name["query.SS"].attrs == {}

    def test_run_batch_rejects_misaligned_tags(self, ws):
        with QueryEngine(ws, workers=2) as engine:
            with pytest.raises(ValueError, match="tags"):
                engine.run_batch(["MND", "SS"], tags=[{"trace_id": "a"}])

    def test_tags_do_not_change_answers(self, ws):
        with QueryEngine(ws, workers=1) as engine:
            plain = fingerprint(engine.run("MND"))
            tagged = fingerprint(engine.run("MND", tags={"trace_id": "x"}))
        assert plain == tagged


class TestDegenerateInputs:
    def test_empty_batch_returns_empty_list(self, ws):
        assert run_batch(ws, [], workers=2) == []

    def test_no_clients_selects_with_zero_reduction(self):
        """|C| = 0: nothing to improve, but every method must still
        answer (dr 0.0) instead of crashing inside the engine."""
        empty_c = Workspace(make_instance(n_c=0, n_f=5, n_p=8, rng=3))
        results = run_batch(empty_c, sorted(METHODS), workers=2)
        assert [r.method for r in results] == sorted(METHODS)
        for result in results:
            assert result.dr == 0.0
            assert result.location is not None

    def test_single_candidate_is_the_answer_for_every_method(self):
        """|P| = 1: the only candidate wins, with identical dr across
        methods (they differ in pruning, not in the answer)."""
        ws = Workspace(make_instance(n_c=100, n_f=5, n_p=1, rng=3))
        results = run_batch(ws, sorted(METHODS), workers=2)
        assert all(r.location.sid == 0 for r in results)
        # Methods accumulate the same reduction in different orders, so
        # cross-method agreement is approximate (within-method results
        # stay bit-identical — that is the determinism suite's job).
        for result in results[1:]:
            assert result.dr == pytest.approx(results[0].dr)

    def test_no_candidates_rejected_at_construction(self):
        """|P| = 0 has no answer at all; the workspace refuses early so
        the engine never sees it."""
        with pytest.raises(ValueError, match="potential"):
            Workspace(make_instance(n_c=100, n_f=5, n_p=0, rng=3))


class TestValidation:
    def test_rejects_bad_worker_counts(self, ws):
        with pytest.raises(ValueError, match="workers"):
            QueryEngine(ws, workers=0)

    def test_rejects_unknown_executors(self, ws):
        with pytest.raises(ValueError, match="executor"):
            QueryEngine(ws, workers=2, executor="greenlet")

    def test_rejects_bad_task_targets(self, ws):
        with pytest.raises(ValueError, match="task_target"):
            QueryEngine(ws, workers=2, task_target=0)

    def test_rejects_foreign_selectors(self, ws, small_instance_module):
        other = Workspace(small_instance_module)
        selector = make_selector(other, "MND")
        with QueryEngine(ws, workers=2) as engine:
            with pytest.raises(ValueError, match="workspace"):
                engine.run(selector)

    def test_close_is_idempotent(self, ws):
        engine = QueryEngine(ws, workers=2)
        engine.run("SS")
        engine.close()
        engine.close()
