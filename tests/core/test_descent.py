"""The mechanism the level-synchronous descent's speed rests on.

On ``uniform-20k-seed1`` (``tests/core/test_answer_bits.py``), in memory
and on disk, through a one-worker :class:`~repro.exec.QueryEngine` as
the service runs it:

* NFC and MND plan exactly one join task;
* a join select makes at most ``max(height_P, height_C) - 1``
  rectangle-kernel calls, one a level, and a window task at most
  ``height(R_C) - 1``;
* ``TreeReads.charge`` runs at most once per tree and level, plus the
  root read.

The kernels are counted where every caller reads them, at
``repro.kernels.<fn>`` (as the benchmark's traced run wraps them).
"""

from __future__ import annotations

from collections import Counter

import pytest

from repro import kernels
from repro.core import QuasiVoronoiCell, Workspace
from repro.core.diskmode import DiskWorkspace, persist_indexes
from repro.datasets.generators import make_instance
from repro.exec import QueryEngine
from repro.rtree.rtree import TreeReads

RECT_KERNELS = (
    "min_dist_rects_rect",
    "pairwise_min_dist_rects",
    "rect_intersect_matrix",
    "rects_intersect_rect",
)


@pytest.fixture(scope="module", params=["memory", "disk"])
def ws(request, tmp_path_factory):
    memory = Workspace(make_instance(20000, 300, 200, rng=1))
    if request.param == "memory":
        yield memory
        return
    persisted = persist_indexes(memory, tmp_path_factory.mktemp("disk"))
    with DiskWorkspace(persisted) as disk:
        yield disk


class Spy:
    """Rectangle-kernel calls, charges per tree, and planned task counts."""

    def __init__(self, monkeypatch):
        self.kernel_calls = 0
        self.charges: Counter[str] = Counter()
        self.planned: list[tuple[str, int]] = []
        for name in RECT_KERNELS:
            monkeypatch.setattr(kernels, name, self._counted(getattr(kernels, name)))
        charge, run_tasks = TreeReads.charge, QueryEngine._run_tasks

        def counted_charge(tree, node_ids, stats=None):
            self.charges[tree.name] += 1
            return charge(tree, node_ids, stats)

        def planned_tasks(engine, selector, index, stage, tasks, *args):
            self.planned.append((stage.name, len(tasks)))
            return run_tasks(engine, selector, index, stage, tasks, *args)

        monkeypatch.setattr(TreeReads, "charge", counted_charge)
        monkeypatch.setattr(QueryEngine, "_run_tasks", planned_tasks)

    def _counted(self, fn):
        def counted(*args, **kwargs):
            self.kernel_calls += 1
            return fn(*args, **kwargs)

        return counted


@pytest.mark.parametrize("method", ["NFC", "MND"])
def test_a_join_is_one_task_one_kernel_call_and_charge_a_level(
    ws, method, monkeypatch
):
    tree_c = ws.rnn_tree if method == "NFC" else ws.mnd_tree
    levels = max(ws.r_p.height, tree_c.height) - 1
    spy = Spy(monkeypatch)
    with QueryEngine(ws, workers=1) as engine:
        engine.run(method)
    assert spy.planned == [(f"{method.lower()}.join", 1)]
    assert 1 <= spy.kernel_calls <= levels
    assert set(spy.charges) == {ws.r_p.name, tree_c.name}
    assert max(spy.charges.values()) <= levels + 1


def test_a_window_task_makes_one_kernel_call_and_charge_a_level(ws, monkeypatch):
    spy = Spy(monkeypatch)
    per_task = []
    run_window_task = QuasiVoronoiCell.run_window_task

    def measured(selector, task, stats):
        before = spy.kernel_calls, spy.charges[ws.r_c.name]
        out = run_window_task(selector, task, stats)
        after = spy.kernel_calls, spy.charges[ws.r_c.name]
        per_task.append((after[0] - before[0], after[1] - before[1]))
        return out

    monkeypatch.setattr(QuasiVoronoiCell, "run_window_task", measured)
    with QueryEngine(ws, workers=1) as engine:
        engine.run("QVC")
    height = ws.r_c.height
    assert per_task
    for calls, charges in per_task:
        assert 1 <= calls <= height - 1
        assert charges <= height
