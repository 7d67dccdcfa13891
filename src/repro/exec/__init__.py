"""Parallel batched query execution with deterministic I/O accounting.

The serial methods in :mod:`repro.core` expose their traversals as
plan/kernel/reduce stages (:class:`~repro.core.plan.StageSpec`); this
package schedules those stages' tasks on thread or process pools while
keeping every reported number — the selected location, the ``dr``
vector, ``io_total`` and its per-structure split — **byte-identical to
the serial run at any worker count**.  See :mod:`repro.exec.engine` for
the determinism argument and DESIGN.md's execution-engine section for
the full design.

Quick usage::

    from repro.exec import QueryEngine, run_batch

    with QueryEngine(ws, workers=4, realize_latency=True) as engine:
        result = engine.run("MND")

    results = run_batch(ws, ["SS", "QVC", "NFC", "MND"], workers=4)
"""

from repro.exec.engine import QueryEngine, run_batch, run_query

__all__ = ["QueryEngine", "run_batch", "run_query"]
