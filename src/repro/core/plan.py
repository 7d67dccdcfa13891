"""The task-splittable execution protocol of the query methods.

Each method exposes its traversal as a list of :class:`StageSpec`
stages.  A stage is planned on the driver (``plan`` charges the reads
the serial code performs *before* fanning out — potential-file blocks,
join roots, the join levels expanded before the cut) and cut into at
most ``task_target`` contiguous tasks by one rule
(:func:`~repro.rtree.descent.split_bounds`, over a join's frontier rows
or, by :func:`block_tasks`, over SS's and QVC's whole potential
blocks), executed as independent tasks (the ``kernel`` selector method,
which charges every deeper read to a task-private
:class:`~repro.storage.stats.IOStats`), and folded back in task order
(``reduce``, which also threads a carry value between stages — QVC's
AIR columns feed its window stage).

The contract that keeps results byte-identical at any worker count:

* **task lists are deterministic** — planning depends only on the
  workspace and the selector's ``task_target``, never on timing;
* **kernels are pure** w.r.t. shared state — they write only their own
  partials and charge only their own stats;
* **dr is exact** — a task returns the ``dr`` terms of the influencing
  pairs it found, with their potential ids, and :func:`reduce_terms`
  rounds each potential's terms once, to their correctly rounded sum
  (:func:`repro.kernels.exact_sums`).  That sum depends on the terms
  alone, so no split of the traversal into tasks, order of their
  outputs or worker count moves a bit;
* **I/O is placement-invariant** — each read of the serial traversal
  is charged once, by the driver or by the task that makes it: moving
  a level between driver and tasks never creates or removes a charge,
  so merged totals equal serial totals exactly.

Kernels are referenced by *method name* (a string) so a process pool
can look them up on its own unpickled selector instead of pickling
bound methods.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Optional

import numpy as np

from repro import kernels
from repro.rtree.descent import split_bounds
from repro.storage.stats import IOStats

__all__ = ["NO_TERMS", "StageSpec", "block_rows", "block_tasks", "reduce_terms"]


@dataclass(frozen=True)
class StageSpec:
    """One stage of a method's parallel execution plan.

    ``plan(stats, carry) -> list[task]`` runs on the driver; tasks must
    be plain picklable data (node ids, coordinates, offsets).
    ``kernel`` names a selector method ``(task, stats) -> out``.
    ``reduce(outs, dr) -> carry`` folds task outputs (in task order)
    into the shared ``dr`` vector and returns the next stage's carry.
    """

    name: str
    plan: Callable[[Any, Any], list]
    kernel: str
    reduce: Optional[Callable[[list, Any], Any]] = None


#: The ``(potential ids, terms)`` of a task without an influencing pair.
NO_TERMS = (np.zeros(0, dtype=np.intp), np.zeros(0))


def reduce_terms(outs: list[tuple[np.ndarray, np.ndarray]], dr: np.ndarray) -> None:
    """Add each potential's correctly rounded sum of the tasks'
    ``(potential ids, terms)`` outputs into ``dr`` (zeros on entry)."""
    if outs:
        ids, terms = (np.concatenate(parts) for parts in zip(*outs))
        dr += kernels.exact_sums(ids, terms, len(dr))


def block_tasks(blocks: Any, stats: IOStats, parts: int) -> list[tuple[int, int, int]]:
    """Read every block of ``blocks`` (a potential file), charged in
    block order, and cut them into ``min(parts, num_blocks)`` contiguous
    groups of whole blocks (:func:`~repro.rtree.descent.split_bounds`,
    the joins' rule): one ``(first block, end block, first row)`` task
    per group."""
    sizes = [len(blocks.read_block(b, stats=stats)) for b in range(blocks.num_blocks)]
    offsets = np.cumsum([0] + sizes).tolist()
    bounds = split_bounds(len(sizes), parts).tolist()
    return [(lo, hi, offsets[lo]) for lo, hi in zip(bounds, bounds[1:])]


def block_rows(blocks: Any, task: tuple[int, int, int]) -> tuple[np.ndarray, ...]:
    """A :func:`block_tasks` group's rows, fetched uncharged (the plan
    charged them): their potential ids, ``x`` and ``y`` columns and
    block numbers."""
    lo, hi, first = task
    parts = [blocks.peek_block(b) for b in range(lo, hi)]
    xs, ys = (
        np.concatenate([np.asarray(part[:, k], dtype=np.float64) for part in parts])
        for k in (0, 1)
    )
    block = np.repeat(np.arange(lo, hi), [len(part) for part in parts])
    return first + np.arange(len(xs)), xs, ys, block
