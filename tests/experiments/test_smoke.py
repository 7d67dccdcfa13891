"""Smoke checks on a Fig.-10-shaped run (CI: ``pytest -m smoke tests/experiments``).

One profiled run of all four methods on :data:`~repro.bench.suites.SMOKE_CONFIG`,
the smallest client-size configuration where the paper's regime holds,
and the three invariants CI keeps honest:

* **paper ordering** — MND performs fewer page reads than the SS
  baseline (the paper's headline comparison; at very small scales the
  ordering genuinely inverts);
* **instrumentation consistency** — every method's per-phase page-read
  attribution sums exactly to its ``IOStats`` total, so a silent
  tracing regression cannot creep in;
* **agreement** — all methods return the same optimum.
"""

from __future__ import annotations

import pytest

from repro.bench.suites import SMOKE_CONFIG, check_phase_attribution
from repro.experiments.runner import DEFAULT_METHODS, run_config

pytestmark = pytest.mark.smoke


@pytest.fixture(scope="module")
def runs():
    return {run.method: run for run in run_config(SMOKE_CONFIG, DEFAULT_METHODS)}


def test_mnd_reads_fewer_pages_than_ss(runs):
    assert runs["MND"].io_total < runs["SS"].io_total


def test_phase_reads_sum_to_io_total(runs):
    check_phase_attribution(list(runs.values()))
    assert all(run.phases for run in runs.values())


def test_all_methods_agree(runs):
    assert sorted(runs) == sorted(DEFAULT_METHODS)
    assert len({run.location_id for run in runs.values()}) == 1
    drs = [run.dr for run in runs.values()]
    assert max(drs) - min(drs) <= 1e-6 * max(1.0, max(drs))
