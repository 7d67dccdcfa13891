"""The benchmark's own checks: exact counts repeat, the seed drives the
inputs, and the answer check can fail.

    python3 -m pytest perfbench/tests -q

Runs use small point counts and short windows; the workloads keep their
kind (persisted mmap scan, single-connection churn) and request streams.
"""

from __future__ import annotations

import dataclasses
import json
import struct
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import run  # noqa: E402
from check import DR_RTOL, check_final, check_scan, rebuild_reference, replay  # noqa: E402
from metrics import END_TO_END  # noqa: E402
from spans import PER_LAYER  # noqa: E402
from workloads import (  # noqa: E402
    CHURN_MIX,
    METHODS,
    WORKLOADS,
    Op,
    churn_plan,
    generate_points,
    stream_rng,
)

from repro.core import Workspace, make_selector  # noqa: E402


def small(name: str):
    return dataclasses.replace(WORKLOADS[name], n_c=3_000, n_f=150, n_p=100)


def flip(value: float, bit: int) -> float:
    """``value`` with one bit of its IEEE-754 encoding flipped."""
    (raw,) = struct.unpack("<Q", struct.pack("<d", value))
    (out,) = struct.unpack("<d", struct.pack("<Q", raw ^ (1 << bit)))
    return out


def served(result) -> Op:
    """A successful uncached select carrying ``result``'s answer."""
    return Op(
        "cold",
        0.0,
        0.0,
        result.method,
        result={
            "location": {"sid": result.location.sid},
            "dr": result.dr,
            "io_total": result.io_total,
        },
    )


@pytest.mark.parametrize("name", ["scan-100k", "churn-100k"])
def test_same_seed_repeats_exact_counts(name, tmp_path):
    workload = small(name)
    points = generate_points(workload, 5)
    points_path = tmp_path / "points.npz"
    np.savez(points_path, **points)
    counts = []
    for attempt in range(2):
        work = tmp_path / f"run{attempt}"
        log, problems, report = run.measured(
            workload, 5, 0.5, work, points_path, points
        )
        assert problems == []
        assert all(op.ok for op in log.window + log.probes)
        counts.append(
            {k: report["metrics"][k]["value"] for k in ("pages_per_select", "index_pages")}
        )
    assert counts[0] == counts[1]
    assert counts[0]["pages_per_select"] > 0 and counts[0]["index_pages"] > 0


def test_benchmark_json_lists_the_reported_metrics():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)


def test_churn_plan_keeps_the_mix_on_every_seed():
    plans = [churn_plan(300, stream_rng(WORKLOADS["churn-100k"], s, 0)) for s in (1, 2)]
    assert plans[0] != plans[1]
    assert Counter(plans[0]) == Counter(plans[1])
    assert Counter(plans[0]) == {
        action: round(share * 300) for action, share in CHURN_MIX.items()
    }


def test_other_seed_gives_other_inputs():
    workload = WORKLOADS["wire-small"]
    one, again, other = (generate_points(workload, s) for s in (1, 1, 2))
    for key in ("clients", "facilities", "potentials"):
        assert np.array_equal(one[key], again[key])
        assert not np.array_equal(one[key], other[key])
    draws = [stream_rng(workload, s, 0).random() for s in (1, 1, 2)]
    assert draws[0] == draws[1] != draws[2]
    assert stream_rng(workload, 1, 0).random() != stream_rng(workload, 1, 1).random()


def test_scan_check_rejects_one_flipped_dr_bit():
    ws = Workspace(replay(generate_points(small("scan-100k"), 3), []))
    results = {m: make_selector(ws, m).select() for m in METHODS}
    ops = [served(r) for r in results.values()]
    reference = {
        m: (r.location.sid, repr(r.dr), r.io_total) for m, r in results.items()
    }
    assert check_scan(ops, reference) == []
    sid, dr, io_total = reference["MND"]
    reference["MND"] = (sid, repr(flip(float(dr), 0)), io_total)
    problems = check_scan(ops, reference)
    assert problems and all(p.startswith("MND:") for p in problems)


def test_final_check_rejects_a_flipped_dr_bit_beyond_tolerance():
    points = generate_points(small("churn-100k"), 3)
    sid, dr = rebuild_reference(points, [])
    ws = Workspace(replay(points, []))
    answers = {m: served(make_selector(ws, m).select()) for m in METHODS}
    assert check_final(answers, (sid, dr), METHODS) == []
    # Bit 32 of the mantissa moves dr by 2**-20 of itself, far beyond
    # DR_RTOL; the lowest bit (2**-52) is within it by design, since tree
    # methods regroup the per-leaf float sums.
    assert abs(flip(dr, 32) - dr) > DR_RTOL * abs(dr)
    assert len(check_final(answers, (sid, flip(dr, 32)), METHODS)) == len(METHODS)
    assert check_final(answers, (sid, flip(dr, 0)), METHODS) == []
    assert len(check_final(answers, (sid + 1, dr), METHODS)) == len(METHODS)
