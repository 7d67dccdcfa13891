"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload scan-100k --seed 1 --seconds 10 --trace 0

Run from the repository root.  The query service runs in a child
process (``child.py``) built from inputs generated from ``--seed``, and
is driven over TCP.  With ``--trace 0`` the last line of standard
output is ``{"correct", "attempted", "failed", "metrics"}`` holding
every end-to-end metric; with ``--trace 1`` it holds every per-layer
metric instead, from a traced pass that follows an untraced pass of the
same seed (their throughput ratio is the tracing overhead).  The line
before it is the full report: sample counts and tail percentiles
beside each metric, per-operation latencies, failures by code, and the
layer metrics only some workloads exercise.  A wrong answer prints
``"correct": false`` with no metrics and exits 1; a benchmark that
cannot run exits 2 without a result line.  A traced run writes its
spans, driver and server, to ``.perfbench/trace-<workload>.jsonl``.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
#: Server children spawned per measured run; ``setup_s`` is their median.
SETUP_REPEATS = 3


def drive(server, workload, seed: int, points, seconds: float, recorder=None):
    """Run the workload's closed loop against a live server child."""
    from workloads import Conn, run_churn, run_scan, run_wire

    conns = [
        Conn(server.connect(), f"c{i}", recorder) for i in range(workload.connections)
    ]
    if workload.kind == "disk":
        return run_scan(conns[0], seconds)
    if workload.connections > 1:
        return run_wire(conns, workload, seed, points, seconds)
    return run_churn(conns[0], workload, seed, points, seconds)


def check(workload, log, points, serve_dir: Path) -> list[str]:
    from check import check_final, check_scan, rebuild_reference, scan_reference
    from workloads import METHODS

    if workload.kind == "disk":
        reference = scan_reference(serve_dir / "persisted", METHODS)
        return check_scan(log.window + log.probes, reference)
    reference = rebuild_reference(points, log.mutations)
    return check_final(log.final_answers(), reference, METHODS)


def measured(workload, seed: int, seconds: float, work: Path, points_path, points):
    """The untraced run: end-to-end metrics."""
    from metrics import by_op, end_to_end
    from serverproc import ServerProcess

    setup_times = []
    for i in range(SETUP_REPEATS - 1):
        spare = ServerProcess(ROOT, workload.kind, points_path, work / f"spare{i}")
        setup_times.append(spare.setup_s)
        spare.stop()
        shutil.rmtree(work / f"spare{i}")
    server = ServerProcess(ROOT, workload.kind, points_path, work / "serve")
    setup_times.append(server.setup_s)
    try:
        log = drive(server, workload, seed, points, seconds)
        rss = server.peak_rss_mib()
    except BaseException:
        server.kill()
        raise
    server.stop()
    problems = check(workload, log, points, work / "serve")
    if problems:
        return log, problems, {"metrics": {}}
    report = {
        "metrics": end_to_end(log, setup_times, rss),
        "by_op": by_op(log),
    }
    return log, problems, report


def traced(workload, seed: int, seconds: float, work: Path, points_path, points):
    """The traced run: an untraced pass, then a traced one, same seed."""
    import spans
    from serverproc import ServerProcess

    plain = ServerProcess(ROOT, workload.kind, points_path, work / "plain")
    try:
        base = drive(plain, workload, seed, points, seconds)
    except BaseException:
        plain.kill()
        raise
    plain.stop()
    shutil.rmtree(work / "plain")

    recorder = spans.Recorder()
    spans.install_driver(recorder)
    server = ServerProcess(ROOT, workload.kind, points_path, work / "serve", trace=True)
    out_path = ROOT / ".perfbench" / f"trace-{workload.name}.jsonl"
    try:
        stats = server.connect()
        before = stats.stats(prefix="leafcache.")["counters"]
        log = drive(server, workload, seed, points, seconds, recorder)
        after = stats.stats(prefix="leafcache.")["counters"]
    except BaseException:
        server.kill()
        raise
    server.stop(out_path)
    server_spans = spans.load_spans(out_path, "server")
    recorder.dump(out_path, "driver", append=True)
    problems = check(workload, log, points, work / "serve")
    if problems:
        return log, problems, {"metrics": {}}

    leafcache = {
        k: after.get(f"leafcache.{k}", 0) - before.get(f"leafcache.{k}", 0)
        for k in ("hits", "misses")
    }
    totals = {**spans.layer_totals(recorder.spans), **spans.layer_totals(server_spans)}
    per_layer, extras = spans.layer_metrics(totals, log, server.setup, leafcache)
    ops = sum(op.ok for op in log.window) / log.window_s
    base_ops = sum(op.ok for op in base.window) / base.window_s
    per_layer["trace.overhead_ratio"] = base_ops / ops
    per_layer["trace.coverage"] = spans.coverage(recorder.spans, server_spans)
    report = {
        "metrics": {
            name: {"value": value, "unit": spans.PER_LAYER[name]}
            for name, value in per_layer.items()
        },
        "extras": extras,
        "spans": str(out_path.relative_to(ROOT)),
        "span_count": len(recorder.spans) + len(server_spans),
    }
    return log, problems, report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Run one benchmark workload.")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no program sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    import numpy as np

    from serverproc import BenchError
    from workloads import WORKLOADS, generate_points

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    work = ROOT / ".perfbench" / f"work-{workload.name}-{args.seed}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        points = generate_points(workload, args.seed)
        points_path = work / "points.npz"
        np.savez(points_path, **points)
        run = traced if args.trace else measured
        log, problems, report = run(
            workload, args.seed, args.seconds, work, points_path, points
        )
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work, ignore_errors=True)

    ops = log.window + log.probes
    report.update(
        {
            "workload": workload.name,
            "seed": args.seed,
            "seconds": args.seconds,
            "trace": args.trace,
            "correct": not problems,
            "problems": problems,
        }
    )
    print(json.dumps(report))
    print(
        json.dumps(
            {
                "correct": not problems,
                "attempted": len(ops),
                "failed": sum(not op.ok for op in ops),
                "metrics": {
                    name: {"value": m["value"], "unit": m["unit"]}
                    for name, m in report["metrics"].items()
                },
            }
        )
    )
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
