"""Command-line interface.

Subcommands::

    mindist query    --clients c.csv --facilities f.csv --potentials p.csv
    mindist query    --random 10000 500 500 --method MND
    mindist compare  --random 5000 250 250
    mindist profile  --random 5000 250 250 --method MND
    mindist sweep    fig10 --scale 0.2 --csv out.csv --svg-dir figs/
    mindist plan     --random 5000 100 200 -k 5
    mindist close    --random 5000 100 1
    mindist evaluate --random 5000 100 50 --ids 0,1,2
    mindist simulate city --periods 6
    mindist simulate game --ticks 120
    mindist reproduce --out results/ --scale 0.2
    mindist bench run smoke --out BENCH_smoke.json
    mindist bench compare BENCH_smoke.json
    mindist bench report --last 20
    mindist serve    --random 10000 500 500 --port 7733
    mindist call     select --method MND --port 7733
    mindist call     stats --port 7733
    mindist loadgen  --mode both --report slo.md
    mindist loadgen  --host 127.0.0.1 --port 7733 --mode open --qps 300
    mindist shard    partition --random 10000 500 500 --tiles 4 --out tiles/
    mindist shard    serve tiles/ --shard-id 0 --shards 2 --port 7801
    mindist shard    serve tiles/ --coordinator --peer 127.0.0.1:7801 \
                     --peer 127.0.0.1:7802 --port 7733
    mindist shard    call select --method MND --port 7733

``query`` answers one min-dist location selection query; ``compare``
runs all four methods side by side; ``profile`` runs a query under the
observability tracer and prints the per-phase span tree (wall time,
page reads, counters); ``sweep`` reruns one of the paper's
figure experiments; ``plan`` selects k locations greedily; ``close``
finds the cheapest facility to shut down; ``evaluate`` reports what
specific candidates would achieve; ``simulate`` drives the motivating
application simulators; ``reproduce`` regenerates the *entire*
evaluation (tables, CSVs and SVG figures) in one call; ``bench``
records named benchmark suites, gates against committed baselines and
renders the performance trajectory (see :mod:`repro.bench`); ``serve``
runs the long-lived async query service, ``call`` issues one
request against it (see :mod:`repro.service`), ``loadgen`` drives it
with deterministic skewed traffic and reports SLOs (see
:mod:`repro.loadgen`) and ``shard`` partitions a dataset into tile
workspaces, serves them as a shard fleet and fronts the fleet with a
scatter-gather coordinator whose merged answers are byte-identical to
the unsharded reference (see :mod:`repro.shard`).
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional, Sequence

from repro.core import METHODS, Workspace, make_selector
from repro.datasets.generators import SpatialInstance, make_instance
from repro.datasets.io import load_points_csv
from repro.experiments import format_sweep, sweep_to_csv
from repro.experiments.sweeps import (
    client_size_sweep,
    facility_size_sweep,
    gaussian_sweep,
    potential_size_sweep,
    real_dataset_runs,
    zipfian_sweep,
)

_SWEEPS = {
    "fig10": client_size_sweep,
    "fig11": facility_size_sweep,
    "fig12": potential_size_sweep,
    "fig13": gaussian_sweep,
    "fig13b": zipfian_sweep,
    "fig14": real_dataset_runs,
}


def _instance_from_args(args: argparse.Namespace) -> SpatialInstance:
    if args.random is not None:
        n_c, n_f, n_p = args.random
        return make_instance(
            n_c, n_f, n_p, distribution=args.distribution, rng=args.seed
        )
    if not (args.clients and args.facilities and args.potentials):
        raise SystemExit(
            "either --random N_C N_F N_P or all of --clients/--facilities/"
            "--potentials CSV paths are required"
        )
    return SpatialInstance(
        name="cli",
        clients=load_points_csv(args.clients),
        facilities=load_points_csv(args.facilities),
        potentials=load_points_csv(args.potentials),
    )


def _add_worker_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--workers",
        type=int,
        default=1,
        help="parallel workers for query execution (results and I/O "
        "accounting are identical at any count)",
    )
    parser.add_argument(
        "--executor",
        default="thread",
        choices=["thread", "process"],
        help="worker pool kind when --workers > 1",
    )


def _add_instance_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--clients", help="CSV of client points (x,y)")
    parser.add_argument("--facilities", help="CSV of existing facility points")
    parser.add_argument("--potentials", help="CSV of potential locations")
    parser.add_argument(
        "--random",
        nargs=3,
        type=int,
        metavar=("N_C", "N_F", "N_P"),
        help="generate a random instance instead of reading CSVs",
    )
    parser.add_argument(
        "--distribution",
        default="uniform",
        choices=["uniform", "gaussian", "zipfian"],
    )
    parser.add_argument("--seed", type=int, default=7)


def _cmd_query(args: argparse.Namespace) -> int:
    ws = Workspace(_instance_from_args(args))
    if args.workers > 1:
        from repro.exec import run_query

        result = run_query(
            ws, args.method, workers=args.workers, executor=args.executor
        )
    else:
        result = make_selector(ws, args.method).select()
    print(
        f"best location: p{result.location.sid} at "
        f"({result.location.x:.4f}, {result.location.y:.4f})"
    )
    print(f"distance reduction: {result.dr:.4f}")
    print(
        f"method={result.method}  I/Os={result.io_total}  "
        f"time={result.elapsed_s:.4f}s (cpu {result.cpu_s:.4f}s)  "
        f"index={result.index_pages} pages"
    )
    return 0


def _cmd_profile(args: argparse.Namespace) -> int:
    from repro.obs import (
        InMemorySink,
        JsonLinesSink,
        Tracer,
        format_span_tree,
        phase_breakdown,
    )

    jsonl_sink = jsonl_stream = None
    if args.jsonl:
        try:
            jsonl_stream = open(args.jsonl, "a", encoding="utf-8")
        except OSError as exc:
            print(f"error: cannot open {args.jsonl}: {exc}", file=sys.stderr)
            return 2
        jsonl_sink = JsonLinesSink(jsonl_stream)
    ws = Workspace(_instance_from_args(args))
    methods = list(METHODS) if args.method == "all" else [args.method]
    status = 0
    try:
        for index, name in enumerate(methods):
            selector = make_selector(ws, name)
            selector.prepare()  # keep index construction out of the profile
            sink = InMemorySink()
            tracer = Tracer([sink])
            if jsonl_sink is not None:
                tracer.add_sink(jsonl_sink)
            ws.attach_tracer(tracer)
            try:
                if args.workers > 1:
                    from repro.exec import run_query

                    result = run_query(
                        ws, selector, workers=args.workers, executor=args.executor
                    )
                else:
                    result = selector.select()
            finally:
                ws.detach_tracer()
            root = sink.last
            if index:
                print()
            print(format_span_tree(root, show_counters=not args.no_counters))
            phase_reads = sum(
                row["page_reads"] for row in phase_breakdown(root).values()
            )
            print(
                f"{name}: best p{result.location.sid}  dr={result.dr:.4f}  "
                f"time={result.elapsed_s:.4f}s (cpu {result.cpu_s:.4f}s)"
            )
            print(
                f"{name}: {result.io_total} I/Os total; "
                f"{int(phase_reads)} attributed across phases"
            )
            if int(phase_reads) != result.io_total:
                print(f"{name}: WARNING: phase reads do not sum to the I/O total")
                status = 1
    finally:
        if jsonl_stream is not None:
            jsonl_stream.close()
    if args.jsonl:
        print(f"\nwrote span trees to {args.jsonl}")
    return status


def _cmd_compare(args: argparse.Namespace) -> int:
    ws = Workspace(_instance_from_args(args))
    header = (
        f"{'method':>6}  {'location':>9}  {'dr':>12}  {'I/Os':>8}  "
        f"{'time(s)':>9}  {'cpu(s)':>8}  {'index(p)':>8}"
    )
    print(header)
    print("-" * len(header))
    for name in METHODS:
        result = make_selector(ws, name).select()
        print(
            f"{name:>6}  p{result.location.sid:>8}  {result.dr:>12.4f}  "
            f"{result.io_total:>8}  {result.elapsed_s:>9.4f}  "
            f"{result.cpu_s:>8.4f}  {result.index_pages:>8}"
        )
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    sweep_fn = _SWEEPS[args.figure]
    methods = args.methods.split(",") if args.methods else ("SS", "QVC", "NFC", "MND")
    sweep = sweep_fn(scale=args.scale, methods=methods)
    print(format_sweep(sweep))
    if args.csv:
        with open(args.csv, "w") as f:
            f.write(sweep_to_csv(sweep))
        print(f"\nwrote {args.csv}")
    if args.svg_dir:
        from repro.experiments.plot import save_sweep_figures

        for path in save_sweep_figures(sweep, args.svg_dir):
            print(f"wrote {path}")
    return 0


def _cmd_plan(args: argparse.Namespace) -> int:
    from repro.core import select_sequence
    from repro.core.greedy import coverage_curve

    instance = _instance_from_args(args)
    results = select_sequence(instance, k=args.k, method=args.method)
    for rank, step in enumerate(results, start=1):
        print(
            f"#{rank}: p{step.location.sid} at "
            f"({step.location.x:.4f}, {step.location.y:.4f})  "
            f"dr={step.dr:.4f}  io={step.io_total}"
        )
    curve = coverage_curve(results)
    print("cumulative distance saved: " + " -> ".join(f"{v:.2f}" for v in curve))
    return 0


def _cmd_close(args: argparse.Namespace) -> int:
    from repro.core import select_closure

    instance = _instance_from_args(args)
    site, damage = select_closure(instance.clients, instance.facilities)
    print(
        f"close facility f{site.sid} at ({site.x:.4f}, {site.y:.4f}): "
        f"total distance rises by only {damage:.4f}"
    )
    return 0


def _cmd_evaluate(args: argparse.Namespace) -> int:
    from repro.core.evaluate import compare_locations

    ws = Workspace(_instance_from_args(args))
    ids = (
        [int(v) for v in args.ids.split(",")]
        if args.ids
        else list(range(min(5, ws.n_p)))
    )
    for report in compare_locations(ws, ids):
        print(report.format())
        print()
    return 0


def _cmd_simulate(args: argparse.Namespace) -> int:
    if args.world == "city":
        from repro.simulation.city import CityConfig, UrbanGrowthSimulation

        sim = UrbanGrowthSimulation(CityConfig(seed=args.seed, method=args.method))
        for record in sim.run(args.periods):
            built = record.built
            print(
                f"period {record.period}: build at "
                f"({built.location.x:7.2f}, {built.location.y:7.2f})  "
                f"residents={record.residents}  helped={record.residents_helped}  "
                f"avg NFD={record.avg_nfd:.2f}"
            )
        return 0

    from repro.simulation.game import GameConfig, QuestSimulation

    sim = QuestSimulation(GameConfig(seed=args.seed, method=args.method))
    records = sim.run(args.ticks)
    for r in records:
        loc = r.selection.location
        print(
            f"tick {r.tick:3d} (camp {r.camp_index}): rejoin at "
            f"({loc.x:.0f},{loc.y:.0f})  avg mob distance "
            f"{r.avg_mob_distance_before:6.1f} -> {r.avg_mob_distance_after:6.1f}"
        )
    print(
        f"{len(records)} rejoins over {sim.tick} ticks; "
        f"quest {'complete' if sim.quest_complete else 'in progress'}"
    )
    return 0


def _cmd_stats(args: argparse.Namespace) -> int:
    import numpy as np

    from repro.analysis.cost_model import CostModel
    from repro.analysis.pruning import profile_mnd_join, profile_nfc_join
    from repro.analysis.selectivity import (
        expected_dnn,
        expected_dr,
        expected_influence_size,
    )

    ws = Workspace(_instance_from_args(args))
    dnn = ws.client_xyd[:, 2]
    model = CostModel()
    print(f"instance: n_c={ws.n_c}  n_f={ws.n_f}  n_p={ws.n_p}")
    print("\nnearest-facility distances (dnn):")
    print(
        f"  mean={dnn.mean():.3f}  median={np.median(dnn):.3f}  "
        f"p95={np.percentile(dnn, 95):.3f}  max={dnn.max():.3f}"
    )
    print(f"  Poisson-model prediction E[dnn] = {expected_dnn(ws.n_f):.3f}")
    print("\nselectivity:")
    print(
        f"  predicted E[|IS(p)|] = n_c/n_f = "
        f"{expected_influence_size(ws.n_c, ws.n_f):.2f}"
    )
    print(f"  predicted E[dr(p)]   = {expected_dr(ws.n_c, ws.n_f):.2f}")
    print(
        "\nindex sizes (pages): "
        f"R_C={ws.r_c.size_pages}  R_F={ws.r_f.size_pages}  "
        f"R_P={ws.r_p.size_pages}  R_C^n={ws.rnn_tree.size_pages}  "
        f"R_C^m={ws.mnd_tree.size_pages}"
    )
    print("\njoin pruning profiles:")
    for profile in (profile_nfc_join(ws), profile_mnd_join(ws)):
        print("  " + profile.format().replace("\n", "\n  "))
    print("\ncost model (Table III):")
    print(f"  predicted IO_s = {model.io_ss(ws.n_c, ws.n_p)}")
    print(f"  join worst case = {model.io_join_worst_case(ws.n_c, ws.n_p):.0f}")
    return 0


def _cmd_reproduce(args: argparse.Namespace) -> int:
    from repro.experiments.full_run import run_full_evaluation

    figures = args.figures.split(",") if args.figures else None
    run_full_evaluation(args.out, scale=args.scale, figures=figures)
    return 0


def _cmd_bench_run(args: argparse.Namespace) -> int:
    from repro.bench import append_history, run_suite

    methods = args.methods.split(",") if args.methods else None
    rungs = (
        [int(r) for r in args.rungs.split(",")] if getattr(args, "rungs", None)
        else None
    )
    record = run_suite(
        args.suite,
        repeats=args.repeats,
        methods=methods,
        progress=lambda line: print(line, file=sys.stderr),
        workers=args.workers,
        rungs=rungs,
    )
    out = args.out or f"BENCH_{record.suite}.json"
    record.write(out)
    print(f"wrote {out} ({len(record.entries)} entries)")
    if not args.no_history:
        path = append_history(record, args.history)
        print(f"appended to {path}")
    io_totals = record.totals("io_total")
    if any(io_totals.values()):
        for method, total in sorted(io_totals.items()):
            elapsed = record.totals("elapsed_s").get(method, 0.0)
            print(f"  {method:>4}  io={int(total):>7}  elapsed={elapsed:.3f}s")
    else:  # SLO-style suites (loadgen) have no page reads to sum
        for method, qps in sorted(record.totals("qps").items()):
            p99 = record.totals("p99_s").get(method, 0.0)
            print(f"  {method:>6}  qps={qps:>7.1f}  p99={p99 * 1000:.1f}ms")
    return 0


def _cmd_bench_compare(args: argparse.Namespace) -> int:
    import json as _json

    from repro.bench import BenchRecord, compare_records, run_suite

    try:
        baseline = BenchRecord.read(args.baseline)
    except (OSError, ValueError, KeyError) as exc:
        print(f"error: cannot read baseline {args.baseline}: {exc}", file=sys.stderr)
        return 2
    if args.current:
        try:
            current = BenchRecord.read(args.current)
        except (OSError, ValueError, KeyError) as exc:
            print(
                f"error: cannot read current {args.current}: {exc}", file=sys.stderr
            )
            return 2
    else:
        current = run_suite(
            baseline.suite,
            repeats=args.repeats if args.repeats else baseline.repeats,
            progress=lambda line: print(line, file=sys.stderr),
        )
    report = compare_records(
        baseline,
        current,
        time_tolerance=args.time_tolerance,
        gate_time=args.gate_time,
        subset=args.subset,
    )
    print(report.format(verbose=args.verbose))
    if args.json:
        with open(args.json, "w", encoding="utf-8") as stream:
            _json.dump(report.to_dict(), stream, indent=2)
            stream.write("\n")
        print(f"wrote {args.json}")
    return 0 if report.ok() else 1


def _cmd_bench_report(args: argparse.Namespace) -> int:
    from repro.bench import load_history, markdown_summary, trend_report

    rows = load_history(args.history, suite=args.suite)
    if not rows:
        print(
            f"no history rows in {args.history}"
            + (f" for suite {args.suite!r}" if args.suite else "")
        )
        return 1
    metrics = args.metrics.split(",") if args.metrics else ("io_total", "elapsed_s")
    render = markdown_summary if args.markdown else trend_report
    print(render(rows, metrics=metrics, last=args.last))
    return 0


def _cmd_bench_suites(args: argparse.Namespace) -> int:
    from repro.bench import SUITES, suite_names

    for name in suite_names():
        suite = SUITES[name]
        print(
            f"{name:>6}  {len(suite.configs)} config(s), "
            f"methods {','.join(suite.methods)} — {suite.description}"
        )
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    import asyncio

    from repro.core import DynamicWorkspace
    from repro.service import QueryService, ServiceConfig, TelemetryConfig

    workspace = DynamicWorkspace(_instance_from_args(args))
    telemetry = TelemetryConfig(
        enabled=not args.no_telemetry,
        trace_buffer=args.trace_buffer,
        slow_log=args.slow_log,
        window_s=args.window,
        access_log=args.access_log,
        log_level=args.log_level,
        snapshot_path=args.metrics_snapshots,
        snapshot_interval_s=args.snapshot_interval,
        metrics_port=args.metrics_port,
    )
    config = ServiceConfig(
        max_pending=args.max_pending,
        batch_window_s=args.batch_window,
        max_batch=args.max_batch,
        workers=args.workers,
        executor=args.executor,
        default_timeout_s=args.timeout if args.timeout > 0 else None,
        cache_entries=args.cache_entries,
        telemetry=telemetry,
    )

    async def _serve() -> None:
        service = QueryService({args.name: workspace}, config)
        host, port = await service.start(args.host, args.port)
        print(
            f"serving workspace {args.name!r} "
            f"(n_c={workspace.n_c}, n_f={workspace.n_f}, n_p={workspace.n_p}) "
            f"on {host}:{port}",
            flush=True,
        )
        print(
            f"  workers={config.workers} batch_window={config.batch_window_s}s "
            f"max_pending={config.max_pending} cache={config.cache_entries}",
            flush=True,
        )
        if service.metrics_address is not None:
            mh, mp = service.metrics_address
            print(f"  metrics on http://{mh}:{mp}/metrics", flush=True)
        try:
            await service.serve_forever()
        except asyncio.CancelledError:
            pass
        finally:
            print("draining ...", flush=True)
            await service.shutdown(drain=True)
            print("stopped", flush=True)

    try:
        asyncio.run(_serve())
    except KeyboardInterrupt:
        pass
    return 0


def _cmd_call(args: argparse.Namespace) -> int:
    import json as _json

    from repro.service import ClientConnectionError, ServiceClient, ServiceError

    try:
        client = ServiceClient(
            args.host,
            args.port,
            connect_retries=getattr(args, "connect_retries", 0),
        )
    except ClientConnectionError as exc:
        print(f"error [{exc.code}]: {exc}", file=sys.stderr)
        return 2
    try:
        with client:
            if args.operation == "select":
                answer = client.select(
                    args.method,
                    workspace=args.workspace,
                    timeout_s=args.timeout if args.timeout > 0 else None,
                    no_cache=args.no_cache,
                )
                result = answer.result
                origin = "cache" if answer.cached else (
                    f"batch of {answer.batch_size}"
                    if answer.batch_size
                    else "engine"
                )
                print(
                    f"best location: p{result.location.sid} at "
                    f"({result.location.x:.4f}, {result.location.y:.4f})"
                )
                print(f"distance reduction: {result.dr:.4f}")
                print(
                    f"method={result.method}  I/Os={result.io_total}  "
                    f"served from {origin}  "
                    f"(workspace version {answer.data_version})"
                )
            elif args.operation == "evaluate":
                ids = [int(v) for v in (args.ids or "0").split(",")]
                for report in client.evaluate(ids, workspace=args.workspace):
                    print(
                        f"candidate p{report['sid']}: "
                        f"influences {report['influence_count']} client(s), "
                        f"dr={report['dr']:.4f}"
                    )
            elif args.operation == "update":
                params: dict = {}
                if args.point:
                    params["point"] = [args.point[0], args.point[1]]
                if args.cid is not None:
                    params["cid"] = args.cid
                if args.sid is not None:
                    params["sid"] = args.sid
                if args.weight is not None:
                    params["weight"] = args.weight
                report = client.update(
                    args.action, workspace=args.workspace, **params
                )
                print(_json.dumps(report, indent=2, sort_keys=True))
            elif args.operation == "metrics":
                sys.stdout.write(client.metrics())
            elif args.operation == "trace":
                traces = client.trace(
                    trace_id=args.trace_id,
                    recent=args.recent,
                    slow=args.slow,
                )
                print(_json.dumps(traces, indent=2, sort_keys=True))
            else:  # stats / health
                payload = (
                    client.stats(prefix=args.prefix)
                    if args.operation == "stats"
                    else client.health()
                )
                print(_json.dumps(payload, indent=2, sort_keys=True))
    except ClientConnectionError as exc:
        # Mid-request transport death (reset, EOF): distinct exit code
        # from a server-reported error, still no raw traceback.
        print(f"error [{exc.code}]: {exc}", file=sys.stderr)
        return 2
    except ServiceError as exc:
        print(f"error [{exc.code}]: {exc}", file=sys.stderr)
        return 1
    return 0


def _cmd_top(args: argparse.Namespace) -> int:
    import time as _time

    from repro.service import (
        ClientConnectionError,
        ServiceClient,
        ServiceError,
        render_top,
    )

    endpoint = f"{args.host}:{args.port}"
    try:
        with ServiceClient(args.host, args.port) as client:
            while True:
                screen = render_top(
                    client.stats(), interval_s=args.interval, endpoint=endpoint
                )
                if args.once:
                    sys.stdout.write(screen)
                    return 0
                # Clear + home, then repaint: a flicker-free poor man's
                # curses that needs nothing beyond ANSI.
                sys.stdout.write("\x1b[2J\x1b[H" + screen)
                sys.stdout.flush()
                _time.sleep(args.interval)
    except KeyboardInterrupt:
        print()
        return 0
    except (ClientConnectionError, ServiceError) as exc:
        print(f"error [{exc.code}]: {exc}", file=sys.stderr)
        return 2


def _cmd_loadgen(args: argparse.Namespace) -> int:
    import json as _json
    from contextlib import nullcontext

    from repro.bench.loadgen import (
        LOADGEN_CLOSED,
        LOADGEN_DATASET,
        loadgen_entry,
        loadgen_metric_policies,
    )
    from repro.bench.record import BenchRecord, environment_fingerprint
    from repro.loadgen import (
        LoadgenConfig,
        RetryPolicy,
        SLOPolicy,
        parse_mix,
        render_slo_report,
        run_loadgen,
        self_hosted,
    )
    from repro.service import ClientConnectionError, ServiceError

    try:
        select_f, evaluate_f, update_f = parse_mix(args.mix)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    shared = dict(
        clients=args.clients,
        requests_per_client=args.requests,
        warmup_requests=args.warmup,
        qps=args.qps,
        measure_s=args.measure,
        warmup_s=args.open_warmup,
        ramp_s=args.ramp,
        max_inflight=args.max_inflight,
        methods=tuple(args.methods.split(","))
        if args.methods
        else LOADGEN_CLOSED.methods,
        select_fraction=select_f,
        evaluate_fraction=evaluate_f,
        update_fraction=update_f,
        zipf_alpha=args.alpha,
        evaluate_keys=args.evaluate_keys,
        timeout_s=args.timeout if args.timeout > 0 else None,
        workspace=args.workspace,
        retry=RetryPolicy(max_retries=args.max_retries),
        seed=args.plan_seed,
    )
    modes = ["closed", "open"] if args.mode == "both" else [args.mode]
    try:
        configs = [LoadgenConfig(mode=mode, **shared) for mode in modes]
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    policy = SLOPolicy(
        max_queue_full_rate=args.max_queue_full,
        max_deadline_miss_rate=args.max_deadline_miss,
        p99_target_s=args.p99 if args.p99 > 0 else None,
        min_cache_hit_rate=args.min_cache_hit
        if args.min_cache_hit > 0
        else None,
    )

    if args.host is not None:
        server = nullcontext()
        host, port = args.host, args.port
    else:
        sizes = args.random or (
            LOADGEN_DATASET.n_c,
            LOADGEN_DATASET.n_f,
            LOADGEN_DATASET.n_p,
        )
        server = self_hosted(
            n_c=sizes[0],
            n_f=sizes[1],
            n_p=sizes[2],
            seed=args.seed,
            workspace=args.workspace,
        )

    drives: list[tuple[LoadgenConfig, object]] = []
    try:
        with server as handle:
            if handle is not None:
                host, port = handle.host, handle.port
                print(f"self-hosting on {host}:{port}", file=sys.stderr)
            for config in configs:
                print(f"driving {config.label()} ...", file=sys.stderr)
                drives.append((config, run_loadgen(config, host, port)))
    except ClientConnectionError as exc:
        print(f"error [{exc.code}]: {exc}", file=sys.stderr)
        return 2
    except (ServiceError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    status = 0
    reports = []
    for config, result in drives:
        stats = result.stats
        checks = policy.evaluate(stats)
        reports.append(
            render_slo_report(
                config,
                stats,
                checks,
                server_cache_hit_rate=result.server_cache_hit_rate(),
                server_deltas=result.server_deltas(),
                title=f"Load-generator SLO report — {config.mode} loop",
            )
        )
        print(
            f"{config.mode}: {stats.requests} measured "
            f"(+{stats.warmup_requests} warmup), "
            f"{stats.throughput_qps:.1f} req/s, "
            f"p50 {stats.latency.p50_s * 1000:.1f}ms, "
            f"p99 {stats.latency.p99_s * 1000:.1f}ms, "
            f"cache hit rate {stats.cache_hit_rate:.2f}, "
            f"queue-full rate {stats.queue_full_rate:.3f}"
        )
        if not result.plan_fidelity:
            print(f"{config.mode}: FAIL plan fidelity "
                  f"(issued {result.issued})", file=sys.stderr)
            status = 1
        for check in checks:
            if not check.ok:
                print(f"{config.mode}: FAIL {check.format()}", file=sys.stderr)
                status = 1

    if args.report:
        with open(args.report, "w", encoding="utf-8") as stream:
            stream.write("\n".join(reports))
        print(f"wrote {args.report}")
    if args.json:
        payload = {config.mode: result.to_dict() for config, result in drives}
        with open(args.json, "w", encoding="utf-8") as stream:
            _json.dump(payload, stream, indent=2, sort_keys=True)
            stream.write("\n")
        print(f"wrote {args.json}")
    if args.bench_out:
        record = BenchRecord(
            suite="loadgen",
            repeats=1,
            environment=environment_fingerprint(dataset_seed=args.seed),
            metric_policies=loadgen_metric_policies(configs[0].methods),
            entries=[
                loadgen_entry(config, result) for config, result in drives
            ],
        )
        record.write(args.bench_out)
        print(f"wrote {args.bench_out} ({len(record.entries)} entries)")
    return status


def _add_loadgen_parser(sub: argparse._SubParsersAction) -> None:
    p = sub.add_parser(
        "loadgen",
        help="drive a query service with deterministic skewed load and "
        "report SLOs",
    )
    target = p.add_argument_group("target (default: self-host the bench "
                                  "suite's dataset in-process)")
    target.add_argument("--host", help="drive a live service at this address")
    target.add_argument("--port", type=int, default=7733)
    target.add_argument(
        "--random",
        nargs=3,
        type=int,
        metavar=("N_C", "N_F", "N_P"),
        help="self-host a random instance of these sizes",
    )
    target.add_argument(
        "--seed", type=int, default=20120401, help="self-hosted dataset seed"
    )
    shape = p.add_argument_group("load shape (defaults = the loadgen bench "
                                 "suite, so a default run gates exactly)")
    shape.add_argument(
        "--mode", default="both", choices=["closed", "open", "both"]
    )
    shape.add_argument(
        "--clients", type=int, default=4, help="closed loop: client threads"
    )
    shape.add_argument(
        "--requests",
        type=int,
        default=25,
        help="closed loop: measured requests per client",
    )
    shape.add_argument(
        "--warmup",
        type=int,
        default=5,
        help="closed loop: unmeasured leading requests per client",
    )
    shape.add_argument(
        "--qps", type=float, default=150.0, help="open loop: target arrival rate"
    )
    shape.add_argument(
        "--measure",
        type=float,
        default=1.2,
        help="open loop: measured window seconds",
    )
    shape.add_argument(
        "--open-warmup",
        type=float,
        default=0.4,
        help="open loop: full-rate unmeasured seconds before measuring",
    )
    shape.add_argument(
        "--ramp",
        type=float,
        default=0.4,
        help="open loop: linear 0->qps ramp seconds",
    )
    shape.add_argument(
        "--max-inflight",
        type=int,
        default=32,
        help="open loop: concurrent in-flight bound",
    )
    shape.add_argument("--methods", help="comma-separated select methods, "
                       "hottest first (Zipf rank order)")
    shape.add_argument(
        "--mix",
        default="0.8,0.1,0.1",
        help="select,evaluate,update fractions (sum to 1), or a named "
        "profile: read-heavy, mixed, churn, write-only (churn is the "
        "write-heavy shape whose SLO report shows how much of the "
        "result cache survives mutations)",
    )
    shape.add_argument(
        "--alpha", type=float, default=0.9, help="Zipf skew exponent"
    )
    shape.add_argument(
        "--evaluate-keys",
        type=int,
        default=64,
        help="Zipf keyspace size for evaluate candidate ids",
    )
    shape.add_argument(
        "--timeout",
        type=float,
        default=10.0,
        help="per-request deadline seconds (0 = server default)",
    )
    shape.add_argument(
        "--max-retries",
        type=int,
        default=3,
        help="bounded retries on queue_full pushback",
    )
    shape.add_argument("--workspace", default="default")
    shape.add_argument(
        "--plan-seed",
        type=int,
        default=20120401,
        help="seeds arrivals, mix and key skew (the deterministic plan)",
    )
    slo = p.add_argument_group("SLO policy (protocol errors always gate at 0)")
    slo.add_argument("--max-queue-full", type=float, default=0.05)
    slo.add_argument("--max-deadline-miss", type=float, default=0.05)
    slo.add_argument(
        "--p99", type=float, default=0.0, help="p99 latency target seconds "
        "(0 = unchecked)"
    )
    slo.add_argument(
        "--min-cache-hit", type=float, default=0.0, help="minimum cache hit "
        "rate (0 = unchecked)"
    )
    out = p.add_argument_group("outputs")
    out.add_argument("--report", help="write the markdown SLO report here")
    out.add_argument("--json", help="write the full result dict here")
    out.add_argument(
        "--bench-out",
        help="write a loadgen BenchRecord here (comparable against "
        "BENCH_loadgen.json with `mindist bench compare`)",
    )
    p.set_defaults(func=_cmd_loadgen)


def _add_service_parsers(sub: argparse._SubParsersAction) -> None:
    p_serve = sub.add_parser(
        "serve", help="run the long-lived async query service"
    )
    _add_instance_args(p_serve)
    p_serve.add_argument("--host", default="127.0.0.1", help="bind address")
    p_serve.add_argument(
        "--port", type=int, default=7733, help="bind port (0 = ephemeral)"
    )
    p_serve.add_argument(
        "--name", default="default", help="name of the hosted workspace"
    )
    p_serve.add_argument(
        "--max-pending",
        type=int,
        default=64,
        help="admission bound: queued+in-flight requests before queue_full",
    )
    p_serve.add_argument(
        "--batch-window",
        type=float,
        default=0.002,
        help="seconds a micro-batch stays open collecting selections",
    )
    p_serve.add_argument(
        "--max-batch", type=int, default=16, help="largest micro-batch"
    )
    p_serve.add_argument(
        "--timeout",
        type=float,
        default=30.0,
        help="default per-request deadline in seconds (0 = none)",
    )
    p_serve.add_argument(
        "--cache-entries",
        type=int,
        default=1024,
        help="result-cache capacity (0 disables caching)",
    )
    p_serve.add_argument(
        "--access-log",
        metavar="PATH",
        help="write one JSON line per request to this file",
    )
    p_serve.add_argument(
        "--log-level",
        default="info",
        choices=["debug", "info", "warning", "error"],
        help="minimum severity written to the access log",
    )
    p_serve.add_argument(
        "--trace-buffer",
        type=int,
        default=512,
        help="finished request traces kept findable by trace_id",
    )
    p_serve.add_argument(
        "--slow-log",
        type=int,
        default=32,
        help="slowest traces retained regardless of buffer churn",
    )
    p_serve.add_argument(
        "--window",
        type=float,
        default=60.0,
        help="rolling-window span (seconds) of the live metrics",
    )
    p_serve.add_argument(
        "--metrics-snapshots",
        metavar="PATH",
        help="append periodic JSON-lines registry snapshots to this file",
    )
    p_serve.add_argument(
        "--snapshot-interval",
        type=float,
        default=10.0,
        help="seconds between registry snapshots",
    )
    p_serve.add_argument(
        "--metrics-port",
        type=int,
        help="serve plain-HTTP GET /metrics on this port (0 = ephemeral)",
    )
    p_serve.add_argument(
        "--no-telemetry",
        action="store_true",
        help="disable request tracing and windowed metrics entirely",
    )
    _add_worker_args(p_serve)
    p_serve.set_defaults(func=_cmd_serve)

    p_call = sub.add_parser("call", help="issue one request to a running service")
    p_call.add_argument(
        "operation",
        choices=[
            "select",
            "evaluate",
            "update",
            "stats",
            "health",
            "metrics",
            "trace",
        ],
    )
    p_call.add_argument("--host", default="127.0.0.1")
    p_call.add_argument("--port", type=int, default=7733)
    p_call.add_argument("--workspace", default="default")
    p_call.add_argument(
        "--method", default="MND", choices=sorted(METHODS), help="select method"
    )
    p_call.add_argument(
        "--timeout",
        type=float,
        default=0.0,
        help="deadline in seconds (0 = server default)",
    )
    p_call.add_argument(
        "--no-cache", action="store_true", help="bypass the result cache"
    )
    p_call.add_argument("--ids", help="evaluate: comma-separated candidate ids")
    p_call.add_argument(
        "--action",
        default="add_client",
        choices=["add_client", "remove_client", "add_facility", "remove_facility"],
        help="update action",
    )
    p_call.add_argument(
        "--point",
        nargs=2,
        type=float,
        metavar=("X", "Y"),
        help="update: coordinates for add actions",
    )
    p_call.add_argument("--cid", type=int, help="update: client id to remove")
    p_call.add_argument("--sid", type=int, help="update: facility id to remove")
    p_call.add_argument("--weight", type=float, help="update: client weight")
    p_call.add_argument(
        "--prefix",
        help="stats: registry prefix ('' = the whole process registry)",
    )
    p_call.add_argument("--trace-id", help="trace: look up one trace by id")
    p_call.add_argument(
        "--recent", type=int, help="trace: list the N most recent traces"
    )
    p_call.add_argument(
        "--slow", type=int, help="trace: list the N slowest traces"
    )
    p_call.add_argument(
        "--connect-retries",
        type=int,
        default=0,
        help="bounded reconnect attempts before giving up on the service",
    )
    p_call.set_defaults(func=_cmd_call)

    p_top = sub.add_parser(
        "top", help="terminal live view of a running service"
    )
    p_top.add_argument("--host", default="127.0.0.1")
    p_top.add_argument("--port", type=int, default=7733)
    p_top.add_argument(
        "--interval",
        type=float,
        default=2.0,
        help="seconds between stats polls / repaints",
    )
    p_top.add_argument(
        "--once",
        action="store_true",
        help="print one screen and exit (no clearing, no loop)",
    )
    p_top.set_defaults(func=_cmd_top)


def _cmd_shard_partition(args: argparse.Namespace) -> int:
    from repro.shard import partition_workspace, write_partition

    ws = Workspace(_instance_from_args(args))
    try:
        partition = partition_workspace(ws, args.tiles, scheme=args.scheme)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    manifest = write_partition(partition, args.out)
    print(
        f"partitioned n_c={ws.n_c} into {partition.n_tiles} {args.scheme} "
        f"tile(s); facilities (n_f={ws.n_f}) and potentials (n_p={ws.n_p}) "
        "replicated into every tile"
    )
    for tile in partition.plan.tiles:
        x0, y0, x1, y1 = tile.bounds
        print(
            f"  tile {tile.tile_id:4d}: {tile.n_c:6d} clients  "
            f"[{x0:9.2f},{y0:9.2f}] .. [{x1:9.2f},{y1:9.2f}]"
        )
    print(f"wrote {manifest}")
    return 0


def _cmd_shard_serve(args: argparse.Namespace) -> int:
    import asyncio

    from repro.service import QueryService, ServiceConfig
    from repro.shard import ShardTopology, load_partition
    from repro.shard.coordinator import ShardCoordinator, tile_workspace_name
    from repro.shard.executor import assign_tiles

    try:
        partition = load_partition(args.dir)
    except (OSError, ValueError, KeyError) as exc:
        print(f"error: cannot load partition {args.dir}: {exc}", file=sys.stderr)
        return 2
    config = ServiceConfig(workers=args.workers)

    if args.coordinator:
        if not args.peer:
            print(
                "error: --coordinator needs one --peer HOST:PORT per shard "
                "(in shard-id order)",
                file=sys.stderr,
            )
            return 2
        peers = []
        for peer in args.peer:
            host_part, _, port_part = peer.rpartition(":")
            if not host_part or not port_part.isdigit():
                print(f"error: --peer {peer!r} is not HOST:PORT", file=sys.stderr)
                return 2
            peers.append((host_part, int(port_part)))
        try:
            topology = ShardTopology.from_partition(partition, peers)
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        service = ShardCoordinator(
            topology, config, connect_retries=args.connect_retries
        )
        banner = (
            f"coordinating {topology.n_tiles} tile(s) over "
            f"{len(topology.shards)} shard(s): "
            + ", ".join(f"{h}:{p}" for h, p in peers)
        )
    else:
        try:
            groups = assign_tiles(partition.n_tiles, args.shards)
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        if not 0 <= args.shard_id < args.shards:
            print(
                f"error: --shard-id must be in [0, {args.shards})",
                file=sys.stderr,
            )
            return 2
        tile_ids = groups[args.shard_id]
        workspaces = {
            tile_workspace_name(t): partition.load_tile(t, mode=args.mode)
            for t in tile_ids
        }
        service = QueryService(workspaces, config)
        banner = (
            f"shard {args.shard_id}/{args.shards} hosting tile(s) "
            f"{', '.join(str(t) for t in tile_ids)} ({args.mode} mode)"
        )

    async def _serve() -> None:
        host, port = await service.start(args.host, args.port)
        print(f"{banner}", flush=True)
        print(f"listening on {host}:{port}", flush=True)
        try:
            await service.serve_forever()
        except asyncio.CancelledError:
            pass
        finally:
            print("draining ...", flush=True)
            await service.shutdown(drain=True)
            print("stopped", flush=True)

    try:
        asyncio.run(_serve())
    except KeyboardInterrupt:
        pass
    return 0


def _cmd_shard_call(args: argparse.Namespace) -> int:
    import json as _json

    from repro.service import ClientConnectionError, ServiceClient, ServiceError

    try:
        client = ServiceClient(
            args.host, args.port, connect_retries=args.connect_retries
        )
    except ClientConnectionError as exc:
        print(f"error [{exc.code}]: {exc}", file=sys.stderr)
        return 2
    try:
        with client:
            if args.operation == "select":
                answer = client.select(args.method, no_cache=args.no_cache)
                result = answer.result
                print(
                    f"best location: p{result.location.sid} at "
                    f"({result.location.x:.4f}, {result.location.y:.4f})"
                )
                print(f"distance reduction: {result.dr:.4f}")
                print(
                    f"method={result.method}  I/Os={result.io_total}  "
                    f"served from {'cache' if answer.cached else 'shards'}  "
                    f"(coordinator version {answer.data_version})"
                )
            else:  # stats / health
                payload = (
                    client.stats()
                    if args.operation == "stats"
                    else client.health()
                )
                print(_json.dumps(payload, indent=2, sort_keys=True))
    except ClientConnectionError as exc:
        print(f"error [{exc.code}]: {exc}", file=sys.stderr)
        return 2
    except ServiceError as exc:
        print(f"error [{exc.code}]: {exc}", file=sys.stderr)
        return 1
    return 0


def _add_shard_parser(sub: argparse._SubParsersAction) -> None:
    p_shard = sub.add_parser(
        "shard",
        help="partition a dataset into tiles, serve a shard fleet, and "
        "front it with an exact scatter-gather coordinator",
    )
    shard_sub = p_shard.add_subparsers(dest="shard_command", required=True)

    p_part = shard_sub.add_parser(
        "partition", help="split a dataset into persisted tile workspaces"
    )
    _add_instance_args(p_part)
    p_part.add_argument(
        "--tiles", type=int, default=4, help="fixed tile count (the merge "
        "order; independent of how many shards serve them)"
    )
    p_part.add_argument(
        "--scheme",
        default="str",
        choices=["str", "grid"],
        help="spatial partitioning scheme",
    )
    p_part.add_argument(
        "--out", required=True, help="directory for the shard workspaces"
    )
    p_part.set_defaults(func=_cmd_shard_partition)

    p_sserve = shard_sub.add_parser(
        "serve", help="serve a shard's tiles, or coordinate a shard fleet"
    )
    p_sserve.add_argument("dir", help="partition directory (shards.json)")
    p_sserve.add_argument("--host", default="127.0.0.1")
    p_sserve.add_argument(
        "--port", type=int, default=7733, help="bind port (0 = ephemeral)"
    )
    p_sserve.add_argument(
        "--workers", type=int, default=1, help="engine workers per workspace"
    )
    p_sserve.add_argument(
        "--shards", type=int, default=1, help="shard role: fleet size"
    )
    p_sserve.add_argument(
        "--shard-id", type=int, default=0, help="shard role: this shard's id"
    )
    p_sserve.add_argument(
        "--mode",
        default="dynamic",
        choices=["dynamic", "disk"],
        help="shard role: rebuild tiles in memory (accepts updates) or "
        "serve the persisted page files",
    )
    p_sserve.add_argument(
        "--coordinator",
        action="store_true",
        help="coordinator role: scatter-gather over --peer shard servers",
    )
    p_sserve.add_argument(
        "--peer",
        action="append",
        metavar="HOST:PORT",
        help="coordinator role: one per shard, in shard-id order",
    )
    p_sserve.add_argument(
        "--connect-retries",
        type=int,
        default=1,
        help="coordinator role: reconnect attempts per shard call",
    )
    p_sserve.set_defaults(func=_cmd_shard_serve)

    p_scall = shard_sub.add_parser(
        "call", help="issue one request to a shard coordinator"
    )
    p_scall.add_argument("operation", choices=["select", "stats", "health"])
    p_scall.add_argument("--host", default="127.0.0.1")
    p_scall.add_argument("--port", type=int, default=7733)
    p_scall.add_argument(
        "--method", default="MND", choices=sorted(METHODS), help="select method"
    )
    p_scall.add_argument(
        "--no-cache", action="store_true", help="bypass the result cache"
    )
    p_scall.add_argument(
        "--connect-retries",
        type=int,
        default=0,
        help="bounded reconnect attempts before giving up",
    )
    p_scall.set_defaults(func=_cmd_shard_call)


def _cmd_pages_info(args: argparse.Namespace) -> int:
    import struct as _struct

    from repro.storage.diskfile import FORMAT_VERSION, PageFile, PageFileError

    try:
        with PageFile(args.file).open() as pf:
            meta = bytes(pf.read_page(0))
            # An R-tree meta page is <IIB> (entries, height, mnd flag); a
            # block-file meta page is <QII> (records, per-block, ncols).
            # Both are heuristics for display only — the header is the
            # sole source of truth for paging.
            rtree_meta = _struct.unpack_from("<IIB", meta)
            block_meta = _struct.unpack_from("<QII", meta)
            print(f"file:         {args.file}")
            print(f"format:       v{FORMAT_VERSION} (columns (SoA))")
            print(f"page size:    {pf.page_size}")
            print(f"pages:        {pf.num_pages}")
            print(f"root page:    {pf.root_page}")
            entries, height, flags = rtree_meta
            print(
                f"as r-tree:    num_entries={entries} height={height} "
                f"mnd={'yes' if flags & 1 else 'no'}"
            )
            records, per_block, ncols = block_meta
            print(
                f"as blockfile: num_records={records} "
                f"records_per_block={per_block} ncols={ncols}"
            )
    except PageFileError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


def _add_pages_parser(sub: argparse._SubParsersAction) -> None:
    p_pages = sub.add_parser("pages", help="inspect on-disk page files")
    pages_sub = p_pages.add_subparsers(dest="pages_command", required=True)

    p_info = pages_sub.add_parser(
        "info", help="print a page file's header and metadata page"
    )
    p_info.add_argument("file", help="path to a .pages file")
    p_info.set_defaults(func=_cmd_pages_info)


def _add_bench_parser(sub: argparse._SubParsersAction) -> None:
    p_bench = sub.add_parser(
        "bench", help="record benchmark suites and gate against baselines"
    )
    bench_sub = p_bench.add_subparsers(dest="bench_command", required=True)

    p_run = bench_sub.add_parser("run", help="record one suite execution")
    p_run.add_argument("suite", help="suite name (see `mindist bench suites`)")
    p_run.add_argument(
        "--repeats",
        type=int,
        default=3,
        help="wall-time samples per method (median reported)",
    )
    p_run.add_argument("--methods", help="comma-separated subset, e.g. NFC,MND")
    p_run.add_argument(
        "--out", help="output JSON path (default BENCH_<suite>.json)"
    )
    p_run.add_argument(
        "--history",
        default="benchmarks/history.jsonl",
        help="history JSONL to append to",
    )
    p_run.add_argument(
        "--no-history",
        action="store_true",
        help="do not append this run to the history",
    )
    p_run.add_argument(
        "--workers",
        type=int,
        default=None,
        help="stretch the worker ladder (suites with a runner, "
        "e.g. parallel)",
    )
    p_run.add_argument(
        "--rungs",
        help="comma-separated client-count rungs for the scale suite, "
        "e.g. 100000 (default: the full ladder)",
    )
    p_run.set_defaults(func=_cmd_bench_run)

    p_cmp = bench_sub.add_parser(
        "compare", help="compare a fresh (or saved) run against a baseline"
    )
    p_cmp.add_argument("baseline", help="baseline BENCH_<suite>.json")
    p_cmp.add_argument(
        "--current",
        help="compare this saved record instead of re-running the suite",
    )
    p_cmp.add_argument(
        "--repeats",
        type=int,
        default=0,
        help="repeats for the fresh run (default: the baseline's)",
    )
    p_cmp.add_argument(
        "--time-tolerance",
        type=float,
        default=0.25,
        help="relative tolerance for wall-time metrics",
    )
    p_cmp.add_argument(
        "--gate-time",
        action="store_true",
        help="fail on wall-time regressions too (deterministic I/O "
        "metrics always gate)",
    )
    p_cmp.add_argument(
        "--subset",
        action="store_true",
        help="current run may cover only part of the baseline; entries "
        "it does cover still gate exactly (CI's single-rung scale check)",
    )
    p_cmp.add_argument(
        "--verbose", action="store_true", help="list unchanged verdicts too"
    )
    p_cmp.add_argument("--json", help="also write the structured verdicts here")
    p_cmp.set_defaults(func=_cmd_bench_compare)

    p_rep = bench_sub.add_parser("report", help="render the history trend")
    p_rep.add_argument(
        "--history",
        default="benchmarks/history.jsonl",
        help="history JSONL to read",
    )
    p_rep.add_argument("--suite", help="restrict to one suite")
    p_rep.add_argument("--last", type=int, default=20, help="runs to include")
    p_rep.add_argument(
        "--metrics", help="comma-separated metrics (default io_total,elapsed_s)"
    )
    p_rep.add_argument(
        "--markdown", action="store_true", help="markdown instead of ASCII"
    )
    p_rep.set_defaults(func=_cmd_bench_report)

    p_suites = bench_sub.add_parser("suites", help="list the available suites")
    p_suites.set_defaults(func=_cmd_bench_suites)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mindist",
        description="The min-dist location selection query (ICDE 2012 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_query = sub.add_parser("query", help="answer one query")
    _add_instance_args(p_query)
    p_query.add_argument(
        "--method", default="MND", choices=sorted(METHODS), help="query method"
    )
    _add_worker_args(p_query)
    p_query.set_defaults(func=_cmd_query)

    p_compare = sub.add_parser("compare", help="run all methods side by side")
    _add_instance_args(p_compare)
    p_compare.set_defaults(func=_cmd_compare)

    p_profile = sub.add_parser(
        "profile", help="run a query under the tracer and print the span tree"
    )
    _add_instance_args(p_profile)
    p_profile.add_argument(
        "--method",
        default="MND",
        choices=sorted(METHODS) + ["all"],
        help="query method to profile ('all' profiles every method)",
    )
    p_profile.add_argument(
        "--jsonl", help="also append each span tree to this JSON-lines file"
    )
    p_profile.add_argument(
        "--no-counters",
        action="store_true",
        help="hide custom counters in the span tree",
    )
    _add_worker_args(p_profile)
    p_profile.set_defaults(func=_cmd_profile)

    p_sweep = sub.add_parser("sweep", help="rerun one of the paper's experiments")
    p_sweep.add_argument("figure", choices=sorted(_SWEEPS))
    p_sweep.add_argument(
        "--scale",
        type=float,
        default=0.2,
        help="cardinality scale (1.0 = paper scale)",
    )
    p_sweep.add_argument("--methods", help="comma-separated subset, e.g. NFC,MND")
    p_sweep.add_argument("--csv", help="also write all runs to this CSV file")
    p_sweep.add_argument(
        "--svg-dir", help="also render SVG figures (one per metric) here"
    )
    p_sweep.set_defaults(func=_cmd_sweep)

    p_plan = sub.add_parser("plan", help="greedy multi-facility selection")
    _add_instance_args(p_plan)
    p_plan.add_argument("-k", type=int, default=3, help="locations to select")
    p_plan.add_argument("--method", default="MND", choices=sorted(METHODS))
    p_plan.set_defaults(func=_cmd_plan)

    p_close = sub.add_parser("close", help="min-damage facility closure")
    _add_instance_args(p_close)
    p_close.set_defaults(func=_cmd_close)

    p_eval = sub.add_parser("evaluate", help="report on specific candidates")
    _add_instance_args(p_eval)
    p_eval.add_argument("--ids", help="comma-separated candidate ids")
    p_eval.set_defaults(func=_cmd_evaluate)

    p_sim = sub.add_parser("simulate", help="run a motivating-application simulator")
    p_sim.add_argument("world", choices=["city", "game"])
    p_sim.add_argument("--periods", type=int, default=6, help="city budget periods")
    p_sim.add_argument("--ticks", type=int, default=120, help="game ticks")
    p_sim.add_argument("--method", default="MND", choices=sorted(METHODS))
    p_sim.add_argument("--seed", type=int, default=7)
    p_sim.set_defaults(func=_cmd_simulate)

    p_repro = sub.add_parser(
        "reproduce", help="regenerate the paper's whole evaluation"
    )
    p_repro.add_argument("--out", default="reproduction", help="output directory")
    p_repro.add_argument("--scale", type=float, default=0.2)
    p_repro.add_argument("--figures", help="comma-separated subset, e.g. fig11,fig14")
    p_repro.set_defaults(func=_cmd_reproduce)

    p_stats = sub.add_parser(
        "stats", help="workspace diagnostics: dnn stats, selectivity, pruning"
    )
    _add_instance_args(p_stats)
    p_stats.set_defaults(func=_cmd_stats)

    _add_pages_parser(sub)
    _add_bench_parser(sub)
    _add_service_parsers(sub)
    _add_loadgen_parser(sub)
    _add_shard_parser(sub)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
