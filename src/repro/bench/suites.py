"""Named benchmark suites and the recorder that runs them.

A suite is a fixed list of (x, configuration) pairs plus the methods to
measure — the unit the regression gate operates on.  The registry holds:

* ``smoke`` — the CI gate: the single :data:`SMOKE_CONFIG`, where the
  paper's Fig. 10 ordering (MND I/O < SS I/O) already holds
  (``tests/experiments/test_smoke.py`` asserts it);
* ``micro`` — a seconds-fast single configuration for tests and quick
  local sanity checks (too small for the paper's ordering regime);
* ``fig10`` / ``fig11`` / ``fig12`` — scaled-down versions of the
  paper's cardinality sweeps (vary |C| / |F| / |P|), for tracking the
  comparative *curves* rather than one point.

:func:`run_suite` executes a suite through the profiled experiment
runner with median-of-k repeats, verifies the observability invariant
(per-phase reads sum to the I/O total) on every run, and returns a
schema-versioned :class:`~repro.bench.record.BenchRecord`.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Optional, Sequence, Union

from repro.bench.record import BenchEntry, BenchRecord, environment_fingerprint
from repro.core import Workspace
from repro.experiments.config import PAPER_SWEEPS, ExperimentConfig
from repro.experiments.metrics import MeasuredRun
from repro.experiments.runner import DEFAULT_METHODS, run_config

#: Small enough for a CI minute, large enough for MND's pruning to beat
#: the sequential scan (cf. Fig. 10: the gap widens with |C| and |P|).
SMOKE_CONFIG = ExperimentConfig(n_c=20_000, n_f=1_000, n_p=1_000)

#: Default number of repeats per (config, method): page reads are
#: deterministic, so the repeats exist purely to median-smooth wall
#: times; three is enough to drop one outlier.
DEFAULT_REPEATS = 3

#: Scale applied to the paper's Table IV sweep values for the fig*
#: suites — small enough that a whole sweep records in a couple of
#: minutes of pure Python, large enough that the trees have depth and
#: the comparative shapes survive.
SWEEP_SUITE_SCALE = 0.02


@dataclass(frozen=True)
class Suite:
    """A named, fixed list of configurations to measure.

    A suite with a ``runner`` is self-recording: :func:`run_suite`
    delegates to it instead of the generic per-config loop (used by the
    ``parallel`` suite, whose unit of measurement is a worker count, not
    a configuration).
    """

    name: str
    description: str
    configs: tuple[tuple[Optional[float], ExperimentConfig], ...]
    methods: tuple[str, ...] = DEFAULT_METHODS
    runner: Optional[Callable[..., BenchRecord]] = None

    def seed(self) -> Optional[int]:
        """The dataset seed, when every configuration shares one."""
        seeds = {config.seed for _, config in self.configs}
        return seeds.pop() if len(seeds) == 1 else None


def _sweep_suite(
    name: str, description: str, parameter: str, scale: float = SWEEP_SUITE_SCALE
) -> Suite:
    base = ExperimentConfig().scaled(scale)
    configs = []
    for value in PAPER_SWEEPS[parameter]:
        scaled_value = max(2, int(value * scale))
        configs.append(
            (float(scaled_value), replace(base, **{parameter: scaled_value}))
        )
    return Suite(name=name, description=description, configs=tuple(configs))


def _builtin_suites() -> dict[str, Suite]:
    from repro.bench.churn import CHURN_MICRO, run_churn_suite
    from repro.bench.kernels import KERNELS_CONFIGS, run_kernels_suite
    from repro.bench.loadgen import LOADGEN_DATASET, run_loadgen_suite
    from repro.bench.parallel import PARALLEL_CONFIG, run_parallel_suite
    from repro.bench.scale import SCALE_RUNGS, config_for_rung, run_scale_suite
    from repro.bench.service import SERVICE_CONFIG, run_service_suite
    from repro.bench.shard import SHARD_CONFIG, run_shard_suite

    return {
        "churn": Suite(
            name="churn",
            description="write path under load: incremental maintenance "
            "speedup vs per-mutation rebuild (>= 10x and rebuild "
            "parity enforced) plus a warm-cache service stream "
            "(>= 50% select hit rate enforced)",
            configs=((None, CHURN_MICRO),),
            runner=run_churn_suite,
        ),
        "kernels": Suite(
            name="kernels",
            description="columnar kernel speedup vs the scalar backend, "
            "bitwise result parity enforced",
            configs=tuple(
                (float(config.n_c), config) for config in KERNELS_CONFIGS
            ),
            runner=run_kernels_suite,
        ),
        "loadgen": Suite(
            name="loadgen",
            description="load generator vs the query service: closed + "
            "open loop SLOs, plan fidelity and zero protocol "
            "errors enforced",
            configs=((None, LOADGEN_DATASET),),
            runner=run_loadgen_suite,
        ),
        "parallel": Suite(
            name="parallel",
            description="execution-engine scaling: every method at a "
            "ladder of worker counts, determinism enforced",
            configs=((None, PARALLEL_CONFIG),),
            runner=run_parallel_suite,
        ),
        "scale": Suite(
            name="scale",
            description="the mmap-served columnar disk workspace at "
            "client-count rungs, bitwise result parity vs memory enforced",
            configs=tuple((float(n), config_for_rung(n)) for n in SCALE_RUNGS),
            runner=run_scale_suite,
        ),
        "service": Suite(
            name="service",
            description="query service over the wire: cold/cached/"
            "batched selections, parity enforced",
            configs=((None, SERVICE_CONFIG),),
            runner=run_service_suite,
        ),
        "shard": Suite(
            name="shard",
            description="scatter-gather at 1/2/4 shards plus a TCP "
            "coordinator pass, byte-identical merge vs the "
            "serial tile-order reference enforced",
            configs=((None, SHARD_CONFIG),),
            runner=run_shard_suite,
        ),
        "smoke": Suite(
            name="smoke",
            description="CI regression gate: the smoke config "
            "(Fig. 10 regime, all four methods)",
            configs=((None, SMOKE_CONFIG),),
        ),
        "micro": Suite(
            name="micro",
            description="seconds-fast single config for tests and quick checks",
            configs=((None, ExperimentConfig(n_c=2_000, n_f=100, n_p=100)),),
        ),
        "fig10": _sweep_suite(
            "fig10", "scaled-down Fig. 10 sweep (vary |C|)", "n_c"
        ),
        "fig11": _sweep_suite(
            "fig11", "scaled-down Fig. 11 sweep (vary |F|)", "n_f"
        ),
        "fig12": _sweep_suite(
            "fig12", "scaled-down Fig. 12 sweep (vary |P|)", "n_p"
        ),
    }


SUITES: dict[str, Suite] = _builtin_suites()


def suite_names() -> list[str]:
    return sorted(SUITES)


def get_suite(name: str) -> Suite:
    try:
        return SUITES[name]
    except KeyError:
        raise ValueError(
            f"unknown suite {name!r}; available: {', '.join(suite_names())}"
        ) from None


def check_phase_attribution(runs: list[MeasuredRun]) -> None:
    """Assert every profiled run's per-phase reads sum to its I/O total.

    A benchmark whose instrumentation silently under-attributes I/O is
    worse than no benchmark, so the recorder refuses to report such
    numbers.
    """
    for run in runs:
        if not run.phases:
            raise AssertionError(f"{run.method}: no phase breakdown captured")
        if run.phase_reads() != run.io_total:
            raise AssertionError(
                f"{run.method}: phase reads {run.phase_reads()} != "
                f"I/O total {run.io_total}"
            )


def run_suite(
    suite: Union[str, Suite],
    repeats: int = DEFAULT_REPEATS,
    methods: Optional[Sequence[str]] = None,
    progress: Optional[Callable[[str], None]] = None,
    workers: Optional[int] = None,
    rungs: Optional[Sequence[int]] = None,
) -> BenchRecord:
    """Record one execution of ``suite``.

    Each configuration's workspace is built once (dataset generation and
    index construction stay out of the measured window) and every method
    is run ``repeats`` times on it; per-phase I/O attribution is checked
    against the I/O totals so a tracing regression can never produce a
    plausible-looking record.

    ``workers`` is only meaningful for suites with their own runner
    (``parallel``, where it stretches the worker ladder); ``rungs``
    only for the ``scale`` suite, where it overrides the client-count
    ladder (CI records the smallest rung only).
    """
    if isinstance(suite, str):
        suite = get_suite(suite)
    if rungs is not None and suite.name != "scale":
        raise ValueError(f"suite {suite.name!r} does not take a rung ladder")
    if suite.runner is not None:
        kwargs = {} if rungs is None else {"rungs": rungs}
        return suite.runner(
            repeats=repeats, methods=methods, progress=progress, workers=workers,
            **kwargs,
        )
    if workers is not None:
        raise ValueError(f"suite {suite.name!r} does not take a worker count")
    chosen = tuple(methods) if methods is not None else suite.methods

    record = BenchRecord(
        suite=suite.name,
        repeats=repeats,
        environment=environment_fingerprint(dataset_seed=suite.seed()),
    )
    for x, config in suite.configs:
        if progress is not None:
            progress(f"running {config.label()} ({', '.join(chosen)}) ...")
        workspace = Workspace(config.instance())
        runs = run_config(
            config,
            methods=chosen,
            x=x,
            workspace=workspace,
            profile=True,
            repeats=repeats,
        )
        check_phase_attribution(runs)
        record.entries.extend(BenchEntry.from_run(run) for run in runs)
    return record
