"""The benchmark's server child: one workspace behind the query service.

Spawned by ``run.py`` as ``python3 perfbench/child.py --kind K --points
P --workdir D [--trace]`` with ``src`` and ``perfbench`` on
``PYTHONPATH``.  It receives only the generated points (an ``.npz`` of
``clients``/``facilities``/``potentials``), builds the workspace the
workload names, and serves it under the *default* ``ServiceConfig``:

* ``disk`` — build a ``Workspace``, persist it with v2 columnar leaves
  into ``D/persisted``, drop it, and serve
  ``DiskWorkspace(load_persisted(...), mapped=True)``;
* ``dynamic`` — a ``DynamicWorkspace`` with every index (and the dnn
  maintainer) built before the port opens, so no request pays set-up.

Once the port is bound it prints one ``READY {json}`` line (port and
set-up phase timings) and then reads stdin: ``quit [path]`` drains and
stops the service, writes the recorded spans to ``path`` when tracing
(labelled ``server``),
prints ``BYE`` and exits.  EOF on stdin also stops it, so a dead driver
never leaves a server behind.
"""

from __future__ import annotations

import argparse
import asyncio
import gc
import json
import sys
import time
from pathlib import Path

import numpy as np

from repro.core import DynamicWorkspace, Point, SpatialInstance, Workspace
from repro.core.diskmode import DiskWorkspace, load_persisted, persist_indexes
from repro.service import QueryService, ServiceConfig

#: Index properties in build order, with their benchmark names.
INDEXES = (
    ("r_c", "R_C"),
    ("r_f", "R_F"),
    ("r_p", "R_P"),
    ("rnn_tree", "R_Cn"),
    ("mnd_tree", "R_Cm"),
)


def load_instance(points_path: Path) -> SpatialInstance:
    """The generated points as a ``SpatialInstance`` (uniform weights)."""
    with np.load(points_path) as data:
        sets = [
            [Point(x, y) for x, y in data[name].tolist()]
            for name in ("clients", "facilities", "potentials")
        ]
    return SpatialInstance("perfbench", *sets)


def build_workspace(kind: str, points_path: Path, workdir: Path):
    """Build the served workspace; returns it with per-phase seconds."""
    instance = load_instance(points_path)
    phases: dict[str, float] = {}
    started = time.perf_counter()
    ws = (DynamicWorkspace if kind == "dynamic" else Workspace)(instance)
    phases["workspace_s"] = time.perf_counter() - started
    for attr, name in INDEXES:
        started = time.perf_counter()
        getattr(ws, attr)
        phases[f"index_s.{name}"] = time.perf_counter() - started
    if kind == "dynamic":
        ws.maintainer  # noqa: B018 — built here, not on the first update
        return ws, phases
    started = time.perf_counter()
    persist_indexes(ws, workdir / "persisted", leaf_format="columns")
    phases["persist_s"] = time.perf_counter() - started
    del ws, instance
    gc.collect()
    started = time.perf_counter()
    disk = DiskWorkspace(load_persisted(workdir / "persisted"), mapped=True)
    phases["open_s"] = time.perf_counter() - started
    return disk, phases


async def serve(ws, phases: dict, recorder) -> None:
    service = QueryService({"default": ws}, ServiceConfig())
    host, port = await service.start("127.0.0.1", 0)
    print("READY " + json.dumps({"host": host, "port": port, "setup": phases}))
    sys.stdout.flush()
    loop = asyncio.get_running_loop()
    try:
        while True:
            line = await loop.run_in_executor(None, sys.stdin.readline)
            words = line.split()
            if not words or words[0] == "quit":
                break
    finally:
        await service.shutdown(drain=True)
        if hasattr(ws, "close"):
            ws.close()
    if recorder is not None and len(words) > 1:
        recorder.dump(Path(words[1]), "server")
    print("BYE")
    sys.stdout.flush()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--kind", choices=("disk", "dynamic"), required=True)
    parser.add_argument("--points", type=Path, required=True)
    parser.add_argument("--workdir", type=Path, required=True)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)
    ws, phases = build_workspace(args.kind, args.points, args.workdir)
    recorder = None
    if args.trace:
        # After set-up: bulk loads must not count as index upkeep.
        import spans

        recorder = spans.Recorder()
        spans.install_server(recorder)
    asyncio.run(serve(ws, phases, recorder))
    return 0


if __name__ == "__main__":
    sys.exit(main())
