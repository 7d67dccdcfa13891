"""Spawning, timing and stopping the server child (``child.py``)."""

from __future__ import annotations

import json
import os
import select
import subprocess
import sys
import time
from pathlib import Path
from typing import Optional

from repro.service import ServiceClient

#: How long one child may take from spawn to a bound port.
SETUP_TIMEOUT_S = 150.0
#: How long a child may take to drain, dump spans and exit.
QUIT_TIMEOUT_S = 60.0


class BenchError(RuntimeError):
    """The benchmark itself could not run (not a failed operation)."""


class ServerProcess:
    """One server child.  ``setup_s`` runs from spawning the child to
    its first ``ok`` health reply; ``setup`` holds the child's own
    per-phase timings."""

    def __init__(
        self, root: Path, kind: str, points: Path, workdir: Path, trace: bool = False
    ):
        workdir.mkdir(parents=True, exist_ok=True)
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(root / "src"), str(root / "perfbench")]
        )
        argv = [
            sys.executable,
            str(root / "perfbench" / "child.py"),
            "--kind",
            kind,
            "--points",
            str(points),
            "--workdir",
            str(workdir),
        ]
        if trace:
            argv.append("--trace")
        self.workdir = workdir
        self._clients: list[ServiceClient] = []
        started = time.monotonic()
        self.proc = subprocess.Popen(
            argv,
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            cwd=root,
            env=env,
            text=True,
        )
        try:
            info = self._ready()
            self.host, self.port = info["host"], info["port"]
            self.setup: dict[str, float] = info["setup"]
            health = self.connect().health()
            self.setup_s = time.monotonic() - started
            if health.get("status") != "serving":
                raise BenchError(f"server child is not serving: {health}")
        except BaseException:
            self.kill()
            raise

    def _ready(self) -> dict:
        ready, _, _ = select.select([self.proc.stdout], [], [], SETUP_TIMEOUT_S)
        line = self.proc.stdout.readline() if ready else ""
        if not line.startswith("READY "):
            raise BenchError(
                f"server child did not come up (exit code {self.proc.poll()})"
            )
        return json.loads(line[len("READY "):])

    def connect(self) -> ServiceClient:
        client = ServiceClient(self.host, self.port)
        self._clients.append(client)
        return client

    def peak_rss_mib(self) -> float:
        """The child's peak resident set (``VmHWM``) in MiB."""
        status = Path(f"/proc/{self.proc.pid}/status").read_text()
        for line in status.splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
        raise BenchError("VmHWM missing from /proc status")

    def stop(self, spans_path: Optional[Path] = None) -> None:
        """Drain and stop the child (dumping spans when traced)."""
        for client in self._clients:
            client.close()
        self._clients.clear()
        command = "quit" if spans_path is None else f"quit {spans_path}"
        try:
            out, _ = self.proc.communicate(command + "\n", timeout=QUIT_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self.kill()
            raise BenchError("server child did not stop in time") from None
        if self.proc.returncode != 0 or "BYE" not in out:
            raise BenchError(f"server child exited with {self.proc.returncode}")

    def kill(self) -> None:
        for client in self._clients:
            try:
                client.close()
            except OSError:
                pass
        self._clients.clear()
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
