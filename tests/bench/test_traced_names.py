"""The benchmark's traced run can wrap every name it looks up.

``perfbench/spans.py`` wraps functions and methods at the names their
callers resolve, and raises ``AttributeError`` on a missing one — but
only a traced benchmark run installs it.  Installing both recorders in
a fresh interpreter here catches a rename before a traced run would.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]

INSTALL = (
    "import spans; "
    "spans.install_server(spans.Recorder()); "
    "spans.install_driver(spans.Recorder())"
)


def test_traced_run_installs_on_the_current_tree():
    env = dict(
        os.environ,
        PYTHONPATH=os.pathsep.join((str(ROOT / "src"), str(ROOT / "perfbench"))),
    )
    proc = subprocess.run(
        [sys.executable, "-c", INSTALL],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
