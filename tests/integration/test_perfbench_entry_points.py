"""The benchmark tracer must find every entry point it wraps.

``perfbench/tracer.py`` patches layer entry points by name (module
functions and ``Class.method`` entries read from the class ``__dict__``).
Deleting or renaming one of them breaks the traced benchmark run; this
test makes that a tier-1 failure instead of a late one.  It runs the
installer in a fresh interpreter, because installing patches the
process-wide ``repro`` modules.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parents[2]
PERFBENCH = REPO / "perfbench"


def test_tracer_installs_over_every_wrapped_entry_point():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(REPO / "src"), env.get("PYTHONPATH")])
    )
    proc = subprocess.run(
        [
            sys.executable,
            "-c",
            "import tracer; tracer.install(tracer.Recorder())",
        ],
        cwd=PERFBENCH,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
