"""Start ``segbus serve`` for the benchmark, optionally traced.

Usage: ``python serve_boot.py [--trace-out PATH] serve [serve flags...]``

With ``--trace-out`` the layer wrappers of :mod:`tracer` are installed
before the CLI starts, and each SIGUSR1 writes the spans and counts
recorded so far to PATH and starts a fresh recording.  Everything else is
``repro.cli.main`` unchanged.
"""

from __future__ import annotations

import signal
import sys
from pathlib import Path


def main(argv: list) -> int:
    here = Path(__file__).resolve().parent
    sys.path.insert(0, str(here.parent / "src"))
    sys.path.insert(0, str(here))
    trace_out = None
    if argv[:1] == ["--trace-out"]:
        trace_out, argv = argv[1], argv[2:]
    if trace_out is not None:
        import tracer

        recorder = tracer.Recorder()
        tracer.install(recorder)

        def dump_and_reset(signum, frame):
            recorder.dump(trace_out)
            recorder.reset()

        signal.signal(signal.SIGUSR1, dump_and_reset)
    from repro.cli import main as cli_main

    return cli_main(argv)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
