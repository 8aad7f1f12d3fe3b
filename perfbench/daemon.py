"""Run ``eblow serve`` for the benchmark, optionally with runtime spans.

Usage: ``python daemon.py [--trace-out FILE] <eblow serve arguments>``.

With ``--trace-out`` the daemon process times its result-store reads and
writes and its job hashing, and writes the per-name span summary (plus the
store hit count) to FILE after the server has drained.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))


def main(argv: list[str]) -> int:
    trace_out = None
    if argv[:1] == ["--trace-out"]:
        trace_out, argv = argv[1], argv[2:]
    from repro.cli import main as cli_main

    if trace_out is None:
        return cli_main(["serve", *argv])

    from tracer import Tracer, install_runtime_wrappers

    tracer = Tracer()
    install_runtime_wrappers(tracer)
    try:
        return cli_main(["serve", *argv])
    finally:
        tracer.unwrap_all()
        summary = tracer.summary()
        hits = sum(1 for attrs in tracer.attrs_of("runtime.store_get") if attrs.get("hit"))
        Path(trace_out).write_text(json.dumps({"spans": summary, "store_get_hits": hits}))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
