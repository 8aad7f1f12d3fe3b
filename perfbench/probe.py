"""Set-up probe: ``python probe.py <workload> <seed> <dir> <root>``.

Runs in a fresh interpreter: imports the program, brings the workload's
service up with one warm-up plan (the workload module's ``setup``), prints
``ready``, then tears everything down.  ``common.measure_setup`` times it
from spawn to ``ready``.
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))


def main(argv: list[str]) -> int:
    workload, seed, directory, root = argv
    sys.path.insert(1, str(Path(root) / "src"))
    from common import Context
    from run import workload_module

    ctx = Context(workload, int(seed), 0.0, False, Path(root), Path(directory))
    module = workload_module(workload)
    env = module.setup(ctx)
    print("ready", flush=True)
    problems = module.teardown(env)
    for problem in problems:
        print(problem, file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
