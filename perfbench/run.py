"""Benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the repository root: it plans with the program under ``./src``.
It generates every input from ``--seed``, measures for about ``--seconds``
seconds, checks every plan independently, and prints one JSON line last:
``{"correct", "attempted", "failed", "metrics"}``.  ``--trace 0`` reports
the end-to-end metrics of ``BENCHMARK.json``, ``--trace 1`` the per-layer
ones (see ``GLOSSARY.md``).  The exit code is 0 only when every check held.

Every run works in a private directory under ``.bench_run/`` (result
stores, spools, sockets) and removes it at the end.  Counts that must
repeat exactly for one seed are kept in ``.bench_state/`` and compared on
the next run of the same seed and code; a traced run writes its spans to
``.bench_traces/``.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import os
import shutil
import sys
import tempfile
import traceback
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

from common import Context, measure_setup, peak_rss_mb, pin_one_cpu  # noqa: E402

WORKLOADS = {
    "paper-1d": "paper",
    "paper-2d": "paper",
    "serve-mixed": "serve_mixed",
    "spool-batch": "spool_batch",
}


def workload_module(name: str):
    return importlib.import_module(WORKLOADS[name])


def code_digest(root: Path) -> str:
    """Digest of the program and benchmark sources (keys the repeat state)."""
    digest = hashlib.sha256()
    for base in (root / "src", BENCH_DIR):
        for path in sorted(base.rglob("*.py")):
            digest.update(str(path.relative_to(root)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def check_repeat(ctx: Context, counts: dict) -> list[str]:
    """Compare this run's deterministic counts with an earlier run's."""
    state = ctx.root / ".bench_state"
    state.mkdir(exist_ok=True)
    path = state / f"{ctx.workload}-seed{ctx.seed}-trace{int(ctx.trace)}-{code_digest(ctx.root)}.json"
    current = json.loads(json.dumps(counts, sort_keys=True))
    if not path.exists():
        path.write_text(json.dumps(current, sort_keys=True, indent=1))
        return []
    previous = json.loads(path.read_text())
    return [
        f"deterministic count {key!r} changed for this seed: {previous.get(key)!r} -> {current.get(key)!r}"
        for key in sorted(set(previous) | set(current))
        if previous.get(key) != current.get(key)
    ]


def assemble(spec: dict, ctx: Context, measured: dict) -> tuple[dict, list[str]]:
    """Exactly the metrics ``BENCHMARK.json`` lists for this mode, with units."""
    listed = spec["per_layer" if ctx.trace else "end_to_end"]
    problems = [f"metric {name!r} is not listed in BENCHMARK.json"
                for name in sorted(set(measured) - {m["name"] for m in listed})]
    out = {}
    for entry in listed:
        name, unit = entry["name"], entry["unit"]
        if name in measured:
            value, measured_unit = measured[name]
            if measured_unit != unit:
                problems.append(f"metric {name!r} measured in {measured_unit}, listed in {unit}")
        elif ctx.trace:
            value = 0  # a layer this workload does not exercise
        else:
            problems.append(f"end-to-end metric {name!r} was not measured")
            value = 0
        out[name] = {"value": value, "unit": unit}
    return out, problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "repro" / "__init__.py").is_file():
        print("perfbench: no program at ./src/repro; run from the repository root", file=sys.stderr)
        return 2
    spec = json.loads((root / "BENCHMARK.json").read_text())
    pin_one_cpu()
    sys.path.insert(1, str(root / "src"))

    base = root / ".bench_run"
    base.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f"{args.workload}-{args.seed}-", dir=base))
    # Anything that fell back to the default result store would land here,
    # never in a store shared with other runs or users.
    fallback_store = tmp / "default-store"
    os.environ["REPRO_CACHE_DIR"] = str(fallback_store)
    ctx = Context(args.workload, args.seed, args.seconds, bool(args.trace), root, tmp)
    try:
        setup_s = None if ctx.trace else measure_setup(ctx)
        outcome = workload_module(args.workload).run(ctx)
    except Exception:  # noqa: BLE001 — a crashed run prints no result
        traceback.print_exc()
        return 1
    finally:
        fallback_used = fallback_store.exists()
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            base.rmdir()
        except OSError:
            pass

    problems = list(outcome.problems)
    if fallback_used:
        problems.append("a run fell back to the default result store")
    if tmp.exists():
        problems.append(f"private run directory {tmp} was not removed")
    problems += check_repeat(ctx, outcome.deterministic)
    measured = dict(outcome.metrics)
    if not ctx.trace:
        measured["setup_s"] = (setup_s, "s")
        measured["peak_rss_mb"] = (peak_rss_mb(), "MB")
    metrics, missing = assemble(spec, ctx, measured)
    problems += missing
    if outcome.tracer is not None:
        traces = root / ".bench_traces"
        traces.mkdir(exist_ok=True)
        outcome.tracer.write(traces / f"{ctx.workload}-seed{ctx.seed}.jsonl")

    tally = outcome.tally
    for reason in tally.reasons:
        print(f"failed: {reason}", file=sys.stderr)
    for problem in problems[:20]:
        print(f"problem: {problem}", file=sys.stderr)
    if len(problems) > 20:
        print(f"problem: ... and {len(problems) - 20} more", file=sys.stderr)
    correct = tally.failed == 0 and not problems
    print(json.dumps({
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
