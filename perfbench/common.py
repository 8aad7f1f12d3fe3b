"""Shared pieces of the benchmark: seeded instances, the independent plan
checker, latency statistics, run bookkeeping and the set-up probe.

Nothing here imports ``repro`` at module level, so ``run.py`` can report a
missing source tree before any import of the program is attempted.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import random
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent

#: Relative tolerance between a reported writing time and the from-scratch
#: recomputation (the planners sum with numpy, the checker with a loop).
WRITING_TIME_RTOL = 1e-9


def pin_one_cpu() -> None:
    """Confine this process, and every process it starts, to one CPU.

    On a small shared VM, work spread over both vCPUs met 13–40 % CPU steal
    and its timings swung by a quarter from run to run; on one vCPU steal
    stayed at 1–5 %.  Children inherit the mask, so ``cpu_count()`` (and
    with it the pool and broker worker counts) reads 1 afterwards.
    """
    try:
        allowed = os.sched_getaffinity(0)
        os.sched_setaffinity(0, {min(allowed)})
    except (AttributeError, OSError):  # pragma: no cover - non-Linux
        pass


def cpu_count() -> int:
    try:
        return max(1, len(os.sched_getaffinity(0)))
    except AttributeError:  # pragma: no cover - non-Linux
        return max(1, os.cpu_count() or 1)


@dataclass
class Context:
    """One benchmark invocation: workload, seed, time budget, private dirs."""

    workload: str
    seed: int
    seconds: float
    trace: bool
    root: Path  # checkout root (holds src/)
    tmp: Path  # private per-run directory, removed at exit
    workers: int = field(default_factory=lambda: min(2, cpu_count()))

    def rng(self, *labels) -> random.Random:
        """A seeded stream, independent per label, derived from the run seed."""
        key = ":".join(str(x) for x in (self.workload, self.seed, *labels))
        return random.Random(hashlib.sha256(key.encode()).digest())

    def child_env(self) -> dict:
        """Environment for every subprocess: our source tree, our cache dir."""
        env = dict(os.environ)
        src = str(self.root / "src")
        parts = [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p]
        env["PYTHONPATH"] = os.pathsep.join([src, *[p for p in parts if p != src]])
        return env


# --------------------------------------------------------------------------- #
# Seeded instances
# --------------------------------------------------------------------------- #


def case_instance(case_name: str, scale: float, seed: int, min_characters: int = 20):
    """A Table-3/4 case shape at ``scale``, drawn with ``seed``.

    Candidates scale linearly, down to ``min_characters`` (20 in
    ``repro.workloads.build_instance``), and the stencil edge with the square
    root of the candidate count actually drawn, so the share of candidates
    that fit stays the paper case's even where the floor applies.  The
    character draw comes from ``seed``, not the case's fixed seed.
    """
    from repro.workloads.generator import generate_1d_instance, generate_2d_instance
    from repro.workloads.suites import ALL_CASES

    case = ALL_CASES[case_name]
    num_characters = max(min_characters, int(round(case.num_characters * scale)))
    edge = case.stencil * math.sqrt(num_characters / case.num_characters) * case.stencil_factor
    common = dict(
        num_characters=num_characters,
        num_regions=case.num_regions,
        seed=seed,
        stencil_width=edge,
        stencil_height=edge,
        width_range=(case.width_lo, case.width_hi),
        name=f"{case_name}-s{seed}",
    )
    if case.kind == "1D":
        return generate_1d_instance(**common)
    return generate_2d_instance(height_range=(case.width_lo, case.width_hi), **common)


def small_instance(rng: random.Random, kind: str, name: str):
    """A small inline instance of the kind the daemon and spool workloads send."""
    from repro.workloads.generator import generate_1d_instance, generate_2d_instance

    seed = rng.getrandbits(31)
    if kind == "1D":
        return generate_1d_instance(
            num_characters=rng.randint(20, 40),
            num_regions=rng.choice((1, 2, 4)),
            seed=seed,
            stencil_width=260.0,
            stencil_height=260.0,
            width_range=(28.0, 70.0),
            name=name,
        )
    return generate_2d_instance(
        num_characters=rng.randint(15, 30),
        num_regions=rng.choice((1, 2)),
        seed=seed,
        stencil_width=200.0,
        stencil_height=200.0,
        width_range=(24.0, 60.0),
        height_range=(24.0, 60.0),
        name=name,
    )


# --------------------------------------------------------------------------- #
# Independent check
# --------------------------------------------------------------------------- #


def check_plan(instance, plan_dict, writing_time: float, num_selected: int) -> str | None:
    """Rebuild, validate and re-score one returned plan; ``None`` when it holds.

    The writing time is recomputed from scratch with the loop-based
    reference ``region_writing_times_scalar``, not the planners' vectorized
    evaluator, so a wrong reported value cannot vouch for itself.
    """
    from repro.errors import ReproError
    from repro.model import StencilPlan
    from repro.model.writing_time import region_writing_times_scalar

    if plan_dict is None:
        return "result carries no plan"
    try:
        plan = StencilPlan.from_dict(instance, plan_dict)
        plan.validate()
    except (ReproError, KeyError, TypeError, ValueError) as exc:
        return f"plan does not validate: {type(exc).__name__}: {exc}"
    wanted_kind = "row_placements" if instance.kind == "1D" else "placements2d"
    if plan.selected_names and not getattr(plan, wanted_kind):
        return f"{instance.kind} plan has no {wanted_kind}"
    names = plan.selected_names
    if len(names) != num_selected:
        return f"reported {num_selected} selected characters, plan places {len(names)}"
    recomputed = max(region_writing_times_scalar(instance, names))
    if not math.isclose(recomputed, writing_time, rel_tol=WRITING_TIME_RTOL, abs_tol=1e-9):
        return f"reported writing time {writing_time!r}, recomputed {recomputed!r}"
    return None


@dataclass
class Answer:
    """What the metrics keep of one returned result, once it is checked."""

    failure: str | None = "no answer"  # failed status or failed check
    fingerprint: str | None = None  # set when an ok plan came back
    writing_time: float = 0.0
    vsb: float = 0.0

    @property
    def ok(self) -> bool:
        return self.fingerprint is not None


def check_answer(instance, result) -> Answer:
    """Check one ``PlanResult`` / ``JobResult`` and reduce it to an Answer."""
    if result is None:
        return Answer()
    if not result.ok:
        return Answer(failure=f"status {result.status}: {result.error}")
    return Answer(
        failure=check_plan(instance, result.plan, result.writing_time, result.num_selected),
        fingerprint=fingerprint(result.plan, result.writing_time),
        writing_time=result.writing_time,
        vsb=vsb_time(instance),
    )


def vsb_time(instance) -> float:
    """Pure-VSB writing time of an instance (nothing on the stencil)."""
    return max(instance.vsb_times())


def fingerprint(plan_dict, writing_time: float) -> str:
    """Digest of a plan's selection, positions and writing time."""
    body = {
        "rows": [[p["name"], p["row"], repr(p["x"])] for p in plan_dict.get("row_placements", [])],
        "xy": [[p["name"], repr(p["x"]), repr(p["y"])] for p in plan_dict.get("placements2d", [])],
        "selection": list(plan_dict.get("selection", [])),
        "writing_time": repr(writing_time),
    }
    return hashlib.sha256(json.dumps(body, sort_keys=True).encode()).hexdigest()[:24]


# --------------------------------------------------------------------------- #
# Statistics and bookkeeping
# --------------------------------------------------------------------------- #


def percentile(values, q: float) -> float:
    """Linear-interpolation percentile (``q`` in [0, 100]); 0.0 when empty."""
    data = sorted(values)
    if not data:
        return 0.0
    if len(data) == 1:
        return float(data[0])
    pos = (len(data) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(data) - 1)
    return float(data[lo] + (data[hi] - data[lo]) * (pos - lo))


def median(values) -> float:
    return float(statistics.median(values)) if values else 0.0


def pid_alive(pid: int, grace: float = 5.0) -> bool:
    """Whether ``pid`` is still running after up to ``grace`` seconds."""
    deadline = time.monotonic() + grace
    while True:
        try:
            os.kill(pid, 0)
        except ProcessLookupError:
            return False
        except PermissionError:
            return True
        if time.monotonic() >= deadline:
            return True
        time.sleep(0.05)


def peak_rss_mb() -> float:
    """Peak RSS of this process plus the largest reaped descendant, in MB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


@dataclass
class Tally:
    """Attempted / failed operations plus the reasons of the failures."""

    attempted: int = 0
    failed: int = 0
    reasons: list[str] = field(default_factory=list)

    def fail(self, reason: str) -> None:
        self.failed += 1
        if len(self.reasons) < 20:
            self.reasons.append(reason)


@dataclass
class Outcome:
    """What a workload hands back to ``run.py``."""

    tally: Tally
    metrics: dict  # name -> (value, unit)
    deterministic: dict  # counts that must repeat exactly for one seed
    problems: list[str] = field(default_factory=list)  # non-plan failures
    tracer: object = None  # the traced phase's spans, written out by run.py


def untraced_seconds(ctx: Context) -> float:
    """Seconds of the untraced measured phase.

    A traced run spends half its budget on an untraced phase and then
    replays the same work traced, so bit-identity and tracing overhead are
    measured on identical inputs.
    """
    return ctx.seconds / 2.0 if ctx.trace else ctx.seconds


# --------------------------------------------------------------------------- #
# Set-up probe
# --------------------------------------------------------------------------- #

SETUP_SAMPLES = 3


def measure_setup(ctx: Context) -> float:
    """Median seconds from spawning a fresh interpreter to a warm system.

    Each probe runs ``probe.py``: import ``repro``, bring the workload's
    service up (daemon with a warm pool, or broker workers), finish one
    warm-up plan, print ``ready``, then tear everything down.
    """
    samples = []
    for index in range(SETUP_SAMPLES):
        probe_dir = ctx.tmp / f"probe{index}"
        probe_dir.mkdir()
        cmd = [
            sys.executable, str(BENCH_DIR / "probe.py"), ctx.workload, str(ctx.seed),
            str(probe_dir), str(ctx.root),
        ]
        start = time.perf_counter()
        proc = subprocess.Popen(
            cmd, stdout=subprocess.PIPE, env=ctx.child_env(), cwd=str(ctx.root), text=True
        )
        try:
            line = proc.stdout.readline()
            ready = time.perf_counter() - start
            rest = proc.stdout.read()
            code = proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            raise RuntimeError("set-up probe did not exit") from None
        finally:
            proc.stdout.close()
        if line.strip() != "ready" or code != 0:
            raise RuntimeError(f"set-up probe failed (exit {code}): {line!r} {rest[-500:]!r}")
        samples.append(ready)
    return median(samples)
