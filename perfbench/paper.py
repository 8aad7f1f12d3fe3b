"""``paper-1d`` / ``paper-2d``: serial ``repro.plan`` over seeded Table-3/4 shapes.

Each pass draws one fresh instance per case shape (1D-1..4 + 1M-1..8, or
2D-1..4 + 2M-1..8) from the run seed and plans them in order; passes repeat
until the time budget is spent.  A run stops only between passes, so every
shape weighs the same in every run's percentiles and throughput.  The first
``window_passes`` passes always run: they carry the counts that must repeat
exactly for one seed.
"""

from __future__ import annotations

import time
from contextlib import nullcontext
from importlib import import_module
from dataclasses import dataclass

from common import (
    Outcome,
    Tally,
    case_instance,
    check_plan,
    fingerprint,
    median,
    percentile,
    small_instance,
    untraced_seconds,
    vsb_time,
)
from tracer import Tracer


@dataclass(frozen=True)
class PaperSpec:
    planner: str
    cases: tuple[str, ...]
    scale: float
    min_characters: int
    window_passes: int


SPECS = {
    "paper-1d": PaperSpec(
        planner="eblow-1d",
        cases=tuple(f"1D-{i}" for i in range(1, 5)) + tuple(f"1M-{i}" for i in range(1, 9)),
        # 12 candidates for the 1000-candidate shapes, 16 for the 4000 ones:
        # small enough that one 1M-x outlier cannot dominate a run's time.
        scale=0.004,
        min_characters=12,
        window_passes=30,
    ),
    "paper-2d": PaperSpec(
        planner="eblow-2d",
        cases=tuple(f"2D-{i}" for i in range(1, 5)) + tuple(f"2M-{i}" for i in range(1, 9)),
        scale=0.02,
        min_characters=20,
        window_passes=8,
    ),
}

ONEDIM_STAGES = ("successive_rounding", "fast_convergence", "refinement", "post_swap", "post_insertion")
TWODIM_STAGES = ("prefilter", "clustering", "annealing", "unfold")


@dataclass
class Record:
    instance: object
    result: object  # PlanResult or None
    seconds: float
    error: str | None
    trace_id: int = 0


def instance_stream(ctx, spec: PaperSpec):
    rng = ctx.rng("instances")
    while True:
        for case in spec.cases:
            yield case_instance(case, spec.scale, rng.getrandbits(31), spec.min_characters)


def setup(ctx):
    """Import the program and finish one small unmeasured warm-up plan."""
    import repro

    spec = SPECS[ctx.workload]
    kind = "1D" if spec.planner == "eblow-1d" else "2D"
    repro.plan(small_instance(ctx.rng("warm-up"), kind, "warm-up"), spec.planner)
    return None


def teardown(_env) -> list[str]:
    return []


def plan_loop(spec: PaperSpec, instances, *, seconds=None, count=None, tracer=None):
    """Plan serially; stop after ``count`` plans, or at the first pass
    boundary past the deadline once the deterministic window is done."""
    import repro

    plan = repro.plan
    window = len(spec.cases) * spec.window_passes
    deadline = time.perf_counter() + (seconds or 0.0)
    records: list[Record] = []
    while True:
        if count is not None:
            if len(records) >= count:
                break
        elif (len(records) >= window and len(records) % len(spec.cases) == 0
              and time.perf_counter() >= deadline):
            break
        instance = next(instances)
        trace_id = tracer.new_trace() if tracer is not None else 0
        result = error = None
        start = time.perf_counter()
        try:
            with tracer.span("api.plan") if tracer is not None else nullcontext():
                result = plan(instance, spec.planner)
        except Exception as exc:  # noqa: BLE001 — every failure is counted, none stops the run
            error = f"{type(exc).__name__}: {exc}"
        records.append(Record(instance, result, time.perf_counter() - start, error, trace_id))
    return records


def verify(records, tally: Tally) -> None:
    for rec in records:
        tally.attempted += 1
        if rec.error is not None:
            tally.fail(f"{rec.instance.name}: {rec.error}")
            continue
        res = rec.result
        problem = check_plan(rec.instance, res.plan, res.writing_time, res.num_selected)
        if problem is not None:
            tally.fail(f"{rec.instance.name}: {problem}")


def ok_seconds(records) -> list[float]:
    return [r.seconds for r in records if r.error is None]


def run(ctx) -> Outcome:
    spec = SPECS[ctx.workload]
    setup(ctx)
    tally = Tally()
    first = untraced_seconds(ctx)
    records = plan_loop(spec, instance_stream(ctx, spec), seconds=first)
    verify(records, tally)
    window = records[: len(spec.cases) * spec.window_passes]
    deterministic = window_counts(window)
    if not ctx.trace:
        lat = ok_seconds(records)
        busy = sum(lat)
        metrics = {
            "plans_per_s": ((len(records) - tally.failed) / busy if busy else 0.0, "plans/s"),
            "plan_p50_s": (median(lat), "s"),
            "plan_p90_s": (percentile(lat, 90), "s"),
            "computed_p50_s": (median(lat), "s"),
            "computed_p90_s": (percentile(lat, 90), "s"),
            "writing_time_ratio": (deterministic["writing_time_ratio"], "ratio"),
        }
        return Outcome(tally, metrics, deterministic)

    # Traced run: replay exactly the same instances with the wrappers on.
    tracer = Tracer()
    install_plan_wrappers(tracer, spec)
    try:
        traced = plan_loop(spec, (r.instance for r in records), count=len(records), tracer=tracer)
    finally:
        tracer.unwrap_all()
    verify(traced, tally)
    problems = []
    for before, after in zip(records, traced):
        if before.error is None and after.error is None and (
            fingerprint(before.result.plan, before.result.writing_time)
            != fingerprint(after.result.plan, after.result.writing_time)
        ):
            problems.append(f"traced plan of {after.instance.name} differs from the untraced one")
    traced_window = traced[: len(window)]
    deterministic = window_counts(traced_window)
    deterministic.update(span_counts(tracer, traced_window))
    metrics = layer_metrics(spec, records, traced, tracer, deterministic)
    return Outcome(tally, metrics, deterministic, problems, tracer)


def window_counts(window) -> dict:
    """Counts of the fixed window that a seed must reproduce exactly."""
    ok = [r for r in window if r.error is None]
    stats = [r.result.stats for r in ok]
    wt = sum(r.result.writing_time for r in ok)
    vsb = sum(vsb_time(r.instance) for r in ok)
    return {
        "writing_time_ratio": wt / vsb if vsb else 0.0,
        "plans": len(ok),
        "selected": sum(r.result.num_selected for r in ok),
        "lp_iterations": sum(int(s.get("lp_iterations", 0)) for s in stats),
        "clusters": sum(int(s.get("num_clusters", 0)) for s in stats),
        "annealing_moves": sum(int(s.get("annealing_moves", 0)) for s in stats),
        "annealing_accepted": sum(int(s.get("annealing_accepted", 0)) for s in stats),
    }


def span_counts(tracer, window) -> dict:
    traces = {r.trace_id for r in window}
    milp = [s[6] for s in tracer.spans if s[3] == "solver.milp" and s[2] in traces]
    return {
        "lp_solves": sum(1 for s in tracer.spans if s[3] == "solver.lp" and s[2] in traces),
        "milp_solves": len(milp),
        "milp_nodes": sum(a.get("nodes", 0) for a in milp),
        "milp_free_binaries": sum(a.get("free_binaries", 0) for a in milp),
        "milp_gap_max": max((a.get("gap") or 0.0 for a in milp), default=0.0),
        "matching_calls": sum(
            1 for s in tracer.spans if s[3] == "matching.max_weight_matching" and s[2] in traces
        ),
    }


def install_plan_wrappers(tracer, spec: PaperSpec) -> None:
    """Spans around the planner and, for 1D, its stages and solver calls."""
    if spec.planner == "eblow-2d":
        from repro.core.twodim.planner import EBlow2DPlanner

        tracer.wrap(EBlow2DPlanner, "plan", "planner.plan")
        return
    # import_module, not ``import a.b as c``: repro.core.onedim re-exports
    # functions under the names of some of its submodules.
    formulation = import_module("repro.core.onedim.formulation")
    planner = import_module("repro.core.onedim.planner")
    post_insertion = import_module("repro.core.onedim.post_insertion")
    solver = import_module("repro.solver")

    tracer.wrap(planner.EBlow1DPlanner, "plan", "planner.plan")
    tracer.wrap(planner, "initial_state", "core.onedim.successive_rounding")
    tracer.wrap(planner, "successive_rounding", "core.onedim.successive_rounding")
    tracer.wrap(planner, "fast_ilp_convergence", "core.onedim.fast_convergence")
    tracer.wrap(planner.EBlow1DPlanner, "_refine_rows", "core.onedim.refinement")
    tracer.wrap(planner, "post_swap", "core.onedim.post_swap")
    tracer.wrap(planner, "post_insertion", "core.onedim.post_insertion")
    tracer.wrap(formulation, "solve_lp_arrays", "solver.lp")
    tracer.wrap(post_insertion, "max_weight_matching", "matching.max_weight_matching")

    def milp_attrs(attrs, solution, args, kwargs):
        program = args[0] if args else kwargs["program"]
        attrs["free_binaries"] = sum(
            1 for v in program.variables if v.is_integer and v.upper > v.lower
        )
        attrs["nodes"] = int(solution.iterations)
        attrs["gap"] = float(solution.metadata.get("mip_gap") or 0.0)

    # solve_ilp looks solve_milp_scipy up in the repro.solver namespace.
    tracer.wrap(solver, "solve_milp_scipy", "solver.milp", on_result=milp_attrs)


def layer_metrics(spec: PaperSpec, untraced, traced, tracer, counts: dict) -> dict:
    """Per-layer metrics; ``counts`` are the traced window's exact counts."""
    n = max(1, len(traced))
    summary = tracer.summary()

    def per_plan(name: str) -> float:
        return summary.get(name, {}).get("self_s", 0.0) / n

    by_trace: dict[int, dict[str, float]] = {}
    for _sid, _parent, tid, name, start, end, _attrs in tracer.spans:
        if name in ("api.plan", "planner.plan"):
            by_trace.setdefault(tid, {})[name] = end - start
    overheads = [t["api.plan"] - t.get("planner.plan", 0.0) for t in by_trace.values() if "api.plan" in t]

    before, after = ok_seconds(untraced), ok_seconds(traced)
    metrics = {
        "api.overhead_s": (sum(overheads) / max(1, len(overheads)), "s"),
        "bench.trace_overhead_p50_s": (median(after) - median(before), "s"),
        "bench.trace_overhead_plans_per_s": (
            len(after) / max(1e-12, sum(after)) - len(before) / max(1e-12, sum(before)), "plans/s"
        ),
    }
    if spec.planner == "eblow-1d":
        for stage in ONEDIM_STAGES:
            metrics[f"core.onedim.{stage}_s"] = (per_plan(f"core.onedim.{stage}"), "s")
        metrics.update({
            "core.onedim.lp_iterations": (counts["lp_iterations"], "count"),
            "solver.lp_solves": (counts["lp_solves"], "count"),
            "solver.lp_s": (per_plan("solver.lp"), "s"),
            "solver.milp_solves": (counts["milp_solves"], "count"),
            "solver.milp_s": (per_plan("solver.milp"), "s"),
            "solver.milp_free_binaries": (counts["milp_free_binaries"], "count"),
            "solver.milp_nodes": (counts["milp_nodes"], "count"),
            "solver.milp_gap_max": (counts["milp_gap_max"], "ratio"),
            "matching.calls": (counts["matching_calls"], "count"),
            "matching.s": (per_plan("matching.max_weight_matching"), "s"),
        })
    else:
        stage_totals = dict.fromkeys(TWODIM_STAGES, 0.0)
        moves = 0
        for rec in traced:
            if rec.error is None:
                stats = rec.result.stats
                for stage in TWODIM_STAGES:
                    stage_totals[stage] += float(stats.get("stage_seconds", {}).get(stage, 0.0))
                moves += int(stats.get("annealing_moves", 0))
        for stage in TWODIM_STAGES:
            metrics[f"core.twodim.{stage}_s"] = (stage_totals[stage] / n, "s")
        metrics.update({
            "core.twodim.clusters": (counts["clusters"], "count"),
            "floorplan.moves": (counts["annealing_moves"], "count"),
            "floorplan.accepts": (counts["annealing_accepted"], "count"),
            "floorplan.moves_per_s": (
                moves / stage_totals["annealing"] if stage_totals["annealing"] else 0.0, "moves/s"
            ),
        })
    return metrics
