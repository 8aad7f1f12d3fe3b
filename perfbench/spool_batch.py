"""``spool-batch``: ``run_jobs`` over a ``BrokerScheduler`` with a private spool.

The scheduler owns ``ctx.workers`` worker subprocesses (one, as the run is
pinned to one CPU) and a private result store.  A seeded grid of small jobs
(one 1D instance under ``greedy-1d`` and ``eblow-1d``, one 2D instance under
``greedy-2d``, per grid row) is driven in closed-loop waves of ``WAVE_JOBS`` jobs: a wave is enqueued, and the next
one starts when every result of this one has been fetched.  After
``FRESH_SHARE`` of the budget the jobs of the first ``WINDOW_WAVES`` waves
are replayed once, in waves, against the warm store.  Replaying only that
fixed window keeps fresh jobs the bulk of the samples, so the latency
percentiles do not sit on the gap between the fresh and the replay
cluster.  Per-job latency runs from the wave's start to the
job's result being yielded by ``iter_jobs`` (``run_jobs`` is the list of it).
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from pathlib import Path

from common import (
    Answer,
    Outcome,
    Tally,
    check_answer,
    median,
    percentile,
    pid_alive,
    small_instance,
    untraced_seconds,
)
from tracer import Tracer, install_runtime_wrappers

#: Share of the measured phase spent on fresh waves; the replay follows.
FRESH_SHARE = 0.9
#: Fresh waves that always run: their outcome counts and writing times must
#: repeat exactly for one seed.
WINDOW_WAVES = 80
WAIT_TIMEOUT = 60.0
#: Driver and worker poll period.  At the default 50 ms, job latencies fell
#: into 50 ms steps and p90 jumped between steps from run to run.
POLL_INTERVAL = 0.01
#: Jobs per closed-loop wave: the machine's two CPUs.  The one worker runs a
#: wave's jobs back to back, so the idle poll legs are paid once per two
#: jobs.  With one job per wave those legs were most of a job's latency and
#: throughput followed the host's wake-up latency (IQR 23 % over 10 seeds).
WAVE_JOBS = 2


@dataclass
class JobRecord:
    """One job's answer, checked as soon as its wave is done.

    Only the metrics' fields are kept (and the job itself for the replayed
    window), so the benchmark's memory does not grow with throughput.
    """

    job: object  # None once settled, unless the job is replayed
    role: str  # fresh | replay
    seconds: float
    wave: int
    result: object = None  # the JobResult, until settle()
    error: str | None = None  # exception from iter_jobs
    answer: Answer = field(default_factory=Answer)
    job_id: str = ""
    name: str = ""
    worker_pid: int = 0
    cache_hit: bool = False

    def __post_init__(self) -> None:
        self.job_id = self.job.job_id
        self.name = f"{self.job.case_name}/{self.job.spec.planner}"

    @property
    def ok(self) -> bool:
        return self.answer.ok

    def settle(self) -> None:
        res, self.result = self.result, None
        instance = self.job.instance
        if not (self.role == "fresh" and self.wave < WINDOW_WAVES):
            self.job = None
        if res is not None:
            self.worker_pid, self.cache_hit = res.worker_pid, res.cache_hit
        self.answer = check_answer(instance, res)


@dataclass
class Env:
    scheduler: object
    store: object
    pids: list


def open_env(ctx, directory: Path) -> Env:
    from repro.dist import BrokerConfig, BrokerScheduler
    from repro.runtime import ResultStore

    store_dir = directory / "store"
    scheduler = BrokerScheduler(
        directory / "spool",
        config=BrokerConfig(store_dir=str(store_dir)),
        workers=ctx.workers,
        poll_interval=POLL_INTERVAL,
        wait_timeout=WAIT_TIMEOUT,
    )
    env = Env(scheduler, ResultStore(store_dir), [])
    # Warm-up: one unmeasured wave, so the workers are up and registered.
    from repro.runtime import PlanJob, PlannerSpec, run_jobs

    rng = ctx.rng("warm-up")
    warm = [
        PlanJob(spec=PlannerSpec("greedy-1d"), instance=small_instance(rng, "1D", f"warm-{i}"))
        for i in range(ctx.workers)
    ]
    results = run_jobs(warm, scheduler=scheduler, store=env.store)
    if not all(r.ok for r in results):
        raise RuntimeError(f"warm-up failed: {[r.error for r in results]}")
    env.pids += [r.worker_pid for r in results]
    return env


def close_env(env: Env, records=()) -> list[str]:
    """Stop the worker fleet and check that no worker outlived it."""
    env.scheduler.close()
    pids = set(env.pids) | {r.worker_pid for r in records}
    return [f"broker worker {pid} outlived the scheduler" for pid in pids if pid and pid_alive(pid)]


def setup(ctx):
    return open_env(ctx, ctx.tmp / "broker")


def teardown(env) -> list[str]:
    return close_env(env)


def job_stream(ctx):
    from repro.runtime import PlanJob, PlannerSpec

    rng = ctx.rng("grid")
    row = 0
    while True:
        one = small_instance(rng, "1D", f"row{row}-1d")
        two = small_instance(rng, "2D", f"row{row}-2d")
        for instance, planner in ((one, "greedy-1d"), (one, "eblow-1d"), (two, "greedy-2d")):
            yield PlanJob(spec=PlannerSpec(planner), instance=instance, label=planner)
        row += 1


def run_waves(ctx, env: Env, jobs, role: str, stop, tracer=None):
    """Closed-loop waves of ``WAVE_JOBS`` jobs until ``stop(wave)`` or the
    jobs run out; returns (records, wall seconds)."""
    from repro.runtime import iter_jobs

    records: list[JobRecord] = []
    wave = 0
    start_all = time.perf_counter()
    while not stop(wave):
        batch = [next(jobs, None) for _ in range(WAVE_JOBS)]
        batch = [job for job in batch if job is not None]
        if not batch:
            break
        if tracer is not None:
            tracer.new_trace()
        start = time.perf_counter()
        done = 0
        answered: list[JobRecord] = []
        try:
            for job, result in zip(batch, iter_jobs(batch, scheduler=env.scheduler, store=env.store)):
                answered.append(JobRecord(job, role, time.perf_counter() - start, wave, result))
        except Exception as exc:  # noqa: BLE001 — counted as failures of the unfinished jobs
            for job in batch[len(answered):]:
                answered.append(JobRecord(job, role, time.perf_counter() - start, wave,
                                          error=f"{type(exc).__name__}: {exc}"))
        for rec in answered:
            rec.settle()
        records += answered
        wave += 1
    return records, time.perf_counter() - start_all


def drive(ctx, env: Env, *, seconds=None, fresh_waves=None, tracer=None):
    """Fresh waves (for ``seconds * FRESH_SHARE``, or exactly ``fresh_waves``),
    then one replay of the window's jobs."""
    if fresh_waves is None:
        deadline = time.perf_counter() + seconds * FRESH_SHARE

        def stop(wave):
            return wave >= WINDOW_WAVES and time.perf_counter() >= deadline
    else:
        def stop(wave):
            return wave >= fresh_waves

    fresh, fresh_wall = run_waves(ctx, env, job_stream(ctx), "fresh", stop, tracer)
    window = (r.job for r in fresh if r.job is not None)
    replay, replay_wall = run_waves(ctx, env, window, "replay", lambda _wave: False, tracer)
    return fresh + replay, fresh_wall + replay_wall, max((r.wave for r in fresh), default=-1) + 1


def committed_jobs(env: Env) -> set[str]:
    """Job ids a worker committed on this spool (ledger ``done`` records)."""
    return {rec["job_id"] for rec in read_ledger(env.scheduler.broker.ledger_path)
            if rec.get("op") == "done"}


def verify(records, tally: Tally, committed: set[str]) -> list[str]:
    """Independent check of every result; a fresh job must have been run by
    a worker (a broker fetch reads the store, so ``cache_hit`` cannot tell)."""
    problems = []
    for rec in records:
        tally.attempted += 1
        failure = rec.error or rec.answer.failure
        if failure is not None:
            tally.fail(f"{rec.name}: {failure}")
        if rec.role == "fresh" and rec.job_id not in committed:
            problems.append(f"fresh job {rec.name} was answered from the store")
    return problems


def deterministic_counts(records) -> dict:
    window = [r for r in records if r.role == "fresh" and r.wave < WINDOW_WAVES]
    ok = [r.answer for r in window if r.ok]
    wt = sum(a.writing_time for a in ok)
    vsb = sum(a.vsb for a in ok)
    return {
        "writing_time_ratio": wt / vsb if vsb else 0.0,
        "window_jobs": len(ok),
        "replay_hits": sum(1 for r in records if r.role == "replay" and r.cache_hit),
    }


def seconds_of(records, role=None) -> list[float]:
    return [r.seconds for r in records if r.error is None and (role is None or r.role == role)]


def run(ctx) -> Outcome:
    tally = Tally()
    first = untraced_seconds(ctx)
    env = setup(ctx)
    records: list[JobRecord] = []
    try:
        records, wall, fresh_waves = drive(ctx, env, seconds=first)
    finally:
        problems = close_env(env, records)
    problems += verify(records, tally, committed_jobs(env))
    deterministic = deterministic_counts(records)
    if not ctx.trace:
        lat, computed = seconds_of(records), seconds_of(records, "fresh")
        metrics = {
            "plans_per_s": ((tally.attempted - tally.failed) / wall, "plans/s"),
            "plan_p50_s": (median(lat), "s"),
            "plan_p90_s": (percentile(lat, 90), "s"),
            "computed_p50_s": (median(computed), "s"),
            "computed_p90_s": (percentile(computed, 90), "s"),
            "writing_time_ratio": (deterministic["writing_time_ratio"], "ratio"),
        }
        return Outcome(tally, metrics, deterministic, problems)

    # Traced run: fresh spool, store and workers; the same number of waves.
    tracer = Tracer()
    traced_env = open_env(ctx, ctx.tmp / "broker-traced")
    fetched_at: dict[str, float] = {}
    install_dist_wrappers(tracer, fetched_at)
    traced: list[JobRecord] = []
    try:
        traced, traced_wall, _ = drive(ctx, traced_env, fresh_waves=fresh_waves, tracer=tracer)
    finally:
        tracer.unwrap_all()
        problems += close_env(traced_env, traced)
    problems += verify(traced, tally, committed_jobs(traced_env))
    before = {r.job_id: r.answer.fingerprint for r in records if r.ok}
    for rec in traced:
        if rec.ok and rec.job_id in before and rec.answer.fingerprint != before[rec.job_id]:
            problems.append(f"traced plan of {rec.name} differs from the untraced one")
    deterministic = deterministic_counts(traced)
    ledger = read_ledger(traced_env.scheduler.broker.ledger_path)
    deterministic["claims_per_commit"] = ledger_counts(ledger)["claims_per_commit"]
    metrics = layer_metrics(records, wall, traced, traced_wall, tracer, ledger, fetched_at)
    return Outcome(tally, metrics, deterministic, problems, tracer)


def install_dist_wrappers(tracer: Tracer, fetched_at: dict) -> None:
    from repro.dist import Broker

    def note_fetch(_attrs, result, args, _kwargs):
        if result is not None:
            fetched_at.setdefault(args[1].job_id, time.time())

    install_runtime_wrappers(tracer)
    tracer.wrap(Broker, "enqueue", "dist.enqueue")
    tracer.wrap(Broker, "fetch", "dist.fetch", on_result=note_fetch)
    tracer.wrap(Broker, "reap", "dist.reap")


def read_ledger(path: Path) -> list[dict]:
    records = []
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            try:
                records.append(json.loads(line))
            except ValueError:
                continue
    return records


def ledger_counts(ledger) -> dict:
    ops: dict[str, int] = {}
    for rec in ledger:
        ops[rec.get("op")] = ops.get(rec.get("op"), 0) + 1
    done = ops.get("done", 0)
    return {
        "claims_per_commit": ops.get("leased", 0) / done if done else 0.0,
        "stale_results": ops.get("stale_discarded", 0),
        "requeues": ops.get("requeued", 0) + ops.get("lease_expired", 0),
        "commits": done,
    }


def layer_metrics(untraced, wall, traced, wall_traced, tracer, ledger, fetched_at) -> dict:
    summary = tracer.summary()
    jobs = max(1, len(traced))

    def per_call(name):
        entry = summary.get(name, {})
        return entry.get("self_s", 0.0) / entry["count"] if entry.get("count") else 0.0

    def per_job(name):
        return summary.get(name, {}).get("self_s", 0.0) / jobs

    stamps: dict[str, dict[str, float]] = {}
    for rec in ledger:
        if rec.get("op") in ("queued", "leased", "done"):
            stamps.setdefault(rec["job_id"], {}).setdefault(rec["op"], float(rec["ts"]))
    legs = {"enqueue_to_claim": [], "claim_to_commit": [], "commit_to_fetch": []}
    for job_id, ts in stamps.items():
        if {"queued", "leased", "done"} <= ts.keys():
            legs["enqueue_to_claim"].append(ts["leased"] - ts["queued"])
            legs["claim_to_commit"].append(ts["done"] - ts["leased"])
            if job_id in fetched_at:
                legs["commit_to_fetch"].append(fetched_at[job_id] - ts["done"])
    counts = ledger_counts(ledger)
    gets = tracer.attrs_of("runtime.store_get")
    hits = seconds_of(traced, "replay")
    ok_before = [r for r in untraced if r.ok]
    ok_after = [r for r in traced if r.ok]
    return {
        "runtime.store_gets": (len(gets), "count"),
        "runtime.store_get_s": (per_job("runtime.store_get"), "s"),
        "runtime.store_hit_ratio": (
            sum(1 for a in gets if a.get("hit")) / len(gets) if gets else 0.0, "ratio"
        ),
        "runtime.store_puts": (counts["commits"], "count"),
        "runtime.job_hash_s": (per_job("runtime.job_hash"), "s"),
        "dist.enqueue_s": (per_call("dist.enqueue"), "s"),
        "dist.fetch_s": (per_call("dist.fetch"), "s"),
        "dist.reap_s": (per_call("dist.reap"), "s"),
        **{f"dist.{leg}_p50_s": (median(values), "s") for leg, values in legs.items()},
        "dist.claims_per_commit": (counts["claims_per_commit"], "ratio"),
        "dist.stale_results": (counts["stale_results"], "count"),
        "dist.requeues": (counts["requeues"], "count"),
        "dist.hit_p50_s": (median(hits), "s"),
        "dist.hit_p90_s": (percentile(hits, 90), "s"),
        "bench.trace_overhead_p50_s": (median(seconds_of(traced)) - median(seconds_of(untraced)), "s"),
        "bench.trace_overhead_plans_per_s": (
            len(ok_after) / wall_traced - len(ok_before) / wall, "plans/s"
        ),
    }
