"""``serve-mixed``: an ``eblow serve`` daemon under two closed-loop clients.

The daemon runs as a subprocess with a warm pool of ``ctx.workers`` workers
and a private store.  Each of two blocking ``ServeClient`` connections (one
thread each) walks its own seeded op stream and sends the next op only when
the previous one has been answered.  One cycle of ``CYCLE`` mixes:

* ``fresh``  — a never-seen inline instance: must be ``computed``;
* ``repeat`` — an instance this connection already had answered: ``store_hit``;
* ``batch``  — one ``batch`` frame ``[X, X, R]`` with a fresh X sent twice
  (computed, then coalesced, or store_hit when X's flight already
  finished) and a repeat R (store_hit);
* ``pair``   — both connections meet at a barrier and send the same fresh
  instance: one computes, the other coalesces (or, if it arrives after the
  result was stored, hits the store).

Latency is taken per request from just before the send to its result frame;
the ack frame gives the admission leg.  Both come from a tap on the
client's frame reader, which is also how per-entry outcomes of a ``batch``
frame are read.
"""

from __future__ import annotations

import json
import os
import selectors
import subprocess
import sys
import threading
import time
from collections import deque
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path

from common import (
    BENCH_DIR,
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
from tracer import Tracer

CYCLE = ("fresh", "fresh", "repeat", "fresh", "batch", "fresh", "repeat", "pair", "fresh", "fresh")
CONNECTIONS = 2
#: Ops per connection that always run: their schedule-fixed outcome counts
#: and writing times must repeat exactly for one seed.
WINDOW_OPS = 300
#: Repeats pick from this many of the connection's latest fresh answers.
REPEAT_POOL = 64
BARRIER_TIMEOUT = 10.0
CLIENT_TIMEOUT = 60.0
READY_TIMEOUT = 60.0


@dataclass
class Request:
    """One plan request as sent (a ``batch`` op carries several).

    ``settle`` checks the answer right after its op and keeps only what the
    metrics need, so the benchmark's memory does not grow with throughput.
    """

    role: str  # fresh | repeat | dup | pair
    instance: object  # dropped by settle()
    planner: str
    latency: float = 0.0
    ack: float | None = None
    outcome: str | None = None
    result: object = None  # the PlanResult, until settle()
    error: str | None = None  # transport error or refusal
    answer: Answer = field(default_factory=Answer)
    op: int = 0
    name: str = ""
    job_id: str | None = None
    worker_pid: int = 0
    runtime_seconds: float = 0.0

    def __post_init__(self) -> None:
        self.name = self.instance.name

    @property
    def key(self) -> tuple[str, str]:
        return (self.name, self.planner)

    @property
    def ok(self) -> bool:
        return self.answer.ok

    def settle(self) -> None:
        res, self.result = self.result, None
        instance, self.instance = self.instance, None
        if res is not None:
            self.job_id, self.worker_pid = res.job_id, res.worker_pid
            self.runtime_seconds = res.runtime_seconds
        self.answer = check_answer(instance, res)


@dataclass
class Connection:
    index: int
    requests: list[Request] = field(default_factory=list)
    ops: int = 0


# --------------------------------------------------------------------------- #
# Daemon lifecycle
# --------------------------------------------------------------------------- #


def read_line(proc: subprocess.Popen, timeout: float) -> str:
    with selectors.DefaultSelector() as sel:
        sel.register(proc.stdout, selectors.EVENT_READ)
        if not sel.select(timeout):
            return ""
    return proc.stdout.readline()


@dataclass
class Daemon:
    proc: subprocess.Popen
    socket: str
    dir: Path
    trace_out: Path | None

    @property
    def metrics_path(self) -> Path:
        return self.dir / "metrics.json"


def start_daemon(ctx, directory: Path, trace: bool = False) -> Daemon:
    directory.mkdir(parents=True, exist_ok=True)
    # A relative socket path keeps it under the 108-byte AF_UNIX limit.
    sock = os.path.relpath(directory / "d.sock", ctx.root)
    trace_out = directory / "daemon-spans.json" if trace else None
    cmd = [sys.executable, str(BENCH_DIR / "daemon.py")]
    if trace_out is not None:
        cmd += ["--trace-out", str(trace_out)]
    cmd += [
        "--socket", sock,
        "--workers", str(ctx.workers),
        "--max-inflight", str(ctx.workers),
        "--cache-dir", str(directory / "store"),
        "--metrics-out", str(directory / "metrics.json"),
    ]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=ctx.child_env(),
                            cwd=str(ctx.root), text=True)
    line = read_line(proc, READY_TIMEOUT)
    if "listening" not in line:
        proc.kill()
        proc.wait()
        proc.stdout.close()
        raise RuntimeError(f"serve daemon did not come up: {line!r}")
    return Daemon(proc, sock, directory, trace_out)


def client(daemon: Daemon):
    from repro.serve import ServeClient

    return ServeClient(socket=daemon.socket, timeout=CLIENT_TIMEOUT)


def warm_up(ctx, daemon: Daemon) -> list[int]:
    """One unmeasured batch of ``ctx.workers`` plans, so every pool worker
    is spawned and has imported the planners.  Returns worker pids."""
    from repro.api import PlanRequest

    rng = ctx.rng("warm-up")
    requests = [
        PlanRequest(planner="greedy-1d", instance=small_instance(rng, "1D", f"warm-{i}"))
        for i in range(ctx.workers)
    ]
    with client(daemon) as c:
        results = c.batch(requests)
    bad = [r for r in results if not getattr(r, "ok", False)]
    if bad:
        raise RuntimeError(f"warm-up failed: {bad}")
    return [r.worker_pid for r in results]


def stop_daemon(daemon: Daemon, worker_pids) -> list[str]:
    """Drain the daemon and check that it left nothing behind."""
    problems: list[str] = []
    try:
        with client(daemon) as c:
            c.shutdown()
        code = daemon.proc.wait(timeout=60)
    except Exception as exc:  # noqa: BLE001 — a stuck daemon is killed, and reported
        problems.append(f"daemon did not drain: {type(exc).__name__}: {exc}")
        daemon.proc.kill()
        code = daemon.proc.wait()
    daemon.proc.stdout.close()
    if code != 0:
        problems.append(f"daemon exited with code {code}")
    if os.path.exists(daemon.socket):
        problems.append("daemon left its socket behind")
    for pid in set(worker_pids):
        if pid and pid_alive(pid):
            problems.append(f"pool worker {pid} outlived the daemon")
    snapshot = load_snapshot(daemon.metrics_path)
    if not snapshot:
        problems.append("daemon wrote no metrics snapshot")
    elif counter(snapshot, "arena_segments") != 0:
        problems.append("daemon left shared-memory arena segments behind")
    return problems


def load_snapshot(path: Path) -> dict:
    try:
        return json.loads(path.read_text()).get("metrics", {})
    except (OSError, ValueError):
        return {}


def counter(snapshot: dict, name: str) -> float:
    """Sum of a counter's (or gauge's) series in a metrics snapshot."""
    return sum(s.get("value", 0.0) for s in snapshot.get(name, {}).get("series", []))


# --------------------------------------------------------------------------- #
# Set-up probe hooks
# --------------------------------------------------------------------------- #


def setup(ctx):
    daemon = start_daemon(ctx, ctx.tmp / "daemon")
    return daemon, warm_up(ctx, daemon)


def teardown(env) -> list[str]:
    daemon, pids = env
    return stop_daemon(daemon, pids)


# --------------------------------------------------------------------------- #
# The closed loop
# --------------------------------------------------------------------------- #


def fresh_request(rng, role: str, name: str) -> Request:
    """Mostly greedy-1d / greedy-2d, some eblow-1d, all on small instances."""
    draw = rng.random()
    if draw < 0.45:
        return Request(role, small_instance(rng, "1D", name), "greedy-1d")
    if draw < 0.85:
        return Request(role, small_instance(rng, "2D", name), "greedy-2d")
    return Request(role, small_instance(rng, "1D", name), "eblow-1d")


class Tap:
    """Timestamps every frame a client reads (ack/result, per batch index)."""

    def __init__(self, serve_client) -> None:
        self.frames: list[tuple[float, dict]] = []
        original = serve_client._frames

        def frames(rid):
            for frame in original(rid):
                self.frames.append((time.perf_counter(), frame))
                yield frame

        serve_client._frames = frames


def build_op(ctx, kind: str, rng, name: str, done_fresh, pair_index: int) -> list[Request]:
    """The requests of one op of the cycle."""
    if kind == "fresh":
        return [fresh_request(rng, "fresh", name)]
    if kind == "pair":
        # Both connections draw their k-th pair from the same stream.
        return [fresh_request(ctx.rng("pair", pair_index), "pair", f"pair-{pair_index}")]
    instance, planner = rng.choice(done_fresh)
    repeat = Request("repeat", instance, planner)
    if kind == "repeat":
        return [repeat]
    fresh = fresh_request(rng, "fresh", name)
    return [fresh, Request("dup", fresh.instance, fresh.planner), repeat]


def send(c, batch: list[Request], tracer) -> None:
    """One ``plan`` (single request) or ``batch`` frame; fills in results."""
    from repro.api import PlanRequest
    from repro.serve import ServeError

    verb = "serve.plan" if len(batch) == 1 else "serve.batch"
    try:
        with tracer.span(verb) if tracer is not None else nullcontext():
            if len(batch) == 1:
                batch[0].result = c.plan(batch[0].instance, batch[0].planner, check=False)
                return
            answers = c.batch([PlanRequest(planner=r.planner, instance=r.instance) for r in batch])
    except (ServeError, OSError) as exc:
        for req in batch:
            req.error = f"{type(exc).__name__}: {exc}"
        return
    for req, answer in zip(batch, answers):
        if isinstance(answer, ServeError):
            req.error = f"{answer.code}: {answer}"
        else:
            req.result = answer


def run_connection(ctx, daemon: Daemon, conn: Connection, barrier, errors: list, *,
                   seconds=None, max_ops=None, tracer=None) -> None:
    """One closed-loop client: ops until ``max_ops``, or until the deadline
    once the window is done."""
    rng = ctx.rng("conn", conn.index)
    done_fresh: deque = deque(maxlen=REPEAT_POOL)  # (instance, planner)
    deadline = time.perf_counter() + (seconds or 0.0)
    pairs = 0
    try:
        with client(daemon) as c:
            tap = Tap(c)
            while True:
                if max_ops is not None:
                    if conn.ops >= max_ops:
                        break
                elif conn.ops >= WINDOW_OPS and time.perf_counter() >= deadline:
                    break
                kind = CYCLE[conn.ops % len(CYCLE)]
                if kind in ("repeat", "batch") and not done_fresh:
                    kind = "fresh"
                batch = build_op(ctx, kind, rng, f"c{conn.index}-op{conn.ops}", done_fresh, pairs)
                if kind == "pair":
                    pairs += 1
                    try:
                        barrier.wait(BARRIER_TIMEOUT)
                    except threading.BrokenBarrierError:
                        break
                if tracer is not None:
                    tracer.new_trace()
                tap.frames.clear()
                start = time.perf_counter()
                send(c, batch, tracer)
                read_frames(tap.frames, batch, start, time.perf_counter())
                for req in batch:
                    req.op = conn.ops
                    if req.role == "fresh" and req.result is not None and req.result.ok:
                        done_fresh.append((req.instance, req.planner))
                    req.settle()
                conn.requests.extend(batch)
                conn.ops += 1
    except Exception as exc:  # noqa: BLE001 — reported; the other connection must still stop
        errors.append(f"connection {conn.index}: {type(exc).__name__}: {exc}")
    finally:
        barrier.abort()


def read_frames(frames, batch: list[Request], start: float, end: float) -> None:
    """Per-request ack and result times and outcomes from the tapped frames."""
    for req in batch:
        req.latency = end - start
    for when, frame in frames:
        index = frame.get("index")
        req = batch[index] if index is not None else batch[0]
        kind = frame.get("frame")
        if kind == "ack":
            req.ack = when - start
            req.outcome = frame.get("outcome", req.outcome)
        elif kind == "result":
            req.latency = when - start
            req.outcome = frame.get("outcome", req.outcome)
        elif kind == "error":
            req.latency = when - start
            req.outcome = "rejected" if frame.get("code") in ("queue_full", "draining") else "error"


def drive(ctx, daemon: Daemon, *, seconds=None, max_ops=None, tracer=None):
    """Run both connections to the end; returns (connections, wall seconds, errors)."""
    barrier = threading.Barrier(CONNECTIONS)
    conns = [Connection(i) for i in range(CONNECTIONS)]
    errors: list[str] = []
    threads = [
        threading.Thread(
            target=run_connection,
            args=(ctx, daemon, conn, barrier, errors),
            kwargs=dict(seconds=seconds, max_ops=None if max_ops is None else max_ops[conn.index],
                        tracer=tracer),
            name=f"serve-conn-{conn.index}",
        )
        for conn in conns
    ]
    start = time.perf_counter()
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    return conns, time.perf_counter() - start, errors


# --------------------------------------------------------------------------- #
# Checks and metrics
# --------------------------------------------------------------------------- #


def verify(conns, tally: Tally) -> list[str]:
    """Tally the settled checks; a fresh request must have been computed."""
    problems = []
    for req in all_requests(conns):
        tally.attempted += 1
        failure = req.error or req.answer.failure
        if failure is not None:
            tally.fail(f"{req.name}/{req.planner}: {failure}")
        if req.role == "fresh" and req.outcome == "store_hit":
            problems.append(f"fresh request {req.name} was answered from the store")
    return problems


def all_requests(conns) -> list[Request]:
    return [req for conn in conns for req in conn.requests]


def window_requests(conns) -> list[Request]:
    """Requests of each connection's first ``WINDOW_OPS`` ops."""
    return [req for req in all_requests(conns) if req.op < WINDOW_OPS]


def worker_pids(conns) -> list[int]:
    return [req.worker_pid for req in all_requests(conns) if req.worker_pid]


def deterministic_counts(conns) -> dict:
    """Schedule-fixed outcome counts and writing times of the window."""
    counts: dict[str, int] = {}
    seen: dict[tuple, object] = {}
    for req in window_requests(conns):
        if req.role != "pair":
            outcome = req.outcome
            if req.role == "dup" and outcome in ("coalesced", "store_hit"):
                # Whether X's flight is still running when its duplicate in
                # the same frame is looked up depends on timing; either way
                # the duplicate must not run again.
                outcome = "shared"
            key = f"{req.role}->{outcome}"
            counts[key] = counts.get(key, 0) + 1
        if req.ok:
            seen.setdefault(req.key, (req.answer.writing_time, req.answer.vsb))
    wt = sum(v[0] for v in seen.values())
    vsb = sum(v[1] for v in seen.values())
    return {
        "writing_time_ratio": wt / vsb if vsb else 0.0,
        "distinct_jobs": len(seen),
        "outcomes": dict(sorted(counts.items())),
    }


def latencies(requests, outcome=None) -> list[float]:
    return [
        r.latency for r in requests
        if r.error is None and (outcome is None or r.outcome == outcome)
    ]


def run(ctx) -> Outcome:
    tally = Tally()
    first = untraced_seconds(ctx)
    daemon, pids = setup(ctx)
    problems: list[str] = []
    conns: list[Connection] = []
    try:
        conns, wall, errors = drive(ctx, daemon, seconds=first)
    finally:
        problems += stop_daemon(daemon, pids + worker_pids(conns))
    problems += errors
    problems += verify(conns, tally)
    deterministic = deterministic_counts(conns)
    reqs = all_requests(conns)
    if not ctx.trace:
        lat, computed = latencies(reqs), latencies(reqs, "computed")
        metrics = {
            "plans_per_s": ((tally.attempted - tally.failed) / wall, "plans/s"),
            "plan_p50_s": (median(lat), "s"),
            "plan_p90_s": (percentile(lat, 90), "s"),
            "computed_p50_s": (median(computed), "s"),
            "computed_p90_s": (percentile(computed, 90), "s"),
            "writing_time_ratio": (deterministic["writing_time_ratio"], "ratio"),
        }
        return Outcome(tally, metrics, deterministic, problems)

    # Traced run: a fresh daemon and store, the same op counts, spans on.
    tracer = Tracer()
    traced_daemon = start_daemon(ctx, ctx.tmp / "daemon-traced", trace=True)
    traced_pids = warm_up(ctx, traced_daemon)
    traced: list[Connection] = []
    try:
        traced, traced_wall, errors = drive(
            ctx, traced_daemon, max_ops=[c.ops for c in conns], tracer=tracer
        )
    finally:
        problems += stop_daemon(traced_daemon, traced_pids + worker_pids(traced))
    problems += errors
    problems += verify(traced, tally)
    before = {r.key: r.answer.fingerprint for r in reqs if r.ok}
    for req in all_requests(traced):
        if req.ok and req.key in before and req.answer.fingerprint != before[req.key]:
            problems.append(f"traced plan of {req.name} differs from the untraced one")
    deterministic = deterministic_counts(traced)
    metrics = layer_metrics(reqs, wall, all_requests(traced), traced_wall, traced_daemon,
                            warm_jobs=len(traced_pids))
    return Outcome(tally, metrics, deterministic, problems, tracer)


def layer_metrics(untraced, wall, traced, wall_traced, daemon: Daemon, warm_jobs: int) -> dict:
    snapshot = load_snapshot(daemon.metrics_path)
    spans = json.loads(daemon.trace_out.read_text()) if daemon.trace_out.exists() else {}
    summary = spans.get("spans", {})
    requests = max(1, len(traced))

    def span_total(name):
        return summary.get(name, {}).get("self_s", 0.0)

    gets = summary.get("runtime.store_get", {}).get("count", 0)
    computed = [r for r in traced if r.ok and r.outcome == "computed"]
    overhead = [r.latency - r.runtime_seconds for r in computed]
    distinct = {r.job_id for r in traced if r.job_id is not None}
    executions = counter(snapshot, "plans_total")
    outcomes = {k: sum(1 for r in traced if r.outcome == k)
                for k in ("computed", "coalesced", "store_hit", "rejected")}
    acks = [r.ack for r in traced if r.ack is not None]
    ok_before = [r for r in untraced if r.ok]
    ok_after = [r for r in traced if r.ok]
    return {
        "runtime.store_gets": (gets, "count"),
        "runtime.store_get_s": (span_total("runtime.store_get") / requests, "s"),
        "runtime.store_hit_ratio": (spans.get("store_get_hits", 0) / gets if gets else 0.0, "ratio"),
        "runtime.store_puts": (int(counter(snapshot, "store_puts_total")), "count"),
        "runtime.store_put_s": (span_total("runtime.store_put") / requests, "s"),
        "runtime.job_hash_s": (span_total("runtime.job_hash") / requests, "s"),
        "runtime.pool_dispatches": (int(counter(snapshot, "pool_dispatches_total")), "count"),
        "runtime.arena_exports": (int(counter(snapshot, "arena_exports_total")), "count"),
        "runtime.arena_bytes": (int(counter(snapshot, "arena_bytes_total")), "bytes"),
        "serve.ack_p50_s": (median(acks), "s"),
        "serve.overhead_p50_s": (median(overhead), "s"),
        # The warm-up jobs are executions too, and distinct jobs of their own.
        "serve.executions_per_distinct_job": (executions / (len(distinct) + warm_jobs), "ratio"),
        **{f"serve.outcome.{k}": (v, "count") for k, v in outcomes.items()},
        "serve.hit_p50_s": (median(latencies(traced, "store_hit")), "s"),
        "serve.hit_p90_s": (percentile(latencies(traced, "store_hit"), 90), "s"),
        "serve.coalesced_p50_s": (median(latencies(traced, "coalesced")), "s"),
        "bench.trace_overhead_p50_s": (
            median(latencies(traced)) - median(latencies(untraced)), "s"
        ),
        "bench.trace_overhead_plans_per_s": (
            len(ok_after) / wall_traced - len(ok_before) / wall, "plans/s"
        ),
    }
