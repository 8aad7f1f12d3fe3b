"""Batch orchestration: result store → planner pool → telemetry.

This is the high-level entry the CLI and the evaluation layer share:

* :func:`grid_jobs` expands a cases × planners grid into :class:`PlanJob`
  specs (the grid ``run_comparison`` runs),
* :func:`iter_jobs` streams results in submission order, serving store hits
  instantly, dispatching misses to a :class:`~repro.runtime.pool.PlannerPool`,
  persisting fresh ``ok`` results, and logging every outcome to telemetry,
* :func:`run_jobs` is the list-returning convenience wrapper.
"""

from __future__ import annotations

from typing import Callable, Iterable, Iterator, Mapping, Sequence

from repro.api.lifecycle import PlanResult
from repro.events import PlanEvent
from repro.model import OSPInstance
from repro.obs.tracing import span
from repro.runtime.jobs import PlanJob, PlannerSpec
from repro.runtime.pool import EventRelay, PlannerPool
from repro.runtime.store import ResultStore
from repro.runtime.telemetry import Telemetry

__all__ = ["grid_jobs", "iter_jobs", "run_jobs"]


def _as_spec(value) -> PlannerSpec:
    if isinstance(value, PlannerSpec):
        return value
    if isinstance(value, str):
        return PlannerSpec(value)
    raise TypeError(
        "pooled execution needs picklable planner specs; got "
        f"{value!r} — pass a PlannerSpec (or registry name) instead of a factory"
    )


def grid_jobs(
    cases: Sequence[str] | Sequence[OSPInstance],
    planners: Mapping[str, PlannerSpec | str],
    scale: float | None = None,
    timeout: float | None = None,
) -> list[PlanJob]:
    """One job per (case, planner) cell, case-major, preserving mapping order."""
    jobs: list[PlanJob] = []
    for case in cases:
        for label, value in planners.items():
            spec = _as_spec(value)
            if isinstance(case, OSPInstance):
                jobs.append(PlanJob(spec=spec, instance=case, timeout=timeout, label=label))
            else:
                jobs.append(
                    PlanJob(spec=spec, case=case, scale=scale, timeout=timeout, label=label)
                )
    return jobs


def iter_jobs(
    jobs: Iterable[PlanJob],
    max_workers: int = 1,
    retries: int = 0,
    store: ResultStore | None = None,
    telemetry: Telemetry | None = None,
    on_event: Callable[[PlanEvent], None] | None = None,
    pool: PlannerPool | None = None,
    chunksize: int | None = None,
    supervise: bool = False,
    supervisor: "SupervisorConfig | None" = None,
    journal=None,
    resume: bool = False,
    max_attempts: int | None = None,
    scheduler: "Scheduler | None" = None,
) -> Iterator[PlanResult]:
    """Stream results for ``jobs`` in submission order.

    Store hits never touch the pool; a pool is only spun up if at least one
    job misses.  Fresh ``ok`` results are persisted before they are yielded,
    so a consumer that stops early still leaves a warm cache behind.

    ``pool`` hands in a caller-owned (typically warm) :class:`PlannerPool`;
    it is reused as-is — workers, per-worker instance caches, and arena
    segments stay hot — and is *not* shut down when the iteration ends
    (``max_workers`` / ``retries`` are ignored in that case).  Without it a
    private pool is created for the call and torn down afterwards.

    ``chunksize`` pins how many job descriptors ride in one worker dispatch
    (default: sized automatically from the batch and worker counts).

    ``on_event`` receives every :class:`~repro.events.PlanEvent` the running
    planners emit, label-stamped; with worker processes the stream crosses
    over an :class:`~repro.runtime.pool.EventRelay` and interleaves across
    jobs in arrival order.

    Fault tolerance: any of ``supervise`` / ``supervisor`` / ``journal`` /
    ``resume`` / ``max_attempts`` routes the batch through
    :func:`repro.runtime.supervision.iter_supervised` — durable job leases
    journaled next to the telemetry manifest, heartbeat supervision with
    automatic re-queue on worker death or lease expiry, poison-job
    quarantine after ``max_attempts``, and (given a journal) crash
    resumability.  ``retries`` / ``chunksize`` are pool-path knobs and are
    ignored under supervision (supervision retries via its own
    backoff/attempt machinery, one job per dispatch).

    ``scheduler`` swaps the execution substrate entirely (see
    :mod:`repro.dist.scheduler`): a :class:`~repro.dist.LocalScheduler`
    reproduces this function's own paths, a
    :class:`~repro.dist.BrokerScheduler` drives the batch over a durable
    work-queue spool served by worker processes (possibly on other nodes).
    When given, the scheduler owns dispatch and every other dispatch knob
    here (``max_workers`` / ``pool`` / ``supervise`` / ...) is ignored —
    configure the scheduler instead.
    """
    jobs = list(jobs)
    if scheduler is not None:
        yield from scheduler.iter_jobs(
            jobs, store=store, telemetry=telemetry, on_event=on_event, resume=resume
        )
        return
    if supervise or supervisor is not None or journal is not None or resume or max_attempts is not None:
        from repro.runtime.supervision import SupervisorConfig, iter_supervised

        config = supervisor or SupervisorConfig()
        if max_attempts is not None and max_attempts != config.max_attempts:
            config = SupervisorConfig(
                **{**config.__dict__, "max_attempts": int(max_attempts)}
            )
        yield from iter_supervised(
            jobs,
            max_workers=max_workers,
            config=config,
            store=store,
            telemetry=telemetry,
            journal=journal,
            resume=resume,
            on_event=on_event,
            pool=pool,
        )
        return
    hits: dict[int, PlanResult] = {}
    misses: list[tuple[int, PlanJob]] = []
    # The probe phase shows up as its own span so a mostly-cached batch
    # attributes its wall time to store reads instead of to dispatch.
    with span("store_probe", jobs=len(jobs)):
        for index, job in enumerate(jobs):
            cached = store.get(job) if store is not None else None
            if cached is not None:
                hits[index] = cached
            else:
                misses.append((index, job))

    owns_pool = pool is None
    if owns_pool:
        workers = min(max(1, max_workers), max(1, len(misses)))
        pool = PlannerPool(max_workers=workers, retries=retries)
    relay: EventRelay | None = None
    if on_event is not None and not pool.inline and misses:
        relay = EventRelay(on_event)
    try:
        miss_results = (
            pool.imap(
                [job for _, job in misses],
                event_queue=relay.queue if relay is not None else None,
                on_event=on_event if pool.inline else None,
                chunksize=chunksize,
            )
            if misses
            else iter(())
        )
        for index, job in enumerate(jobs):
            if index in hits:
                result = hits[index]
            else:
                result = next(miss_results)
                if store is not None:
                    store.put(job, result)
            if telemetry is not None:
                telemetry.record(result)
            yield result
    finally:
        if owns_pool:
            pool.shutdown(wait=True)
        if relay is not None:
            relay.close()


def run_jobs(
    jobs: Iterable[PlanJob],
    max_workers: int = 1,
    retries: int = 0,
    store: ResultStore | None = None,
    telemetry: Telemetry | None = None,
    on_event: Callable[[PlanEvent], None] | None = None,
    pool: PlannerPool | None = None,
    chunksize: int | None = None,
    supervise: bool = False,
    supervisor: "SupervisorConfig | None" = None,
    journal=None,
    resume: bool = False,
    max_attempts: int | None = None,
    scheduler: "Scheduler | None" = None,
) -> list[PlanResult]:
    """Run all jobs and return results in submission order (see iter_jobs)."""
    return list(
        iter_jobs(
            jobs,
            max_workers=max_workers,
            retries=retries,
            store=store,
            telemetry=telemetry,
            on_event=on_event,
            pool=pool,
            chunksize=chunksize,
            supervise=supervise,
            supervisor=supervisor,
            journal=journal,
            resume=resume,
            max_attempts=max_attempts,
            scheduler=scheduler,
        )
    )
