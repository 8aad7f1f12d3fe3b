"""Declarative planning jobs and the planner registry.

A :class:`PlanJob` is a self-contained, picklable description of one planner
run: *what* to plan (a named benchmark case + scale, or an inline
:class:`~repro.model.OSPInstance`) and *how* (a :class:`PlannerSpec` naming a
registered planner plus JSON-able options, an optional wall-clock timeout).

Because the description is pure data, it has a deterministic identity:
``job_id`` is a content hash over the canonical-JSON encoding of the job
(see :func:`repro.io.canonical_json`).  The same hash split into its
``instance_hash`` / ``config_hash`` halves keys the on-disk result store
(:mod:`repro.runtime.store`), so identical work is only ever done once.

:func:`execute_job` is the single execution path shared by the serial CLI,
the process pool, and portfolio racing — it resolves the instance, builds the
planner from the registry, enforces the timeout (SIGALRM-based, so a stuck
planner is interrupted inside the worker instead of orphaning it), and
condenses the plan into a :class:`~repro.api.lifecycle.PlanResult`.
"""

from __future__ import annotations

import hashlib
import os
import signal
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from functools import cached_property
from typing import Mapping

# The planner registry now lives in repro.api.registry (planners declare
# capabilities and option schemas there and self-register on import); these
# re-exports keep the historic `repro.runtime` import surface working.
from repro.api import planners as _catalogue  # noqa: F401  (self-registration)
from repro.api.lifecycle import PlanResult
from repro.api.registry import (  # noqa: F401  (re-exported shims)
    PlannerBuilder,
    get_handle,
    list_planners,
    register_planner,
    resolve_planner,
)
from repro.errors import ValidationError
from repro.events import emit
from repro.io.serialization import canonical_json
from repro.model import OSPInstance
from repro.model.writing_time import evaluate_plan
from repro.obs import metrics as obs_metrics
from repro.obs.tracing import span
from repro.runtime import faults
from repro.runtime.arena import ArenaRef, InstanceArena, attached_instance

__all__ = [
    "PlannerSpec",
    "PlanJob",
    "JobDescriptor",
    "JobTimeoutError",
    "JobCancelledError",
    "execute_job",
    "request_cancel",
    "cancel_pending",
    "summarize_instance",
    "register_planner",
    "resolve_planner",
    "list_planners",
]


class JobTimeoutError(Exception):
    """Raised inside a worker when a job exceeds its wall-clock timeout."""


class JobCancelledError(Exception):
    """Raised inside a worker when the supervisor soft-cancels its job."""


# Cooperative-cancellation state of *this* process (a pool worker, usually).
# ``job`` is the job currently inside :func:`execute_job`; ``term_ok`` is set
# once a cancel was requested and means a follow-up ``SIGTERM`` may take the
# process down even though it is not orphaned (see ``pool._worker_init``).
_CANCEL = {"job": None, "term_ok": False}


def request_cancel(signum=None, frame=None):
    """Soft-cancel the running job (the pool workers' ``SIGUSR1`` handler).

    If a job is executing, raises :class:`JobCancelledError` *in it* — the
    job resolves as ``status="cancelled"`` and the worker stays alive and
    reusable.  Outside a job it only records that cancellation was requested
    (``cancel_pending``), which arms the escalation path: a worker that never
    reaches Python signal delivery (wedged in a native solve) will be taken
    down by the supervisor's follow-up ``SIGTERM``/``SIGKILL``.
    """
    _CANCEL["term_ok"] = True
    if _CANCEL["job"] is not None:
        raise JobCancelledError("job cancelled by supervisor request")


def cancel_pending() -> bool:
    """Whether a cancel was requested and not yet absorbed by a job."""
    return bool(_CANCEL["term_ok"])


# --------------------------------------------------------------------------- #
# Specs and jobs
# --------------------------------------------------------------------------- #


@dataclass(frozen=True)
class PlannerSpec:
    """A planner choice as pure data: registry name + JSON-able options."""

    planner: str
    options: Mapping[str, object] = field(default_factory=dict)

    def __post_init__(self) -> None:
        object.__setattr__(self, "options", dict(self.options))

    def build(self, kind: str | None = None):
        """Instantiate the planner (dispatching bare names on ``kind``).

        Options are validated against the planner's declared schema (see
        :mod:`repro.api.registry`) before the builder runs.
        """
        return get_handle(self.planner, kind).build(dict(self.options))

    def to_dict(self) -> dict:
        return {"planner": self.planner, "options": dict(self.options)}

    @classmethod
    def from_dict(cls, data: Mapping) -> "PlannerSpec":
        return cls(planner=data["planner"], options=dict(data.get("options", {})))


@dataclass(frozen=True)
class PlanJob:
    """One unit of planning work: an instance reference plus a planner spec.

    Exactly one of ``case`` (a named benchmark case, resolved with ``scale``
    through :func:`repro.workloads.build_instance`) or ``instance`` (an inline
    :class:`OSPInstance`) must be given.  ``timeout`` bounds the wall-clock
    seconds of one execution attempt; it is an infrastructure knob and is
    deliberately *excluded* from the job identity, so cached results survive
    timeout-policy changes.
    """

    spec: PlannerSpec
    case: str | None = None
    scale: float | None = None
    instance: OSPInstance | None = None
    timeout: float | None = None
    label: str | None = None

    def __post_init__(self) -> None:
        if (self.case is None) == (self.instance is None):
            raise ValidationError("PlanJob needs exactly one of case= or instance=")
        if self.case is not None and self.scale is None:
            from repro.workloads import default_scale

            object.__setattr__(self, "scale", default_scale())

    @property
    def display_label(self) -> str:
        return self.label or self.spec.planner

    @property
    def case_name(self) -> str:
        return self.case if self.case is not None else self.instance.name

    def instance_payload(self) -> dict:
        """JSON-able identity of the planning input."""
        if self.case is not None:
            return {"case": self.case, "scale": self.scale}
        return self.instance.to_dict()

    @cached_property
    def instance_hash(self) -> str:
        return _digest(self.instance_payload())

    @cached_property
    def config_hash(self) -> str:
        return _digest(self.spec.to_dict())

    @cached_property
    def job_id(self) -> str:
        return _digest({"instance": self.instance_hash, "config": self.config_hash})[:16]

    def resolve_instance(self) -> OSPInstance:
        """Materialise the instance (builds named cases deterministically).

        Named cases are memoised per process: instances are immutable and
        case generation is deterministic, so a warm pool worker (or the
        inline path) that plans the same case under several planner columns
        builds it — and its kernel-array cache — once instead of per job.
        """
        if self.instance is not None:
            return self.instance
        return _cached_case_instance(self.case, float(self.scale))

    def describe(self, arena: InstanceArena | None = None) -> "JobDescriptor":
        """The thin, picklable descriptor the pool ships to workers.

        Inline instances are exported into ``arena`` (each distinct digest at
        most once) so the descriptor carries only an :class:`ArenaRef`; the
        precomputed content hashes ride along so the worker-side rebuild has
        byte-identical identity — store keys and job ids never depend on
        which side of the process boundary resolved the job.
        """
        ref = None
        if self.instance is not None:
            if arena is None:
                raise ValidationError(
                    "inline-instance jobs need an InstanceArena to describe"
                )
            ref = arena.export(self.instance, digest=self.instance_hash)
        return JobDescriptor(
            spec=self.spec,
            case=self.case,
            scale=self.scale,
            timeout=self.timeout,
            label=self.label,
            arena_ref=ref,
            instance_hash=self.instance_hash,
            config_hash=self.config_hash,
            job_id=self.job_id,
            case_name=self.case_name,
        )


@dataclass(frozen=True)
class JobDescriptor:
    """What actually crosses the process boundary: spec + digests, no bulk.

    ``rebuild`` reconstitutes an equivalent :class:`PlanJob` in the worker —
    named cases resolve through the per-process memo, arena-backed instances
    attach zero-copy — and seeds the job's cached content hashes from the
    parent so identities match exactly.  It carries the job's
    ``case_name`` too, so a worker that cannot rebuild the job still reports
    its failure under the job's own identity.
    """

    spec: PlannerSpec
    case: str | None
    scale: float | None
    timeout: float | None
    label: str | None
    arena_ref: ArenaRef | None
    instance_hash: str
    config_hash: str
    job_id: str
    case_name: str

    @property
    def display_label(self) -> str:
        return self.label or self.spec.planner

    def rebuild(self) -> PlanJob:
        instance = None
        if self.arena_ref is not None:
            instance = attached_instance(self.arena_ref)
        job = PlanJob(
            spec=self.spec,
            case=self.case,
            scale=self.scale,
            instance=instance,
            timeout=self.timeout,
            label=self.label,
        )
        # cached_property stores straight into __dict__, so the parent's
        # hashes can be seeded without recomputing (or trusting a JSON
        # round-trip) in the worker.
        job.__dict__["instance_hash"] = self.instance_hash
        job.__dict__["config_hash"] = self.config_hash
        job.__dict__["job_id"] = self.job_id
        return job


def _digest(payload) -> str:
    return hashlib.sha256(canonical_json(payload).encode("utf-8")).hexdigest()


#: Per-process memo of named-case instances (bounded FIFO).  Keyed by
#: (case, scale); shared by the inline path and warm pool workers.
_CASE_INSTANCES: dict[tuple[str, float], OSPInstance] = {}
_CASE_INSTANCES_MAX = 64


def _cached_case_instance(case: str, scale: float) -> OSPInstance:
    key = (case, scale)
    instance = _CASE_INSTANCES.get(key)
    if instance is None:
        from repro.workloads import build_instance

        instance = build_instance(case, scale)
        while len(_CASE_INSTANCES) >= _CASE_INSTANCES_MAX:
            _CASE_INSTANCES.pop(next(iter(_CASE_INSTANCES)))
        _CASE_INSTANCES[key] = instance
    return instance


# --------------------------------------------------------------------------- #
# Execution
# --------------------------------------------------------------------------- #

_PLANS = obs_metrics.declare_counter(
    "plans_total", "Planner executions by outcome", ("planner", "status")
)
_PLAN_SECONDS = obs_metrics.declare_histogram(
    "plan_seconds", "Wall seconds per planner execution", ("planner",)
)
_STAGE_SECONDS = obs_metrics.declare_counter(
    "plan_stage_seconds_total",
    "Cumulative wall seconds per planner pipeline stage",
    ("planner", "stage"),
)

#: The ``plan.stats`` keys a result keeps as its ``extra``: the planner
#: counters the comparison tables and telemetry manifests report.
_EXTRA_STATS = frozenset({
    "lp_iterations",
    "lp_solve_seconds",
    "stage_seconds",
    "post_swaps",
    "post_insertions",
    "num_clusters",
    "annealing_moves",
    "annealing_engine",
    "optimal",
    "ilp_binary_variables",
})


@contextmanager
def _deadline(seconds: float | None):
    """Raise :class:`JobTimeoutError` in the current thread after ``seconds``.

    Uses ``SIGALRM``, so it only arms when running in a process's main thread
    on a POSIX platform — which is exactly where pool workers run their jobs.
    Elsewhere it degrades to no enforcement rather than failing.
    """
    usable = (
        seconds is not None
        and seconds > 0
        and hasattr(signal, "SIGALRM")
        and threading.current_thread() is threading.main_thread()
    )
    if not usable:
        yield
        return

    def _raise_timeout(signum, frame):
        raise JobTimeoutError(f"job exceeded {seconds:.3f}s wall-clock timeout")

    previous = signal.signal(signal.SIGALRM, _raise_timeout)
    signal.setitimer(signal.ITIMER_REAL, float(seconds))
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)


def summarize_instance(instance: OSPInstance) -> dict:
    """The 5-key instance summary shared by serial and pooled comparisons."""
    return {
        "num_characters": instance.num_characters,
        "num_regions": instance.num_regions,
        "stencil_width": instance.stencil.width,
        "stencil_height": instance.stencil.height,
        "kind": instance.kind,
    }


def execute_job(job: PlanJob, on_event=None) -> PlanResult:
    """Run one job to completion in the current process.

    Never raises for planner failures or timeouts — those come back as
    ``status="error"`` / ``status="timeout"`` results, so a pool can report
    them without tearing down sibling jobs.

    The run brackets the planner's own event stream with ``started`` /
    ``finished`` :class:`~repro.events.PlanEvent` records; ``on_event``
    installs an additional sink for the duration of the run (the façade and
    the portfolio's worker-side event relay use this — with no sink anywhere,
    emission is a no-op).
    """
    if on_event is not None:
        from repro.events import emitting

        with emitting(on_event):
            return execute_job(job)

    start = time.perf_counter()
    result = PlanResult.for_job(job, "error", worker_pid=os.getpid())
    emit(
        "started",
        planner=job.spec.planner,
        case=job.case_name,
        label=job.display_label,
        job_id=job.job_id,
    )
    with span(
        "job",
        planner=job.spec.planner,
        case=job.case_name,
        label=job.display_label,
        job_id=job.job_id,
    ):
        try:
            _CANCEL["job"] = job
            faults.on_job_start(job)
            instance = job.resolve_instance()
            result.instance_summary = summarize_instance(instance)
            planner = job.spec.build(instance.kind)
            with _deadline(job.timeout):
                plan = planner.plan(instance)
            report = evaluate_plan(plan)
            result.status = "ok"
            result.writing_time = report.total
            result.num_selected = report.num_selected
            result.runtime_seconds = float(plan.stats.get("runtime_seconds", 0.0))
            result.extra = {k: v for k, v in plan.stats.items() if k in _EXTRA_STATS}
            result.plan = plan.to_dict()
        except JobTimeoutError as exc:
            result.status = "timeout"
            result.error = str(exc)
        except JobCancelledError as exc:
            # Cooperative cancel succeeded: the worker is healthy again, so a
            # follow-up SIGTERM must revert to orphan-only semantics.
            _CANCEL["term_ok"] = False
            result.status = "cancelled"
            result.error = str(exc)
        except Exception as exc:  # noqa: BLE001 — report, don't kill the batch
            result.status = "error"
            result.error = f"{type(exc).__name__}: {exc}"
        finally:
            _CANCEL["job"] = None
            faults.on_job_end(job)
    result.wall_seconds = time.perf_counter() - start
    _PLANS.inc(planner=result.planner, status=result.status)
    _PLAN_SECONDS.observe(result.wall_seconds, planner=result.planner)
    for stage, seconds in (result.extra.get("stage_seconds") or {}).items():
        _STAGE_SECONDS.inc(float(seconds), planner=result.planner, stage=str(stage))
    emit(
        "finished",
        status=result.status,
        writing_time=result.writing_time,
        num_selected=result.num_selected,
        wall_seconds=result.wall_seconds,
        label=result.label,
    )
    return result
