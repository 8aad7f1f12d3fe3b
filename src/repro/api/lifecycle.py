"""The typed plan lifecycle: ``PlanRequest → PlanResult``.

* :class:`PlanRequest` is the serializable description of one planning run
  (what + how + bounds).  It converts losslessly to the batch runtime's
  :class:`~repro.runtime.jobs.PlanJob`, so its content-hash identity — and
  therefore the content-addressed result store — is exactly the pre-façade
  one: no cached plan is invalidated by the API layer.
* :class:`PlanResult` is the one result type of every surface: the façade,
  the batch runtime, the result store, the broker spool, the serve daemon
  and the comparison tables.  It carries the paper's three comparison
  columns, execution provenance (worker pid, attempts, cache hit), the full
  serialized plan, the planner's telemetry ``extra``, and — for a façade
  run — the :class:`~repro.events.PlanEvent` stream captured during it.

Both round-trip through ``to_dict`` / ``from_dict`` (canonical-JSON-able),
which is the wire format for manifests, stores, and service deployments.
A result's ``to_dict`` leaves out the per-execution captures (events and
the worker metrics snapshot).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

from repro.errors import ReproError, ValidationError
from repro.events import PlanEvent

__all__ = ["PlanRequest", "PlanResult", "PlanningError"]


class PlanningError(ReproError):
    """A façade planning call failed (carries the failed :class:`PlanResult`).

    Derives from the neutral :class:`~repro.errors.ReproError`, not
    :class:`~repro.errors.ValidationError`: a planner timeout or solver
    crash must not be swallowed by handlers written for bad input.
    """

    def __init__(self, message: str, result: "PlanResult | None" = None) -> None:
        super().__init__(message)
        self.result = result


@dataclass(frozen=True)
class PlanRequest:
    """A planning run as pure data.

    Exactly one of ``case`` (a named benchmark case, resolved with ``scale``)
    or ``instance`` (an inline :class:`~repro.model.OSPInstance`) must be
    given.  ``options`` are validated against the planner's declared
    :class:`~repro.api.registry.OptionSchema` when the request is built.
    """

    planner: str
    options: Mapping[str, object] = field(default_factory=dict)
    case: str | None = None
    scale: float | None = None
    instance: object | None = None  # repro.model.OSPInstance
    timeout: float | None = None
    label: str | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "options", dict(self.options))
        if (self.case is None) == (self.instance is None):
            raise ValidationError("PlanRequest needs exactly one of case= or instance=")

    # ------------------------------------------------------------------ #
    # Conversions
    # ------------------------------------------------------------------ #
    def to_job(self):
        """The batch-runtime job with the identical content-hash identity.

        The job (itself frozen, with cached content hashes) is memoised on
        the request, so reading ``job_id`` / ``instance_hash`` /
        ``config_hash`` back-to-back serializes the instance once, not once
        per property.
        """
        job = self.__dict__.get("_job")
        if job is None:
            from repro.runtime.jobs import PlanJob, PlannerSpec

            job = PlanJob(
                spec=PlannerSpec(self.planner, dict(self.options)),
                case=self.case,
                scale=self.scale,
                instance=self.instance,
                timeout=self.timeout,
                label=self.label,
            )
            self.__dict__["_job"] = job
        return job

    @classmethod
    def from_job(cls, job) -> "PlanRequest":
        """Lift a :class:`~repro.runtime.jobs.PlanJob` into the API model."""
        return cls(
            planner=job.spec.planner,
            options=dict(job.spec.options),
            case=job.case,
            scale=job.scale,
            instance=job.instance,
            timeout=job.timeout,
            label=job.label,
        )

    # Identity proxies (same hashes as the underlying PlanJob). ----------- #
    @property
    def job_id(self) -> str:
        return self.to_job().job_id

    @property
    def instance_hash(self) -> str:
        return self.to_job().instance_hash

    @property
    def config_hash(self) -> str:
        return self.to_job().config_hash

    @property
    def display_label(self) -> str:
        return self.label or self.planner

    def validated(self) -> "PlanRequest":
        """Check options against the planner's schema; return self."""
        from repro.api.facade import _case_kind
        from repro.api.registry import get_handle

        kind = self.instance.kind if self.instance is not None else _case_kind(self.case)
        get_handle(self.planner, kind).validate_options(self.options)
        return self

    # ------------------------------------------------------------------ #
    # Serialization
    # ------------------------------------------------------------------ #
    def to_dict(self) -> dict:
        data: dict = {
            "planner": self.planner,
            "options": dict(self.options),
            "timeout": self.timeout,
            "label": self.label,
        }
        if self.case is not None:
            data["case"] = self.case
            data["scale"] = self.scale
        else:
            data["instance"] = self.instance.to_dict()
        return data

    @classmethod
    def from_dict(cls, data: Mapping) -> "PlanRequest":
        instance = None
        if data.get("instance") is not None:
            from repro.model import OSPInstance

            instance = OSPInstance.from_dict(data["instance"])
        return cls(
            planner=data["planner"],
            options=dict(data.get("options", {})),
            case=data.get("case"),
            scale=data.get("scale"),
            instance=instance,
            timeout=data.get("timeout"),
            label=data.get("label"),
        )


@dataclass
class PlanResult:
    """The outcome of one planning run — the only result type there is.

    It carries the paper's three comparison columns (writing time ``T``,
    ``char#`` and ``CPU(s)``), execution provenance (worker pid, attempts,
    cache hit), the full serialized plan and the planner's telemetry
    ``extra``.  :meth:`for_job` is the one place a job's identity is mapped
    onto a result.
    """

    # Identity
    job_id: str
    case: str
    label: str
    planner: str
    # Outcome
    status: str  # "ok" | "error" | "timeout" | "cancelled" | "quarantined"
    error: str | None = None
    # The paper's comparison columns
    writing_time: float = 0.0
    num_selected: int = 0
    runtime_seconds: float = 0.0
    # Execution provenance
    wall_seconds: float = 0.0
    worker_pid: int = 0
    attempts: int = 1
    cache_hit: bool = False
    # Artifacts
    plan: dict | None = None
    instance_summary: dict = field(default_factory=dict)
    extra: dict = field(default_factory=dict)
    # Per-execution captures, never serialized: the event stream a façade
    # run collected, and the worker-side metrics snapshot (repro.obs) riding
    # home on the pickle.  Persisting either would replay one execution's
    # record into every store hit; the pool pops and merges ``metrics``.
    events: list[PlanEvent] = field(default_factory=list)
    metrics: dict | None = None

    @classmethod
    def for_job(cls, job, status: str, **fields) -> "PlanResult":
        """A result for ``job`` — a :class:`~repro.runtime.jobs.PlanJob` or
        the :class:`~repro.runtime.jobs.JobDescriptor` a worker received."""
        return cls(
            job_id=job.job_id,
            case=job.case_name,
            label=job.display_label,
            planner=job.spec.planner,
            status=status,
            **fields,
        )

    @property
    def ok(self) -> bool:
        return self.status == "ok"

    @property
    def stats(self) -> dict:
        """The planner's full ``plan.stats`` dict (empty when no plan)."""
        if self.plan is None:
            return {}
        return dict(self.plan.get("stats", {}))

    def event_counts(self) -> dict[str, int]:
        """How many events of each type the run emitted."""
        counts: dict[str, int] = {}
        for event in self.events:
            counts[event.type] = counts.get(event.type, 0) + 1
        return counts

    def trace(self):
        """The run's span tree assembled from the captured event stream.

        Returns a :class:`repro.obs.tracing.Span` (render it with
        :func:`repro.obs.report.render_report`), or ``None`` when the run
        emitted no ``span`` events (e.g. ``collect_events=False``).
        """
        from repro.obs.tracing import TraceCollector

        collector = TraceCollector()
        for event in self.events:
            collector(event)
        if not collector.spans():
            return None
        return collector.tree()

    # ------------------------------------------------------------------ #
    # Serialization
    # ------------------------------------------------------------------ #
    def to_dict(self) -> dict:
        return {
            "job_id": self.job_id,
            "case": self.case,
            "label": self.label,
            "planner": self.planner,
            "status": self.status,
            "writing_time": self.writing_time,
            "num_selected": self.num_selected,
            "runtime_seconds": self.runtime_seconds,
            "wall_seconds": self.wall_seconds,
            "worker_pid": self.worker_pid,
            "attempts": self.attempts,
            "cache_hit": self.cache_hit,
            "error": self.error,
            "plan": self.plan,
            "instance_summary": dict(self.instance_summary),
            "extra": dict(self.extra),
        }

    @classmethod
    def from_dict(cls, data: Mapping) -> "PlanResult":
        return cls(
            job_id=data["job_id"],
            case=data["case"],
            label=data["label"],
            planner=data["planner"],
            status=data["status"],
            error=data.get("error"),
            writing_time=data.get("writing_time", 0.0),
            num_selected=data.get("num_selected", 0),
            runtime_seconds=data.get("runtime_seconds", 0.0),
            wall_seconds=data.get("wall_seconds", 0.0),
            worker_pid=data.get("worker_pid", 0),
            attempts=data.get("attempts", 1),
            cache_hit=data.get("cache_hit", False),
            plan=data.get("plan"),
            instance_summary=dict(data.get("instance_summary", {})),
            extra=dict(data.get("extra", {})),
        )

    def plan_object(self, instance):
        """Rebuild the :class:`~repro.model.StencilPlan` against ``instance``."""
        from repro.model import StencilPlan

        if self.plan is None:
            raise ValidationError(
                f"plan result {self.job_id} carries no plan (status={self.status})"
            )
        return StencilPlan.from_dict(instance, self.plan)
