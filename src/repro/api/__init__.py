"""``repro.api`` — the unified public planning API.

One façade, one typed lifecycle, one event protocol:

* :func:`plan` / :func:`submit` — the one-call entry point every other
  entry point (CLI, experiments, batch runtime, portfolio) is a thin
  client of,
* :class:`PlanRequest` → :class:`PlanResult` — the serializable lifecycle
  models; ``PlanResult`` is the one result type of every surface,
* :class:`PlanEvent` + :func:`emitting` — the streaming progress protocol
  (see :mod:`repro.events`),
* :class:`PlannerHandle` / :class:`PlannerCapabilities` /
  :class:`OptionSchema` — the self-registering planner registry with
  declared capabilities and declarative, versioned option schemas.

>>> import repro
>>> result = repro.plan("1T-1", planner="greedy-1d", scale=1.0)
>>> result.ok and result.num_selected > 0
True
"""

from repro.api.facade import plan, planner_pool, submit
from repro.api.lifecycle import PlanningError, PlanRequest, PlanResult
from repro.api.registry import (
    OptionField,
    OptionSchema,
    Planner,
    PlannerCapabilities,
    PlannerHandle,
    describe_planners,
    get_handle,
    iter_handles,
    list_planners,
    register,
    register_planner,
    resolve_planner,
)

# Importing the catalogue registers every first-party planner handle.
from repro.api import planners as _planners  # noqa: F401  (self-registration)
from repro.events import EVENT_TYPES, EventSink, PlanEvent, emit, emitting, events_enabled

__all__ = [
    # façade
    "plan",
    "submit",
    "planner_pool",
    # lifecycle
    "PlanRequest",
    "PlanResult",
    "PlanningError",
    # events
    "PlanEvent",
    "EventSink",
    "EVENT_TYPES",
    "emit",
    "emitting",
    "events_enabled",
    # registry
    "Planner",
    "PlannerHandle",
    "PlannerCapabilities",
    "OptionField",
    "OptionSchema",
    "register",
    "register_planner",
    "resolve_planner",
    "get_handle",
    "iter_handles",
    "list_planners",
    "describe_planners",
]
