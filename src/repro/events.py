"""The streaming plan-event protocol.

Planners report progress as a stream of :class:`PlanEvent` records — LP
solves, rounding iterations, annealing temperature steps, incumbent
improvements, cache rebases — through a process-local emitter.  Consumers
install a sink with :func:`emitting`; instrumented code calls :func:`emit`,
which is a no-op (one attribute lookup) when nobody is listening, so the
solver hot paths pay nothing in normal batch runs.

The protocol is deliberately one-way and side-effect free: emitting never
touches the planner's RNG or state, so an instrumented run is bit-identical
to an uninstrumented one.  Sinks that raise are dropped for the remainder of
the run rather than poisoning the planning call.

This module lives outside :mod:`repro.api` so that low-level modules
(``repro.floorplan``, ``repro.core``) can import it without creating an
import cycle; :mod:`repro.api` re-exports the public names.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Iterator, Mapping

__all__ = [
    "EVENT_TYPES",
    "PlanEvent",
    "EventSink",
    "emit",
    "emitting",
    "events_enabled",
    "guarded_sink",
    "timed_stage",
]

#: The event vocabulary.  ``payload`` keys are per-type conventions, not a
#: schema — consumers must tolerate missing keys and unknown types.
#:
#: ==============  ============================================================
#: type            meaning / typical payload
#: ==============  ============================================================
#: ``started``     a planning run began — ``planner``, ``case``
#: ``stage``       a pipeline stage began — ``name`` (e.g. ``"annealing"``)
#: ``stage_done``  a pipeline stage finished — ``name``, ``seconds``
#: ``lp_solve``    one LP relaxation solved — ``seconds``, ``unsolved``,
#:                 ``variables``
#: ``iteration``   one successive-rounding iteration — ``iteration``,
#:                 ``assigned``, ``unsolved``
#: ``temperature`` one annealing temperature step — ``temperature``, ``cost``,
#:                 ``moves``
#: ``incumbent``   a new best solution — ``cost``, ``moves``
#: ``rebase``      an incremental cache was rebuilt from scratch — ``scope``
#: ``span``        a timed trace span closed — ``name``, ``span_id``,
#:                 ``parent_id``, ``seconds``, ``pid`` (see
#:                 :mod:`repro.obs.tracing`)
#: ``heartbeat``   liveness beacon of a leased pool job — ``job_id``,
#:                 ``label``, ``worker_pid`` (emitted by the worker's
#:                 heartbeat thread, consumed by the supervisor's lease
#:                 table; see :mod:`repro.runtime.supervision`)
#: ``finished``    the run ended — ``status``, ``writing_time``
#: ==============  ============================================================
EVENT_TYPES = (
    "started",
    "stage",
    "stage_done",
    "lp_solve",
    "iteration",
    "temperature",
    "incumbent",
    "rebase",
    "span",
    "heartbeat",
    "finished",
)


@dataclass(frozen=True)
class PlanEvent:
    """One progress record of a planning run.

    ``seq`` numbers events within one :func:`emitting` scope (1-based);
    ``elapsed`` is seconds since the sink was installed.  ``payload`` carries
    the type-specific details and is always JSON-able.
    """

    type: str
    seq: int = 0
    elapsed: float = 0.0
    payload: Mapping[str, object] = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "type": self.type,
            "seq": self.seq,
            "elapsed": self.elapsed,
            "payload": dict(self.payload),
        }

    @classmethod
    def from_dict(cls, data: Mapping) -> "PlanEvent":
        return cls(
            type=data["type"],
            seq=int(data.get("seq", 0)),
            elapsed=float(data.get("elapsed", 0.0)),
            payload=dict(data.get("payload", {})),
        )

    def describe(self) -> str:
        """One-line human rendering (the CLI's ``--progress`` format)."""
        detail = " ".join(f"{k}={_fmt(v)}" for k, v in self.payload.items())
        return f"[{self.elapsed:8.3f}s] {self.type:<12} {detail}".rstrip()


def _fmt(value) -> str:
    if isinstance(value, float):
        return f"{value:.4g}"
    return str(value)


EventSink = Callable[[PlanEvent], None]


class _EmitterState(threading.local):
    def __init__(self) -> None:
        self.scopes: list["_Scope"] = []


class _Scope:
    __slots__ = ("sink", "seq", "start", "broken")

    def __init__(self, sink: EventSink) -> None:
        self.sink = sink
        self.seq = 0
        self.start = time.perf_counter()
        self.broken = False


_STATE = _EmitterState()


def events_enabled() -> bool:
    """Whether a sink is currently installed in this thread."""
    return bool(_STATE.scopes)


def emit(type: str, **payload) -> None:
    """Send one event to every installed sink (no-op when none is)."""
    scopes = _STATE.scopes
    if not scopes:
        return
    now = time.perf_counter()
    for scope in scopes:
        if scope.broken:
            continue
        scope.seq += 1
        event = PlanEvent(
            type=type, seq=scope.seq, elapsed=now - scope.start, payload=payload
        )
        try:
            scope.sink(event)
        except Exception as exc:  # noqa: BLE001 — a broken sink must not kill the run
            scope.broken = True
            import warnings

            warnings.warn(
                f"event sink {scope.sink!r} raised {exc!r} and was dropped "
                "for the remainder of the run",
                RuntimeWarning,
                stacklevel=2,
            )


@contextmanager
def timed_stage(name: str, seconds_by_stage: dict, **payload) -> Iterator[None]:
    """Bracket one pipeline stage with ``stage`` / ``stage_done`` events.

    Emits ``stage`` (with ``payload``) on entry; on exit — including error
    exits — records the stage's wall-clock seconds into
    ``seconds_by_stage[name]`` (rounded to µs, the planners' stats
    precision) and emits ``stage_done`` with the exact value.  This is the
    single implementation behind every planner's ``stats["stage_seconds"]``
    breakdown, so the payload shape cannot drift between flows.
    """
    emit("stage", name=name, **payload)
    stage_span = None
    if _STATE.scopes:
        # Lazy import: repro.obs.tracing imports this module, so the span
        # dependency may only materialise at call time (and only when a sink
        # is installed — unobserved runs never touch repro.obs).
        from repro.obs.tracing import span

        stage_span = span(name, **payload)
        stage_span.__enter__()
    begin = time.perf_counter()
    try:
        yield
    finally:
        seconds = time.perf_counter() - begin
        seconds_by_stage[name] = round(seconds, 6)
        if stage_span is not None:
            stage_span.__exit__(None, None, None)
        emit("stage_done", name=name, seconds=seconds)


def guarded_sink(sink: EventSink | None) -> EventSink | None:
    """Wrap a user callback so its first exception drops it permanently.

    Mirrors the scope-level ``broken`` rule for composite sinks: when a
    consumer bundles internal bookkeeping with a user callback in one sink,
    the callback half must fail independently — wrap it with this and the
    bookkeeping keeps receiving events after the callback breaks.  The drop
    is announced once through :func:`warnings.warn` (with the sink's
    exception chained into the message) so a broken observer is diagnosable
    instead of silently invisible.
    Returns ``None`` unchanged so callers can pass optional callbacks through.
    """
    if sink is None:
        return None
    broken = False

    def _guarded(event: PlanEvent) -> None:
        nonlocal broken
        if broken:
            return
        try:
            sink(event)
        except Exception as exc:  # noqa: BLE001 — drop the broken callback only
            broken = True
            import warnings

            warnings.warn(
                f"event sink {sink!r} raised {exc!r} and was dropped for the "
                "remainder of the run",
                RuntimeWarning,
                stacklevel=2,
            )

    return _guarded


@contextmanager
def emitting(sink: EventSink) -> Iterator[None]:
    """Install ``sink`` as an event consumer for the duration of the block.

    Scopes nest: every active sink receives every event, each with its own
    ``seq`` / ``elapsed`` frame, so a façade can collect events while also
    forwarding them to a user callback installed one level up.
    """
    scope = _Scope(sink)
    _STATE.scopes.append(scope)
    try:
        yield
    finally:
        _STATE.scopes.remove(scope)
