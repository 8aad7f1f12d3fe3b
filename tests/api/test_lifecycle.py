"""Round-trip coverage for the typed plan lifecycle (PlanRequest/PlanResult).

The acceptance-critical property: ``to_dict ↔ from_dict`` is lossless for
every registered planner's request and result — including the request's
``timeout`` and the result's ``extra`` (telemetry counters) — because these
dicts are the wire format of manifests and the result store.  The captured
event stream is a per-execution capture and stays off the wire.
"""

import pytest

from repro.api import PlanRequest, PlanResult, submit
from repro.api.registry import get_handle, list_planners
from repro.errors import ValidationError
from repro.events import PlanEvent
from repro.io.serialization import canonical_json
from repro.runtime.jobs import PlanJob, PlannerSpec

FIRST_PARTY = sorted(
    name for name in list_planners() if not name.startswith("test-")
)
# Options that make ILP planners safe on the tiny fixtures.
TIGHT_OPTIONS = {"ilp-1d": {"time_limit": 20.0}, "ilp-2d": {"time_limit": 20.0}}
TINY_CASE = {"1D": "1T-1", "2D": "2T-1"}


class TestPlanRequest:
    def test_needs_exactly_one_target(self, small_1d_instance):
        with pytest.raises(ValidationError, match="exactly one"):
            PlanRequest(planner="greedy-1d")
        with pytest.raises(ValidationError, match="exactly one"):
            PlanRequest(
                planner="greedy-1d", case="1T-1", instance=small_1d_instance
            )

    def test_case_round_trip_for_every_planner(self):
        for name in FIRST_PARTY:
            kind = get_handle(name).capabilities.kind
            request = PlanRequest(
                planner=name,
                options=dict(TIGHT_OPTIONS.get(name, {})),
                case=TINY_CASE[kind],
                scale=1.0,
                timeout=12.5,
                label=f"{name}-label",
            )
            recovered = PlanRequest.from_dict(request.to_dict())
            assert recovered == request
            assert canonical_json(request.to_dict()) == canonical_json(recovered.to_dict())

    def test_inline_instance_round_trip(self, small_1d_instance):
        request = PlanRequest(
            planner="greedy-1d", instance=small_1d_instance, timeout=3.0
        )
        recovered = PlanRequest.from_dict(request.to_dict())
        assert recovered.instance.to_dict() == small_1d_instance.to_dict()
        assert recovered.timeout == 3.0
        assert recovered.job_id == request.job_id

    def test_job_conversion_preserves_content_hash_identity(self):
        request = PlanRequest(
            planner="eblow-1d", options={"ablated": True}, case="1T-2", scale=1.0
        )
        job = request.to_job()
        legacy = PlanJob(
            spec=PlannerSpec("eblow-1d", {"ablated": True}), case="1T-2", scale=1.0
        )
        assert job.job_id == legacy.job_id
        assert job.instance_hash == legacy.instance_hash
        assert job.config_hash == legacy.config_hash
        assert PlanRequest.from_job(job) == request

    def test_validated_rejects_unknown_options(self):
        request = PlanRequest(planner="eblow-1d", options={"bogus": 1}, case="1T-1", scale=1.0)
        with pytest.raises(ValidationError, match="unknown option"):
            request.validated()


class TestPlanResultRoundTrip:
    @pytest.mark.parametrize("name", FIRST_PARTY)
    def test_executed_result_round_trips(self, name):
        kind = get_handle(name).capabilities.kind
        request = PlanRequest(
            planner=name,
            options=dict(TIGHT_OPTIONS.get(name, {})),
            case=TINY_CASE[kind],
            scale=1.0,
            timeout=60.0,
        )
        result = submit(request)
        assert result.ok, f"{name}: {result.error}"
        data = result.to_dict()
        recovered = PlanResult.from_dict(data)
        assert recovered.to_dict() == data
        # The fields that guard the telemetry manifest format.
        assert recovered.extra == result.extra
        # Events describe one execution; they are never serialized.
        assert result.events and recovered.events == []
        assert canonical_json(data)  # wire format stays canonical-JSON-able

    def test_failed_result_round_trips(self, small_2d_instance):
        # 1D planner on a 2D instance fails inside execute_job.
        request = PlanRequest(planner="greedy-1d", instance=small_2d_instance)
        result = submit(request)
        assert not result.ok and result.status == "error"
        recovered = PlanResult.from_dict(result.to_dict())
        assert recovered.to_dict() == result.to_dict()
        assert recovered.error == result.error


class TestLegacyConversions:
    """The accessors that remain now that PlanResult is the only result type."""

    def _result(self) -> PlanResult:
        request = PlanRequest(planner="eblow-1d", case="1T-1", scale=1.0, timeout=30.0)
        return submit(request)

    def test_stats_exposes_plan_stats(self):
        result = self._result()
        assert result.stats["algorithm"] == "e-blow-1d"
        assert "unsolved_history" in result.stats

    def test_plan_object_requires_a_plan(self):
        failed = PlanResult(
            job_id="x", case="c", label="l", planner="p", status="error"
        )
        with pytest.raises(ValidationError, match="carries no plan"):
            failed.plan_object(None)

    def test_event_counts(self):
        result = self._result()
        counts = result.event_counts()
        assert counts["started"] == 1 and counts["finished"] == 1
        assert counts.get("lp_solve", 0) >= 1


def test_plan_event_round_trip():
    event = PlanEvent(type="incumbent", seq=4, elapsed=0.25, payload={"cost": 12.0})
    assert PlanEvent.from_dict(event.to_dict()) == event
