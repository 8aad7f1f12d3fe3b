"""Public-API snapshot: the exported surface of ``repro``, ``repro.api``,
``repro.runtime`` and ``repro.solver``, plus the declared planner
capabilities and option names.

These lists are the compatibility contract.  A failure here means the public
surface changed — either restore the symbol or update the snapshot *and* the
docs (``docs/API.md``) deliberately in the same change.
"""

import repro
import repro.api

REPRO_EXPORTS = sorted(
    [
        "Character",
        "Region",
        "StencilSpec",
        "OSPInstance",
        "RowPlacement",
        "Placement2D",
        "StencilPlan",
        "WritingTimeReport",
        "evaluate_plan",
        "region_writing_times",
        "system_writing_time",
        "EBlow1DPlanner",
        "EBlow2DPlanner",
        "generate_1d_instance",
        "generate_2d_instance",
        "plan",
        "planner_pool",
        "PlanRequest",
        "PlanResult",
        "PlanEvent",
        "list_planners",
        "__version__",
    ]
)

REPRO_API_EXPORTS = sorted(
    [
        "plan",
        "submit",
        "planner_pool",
        "PlanRequest",
        "PlanResult",
        "PlanningError",
        "PlanEvent",
        "EventSink",
        "EVENT_TYPES",
        "emit",
        "emitting",
        "events_enabled",
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
)

RUNTIME_EXPORTS = sorted(
    [
        "PlanJob",
        "PlannerSpec",
        "JobDescriptor",
        "JobTimeoutError",
        "JobCancelledError",
        "execute_job",
        "register_planner",
        "resolve_planner",
        "list_planners",
        "ArenaRef",
        "InstanceArena",
        "instance_digest",
        "PlannerPool",
        "EventRelay",
        "default_workers",
        "shared_pool",
        "close_shared_pools",
        "grid_jobs",
        "iter_jobs",
        "run_jobs",
        "PortfolioOutcome",
        "portfolio_jobs",
        "run_portfolio",
        "ResultStore",
        "code_version",
        "default_cache_dir",
        "Telemetry",
        "read_manifest",
        "summarize_manifest",
        "JobJournal",
        "JobLease",
        "SupervisorConfig",
        "iter_supervised",
        "run_supervised",
        "FaultPlan",
        "FaultSpec",
        "InjectedFaultError",
    ]
)


def test_repro_export_snapshot():
    assert sorted(repro.__all__) == REPRO_EXPORTS


def test_repro_api_export_snapshot():
    assert sorted(repro.api.__all__) == REPRO_API_EXPORTS


def test_repro_runtime_export_snapshot():
    import repro.runtime

    assert sorted(repro.runtime.__all__) == RUNTIME_EXPORTS


SOLVER_EXPORTS = sorted(
    [
        "LinearProgram",
        "Variable",
        "Constraint",
        "Solution",
        "SolveStatus",
        "solve_lp",
        "solve_ilp",
        "solve_lp_arrays",
        "solve_lp_scipy",
        "solve_milp_scipy",
    ]
)

CAPABILITY_FIELDS = [
    "kind",
    "deterministic",
    "supports_engine",
    "supports_chains",
    "supports_time_limit",
    "event_types",
]

PLANNER_OPTIONS = {
    "greedy-1d": ["by_density"],
    "heur-1d": ["exchange_passes", "refinement_threshold"],
    "rows-1d": ["refinement_threshold"],
    "eblow-1d": ["ablated"],
    "greedy-2d": ["by_density"],
    "sa-2d": ["seed", "engine", "chains"],
    "sa-2d-batched": ["seed", "chains"],
    "eblow-2d": ["seed", "engine", "chains"],
    "ilp-1d": ["time_limit"],
    "ilp-2d": ["time_limit"],
}


def test_repro_solver_export_snapshot():
    import repro.solver

    assert sorted(repro.solver.__all__) == SOLVER_EXPORTS


def test_planner_capability_and_option_snapshot():
    from repro.api import PlannerCapabilities, get_handle

    assert list(PlannerCapabilities().to_dict()) == CAPABILITY_FIELDS
    for name, options in PLANNER_OPTIONS.items():
        assert list(get_handle(name).schema.names) == options, name


def test_every_exported_symbol_resolves():
    for name in repro.__all__:
        assert getattr(repro, name) is not None, name
    for name in repro.api.__all__:
        assert getattr(repro.api, name) is not None, name


def test_lazy_attribute_error_still_raised():
    try:
        repro.definitely_not_an_attribute
    except AttributeError as exc:
        assert "definitely_not_an_attribute" in str(exc)
    else:  # pragma: no cover
        raise AssertionError("expected AttributeError")
