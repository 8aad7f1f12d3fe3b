"""Golden plans: pinned planner outputs that must not drift across commits.

The values were recorded from the planners as they stand and are compared
exactly.  A change to the solver layer, the formulations or the planner
options that alters any character choice, row order, writing time or LP
iteration count fails here, even when every plan stays legal.

The E-BLOW cases cover both exits of the rounding loop: 1T-1..1T-3 finish
in successive rounding alone, 1T-4, 1T-5, 1M-1 and 1M-5 hand over to the
fast-convergence MILP (Algorithm 2).  The exact-ILP cases are the ones the
MILP proves optimal within seconds, so their optimum is unique and
load-independent.
"""

from __future__ import annotations

import pytest

import repro
import repro.solver

# case -> (scale, rows of character names, writing time, LP iterations, MILP solves)
GOLDEN_EBLOW_1D = {
    "1T-1": (1.0, [["t7", "t3", "t5", "t2", "t6", "t0"]], 222.0, 1, 0),
    "1T-2": (1.0, [["t3", "t7", "t5", "t8", "t2", "t0"]], 542.0, 1, 0),
    "1T-3": (1.0, [["t7", "t5", "t9", "t4", "t1", "t10"]], 588.0, 1, 0),
    "1T-4": (1.0, [["t10", "t0", "t9", "t1", "t3", "t4"]], 880.0, 2, 1),
    "1T-5": (1.0, [["t7", "t6", "t11", "t13", "t4", "t2"]], 1802.0, 2, 1),
    "1M-1": (
        0.05,
        [
            ["c30", "c27", "c10", "c11", "c35", "c48"],
            ["c44", "c21", "c43", "c23", "c15", "c8"],
            ["c17", "c45", "c22", "c40", "c42", "c39"],
            ["c4", "c41", "c38", "c16", "c12", "c1"],
            ["c28", "c2", "c18", "c47", "c0"],
            ["c20", "c3", "c32", "c24", "c31"],
            ["c9", "c46", "c29", "c26", "c34", "c19"],
            ["c33", "c13", "c14", "c6", "c49"],
        ],
        4127.0,
        1,
        1,
    ),
    "1M-5": (
        0.05,
        [
            ["c35", "c5", "c49", "c53", "c196", "c28", "c174", "c85", "c163", "c14", "c138", "c118", "c44"],
            ["c158", "c42", "c171", "c22", "c180", "c80", "c177", "c119", "c133", "c89", "c104", "c189", "c56"],
            ["c162", "c155", "c72", "c10", "c100", "c182", "c139", "c79", "c121", "c137", "c117", "c103"],
            ["c73", "c78", "c70", "c102", "c141", "c37", "c64", "c92", "c183", "c198", "c129", "c111"],
            ["c57", "c126", "c52", "c122", "c54", "c81", "c159", "c24", "c36", "c130", "c8", "c23"],
            ["c135", "c184", "c134", "c194", "c3", "c175", "c16", "c170", "c167", "c101", "c74", "c143", "c51"],
            ["c97", "c168", "c164", "c40", "c108", "c91", "c115", "c147", "c99", "c88", "c66", "c87"],
            ["c47", "c169", "c15", "c0", "c156", "c59", "c149", "c105", "c148", "c136", "c125", "c68"],
            ["c128", "c41", "c152", "c39", "c106", "c21", "c4", "c77", "c45", "c178", "c114", "c188"],
            ["c58", "c166", "c176", "c113", "c67", "c94", "c55", "c146", "c107", "c95", "c124"],
            ["c27", "c20", "c63", "c48", "c7", "c145", "c61", "c192", "c46", "c31", "c144", "c197"],
            ["c160", "c71", "c26", "c157", "c2", "c179", "c199", "c132", "c13", "c25", "c12"],
            ["c69", "c187", "c165", "c181", "c173", "c86", "c9", "c154", "c96", "c60", "c50", "c131", "c110"],
            ["c43", "c11", "c142", "c83", "c195", "c109", "c38", "c84", "c30", "c191", "c116", "c190"],
            ["c32", "c123", "c140", "c6", "c185", "c98", "c193", "c127", "c76", "c17"],
            ["c93", "c172", "c62", "c29", "c153", "c1", "c18", "c120", "c161", "c65", "c34", "c90"],
        ],
        14182.0,
        2,
        1,
    ),
}

# (planner, case) -> optimal writing time
GOLDEN_EXACT = {
    ("ilp-1d", "1T-1"): 222.0,
    ("ilp-2d", "2T-1"): 22.0,
    ("ilp-2d", "2T-2"): 28.0,
}


def _rows(plan: dict) -> list[list[str]]:
    rows: dict[int, list[dict]] = {}
    for placement in plan["row_placements"]:
        rows.setdefault(placement["row"], []).append(placement)
    return [
        [p["name"] for p in sorted(rows[r], key=lambda p: p["x"])]
        for r in sorted(rows)
    ]


@pytest.mark.parametrize("case", sorted(GOLDEN_EBLOW_1D))
def test_eblow_1d_plan_is_pinned(case, monkeypatch):
    scale, rows, writing_time, lp_iterations, milp_solves = GOLDEN_EBLOW_1D[case]
    calls = []
    solve_milp = repro.solver.solve_milp_scipy

    def counting(*args, **kwargs):
        calls.append(args)
        return solve_milp(*args, **kwargs)

    monkeypatch.setattr(repro.solver, "solve_milp_scipy", counting)
    result = repro.plan(case, planner="eblow-1d", scale=scale)
    assert result.ok, result.error
    assert _rows(result.plan) == rows
    assert result.writing_time == writing_time
    assert result.stats["lp_iterations"] == lp_iterations
    assert len(calls) == milp_solves


def test_golden_cases_exercise_the_handover_milp():
    assert sum(1 for entry in GOLDEN_EBLOW_1D.values() if entry[4]) >= 2


@pytest.mark.parametrize("planner, case", sorted(GOLDEN_EXACT))
def test_exact_ilp_optimum_is_pinned(planner, case):
    result = repro.plan(case, planner=planner, scale=1.0)
    assert result.ok, result.error
    assert result.stats["optimal"]
    assert result.writing_time == GOLDEN_EXACT[(planner, case)]
