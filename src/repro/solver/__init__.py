"""Math-programming substrate (the library's replacement for GUROBI).

Provides a small natural-form model builder solved with SciPy's HiGHS:

* :func:`solve_lp` — linear programs (HiGHS ``linprog``),
* :func:`solve_ilp` — mixed-integer programs (HiGHS ``milp``),
* :func:`solve_lp_arrays` — linear programs already in matrix form.
"""

from __future__ import annotations

from repro.solver.model import Constraint, LinearProgram, Variable
from repro.solver.result import Solution, SolveStatus
from repro.solver.scipy_backend import solve_lp_arrays, solve_lp_scipy, solve_milp_scipy

__all__ = [
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


def solve_lp(program: LinearProgram) -> Solution:
    """Solve the linear program ``program`` with HiGHS."""
    return solve_lp_scipy(program)


def solve_ilp(
    program: LinearProgram,
    time_limit: float | None = None,
    mip_rel_gap: float | None = None,
) -> Solution:
    """Solve a mixed-integer program with HiGHS ``milp``.

    ``time_limit`` caps the wall-clock seconds (the incumbent is returned as
    ``FEASIBLE``); ``mip_rel_gap`` stops early at that relative gap.
    """
    return solve_milp_scipy(program, time_limit=time_limit, mip_rel_gap=mip_rel_gap)
