"""Solution objects returned by the HiGHS solver wrappers."""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

__all__ = ["SolveStatus", "Solution"]


class SolveStatus(Enum):
    """Outcome of an LP/ILP solve."""

    OPTIMAL = "optimal"
    FEASIBLE = "feasible"  # incumbent found but optimality not proven (ILP limits)
    INFEASIBLE = "infeasible"
    UNBOUNDED = "unbounded"
    ERROR = "error"

    @property
    def has_solution(self) -> bool:
        """Whether variable values are available."""
        return self in (SolveStatus.OPTIMAL, SolveStatus.FEASIBLE)


@dataclass
class Solution:
    """Result of solving a :class:`~repro.solver.model.LinearProgram`.

    Attributes
    ----------
    status:
        Solve outcome.
    objective:
        Objective value in the *original* optimization sense of the program
        (i.e. already negated back for maximization problems).
    values:
        Variable values indexed like the program's variables (empty when no
        solution is available).
    iterations:
        HiGHS iteration count (LP iterations, or MILP branch & bound nodes).
    metadata:
        Free-form diagnostic information from HiGHS.
    """

    status: SolveStatus
    objective: float = float("nan")
    values: list[float] = field(default_factory=list)
    iterations: int = 0
    metadata: dict = field(default_factory=dict)
