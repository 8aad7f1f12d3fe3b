"""Property-based tests for the math-programming substrate."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.solver import LinearProgram, solve_milp_scipy


@st.composite
def knapsacks(draw):
    n = draw(st.integers(min_value=1, max_value=8))
    weights = [draw(st.integers(min_value=1, max_value=12)) for _ in range(n)]
    profits = [draw(st.integers(min_value=1, max_value=15)) for _ in range(n)]
    capacity = draw(st.integers(min_value=1, max_value=max(2, sum(weights) // 2)))
    lp = LinearProgram(maximize=True)
    for i in range(n):
        lp.add_binary(f"a{i}")
    lp.add_constraint({i: float(w) for i, w in enumerate(weights)}, "<=", float(capacity))
    lp.set_objective({i: float(p) for i, p in enumerate(profits)})
    return lp, weights, profits, capacity


@given(problem=knapsacks())
@settings(max_examples=20, deadline=None)
def test_highs_milp_matches_dynamic_program(problem):
    lp, weights, profits, capacity = problem
    solution = solve_milp_scipy(lp)
    best = [0] * (capacity + 1)
    for w, p in zip(weights, profits):
        for c in range(capacity, w - 1, -1):
            best[c] = max(best[c], best[c - w] + p)
    assert abs(solution.objective - best[capacity]) < 1e-6
