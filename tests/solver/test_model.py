"""Unit tests for the LP/ILP model builder."""

import pytest

from repro.errors import ValidationError
from repro.solver import LinearProgram


class TestVariables:
    def test_add_variable_and_binary(self):
        lp = LinearProgram()
        x = lp.add_variable("x", 0, 10)
        b = lp.add_binary("b")
        assert lp.num_variables == 2
        assert lp.variables[x].upper == 10
        assert lp.variables[b].is_integer
        assert [v.is_integer for v in lp.variables] == [False, True]

    def test_rejects_inverted_bounds(self):
        lp = LinearProgram()
        with pytest.raises(ValidationError):
            lp.add_variable("x", 5, 1)


class TestConstraintsAndObjective:
    def test_constraint_validation(self):
        lp = LinearProgram()
        lp.add_variable("x")
        with pytest.raises(ValidationError):
            lp.add_constraint({3: 1.0}, "<=", 1.0)
        with pytest.raises(ValidationError):
            lp.add_constraint({0: 1.0}, "!=", 1.0)

    def test_constraint_satisfaction(self):
        lp = LinearProgram()
        x = lp.add_variable("x")
        y = lp.add_variable("y")
        c = lp.add_constraint({x: 1.0, y: 2.0}, "<=", 10.0)
        assert c.satisfied([2.0, 4.0])
        assert not c.satisfied([2.0, 5.0])
        eq = lp.add_constraint({x: 1.0}, "==", 3.0)
        assert eq.satisfied([3.0, 0.0])
        assert not eq.satisfied([3.1, 0.0])

    def test_objective_value_and_constant(self):
        lp = LinearProgram(maximize=True)
        x = lp.add_variable("x")
        lp.set_objective({x: 2.0}, constant=5.0)
        assert lp.objective_value([3.0]) == pytest.approx(11.0)


class TestFeasibilityAndCopies:
    def test_is_feasible_checks_bounds_and_integrality(self):
        lp = LinearProgram()
        x = lp.add_variable("x", 0, 5)
        b = lp.add_binary("b")
        lp.add_constraint({x: 1.0, b: 1.0}, "<=", 4.0)
        assert lp.is_feasible([3.0, 1.0])
        assert not lp.is_feasible([6.0, 0.0])     # bound violated
        assert not lp.is_feasible([1.0, 0.5])     # integrality violated
        assert not lp.is_feasible([4.0, 1.0])     # constraint violated
        assert not lp.is_feasible([1.0])          # wrong length
