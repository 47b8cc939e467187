from __future__ import annotations

import math

import pytest

from roadmnet.milp import (
    LinearModel,
    ModelError,
    export_lp,
    solve,
    solve_with_scipy_milp,
    validate_solution,
)
from roadmnet.verify import enumerate_milp_minimum

from instances import random_integer_model


def knapsackish() -> LinearModel:
    m = LinearModel("knapsackish")
    m.add_variable("a", ub=3, integer=True)
    m.add_variable("b", ub=3, integer=True)
    m.add_constraint({"a": 1, "b": 2}, ">=", 3)
    m.set_objective({"a": 1, "b": 1})
    return m


class TestModelBuilding:
    def test_duplicate_variable_rejected(self):
        m = LinearModel()
        m.add_variable("x")
        with pytest.raises(ModelError):
            m.add_variable("x")

    def test_bad_bounds_rejected(self):
        m = LinearModel()
        with pytest.raises(ModelError):
            m.add_variable("x", lb=2.0, ub=1.0)

    def test_empty_name_rejected(self):
        with pytest.raises(ModelError):
            LinearModel().add_variable("")

    def test_constraint_unknown_variable(self):
        m = LinearModel()
        m.add_variable("x")
        with pytest.raises(ModelError):
            m.add_constraint({"y": 1}, "<=", 1)

    def test_constraint_needs_terms_and_sense(self):
        m = LinearModel()
        m.add_variable("x")
        with pytest.raises(ModelError):
            m.add_constraint({}, "<=", 0)
        with pytest.raises(ModelError):
            m.add_constraint({"x": 1}, "<", 0)

    def test_duplicate_coefficients_merge(self):
        m = LinearModel()
        m.add_variable("x")
        m.add_constraint([("x", 1.0), ("x", 2.0)], "<=", 6)
        assert m.constraints[0].coeffs == (("x", 3.0),)

    def test_objective_unknown_variable(self):
        with pytest.raises(ModelError):
            LinearModel().set_objective({"ghost": 1})


class TestSolve:
    def test_integer_minimum(self):
        res = solve(knapsackish())
        assert res.status == "optimal" and res.ok
        assert res.objective_value == pytest.approx(2.0)
        assert res.best_bound == pytest.approx(2.0)
        # Branching was required: the LP relaxation sits at 1.5.
        assert res.nodes >= 2

    def test_pure_lp(self):
        m = LinearModel()
        m.add_variable("x", ub=10)
        m.add_variable("y", ub=10)
        m.add_constraint({"x": 1, "y": 1}, ">=", 4)
        m.set_objective({"x": 3, "y": 1})
        res = solve(m)
        assert res.status == "optimal"
        assert res.objective_value == pytest.approx(4.0)
        assert res.values["y"] == pytest.approx(4.0)

    def test_empty_model(self):
        res = solve(LinearModel())
        assert res.status == "optimal"
        assert res.objective_value == 0.0

    def test_infeasible(self):
        m = LinearModel()
        m.add_variable("x", ub=1, integer=True)
        m.add_constraint({"x": 1}, ">=", 2)
        res = solve(m)
        assert res.status == "infeasible"
        assert not res.ok
        assert res.objective_value is None

    def test_unbounded(self):
        m = LinearModel()
        m.add_variable("x")
        m.add_constraint({"x": 1}, ">=", 0)
        m.set_objective({"x": -1})
        assert solve(m).status == "unbounded"

    def test_integer_values_are_snapped(self):
        res = solve(knapsackish())
        for name in ("a", "b"):
            assert res.values[name] == int(res.values[name])

    def test_determinism(self):
        first = solve(knapsackish())
        second = solve(knapsackish())
        assert first.values == second.values
        assert first.nodes == second.nodes

    def test_objective_change_after_solve_is_used(self):
        m = LinearModel()
        m.add_variable("x")
        m.add_variable("y")
        m.add_constraint({"x": 1, "y": 1}, ">=", 3)
        m.set_objective({"x": 1, "y": 2})
        assert solve(m).values == pytest.approx({"x": 3.0, "y": 0.0})
        m.set_objective({"x": 2, "y": 1})
        res = solve(m)
        assert res.values == pytest.approx({"x": 0.0, "y": 3.0})
        assert res.objective_value == pytest.approx(3.0)

    def test_time_limit_zero_reports_bound(self):
        m = random_integer_model(7)
        full = solve(m)
        assert full.status in ("optimal", "infeasible")
        limited = solve(m, time_limit=0.0)
        assert limited.status in ("no_solution", "infeasible")
        if full.status == "optimal" and limited.status == "no_solution":
            assert limited.best_bound <= full.objective_value + 1e-6


class TestRandomizedAgreement:
    @pytest.mark.parametrize("seed", range(40, 65))
    def test_three_way_agreement(self, seed):
        m = random_integer_model(seed)
        expected, witness = enumerate_milp_minimum(m)
        mine = solve(m)
        scipys = solve_with_scipy_milp(m)
        if expected is None:
            assert mine.status == "infeasible"
            assert scipys.status == "infeasible"
        else:
            assert mine.status == "optimal"
            assert mine.objective_value == pytest.approx(expected, abs=1e-6)
            assert scipys.objective_value == pytest.approx(expected, abs=1e-6)
            assert validate_solution(m, mine.values) == []
            assert validate_solution(m, witness) == []


class TestValidateSolution:
    def test_clean_solution_passes(self):
        res = solve(knapsackish())
        assert validate_solution(knapsackish(), res.values) == []

    def test_violations_reported(self):
        m = knapsackish()
        bad = {"a": 0.0, "b": 0.5}
        kinds = {v.kind for v in validate_solution(m, bad)}
        assert "integrality" in kinds
        assert "constraint" in kinds

    def test_bound_violation(self):
        m = knapsackish()
        out = validate_solution(m, {"a": 5.0, "b": 0.0})
        assert any(v.kind == "bound" and v.name == "a" for v in out)

    def test_unknown_name_flagged(self):
        out = validate_solution(knapsackish(), {"a": 3.0, "b": 0.0, "q": 1.0})
        assert any(v.name == "q" for v in out)

    def test_missing_names_flagged_but_count_as_zero(self):
        out = validate_solution(knapsackish(), {"a": 3.0})
        # The absent variable is reported, but with value 0 the constraint
        # a + 2b >= 3 still holds, so nothing else is.
        assert [(v.kind, v.name) for v in out] == [("missing-variable", "b")]


class TestExport:
    def test_lp_text(self):
        m = LinearModel("sample")
        m.add_variable("make_a", lb=0, ub=4, integer=True)
        m.add_variable("make_b")
        m.add_constraint({"make_a": 2, "make_b": 1}, "<=", 10, name="mix")
        m.add_constraint({"make_a": 1, "make_b": -3}, ">=", -6)
        m.set_objective({"make_a": -5, "make_b": -4})
        text = export_lp(m)
        assert text == (
            "\\ sample\n"
            "Minimize\n"
            " obj: - 5 make_a - 4 make_b\n"
            "Subject To\n"
            " mix: 2 make_a + make_b <= 10\n"
            " c1: make_a - 3 make_b >= -6\n"
            "Bounds\n"
            " 0 <= make_a <= 4\n"
            "Generals\n"
            " make_a\n"
            "End\n"
        )

    def test_zero_objective_still_valid(self):
        m = LinearModel()
        m.add_variable("z")
        m.add_constraint({"z": 1}, "<=", 2)
        text = export_lp(m)
        assert " obj: 0 z" in text
        assert "Bounds" not in text  # default bounds are omitted
