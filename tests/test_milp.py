from __future__ import annotations

import gc
import math
import multiprocessing
import os
import random
import subprocess
import sys
import threading
import time
import types
import weakref
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
import scipy.optimize
from scipy import sparse
from scipy.optimize._linprog_util import _check_result

from roadmnet import algorithms, milp, operation
from roadmnet.design import PriorPlacement, build_design_model
from roadmnet.io import load_inputs
from roadmnet.milp import (
    LinearModel,
    ModelError,
    export_lp,
    solve,
    solve_with_scipy_milp,
    validate_solution,
)
from roadmnet.topology import CostModel, FailureScenario, enumerate_failures
from roadmnet.verify import enumerate_milp_minimum

from conftest import fixture_path
from instances import grid_network, random_integer_model

# Sibling LPs are paired only where two CPUs are usable.
TWO_CPUS = len(getattr(os, "sched_getaffinity", lambda pid: ())(0)) >= 2


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

    def test_any_mapping_or_pair_list_is_accepted(self):
        m = LinearModel()
        m.add_variable("x")
        m.add_variable("y")
        m.add_constraint(types.MappingProxyType({"y": 2, "x": 1}), "<=", 6)
        m.add_constraint([("x", 1), ("y", 4), ("x", -3)], ">=", 0)
        assert m.constraints[0].coeffs == (("y", 2.0), ("x", 1.0))
        assert m.constraints[1].coeffs == (("x", -2.0), ("y", 4.0))

    def test_a_block_reads_its_positions_as_its_columns_and_one_outside(self):
        rows = [([0, 2], [1.0, -1.0], ">=", 0.0), ([1, 0, 2], [1.0, 1.0, -2.0], "==", 1.0)]
        blocked, plain = LinearModel(), LinearModel()
        for m in (blocked, plain):
            m.add_variable("before")
            m.add_variable("cap", ub=4, integer=True)
        assert blocked._add_block(["h0", "h1"], 0.0, 3.0, True, rows, [1], ["r0", "r1"]) == 2
        for name in ("h0", "h1"):
            plain.add_variable(name, ub=3.0, integer=True)
        for (ks, vals, sense, rhs), name in zip(rows, ("r0", "r1")):
            plain.add_constraint([(("h0", "h1", "cap")[k], v) for k, v in zip(ks, vals)],
                                 sense, rhs, name)
        assert blocked.variables == plain.variables
        assert blocked.constraints == plain.constraints
        assert blocked.constraints[1].coeffs == (("h1", 1.0), ("h0", 1.0), ("cap", -2.0))

    def test_a_block_reads_positions_past_its_columns_as_the_outside_ones_in_order(self):
        m = LinearModel()
        for name in ("a", "b", "c"):
            m.add_variable(name)
        m._add_block(["h"], 0.0, 1.0, False, [([3, 0, 1, 2], [4.0, 1.0, 2.0, 3.0], "<=", 5.0)],
                     [2, 0, 1], ["r"])
        assert m.constraints[0].coeffs == (("b", 4.0), ("h", 1.0), ("c", 2.0), ("a", 3.0))

    def test_a_block_of_rows_only_or_columns_only(self):
        m = LinearModel()
        m.add_variable("x")
        assert m._add_block((), 0.0, 1.0, False, [([0], [2.0], "<=", 3.0)], [0], ["r"]) == 1
        assert m._add_block(["y"], 0.0, 1.0, False, [], [], []) == 1
        assert [v.name for v in m.variables] == ["x", "y"]
        assert m.constraints == (milp.Constraint("r", (("x", 2.0),), "<=", 3.0),)

    def test_a_block_with_a_taken_name_leaves_the_model_alone(self):
        m = LinearModel()
        m.add_variable("x")
        for names in (["y", "x"], ["y", "y"], ["y", ""]):
            with pytest.raises(ModelError):
                m._add_block(names, 0.0, 1.0, False, [([0], [1.0], "<=", 1.0)], [0], ["r"])
        assert [v.name for v in m.variables] == ["x"] and m.constraints == ()

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

    def test_non_finite_values_are_violations(self):
        m = LinearModel()
        m.add_variable("x", ub=3.0)
        m.add_variable("n", ub=3.0, integer=True)
        m.add_constraint({"x": 1}, ">=", 1, name="xrow")
        m.add_constraint({"n": 1}, "<=", 2, name="nrow")
        nan = float("nan")
        out = validate_solution(m, {"x": nan, "n": nan})
        assert [(v.kind, v.name) for v in out] == [
            ("bound", "x"), ("bound", "n"), ("constraint", "xrow"), ("constraint", "nrow")]
        assert all(v.amount == math.inf for v in out)
        out = validate_solution(m, {"x": math.inf, "n": 1.0})
        assert [(v.kind, v.name) for v in out] == [("bound", "x")]


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


# ---------------------------------------------------------------------------
# milp.linprog against scipy.optimize.linprog(method="highs")
# ---------------------------------------------------------------------------


def old_matrices(model: LinearModel):
    """c, the "<=" block (">=" negated) and the "==" block as two CSR matrices.

    This is how the LP relaxation was assembled before the one stacked
    column-major matrix, and what scipy.optimize.linprog was handed.
    """
    n = len(model.variables)
    index = {v.name: i for i, v in enumerate(model.variables)}
    c = np.zeros(n)
    for var, coef in model.objective.items():
        c[index[var]] = coef
    ub_rows, eq_rows = [], []
    for con in model.constraints:
        idx = [index[v] for v, _ in con.coeffs]
        coefs = [coef for _, coef in con.coeffs]
        if con.sense == "==":
            eq_rows.append((idx, coefs, con.rhs))
        elif con.sense == "<=":
            ub_rows.append((idx, coefs, con.rhs))
        else:
            ub_rows.append((idx, [-x for x in coefs], -con.rhs))

    def build(rows):
        if not rows:
            return None, None
        data, ri, ci, rhs = [], [], [], []
        for r, (idx, coefs, b) in enumerate(rows):
            for j, x in zip(idx, coefs):
                ri.append(r)
                ci.append(j)
                data.append(x)
            rhs.append(b)
        return sparse.csr_matrix((data, (ri, ci)), shape=(len(rows), n)), np.array(rhs)

    return (c, *build(ub_rows), *build(eq_rows))


def reference_lp(model: LinearModel, lb, ub, time_limit=None):
    c, a_ub, b_ub, a_eq, b_eq = old_matrices(model)
    options = {"presolve": True}
    if time_limit is not None:
        options["time_limit"] = max(time_limit, 0.05)
    return scipy.optimize.linprog(
        c, A_ub=a_ub, b_ub=b_ub, A_eq=a_eq, b_eq=b_eq,
        bounds=np.column_stack([lb, ub]), method="highs", options=options,
    )


def assert_same_lp(model: LinearModel, lb, ub, time_limit=None, lp=None):
    """milp.linprog on ``lp`` (a freshly loaded instance by default) gives
    what scipy.optimize.linprog gives, bit for bit."""
    got = milp.linprog(lp or milp._Loaded(milp._compile(model)), lb, ub, time_limit)
    want = reference_lp(model, lb, ub, time_limit)
    assert got.status == want.status
    assert got.fun == want.fun
    if want.x is None:
        assert got.x is None
    else:
        assert np.array_equal(got.x, want.x)
        assert got.x.tobytes() == want.x.tobytes()
    return got


def assert_same_matrix(model: LinearModel):
    _, a_ub, _, a_eq, _ = old_matrices(model)
    want = sparse.csc_array(sparse.vstack([a for a in (a_ub, a_eq) if a is not None]))
    got = milp._compile(model).a
    assert got.shape == want.shape
    assert np.array_equal(got.indptr, want.indptr)
    assert np.array_equal(got.indices, want.indices)
    assert got.data.tobytes() == want.data.tobytes()


@pytest.fixture(scope="module")
def node_lps():
    """Every LP design_optimal solves on both fixtures, and each solve's nodes.

    An LP is (model, lb, ub, result), where result is the sibling thread's
    answer for an LP that thread solved and None for one solved on the
    calling thread.  Every branching is paired, so the sibling thread solves
    every second sibling.
    """
    recorded, nodes, current = [], [], []
    real_solve, real_lp = milp.solve, milp.linprog

    def solve_recording(model, time_limit=None):
        current[:] = [model]
        result = real_solve(model, time_limit)
        nodes.append(result.nodes)
        return result

    def lp_recording(comp, lb, ub, time_limit):
        recorded.append((current[0], lb.copy(), ub.copy(), None))
        return real_lp(comp, lb, ub, time_limit)

    class RecordingPool(ThreadPoolExecutor):
        def submit(self, solve_lp, comp, lb, ub, time_limit):
            lp = (current[0], lb.copy(), ub.copy())

            def recording():
                assert threading.current_thread() is not threading.main_thread()
                result = solve_lp(comp, lb, ub, time_limit)
                recorded.append((*lp, result))
                return result

            return super().submit(recording)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(algorithms, "solve", solve_recording)
        mp.setattr(operation, "solve", solve_recording)
        mp.setattr(milp, "linprog", lp_recording)
        mp.setattr(milp, "ThreadPoolExecutor", RecordingPool)
        for name in ("toy2x5", "grid3x3_600"):
            algorithms.design_optimal(*load_inputs(fixture_path(name)))
    return recorded, nodes


def toy_lp() -> LinearModel:
    m = LinearModel("toy-lp")
    m.add_variable("x", ub=4)
    m.add_variable("y", lb=-1, ub=3)
    m.add_variable("z")
    m.add_constraint({"x": 1, "y": 2}, "<=", 5)
    m.add_constraint({"x": 1, "z": 1}, ">=", 1.5)
    m.add_constraint({"y": 1, "z": -1}, "==", 0.25)
    m.set_objective({"x": -1, "y": -1, "z": 0.5})
    return m


class TestDirectHighs:
    def test_node_lps_match_scipy_linprog(self, node_lps):
        lps, nodes = node_lps
        assert len(lps) > 90
        assert len(lps) == sum(nodes)  # one LP a node, wherever it was solved
        assert {m.name for m, *_ in lps} == {"design", "operation"}
        assert any(not np.array_equal(lb, milp._compile(m).lb) for m, lb, *_ in lps)
        if TWO_CPUS:
            assert sum(res is not None for *_, res in lps) > 30
        for model, lb, ub, res in lps:
            got = assert_same_lp(model, lb, ub)
            if res is not None:  # the sibling thread's answer, bit for bit
                assert (res.status, res.fun) == (got.status, got.fun)
                assert (res.x is None) == (got.x is None)
                assert res.x is None or res.x.tobytes() == got.x.tobytes()

    def test_stacked_matrix_is_the_old_vstack(self, node_lps):
        models = {id(m): m for m, *_ in node_lps[0]}
        for model in models.values():
            assert_same_matrix(model)

    def test_merged_zero_coefficient_is_kept(self):
        m = toy_lp()
        m.add_constraint([("x", 1.0), ("z", 2.0), ("x", -1.0)], ">=", 0.5)
        m.add_constraint({"y": 0.0, "z": 1.0}, "==", 1.25)
        assert_same_matrix(m)
        comp = milp._compile(m)
        assert comp.a.nnz == 10  # the two zero entries stay stored
        assert assert_same_lp(m, comp.lb, comp.ub).status == 0

    def test_toy_lp_with_and_without_time_limit(self):
        m = toy_lp()
        comp = milp._compile(m)
        assert assert_same_lp(m, comp.lb, comp.ub).status == 0
        assert assert_same_lp(m, comp.lb, comp.ub, time_limit=0.0).status == 0
        lb = comp.lb.copy()
        lb[0] = 2.0  # the branch-and-bound swaps only column bounds
        assert assert_same_lp(m, lb, comp.ub).status == 0

    def test_bounds_of_the_wrong_length_are_refused(self):
        comp = milp._compile(toy_lp())
        with pytest.raises(ValueError, match="3 entries"):
            milp.linprog(milp._Loaded(comp), comp.lb[:2], comp.ub[:2], None)

    def test_no_rows(self):
        m = LinearModel()
        m.add_variable("x", lb=1, ub=2)
        m.set_objective({"x": 3})
        comp = milp._compile(m)
        assert assert_same_lp(m, comp.lb, comp.ub).fun == 3.0

    def test_infeasible(self):
        m = LinearModel()
        m.add_variable("x", ub=1)
        m.add_variable("y", ub=1)
        m.add_constraint({"x": 1, "y": 1}, ">=", 3)
        m.set_objective({"x": 1})
        comp = milp._compile(m)
        assert assert_same_lp(m, comp.lb, comp.ub).status == 2

    def test_unbounded(self):
        m = LinearModel()
        m.add_variable("x")
        m.add_variable("y")
        m.add_constraint({"x": 1, "y": -1}, "<=", 1)
        m.set_objective({"x": -1})
        comp = milp._compile(m)
        assert assert_same_lp(m, comp.lb, comp.ub).status == 3

    def test_time_limited(self):
        rng = random.Random(0)
        m = LinearModel("dense")
        n = 800  # a ~0.6 s root LP: far beyond the 0.05 s floor of any limit
        for i in range(n):
            m.add_variable(f"x{i}", ub=10)
        for _ in range(n):
            picks = rng.sample(range(n), 40)
            m.add_constraint({f"x{j}": rng.uniform(0.1, 1) for j in picks}, "<=",
                             rng.uniform(5, 10))
        m.set_objective({f"x{i}": -rng.uniform(0.5, 1.5) for i in range(n)})
        comp = milp._compile(m)
        got = assert_same_lp(m, comp.lb, comp.ub, time_limit=0.0)
        assert (got.status, got.fun, got.x) == (1, None, None)

    def test_out_of_tolerance_optimum_is_status_4(self, monkeypatch):
        comp = milp._compile(toy_lp())
        monkeypatch.setattr(milp, "_CHECK_TOL", -1.0)
        assert milp.linprog(milp._Loaded(comp), comp.lb, comp.ub, None).status == 4

    def test_tolerance_check_is_linprogs(self):
        tol = math.sqrt(1e-9) * 10
        lb, ub = np.array([0.0, -np.inf]), np.array([1.0, np.inf])
        good = {"x": np.array([0.5, -3.0]), "fun": 1.0,
                "slack": np.array([0.0, 2.0]), "con": np.array([0.0])}
        changes = [{}, {"fun": np.nan}]
        for off in (0.99 * tol, 1.01 * tol):
            changes += [
                {"x": np.array([-off, -3.0])},
                {"x": np.array([1.0 + off, -3.0])},
                {"slack": np.array([-off, 2.0])},
                {"con": np.array([off])},
                {"con": np.array([-off])},
            ]
        for part in ("x", "slack", "con"):
            bad = good[part].copy()
            bad[-1] = np.nan
            changes.append({part: bad})
        verdicts = []
        for change in changes:
            case = {**good, **change}
            status, _ = _check_result(case["x"], case["fun"], 0, case["slack"],
                                      case["con"], np.column_stack([lb, ub]), 1e-9,
                                      "", None)
            ok = milp._within_tolerance(case["x"], case["fun"], case["slack"],
                                        case["con"], lb, ub)
            assert ok == (status == 0), change
            verdicts.append(ok)
        assert True in verdicts and False in verdicts

    def test_old_scipy_fails_at_import(self):
        code = (
            "import sys, scipy.optimize._highspy as bindings\n"
            "del bindings._core\n"
            "sys.modules['scipy.optimize._highspy._core'] = None\n"
            "try:\n    import roadmnet.milp\n"
            "except ImportError as exc:\n    print(exc)\n"
        )
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                              text=True)
        assert "roadmnet needs scipy>=1.15" in proc.stdout


# ---------------------------------------------------------------------------
# Sibling LPs solved on a second thread
# ---------------------------------------------------------------------------


def fingerprint(res):
    """Everything a SolveResult says, floats as hex."""
    def hexed(v):
        return None if v is None else float(v).hex()

    return (res.status, hexed(res.objective_value), hexed(res.best_bound), res.nodes,
            [(name, hexed(v)) for name, v in res.values.items()])


def joint_model(inputs) -> LinearModel:
    topology, demands, costs = inputs
    return build_design_model(topology, demands, enumerate_failures(topology), costs).model


def count_lps_here(monkeypatch) -> list:
    """A list that grows by one for each LP solved on the calling thread."""
    real, here = milp.linprog, []

    def counting(*args):
        here.append(None)
        return real(*args)

    monkeypatch.setattr(milp, "linprog", counting)
    return here


def one_cpu(monkeypatch) -> None:
    """Make solves see one CPU, so they solve every LP on the calling thread."""
    monkeypatch.setattr(milp.os, "sched_getaffinity", lambda pid: {0})


def paired_and_local(model, monkeypatch, time_limit=None):
    """(paired result, LPs solved on the calling thread, all-local result)."""
    here = count_lps_here(monkeypatch)
    paired = solve(model, time_limit)
    one_cpu(monkeypatch)
    return paired, len(here), solve(model, time_limit)


def sibling_threads() -> list[threading.Thread]:
    return [t for t in threading.enumerate() if t.name.startswith("roadmnet-lp")]


def paired_in_a_worker(fixture: str):
    """(fingerprint, LPs solved on the calling thread) of a paired solve of
    the fixture's joint model."""
    model = joint_model(load_inputs(fixture_path(fixture)))
    with pytest.MonkeyPatch.context() as mp:
        here = count_lps_here(mp)
        return fingerprint(solve(model)), len(here)


class TestPairedSiblings:
    @pytest.mark.parametrize("fixture", ["toy_inputs", "grid_inputs"])
    def test_joint_models_solve_the_same_paired_or_local(self, fixture, request,
                                                         monkeypatch):
        paired, here, local = paired_and_local(joint_model(request.getfixturevalue(fixture)),
                                               monkeypatch)
        assert paired.status == "optimal"
        assert fingerprint(paired) == fingerprint(local)
        if TWO_CPUS:
            assert here < paired.nodes  # the sibling thread solved some of them

    def test_random_integer_models_solve_the_same_paired_or_local(self, monkeypatch):
        for seed in range(30):  # criterion 7's suite
            paired, _, local = paired_and_local(random_integer_model(seed), monkeypatch)
            assert fingerprint(paired) == fingerprint(local), f"seed {seed}"

    def test_four_threads_solve_at_once(self, toy_inputs, monkeypatch):
        model = joint_model(toy_inputs)
        want = fingerprint(solve(model))
        got = []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:  # each solve pairs on a sibling thread of its own
            threads = [threading.Thread(target=lambda: got.append(fingerprint(solve(model))))
                       for _ in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert got == [want] * 4
        assert not sibling_threads()

    @pytest.mark.parametrize("ending", ["returns", "sibling-raises", "interrupted"])
    def test_no_sibling_thread_outlives_its_solve(self, ending, toy_inputs, monkeypatch):
        if not TWO_CPUS:
            pytest.skip("pairing needs two CPUs")
        model = joint_model(toy_inputs)
        with monkeypatch.context() as mp:
            one_cpu(mp)
            local = fingerprint(solve(model))
        if ending == "returns":
            assert fingerprint(solve(model)) == local
        elif ending == "sibling-raises":
            real = milp.highs._Highs

            def failing_off_the_main_thread():
                if threading.current_thread() is not threading.main_thread():
                    raise MemoryError("out of memory")
                return real()

            with monkeypatch.context() as mp:
                mp.setattr(milp.highs, "_Highs", failing_off_the_main_thread)
                with pytest.raises(MemoryError, match="out of memory"):
                    solve(model)
        else:  # Ctrl-C during the first child's LP of the third pair
            real, calls = milp.linprog, []

            def interrupted(*args):
                calls.append(None)
                result = real(*args)
                if len(calls) == 4:
                    raise KeyboardInterrupt
                return result

            with monkeypatch.context() as mp:
                mp.setattr(milp, "linprog", interrupted)
                with pytest.raises(KeyboardInterrupt):
                    solve(model)
        assert not sibling_threads()
        assert fingerprint(solve(model)) == local
        assert fingerprint(solve(joint_model(toy_inputs))) == local

    def test_a_pool_worker_pairs_too(self, toy_inputs, monkeypatch):
        model = joint_model(toy_inputs)
        with monkeypatch.context() as mp:  # undone before the fork
            one_cpu(mp)
            local = solve(model)
        with multiprocessing.get_context("fork").Pool(1) as pool:
            paired, here = pool.apply(paired_in_a_worker, ("toy2x5",))
        assert paired == fingerprint(local)
        if TWO_CPUS:
            assert here < local.nodes

    def test_no_helper_with_one_cpu(self, toy_inputs, monkeypatch):
        one_cpu(monkeypatch)
        paired, here, local = paired_and_local(joint_model(toy_inputs), monkeypatch)
        assert here == paired.nodes
        assert fingerprint(paired) == fingerprint(local)

    def test_time_limit_holds_on_a_4x4_grid(self, monkeypatch):
        model = joint_model(grid_network(4, 4, ((0, 0), (3, 3))))
        for budget in (0.3, 2.0):
            start = time.monotonic()
            res = solve(model, time_limit=budget)
            elapsed = time.monotonic() - start
            assert res.status in ("no_solution", "feasible")
            assert elapsed <= budget + 0.05, (budget, elapsed)


# ---------------------------------------------------------------------------
# One HiGHS instance per thread of a solve
# ---------------------------------------------------------------------------


def lp_bounds(model: LinearModel, monkeypatch) -> list:
    """The column bounds of every LP an all-local solve of the model runs."""
    real, seen = milp.linprog, []

    def recording(lp, lb, ub, time_limit):
        seen.append((lb.copy(), ub.copy()))
        return real(lp, lb, ub, time_limit)

    with monkeypatch.context() as mp:
        mp.setattr(milp, "linprog", recording)
        one_cpu(mp)
        solve(model)
    return seen


def tracked_highs(monkeypatch, fail=lambda runs: False) -> list:
    """Weak references to every HiGHS instance made from now on.

    Each instance is wrapped so the test can see it die and count the models
    loaded into it; ``fail(runs)`` decides whether an instance's run raises
    MemoryError instead.  The calling thread starts with no instance of its
    own, and gets back the one it had when the test ends.
    """
    real, made = milp.highs._Highs, []

    class Tracked:
        def __init__(self):
            self.real, self.runs, self.loads = real(), 0, 0
            made.append(weakref.ref(self))

        def __getattr__(self, name):
            return getattr(self.real, name)

        def passModel(self, *args):
            self.loads += 1
            return self.real.passModel(*args)

        def run(self):
            self.runs += 1
            if fail(self.runs):
                raise MemoryError("out of memory")
            return self.real.run()

    monkeypatch.setattr(milp.highs, "_Highs", Tracked)
    monkeypatch.setattr(milp._IDLE, "highs", None, raising=False)
    return made


def assert_idle_and_empty(instance) -> None:
    """The calling thread keeps ``instance``, with no model and the LP
    options passed again."""
    assert milp._IDLE.highs is instance
    assert (instance.getNumCol(), instance.getNumRow(), instance.getNumNz()) == (0, 0, 0)
    for option in ("presolve", "simplex_strategy", "output_flag", "time_limit"):
        assert instance.getOptionValue(option)[1] == getattr(milp._LP_OPTIONS, option)


def lp_trace(models, fresh: bool) -> list:
    """(status, fun, bytes of x, instance) of every LP of an all-local solve
    of each model in turn, each solve on a fresh instance or not."""
    real, seen = milp.linprog, []

    def recording(lp, lb, ub, time_limit):
        res = real(lp, lb, ub, time_limit)
        x = None if res.x is None else res.x.tobytes()
        fun = None if res.fun is None else float(res.fun).hex()
        seen.append((res.status, fun, x, id(lp.highs)))
        return res

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(milp, "linprog", recording)
        one_cpu(mp)
        for model in models:
            if fresh:
                mp.setattr(milp._IDLE, "highs", None)
            solve(model)
    return seen


@pytest.fixture(scope="module")
def planner_models(toy_inputs, grid_inputs, toy_optimal, grid_optimal) -> list[LinearModel]:
    """Differently sized models of both fixtures, interleaved: joint sizing,
    one-state sizing with a prior, no-failure operate, and every transient
    (total and concurrent) and legacy model, the fixtures taking turns."""
    per_fixture = []
    for (topology, demands, costs), (design, plans) in ((toy_inputs, toy_optimal),
                                                        (grid_inputs, grid_optimal)):
        failures = enumerate_failures(topology)
        first = algorithms.design_greedy(topology, demands, costs, scenarios=failures[:1])
        prior = PriorPlacement(first.tails, first.regens_reported, first.ports)
        models = [
            joint_model((topology, demands, costs)),
            build_design_model(topology, demands, failures[1:2], costs, prior).model,
            build_design_model(topology, demands, [FailureScenario.no_failure()],
                               CostModel(0.0, 0.0, 0.0), fixed_design=design).model,
        ]
        with pytest.MonkeyPatch.context() as mp:
            for module in (operation, algorithms):
                mp.setattr(module, "solve", lambda model, *args: models.append(model) or
                           solve(model, *args))
            base = plans[FailureScenario.no_failure()]
            for concurrent in (False, True):
                operation.transient_reports(topology, demands, base, failures,
                                            concurrent=concurrent)
            algorithms.design_legacy(topology, demands, costs)
        per_fixture.append(models)
    toy, grid = per_fixture
    return [m for pair in zip(toy, grid) for m in pair] + toy[len(grid):] + grid[len(toy):]


class TestOneInstancePerThread:
    def test_a_bound_sequence_on_one_instance_is_fresh_linprog(self, toy_inputs,
                                                               monkeypatch):
        model = joint_model(toy_inputs)
        comp = milp._compile(model)
        bounds = lp_bounds(model, monkeypatch)
        no_links = comp.ub.copy()
        no_links[[j for name, j in model._index.items() if name.startswith("X_")]] = 0.0
        calls = [(lb, ub, None) for lb, ub in bounds]
        calls[3:3] = [(comp.lb, no_links, None)]  # an infeasible child
        calls += [(lb, ub, 0.0) for lb, ub in bounds[:3]]  # limited, then unlimited
        calls += [(comp.lb, comp.ub, None), (comp.lb, no_links, 0.0), *calls[:3]]
        lp, statuses, instances = milp._Loaded(comp), [], set()
        for lb, ub, limit in calls:
            statuses.append(assert_same_lp(model, lb, ub, limit, lp).status)
            instances.add(id(lp.highs))
        assert len(bounds) > 10 and statuses.count(2) == 2 and statuses.count(0) > 20
        assert len(instances) == 1

    def test_a_time_limit_counts_only_its_own_run(self, grid_inputs):
        # HiGHS holds a limit against the instance's run clock, which adds
        # up over runs: earlier LPs must not eat a later LP's budget.
        model = joint_model(grid_inputs)
        comp = milp._compile(model)
        lp = milp._Loaded(comp)
        start = time.perf_counter()
        assert milp.linprog(lp, comp.lb, comp.ub, None).status == 0
        budget = max(4 * (time.perf_counter() - start), 0.05)
        while lp.highs.getRunTime() < 2 * budget:
            assert milp.linprog(lp, comp.lb, comp.ub, None).status == 0
        assert assert_same_lp(model, comp.lb, comp.ub, budget, lp).status == 0

    def test_a_reused_instance_solves_like_a_fresh_one(self, planner_models, monkeypatch):
        made = tracked_highs(monkeypatch)
        reused = lp_trace(planner_models, fresh=False)
        assert len(made) == 1 and {lp[3] for lp in reused} == {id(made[0]())}
        fresh = lp_trace(planner_models, fresh=True)
        assert len(made) == 1 + len(planner_models)
        assert len(planner_models) > 60 and len(reused) > 150
        assert [lp[:3] for lp in fresh] == [lp[:3] for lp in reused]

    def test_a_solve_loads_the_model_once_per_thread(self, toy_inputs, monkeypatch):
        model = joint_model(toy_inputs)
        made = tracked_highs(monkeypatch)
        with monkeypatch.context() as mp:
            one_cpu(mp)
            for _ in range(2):
                assert solve(model).nodes > 10 and len(made) == 1
            assert made[0]().loads == 2
        if TWO_CPUS:  # and the sibling thread's instance per solve
            for solves in (1, 2):
                assert solve(model).nodes > 10 and len(made) == 1 + solves
                assert made[0]().loads == 2 + solves and made[solves]() is None
        assert_idle_and_empty(made[0]())

    def test_a_small_model_that_branches_pairs_too(self, grid_inputs, grid_designs,
                                                    monkeypatch):
        # Pairing follows the CPUs alone, not how long the root LP takes: a
        # one-scenario operate model, whose LPs take a millisecond or two,
        # solves its second sibling on the sibling thread's instance.
        if not TWO_CPUS:
            pytest.skip("pairing needs two CPUs")
        topology, demands, _ = grid_inputs
        models = (build_design_model(topology, demands, [scenario], CostModel(0.0, 0.0, 0.0),
                                     fixed_design=grid_designs["simple"]).model
                  for scenario in enumerate_failures(topology))
        with monkeypatch.context() as mp:
            one_cpu(mp)
            model = next(m for m in models if solve(m).nodes > 1)
        made = tracked_highs(monkeypatch)
        assert solve(model).nodes > 1 and len(made) == 2

    @pytest.mark.parametrize("ending", ["returns", "sibling-raises", "interrupted"])
    def test_no_loaded_instance_outlives_its_solve(self, ending, toy_inputs, monkeypatch):
        if not TWO_CPUS:
            pytest.skip("pairing needs two CPUs")
        model = joint_model(toy_inputs)
        off_main = threading.current_thread

        def sibling_fails(runs):  # the sibling thread's second LP
            return (ending == "sibling-raises" and runs == 2
                    and off_main() is not threading.main_thread())

        made = tracked_highs(monkeypatch, sibling_fails)
        caught = None
        if ending == "returns":
            solve(model)
        elif ending == "sibling-raises":
            with pytest.raises(MemoryError, match="out of memory") as caught:
                solve(model)
        else:  # Ctrl-C after the fourth LP on the calling thread
            real, calls = milp.linprog, []

            def interrupted(*args):
                calls.append(None)
                result = real(*args)
                if len(calls) == 4:
                    raise KeyboardInterrupt
                return result

            monkeypatch.setattr(milp, "linprog", interrupted)
            with pytest.raises(KeyboardInterrupt) as caught:
                solve(model)
        assert len(made) == 2 and not sibling_threads()
        assert_idle_and_empty(made[0]())
        if ending != "sibling-raises":  # whose traceback holds the sibling's LP
            assert made[1]() is None  # with `caught` alive
        del caught
        gc.collect()
        assert made[1]() is None

    def test_a_solve_inside_a_solve_gets_its_own_instance(self, toy_inputs, monkeypatch):
        outer, inner = joint_model(toy_inputs), random_integer_model(3)
        one_cpu(monkeypatch)
        want = fingerprint(solve(outer)), fingerprint(solve(inner))
        made = tracked_highs(monkeypatch)
        solve(inner)  # the thread now keeps an instance, which the outer solve takes
        real, depth, nested = milp.linprog, [0], []
        instances: dict[str, set] = {"outer": set(), "inner": set()}

        def nesting(lp, *args):  # an inner solve after each of the outer's first 3 LPs
            result = real(lp, *args)
            instances["inner" if depth[0] else "outer"].add(id(lp.highs))
            if not depth[0] and len(nested) < 3:
                depth[0] += 1
                try:
                    nested.append(fingerprint(solve(inner)))
                finally:
                    depth[0] -= 1
            return result

        monkeypatch.setattr(milp, "linprog", nesting)
        assert fingerprint(solve(outer)) == want[0]
        assert nested == [want[1]] * 3
        assert len(instances["outer"]) == len(instances["inner"]) == 1
        assert instances["outer"] != instances["inner"]
        assert len(made) == 2  # the inner solves take turns with one of their own
        gc.collect()
        kept = [ref() for ref in made if ref() is not None]
        assert len(kept) == 1
        assert_idle_and_empty(kept[0])


# ---------------------------------------------------------------------------
# Columnar storage against the per-row model it replaced
# ---------------------------------------------------------------------------


class RowModel:
    """The per-row storage LinearModel had before it was columnar: one
    Variable per column and one Constraint per row, each row's names merged
    in first-occurrence order."""

    def __init__(self):
        self.vars: list[milp.Variable] = []
        self.cons: list[milp.Constraint] = []
        self.index: dict[str, int] = {}
        self.objective: dict[str, float] = {}

    def add_variable(self, name, lb=0.0, ub=math.inf, *, integer=False):
        self.index[name] = len(self.vars)
        self.vars.append(milp.Variable(name, float(lb), float(ub), integer))

    def add_constraint(self, coeffs, sense, rhs, name=""):
        items = list(coeffs.items()) if hasattr(coeffs, "items") else list(coeffs)
        merged: dict[str, float] = {}
        for var, coef in items:
            merged[var] = merged.get(var, 0.0) + float(coef)
        name = name or f"c{len(self.cons)}"
        self.cons.append(milp.Constraint(name, tuple(merged.items()), sense, float(rhs)))

    def set_objective(self, coeffs):
        self.objective = {v: float(c) for v, c in coeffs.items()}


def row_compile(old: RowModel) -> dict:
    """The per-row compile LinearModel had before it was columnar."""
    n = len(old.vars)
    c = np.zeros(n)
    for var, coef in old.objective.items():
        c[old.index[var]] = coef

    rows = [con for con in old.cons if con.sense != "=="]
    n_ub = len(rows)
    rows += [con for con in old.cons if con.sense == "=="]
    data, ri, ci, rhs = [], [], [], []
    for r, con in enumerate(rows):
        neg = con.sense == ">="  # ">=" becomes "<=" after negation
        ri += [r] * len(con.coeffs)
        ci += [old.index[v] for v, _ in con.coeffs]
        data += [-x if neg else x for _, x in con.coeffs]
        rhs.append(-con.rhs if neg else con.rhs)
    a = sparse.csc_array((np.array(data, dtype=float), (ri, ci)), shape=(len(rows), n))
    row_upper = np.array(rhs, dtype=float)
    row_lower = np.concatenate((np.full(n_ub, -milp.highs.kHighsInf), row_upper[n_ub:]))
    integral = all(
        float(coef).is_integer() and old.vars[old.index[var]].integer
        for var, coef in old.objective.items()
        if coef != 0.0
    )
    return {
        "c": c, "indptr": a.indptr, "indices": a.indices, "data": a.data,
        "row_lower": row_lower, "row_upper": row_upper,
        "lb": np.array([v.lb for v in old.vars]), "ub": np.array([v.ub for v in old.vars]),
        "int_idx": np.array([i for i, v in enumerate(old.vars) if v.integer], dtype=int),
        "shape": a.shape, "n_ub": n_ub, "integral": integral,
    }


def row_values_of(old: RowModel, x: np.ndarray) -> dict[str, float]:
    """The per-variable read-back solve had before the model was columnar."""
    out: dict[str, float] = {}
    for i, var in enumerate(old.vars):
        v = float(x[i])
        if var.integer and abs(v - round(v)) <= 1e-7:
            v = float(round(v))
        out[var.name] = v
    return out


def hexed_items(values: dict[str, float]) -> list:
    return [(name, float(v).hex()) for name, v in values.items()]


def assert_compiles_like_rows(model: LinearModel, old: RowModel):
    """Every _Compiled field, dtypes included, and the arrays HiGHS loads,
    byte for byte; and the introspection records equal to the per-row ones."""
    assert model.variables == tuple(old.vars)
    assert model.constraints == tuple(old.cons)
    assert repr(model.constraints) == repr(tuple(old.cons))  # signed zeros too
    comp, want = milp._compile(model), row_compile(old)
    got = {
        "c": comp.c, "indptr": comp.a.indptr, "indices": comp.a.indices,
        "data": comp.a.data, "row_lower": comp.row_lower, "row_upper": comp.row_upper,
        "lb": comp.lb, "ub": comp.ub, "int_idx": comp.int_idx,
    }
    for key, array in got.items():
        assert array.dtype == want[key].dtype, key
        assert array.shape == want[key].shape, key
        assert array.tobytes() == want[key].tobytes(), key
    assert (comp.a.shape, comp.n_ub, comp.integral_objective) == (
        want["shape"], want["n_ub"], want["integral"])
    values, rows, starts = comp.csc  # what passModel gets
    assert (values.dtype, rows.dtype, starts.dtype) == (np.float64, np.int32, np.int32)
    assert values.tobytes() == want["data"].tobytes()
    assert rows.tolist() == want["indices"].tolist()
    assert starts.tolist() == want["indptr"].tolist()


def both(build) -> tuple[LinearModel, RowModel]:
    """The same construction calls made on a LinearModel and a RowModel."""
    model, old = LinearModel("toy"), RowModel()
    build(model)
    build(old)
    return model, old


@pytest.fixture(scope="module")
def mirrored_models():
    """Every model the planner compiles and every solve's read-back, on both
    fixtures and the 30 random integer models of criterion 7.

    Returns ({id: (model, RowModel)} of compiled models, [(model, x, values)]).
    """
    mirrors: dict[int, tuple[LinearModel, RowModel]] = {}
    compiled: dict[int, tuple[LinearModel, RowModel]] = {}
    read_back = []
    real_var, real_con = LinearModel.add_variable, LinearModel.add_constraint
    real_block = LinearModel._add_block
    real_obj, real_compile, real_values = (LinearModel.set_objective, milp._compile,
                                           milp._values_of)

    def mirror(model) -> RowModel:
        return mirrors.setdefault(id(model), (model, RowModel()))[1]

    def add_variable(self, *args, **kwargs):
        name = real_var(self, *args, **kwargs)
        mirror(self).add_variable(*args, **kwargs)
        return name

    def add_constraint(self, coeffs, *args, **kwargs):
        if not hasattr(coeffs, "items"):
            coeffs = list(coeffs)  # read twice below
        name = real_con(self, coeffs, *args, **kwargs)
        mirror(self).add_constraint(coeffs, *args, **kwargs)
        return name

    # The design builder also adds whole blocks of columns and rows; the
    # mirror gets them one variable and one named row at a time, each
    # outside column by the name the mirror holds at its position.
    def add_block(self, names, lb, ub, integer, rows, outside, row_names):
        start = real_block(self, names, lb, ub, integer, rows, outside, row_names)
        known = mirror(self).vars
        columns = [*names, *(known[j].name for j in outside)]
        for name in names:
            mirror(self).add_variable(name, lb, ub, integer=integer)
        for (positions, vals, sense, rhs), name in zip(rows, row_names):
            terms = [(columns[k], v) for k, v in zip(positions, vals)]
            mirror(self).add_constraint(terms, sense, rhs, name)
        return start

    def set_objective(self, coeffs):
        real_obj(self, coeffs)
        mirror(self).set_objective(coeffs)

    def compile_recording(model):
        compiled[id(model)] = mirrors[id(model)]
        return real_compile(model)

    def values_recording(model, comp, x):
        values = real_values(model, comp, x)
        read_back.append((model, x.copy(), values))
        return values

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(LinearModel, "add_variable", add_variable)
        mp.setattr(LinearModel, "add_constraint", add_constraint)
        mp.setattr(LinearModel, "_add_block", add_block)
        mp.setattr(LinearModel, "set_objective", set_objective)
        mp.setattr(milp, "_compile", compile_recording)
        mp.setattr(milp, "_values_of", values_recording)
        for name in ("toy2x5", "grid3x3_600"):
            topology, demands, costs = load_inputs(fixture_path(name))
            design, _ = algorithms.design_optimal(topology, demands, costs)
            algorithms.design_simple(topology, demands, costs)
            algorithms.design_greedy(topology, demands, costs)
            algorithms.design_legacy(topology, demands, costs)
            base = operation.operate(topology, demands, design, FailureScenario.no_failure())
            for concurrent in (False, True):
                operation.transient_reports(topology, demands, base,
                                            enumerate_failures(topology),
                                            concurrent=concurrent)
        for seed in range(30):
            solve(random_integer_model(seed))
    return compiled, read_back


class TestColumnarModel:
    def test_planner_models_compile_like_rows(self, mirrored_models):
        compiled, _ = mirrored_models
        names = {model.name for model, _ in compiled.values()}
        assert {"design", "operation", "random_0", "random_29"} <= names
        assert len(compiled) > 200
        for model, old in compiled.values():
            assert_compiles_like_rows(model, old)

    def test_planner_solves_read_back_like_rows(self, mirrored_models):
        compiled, read_back = mirrored_models
        assert len(read_back) > 150
        for model, x, values in read_back:
            assert hexed_items(values) == hexed_items(row_values_of(compiled[id(model)][1], x))

    def test_merged_zero_coefficients(self):
        def build(m):
            m.add_variable("x", ub=4)
            m.add_variable("y", lb=-1, ub=3, integer=True)
            m.add_constraint([("x", 1.0), ("y", 2.0), ("x", -1.0)], ">=", 0.5)
            m.add_constraint({"y": 0.0, "x": -0.0}, "==", 1.25)
            m.set_objective({"x": 1, "y": 2})

        model, old = both(build)
        assert_compiles_like_rows(model, old)
        assert milp._compile(model).a.nnz == 4

    def test_pair_list_with_a_repeated_name(self):
        def build(m):
            for name in ("a", "b", "c"):
                m.add_variable(name, integer=True, ub=5)
            m.add_constraint([("c", 1), ("a", 2), ("c", 3), ("b", -1), ("a", 0.5)], "<=", 7)
            m.add_constraint([("b", 1), ("b", 1)], ">=", 1)
            m.set_objective({"a": 1, "c": 3})

        model, old = both(build)
        assert model.constraints[0].coeffs == (("c", 4.0), ("a", 2.5), ("b", -1.0))
        assert_compiles_like_rows(model, old)

    def test_ge_rows_with_zero_rhs_keep_the_signed_zero(self):
        def build(m):
            m.add_variable("x")
            m.add_variable("y")
            m.add_constraint({"x": 1, "y": -1}, ">=", 0)
            m.add_constraint({"x": 1}, "<=", 0)
            m.add_constraint({"y": 2}, ">=", -0.0)
            m.set_objective({"x": 1})

        model, old = both(build)
        assert_compiles_like_rows(model, old)
        assert [v.hex() for v in milp._compile(model).row_upper] == [
            "-0x0.0p+0", "0x0.0p+0", "0x0.0p+0"]

    def test_rows_in_the_old_order(self):
        def build(m):
            for i in range(4):
                m.add_variable(f"x{i}", ub=9, integer=i % 2 == 0)
            for i, sense in enumerate(("==", ">=", "==", "<=", ">=", "==")):
                m.add_constraint({f"x{i % 4}": i + 1, f"x{(i + 1) % 4}": -1}, sense, i)
            m.set_objective({"x0": 2, "x2": -3})

        model, old = both(build)
        assert_compiles_like_rows(model, old)
        comp = milp._compile(model)
        assert comp.n_ub == 3
        assert comp.integral_objective

    def test_no_rows(self):
        def build(m):
            m.add_variable("x", lb=1, ub=2)
            m.add_variable("y", integer=True)
            m.set_objective({"x": 3})

        model, old = both(build)
        assert_compiles_like_rows(model, old)
        assert solve(model).values == {"x": 1.0, "y": 0.0}

    def test_equality_rows_only(self):
        def build(m):
            m.add_variable("x", ub=5, integer=True)
            m.add_variable("y", ub=5)
            m.add_constraint({"x": 1, "y": 1}, "==", 3)
            m.add_constraint({"y": 2}, "==", 1)
            m.set_objective({"x": 1.5, "y": 1})

        model, old = both(build)
        assert_compiles_like_rows(model, old)
        comp = milp._compile(model)
        assert comp.n_ub == 0
        assert not comp.integral_objective

    def test_empty_model(self):
        model, old = both(lambda m: None)
        assert_compiles_like_rows(model, old)

    def test_read_back_snaps_integers_to_unsigned_values(self):
        def build(m):
            m.add_variable("i", lb=-5, integer=True)
            m.add_variable("j", lb=-5, integer=True)
            m.add_variable("k", integer=True)
            m.add_variable("u", lb=-5)
            m.add_variable("v", integer=True)

        model, old = both(build)
        x = np.array([-1e-9, -0.0, 2.00000005, -0.0, 2.5])
        got = milp._values_of(model, milp._compile(model), x)
        assert hexed_items(got) == hexed_items(row_values_of(old, x))
        assert [v.hex() for v in got.values()] == [
            "0x0.0p+0", "0x0.0p+0", "0x1.0000000000000p+1", "-0x0.0p+0", "0x1.4000000000000p+1"]
        assert x[0] == -1e-9  # the solver's point is left as it was


class TestNonFiniteModelData:
    def two_variables(self) -> LinearModel:
        m = LinearModel()
        m.add_variable("x", ub=3)
        m.add_variable("y", ub=3)
        m.set_objective({"x": 1, "y": 1})
        return m

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_coefficient(self, bad):
        # Unchecked, a NaN coefficient solved "optimal" 3.0 and an infinite
        # one "infeasible".
        m = self.two_variables()
        m.add_constraint({"x": 1, "y": 1}, ">=", 3, name="cover")
        m.add_constraint({"x": 1, "y": bad}, ">=", 3, name="broken")
        with pytest.raises(ModelError, match=f"'broken' has coefficient {bad} on 'y'"):
            solve(m)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_rhs(self, bad):
        m = self.two_variables()
        m.add_constraint({"x": 1}, "<=", bad, name="cap")
        with pytest.raises(ModelError, match=f"'cap' has right-hand side {bad}"):
            solve(m)

    @pytest.mark.parametrize("bad", [math.nan, -math.inf])
    def test_objective_term(self, bad):
        # Unchecked, a NaN objective term gave "no_solution".
        m = self.two_variables()
        m.add_constraint({"x": 1, "y": 1}, ">=", 3)
        m.set_objective({"x": 1, "y": bad})
        with pytest.raises(ModelError, match=f"objective term of 'y' is {bad}"):
            solve(m)

    @pytest.mark.parametrize("bounds", [{"lb": math.nan}, {"ub": math.nan},
                                        {"lb": math.nan, "ub": math.nan}])
    def test_nan_bound(self, bounds):
        # Unchecked, a NaN lb gave "infeasible".
        with pytest.raises(ModelError, match="'z' has bounds"):
            self.two_variables().add_variable("z", **bounds)

    def test_infinite_bounds_are_fine(self):
        m = self.two_variables()
        m.add_variable("free", lb=-math.inf, ub=math.inf)
        m.add_constraint({"free": 1, "x": 1}, "==", 1)
        assert solve(m).status == "optimal"


def solve_in_a_worker(model: LinearModel):
    return fingerprint(solve(model))


def test_a_solved_model_pickles_and_solves_the_same_in_a_fork_worker(toy_inputs):
    model = joint_model(toy_inputs)
    want = fingerprint(solve(model))
    with multiprocessing.get_context("fork").Pool(1) as pool:
        got = pool.apply(solve_in_a_worker, (model,))
    assert got == want
    assert fingerprint(solve(model)) == want
