from __future__ import annotations

import math
import multiprocessing
import os
import random
import subprocess
import sys
import threading
import time
import types

import numpy as np
import pytest
import scipy.optimize
from scipy import sparse
from scipy.optimize._linprog_util import _check_result

from roadmnet import algorithms, milp, operation
from roadmnet.design import build_design_model
from roadmnet.io import load_inputs
from roadmnet.milp import (
    LinearModel,
    ModelError,
    export_lp,
    solve,
    solve_with_scipy_milp,
    validate_solution,
)
from roadmnet.topology import enumerate_failures
from roadmnet.verify import enumerate_milp_minimum

from conftest import fixture_path
from instances import grid_network, random_integer_model


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


def assert_same_lp(model: LinearModel, lb, ub, time_limit=None):
    got = milp.linprog(model._compiled(), lb, ub, time_limit)
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
    got = model._compiled().a
    assert got.shape == want.shape
    assert np.array_equal(got.indptr, want.indptr)
    assert np.array_equal(got.indices, want.indices)
    assert got.data.tobytes() == want.data.tobytes()


@pytest.fixture(scope="module")
def node_lps():
    """Every LP design_optimal solves on both fixtures, and each solve's nodes.

    An LP is (model, lb, ub, result), where result is the helper process's
    answer for an LP the helper solved and None for one solved here.  Every
    branching is paired, so the helper solves every second sibling.
    """
    recorded, nodes, current, sent = [], [], [], []
    real_solve, real_lp = milp.solve, milp.linprog
    real_send, real_receive = milp._Helper.send, milp._Helper.receive

    def solve_recording(model, time_limit=None):
        current[:] = [model]
        result = real_solve(model, time_limit)
        nodes.append(result.nodes)
        return result

    def lp_recording(comp, lb, ub, time_limit):
        recorded.append((current[0], lb.copy(), ub.copy(), None))
        return real_lp(comp, lb, ub, time_limit)

    def send_recording(helper, comp, lb, ub, time_limit):
        ok = real_send(helper, comp, lb, ub, time_limit)
        sent[:] = [(current[0], lb.copy(), ub.copy())] if ok else []
        return ok

    def receive_recording(helper):
        result = real_receive(helper)
        if result is not None:  # else the LP is solved here, and recorded there
            recorded.append((*sent[0], result))
        return result

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(algorithms, "solve", solve_recording)
        mp.setattr(operation, "solve", solve_recording)
        mp.setattr(milp, "linprog", lp_recording)
        mp.setattr(milp._Helper, "send", send_recording)
        mp.setattr(milp._Helper, "receive", receive_recording)
        mp.setattr(milp, "_PAIR_MIN_ROOT_S", 0.0)
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
        assert any(not np.array_equal(lb, m._compiled().lb) for m, lb, *_ in lps)
        if milp._HELPER is not None:
            assert sum(res is not None for *_, res in lps) > 30
        for model, lb, ub, res in lps:
            got = assert_same_lp(model, lb, ub)
            if res is not None:  # the helper's answer, bit for bit
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
        assert m._compiled().a.nnz == 10  # the two zero entries stay stored
        assert assert_same_lp(m, m._compiled().lb, m._compiled().ub).status == 0

    def test_toy_lp_with_and_without_time_limit(self):
        m = toy_lp()
        comp = m._compiled()
        assert assert_same_lp(m, comp.lb, comp.ub).status == 0
        assert assert_same_lp(m, comp.lb, comp.ub, time_limit=0.0).status == 0
        lb = comp.lb.copy()
        lb[0] = 2.0  # the branch-and-bound swaps only column bounds
        assert assert_same_lp(m, lb, comp.ub).status == 0

    def test_bounds_of_the_wrong_length_are_refused(self):
        comp = toy_lp()._compiled()
        with pytest.raises(ValueError, match="3 entries"):
            milp.linprog(comp, comp.lb[:2], comp.ub[:2], None)

    def test_no_rows(self):
        m = LinearModel()
        m.add_variable("x", lb=1, ub=2)
        m.set_objective({"x": 3})
        comp = m._compiled()
        assert assert_same_lp(m, comp.lb, comp.ub).fun == 3.0

    def test_infeasible(self):
        m = LinearModel()
        m.add_variable("x", ub=1)
        m.add_variable("y", ub=1)
        m.add_constraint({"x": 1, "y": 1}, ">=", 3)
        m.set_objective({"x": 1})
        comp = m._compiled()
        assert assert_same_lp(m, comp.lb, comp.ub).status == 2

    def test_unbounded(self):
        m = LinearModel()
        m.add_variable("x")
        m.add_variable("y")
        m.add_constraint({"x": 1, "y": -1}, "<=", 1)
        m.set_objective({"x": -1})
        comp = m._compiled()
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
        comp = m._compiled()
        got = assert_same_lp(m, comp.lb, comp.ub, time_limit=0.0)
        assert (got.status, got.fun, got.x) == (1, None, None)

    def test_out_of_tolerance_optimum_is_status_4(self, monkeypatch):
        comp = toy_lp()._compiled()
        monkeypatch.setattr(milp, "_CHECK_TOL", -1.0)
        assert milp.linprog(comp, comp.lb, comp.ub, None).status == 4

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
# Sibling LPs solved by the helper process
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


def paired_and_local(model, monkeypatch, time_limit=None):
    """(paired result, LPs solved here, all-local result)."""
    real, local = milp.linprog, []

    def counting(*args):
        local.append(None)
        return real(*args)

    monkeypatch.setattr(milp, "linprog", counting)
    monkeypatch.setattr(milp, "_PAIR_MIN_ROOT_S", 0.0)
    paired = solve(model, time_limit)
    monkeypatch.setattr(milp, "_PAIR_MIN_ROOT_S", math.inf)
    return paired, len(local), solve(model, time_limit)


def helper_pid() -> int | None:
    helper = milp._HELPER
    return helper.process.pid if isinstance(helper, milp._Helper) else None


def solved_fingerprint(model):
    return fingerprint(solve(model)), milp._pair_helper()


class TestPairedSiblings:
    @pytest.mark.parametrize("fixture", ["toy_inputs", "grid_inputs"])
    def test_joint_models_solve_the_same_paired_or_local(self, fixture, request,
                                                         monkeypatch):
        paired, here, local = paired_and_local(joint_model(request.getfixturevalue(fixture)),
                                               monkeypatch)
        assert paired.status == "optimal"
        assert fingerprint(paired) == fingerprint(local)
        if milp._HELPER is not None:
            assert here < paired.nodes  # the helper solved some of them

    def test_random_integer_models_solve_the_same_paired_or_local(self, monkeypatch):
        for seed in range(30):  # criterion 7's suite
            paired, _, local = paired_and_local(random_integer_model(seed), monkeypatch)
            assert fingerprint(paired) == fingerprint(local), f"seed {seed}"

    @pytest.mark.parametrize("when", ["between", "during"])
    def test_a_killed_helper_changes_no_answer(self, when, toy_inputs, own_helper,
                                               monkeypatch):
        model = joint_model(toy_inputs)
        monkeypatch.setattr(milp, "_PAIR_MIN_ROOT_S", 0.0)
        first = solve(model)
        helper = milp._HELPER
        if helper is None:
            pytest.skip("no helper process on this machine")
        real, calls = milp.linprog, []

        def kill():
            helper.process.kill()
            helper.process.join(timeout=10)
            assert not helper.process.is_alive()

        def kill_on_the_fifth(*args):
            calls.append(None)
            if len(calls) == 5:
                kill()
            return real(*args)

        if when == "between":
            kill()
        else:  # after the fifth LP is sent, before its answer is read
            monkeypatch.setattr(milp, "linprog", kill_on_the_fifth)
        assert fingerprint(solve(model)) == fingerprint(first)
        assert milp._HELPER is None  # the rest is solved here
        assert fingerprint(solve(model)) == fingerprint(first)

    def test_threads_share_the_helper(self, toy_inputs, monkeypatch):
        model = joint_model(toy_inputs)
        monkeypatch.setattr(milp, "_PAIR_MIN_ROOT_S", 0.0)
        want = fingerprint(solve(model))
        got = []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:  # a pair in flight makes the other threads solve both children here
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

    def test_a_forked_copy_leaves_the_helper_alone(self, toy_inputs, monkeypatch):
        model = joint_model(toy_inputs)
        monkeypatch.setattr(milp, "_PAIR_MIN_ROOT_S", 0.0)
        want = fingerprint(solve(model))
        if milp._HELPER is None:
            pytest.skip("no helper process on this machine")
        ctx = multiprocessing.get_context("fork")
        ours, theirs = ctx.Pipe()
        child = ctx.Process(target=lambda: theirs.send(
            (milp._pair_helper(), fingerprint(solve(model)))))
        child.start()
        assert ours.poll(120)
        assert ours.recv() == (None, want)  # solved in the copy, not through our pipe
        child.join(timeout=10)
        assert not child.is_alive()
        assert fingerprint(solve(model)) == want

    @pytest.mark.parametrize("step", ["send", "recv"])
    def test_an_interrupted_exchange_retires_the_helper(self, step, toy_inputs, own_helper,
                                                        monkeypatch):
        model = joint_model(toy_inputs)
        monkeypatch.setattr(milp, "_PAIR_MIN_ROOT_S", math.inf)
        local = fingerprint(solve(model))
        monkeypatch.setattr(milp, "_PAIR_MIN_ROOT_S", 0.0)
        assert fingerprint(solve(model)) == local
        helper = milp._HELPER
        if helper is None:
            pytest.skip("no helper process on this machine")
        real, calls = getattr(helper.conn, step), []

        def interrupted_once(*args):  # Ctrl-C in the middle of the exchange
            calls.append(None)
            if len(calls) == 1:  # the helper's reply to a sent LP comes anyway
                raise KeyboardInterrupt
            return real(*args)

        monkeypatch.setattr(helper.conn, step, interrupted_once)
        with pytest.raises(KeyboardInterrupt):
            solve(model)
        assert fingerprint(solve(model)) == local
        assert fingerprint(solve(joint_model(toy_inputs))) == local
        assert milp._HELPER is None  # a late reply cannot answer a later LP

    def test_a_pool_worker_solves_every_lp_itself(self, toy_inputs, own_helper,
                                                  monkeypatch):
        model = joint_model(toy_inputs)
        monkeypatch.setattr(milp, "_PAIR_MIN_ROOT_S", math.inf)
        want = fingerprint(solve(model))
        monkeypatch.setattr(milp, "_PAIR_MIN_ROOT_S", 0.0)
        # a pool worker is a daemon process, which may start no process of its own
        with multiprocessing.get_context("fork").Pool(1) as pool:
            assert pool.apply(solved_fingerprint, (model,)) == (want, None)

    def test_threads_fork_one_helper(self, own_helper, monkeypatch):
        started = []

        def slow_start():
            started.append(None)
            time.sleep(0.05)
            return None

        monkeypatch.setattr(milp, "_start_helper", slow_start)
        threads = [threading.Thread(target=milp._pair_helper) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=10)
        assert len(started) == 1

    def test_the_helper_lets_a_solved_model_go(self, toy_inputs, own_helper, monkeypatch):
        model = joint_model(toy_inputs)
        monkeypatch.setattr(milp, "_PAIR_MIN_ROOT_S", 0.0)
        want = fingerprint(solve(model))
        helper = milp._HELPER
        if helper is None:
            pytest.skip("no helper process on this machine")
        assert helper.model is None
        sent = []
        real = helper.conn.send
        monkeypatch.setattr(helper.conn, "send", lambda obj: (sent.append(obj), real(obj)))
        assert fingerprint(solve(model)) == want
        assert sent[0][0] is model._compiled()  # sent again, the helper had let it go
        assert sent[-1] is None and all(m is None for m, *_ in sent[1:-1])

    def test_no_helper_with_one_cpu(self, toy_inputs, own_helper, monkeypatch):
        monkeypatch.setattr(milp.os, "sched_getaffinity", lambda pid: {0})
        paired, here, local = paired_and_local(joint_model(toy_inputs), monkeypatch)
        assert milp._HELPER is None
        assert here == paired.nodes
        assert fingerprint(paired) == fingerprint(local)

    def test_no_helper_without_fork(self, toy_inputs, own_helper, monkeypatch):
        monkeypatch.setattr(multiprocessing, "get_all_start_methods", lambda: ["spawn"])
        paired, here, _ = paired_and_local(joint_model(toy_inputs), monkeypatch)
        assert milp._HELPER is None
        assert here == paired.nodes

    def test_helper_errors_are_solver_errors(self, toy_inputs, own_helper, monkeypatch):
        def failing(conn, parent_end):
            parent_end.close()
            while True:
                conn.recv()
                conn.send("MemoryError: out of memory")

        monkeypatch.setattr(milp, "_serve", failing)
        monkeypatch.setattr(milp, "_PAIR_MIN_ROOT_S", 0.0)
        if milp._pair_helper() is None:
            pytest.skip("no helper process on this machine")
        with pytest.raises(milp.SolverError, match="LP helper failed: MemoryError"):
            solve(joint_model(toy_inputs))

    def test_time_limit_holds_on_a_4x4_grid(self, monkeypatch):
        model = joint_model(grid_network(4, 4, ((0, 0), (3, 3))))
        model._compiled()
        monkeypatch.setattr(milp, "_PAIR_MIN_ROOT_S", 0.0)
        for budget in (0.3, 2.0):
            start = time.monotonic()
            res = solve(model, time_limit=budget)
            elapsed = time.monotonic() - start
            assert res.status in ("no_solution", "feasible")
            assert elapsed <= budget + 0.05, (budget, elapsed)

    @pytest.mark.parametrize("ending", ["", "os._exit(0)"])
    def test_no_helper_outlives_its_interpreter(self, ending):
        if not os.path.isdir("/proc"):
            pytest.skip("needs /proc to see the helper")
        code = (
            "import os\n"
            "from roadmnet import milp\n"
            "from roadmnet.algorithms import design_optimal\n"
            "from roadmnet.io import load_inputs\n"
            "milp._PAIR_MIN_ROOT_S = 0.0\n"
            f"design_optimal(*load_inputs({fixture_path('toy2x5')!r}))\n"
            "helper = milp._HELPER\n"
            "print(helper.process.pid if helper else 0, flush=True)\n"
            f"{ending}\n"
        )
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                              text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr == ""
        pid = int(proc.stdout)
        if not pid:
            pytest.skip("no helper process on this machine")

        def running() -> bool:  # a zombie left to an init that never reaps it is gone
            try:
                with open(f"/proc/{pid}/stat") as fh:
                    return fh.read().rsplit(")", 1)[1].split()[0] != "Z"
            except FileNotFoundError:
                return False

        deadline = time.monotonic() + 10
        while running() and time.monotonic() < deadline:
            time.sleep(0.05)
        assert not running()
