"""``design.add_routing`` writes every flow model through ``_add_block``.

Each demand is one block of flow columns and rows and the arc-capacity rows
one more; no row or column goes in by name, and nothing is handed in as a
callable.  ``build_design_model`` writes the rest of a placement model the
same way, and no module but ``milp`` adds a row by name.
"""

from __future__ import annotations

import ast
from importlib import resources

from roadmnet import (
    DemandMatrix,
    FailureScenario,
    LinearModel,
    Router,
    design_greedy,
    design_legacy,
    design_optimal,
    design_simple,
    enumerate_failures,
    operate,
    transient_reports,
)
from roadmnet.design import add_routing

BY_NAME = {"add_constraint", "add_variable", "_add_columns", "_add_rows"}


def _module(name: str) -> ast.Module:
    source = (resources.files("roadmnet") / name).read_text(encoding="utf-8")
    return ast.parse(source, name)


def _function(name: str) -> ast.FunctionDef:
    return next(node for node in _module("design.py").body
                if isinstance(node, ast.FunctionDef) and node.name == name)


def _calls(node: ast.AST) -> list[str]:
    return [call.func.attr for call in ast.walk(node)
            if isinstance(call, ast.Call) and isinstance(call.func, ast.Attribute)]


def test_add_routing_writes_only_blocks():
    func = _function("add_routing")
    calls = _calls(func)
    assert not BY_NAME & set(calls)
    assert calls.count("_add_block") == 2
    per_demand = [node for node in ast.walk(func)
                  if isinstance(node, ast.For) and ast.unparse(node.iter) == "demands.pairs"]
    assert [_calls(loop).count("_add_block") for loop in per_demand] == [1]
    annotations = [ast.unparse(arg.annotation) for arg in func.args.args]
    assert not any("Callable" in text for text in annotations), annotations
    strings = [node.value for node in ast.walk(func)
               if isinstance(node, ast.Constant) and isinstance(node.value, str)]
    assert not any("impossible" in text for text in strings)


def test_one_block_per_demand_and_one_for_capacities(monkeypatch):
    blocks = []
    real = LinearModel._add_block

    def counting(self, names, *args):
        blocks.append(len(names))
        return real(self, names, *args)

    monkeypatch.setattr(LinearModel, "_add_block", counting)
    routers = (Router("a1", "A"), Router("b1", "B"), Router("c1", "C"))
    arcs = {(a, b): (None, 1.0) for a in ("a1", "b1", "c1") for b in ("a1", "b1", "c1")
            if a != b}
    demands = DemandMatrix(entries=(("A", "B", 0.5), ("B", "C", 0.5), ("C", "A", 0.5)))
    add_routing(LinearModel(), "f0", arcs, routers, demands)
    assert blocks == [len(arcs)] * 3 + [0]


def test_build_design_model_writes_only_blocks():
    func = _function("build_design_model")
    assert not BY_NAME & set(_calls(func))
    reads = {node.attr for node in ast.walk(func) if isinstance(node, ast.Attribute)}
    assert "_index" not in reads


def test_only_milp_adds_a_row_by_name():
    modules = sorted(entry.name for entry in resources.files("roadmnet").iterdir()
                     if entry.name.endswith(".py"))
    assert "design.py" in modules
    callers = [name for name in modules if "add_constraint" in _calls(_module(name))]
    assert not set(callers) - {"milp.py"}, callers


def test_every_command_builds_without_a_by_name_row(monkeypatch, toy_inputs):
    """All four algorithms, ``operate`` and both transient modes."""
    def refuse(self, *args, **kwargs):
        raise AssertionError("a row went in by name")

    monkeypatch.setattr(LinearModel, "add_constraint", refuse)
    topology, demands, costs = toy_inputs
    design, _ = design_optimal(topology, demands, costs)
    for algorithm in (design_simple, design_greedy, design_legacy):
        algorithm(topology, demands, costs)
    base = operate(topology, demands, design, FailureScenario.no_failure())
    failures = enumerate_failures(topology)
    for concurrent in (False, True):
        reports = transient_reports(topology, demands, base, failures, concurrent=concurrent)
        assert len(reports) == len(failures)
