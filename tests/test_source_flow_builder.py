"""``design.add_routing`` writes every flow model through ``_add_block``.

Each demand is one block of flow columns and rows and the arc-capacity rows
one more; no row or column goes in by name, and nothing is handed in as a
callable.  ``build_design_model`` writes the rest of a placement model the
same way, costs included, and no module but ``milp`` adds a column, a row or
an objective by name.  In ``milp``, ``LinearModel._add_block`` is the
model's one writer (``set_objective`` also replaces the costs), and the
search solves every LP, the root's included, at one call site.
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

BY_NAME = {"add_constraint", "add_variable", "set_objective"}
# Calls that change a list or dict in place.
MUTATORS = {"append", "extend", "insert", "update", "setdefault", "pop", "clear"}


def _module(name: str) -> ast.Module:
    source = (resources.files("roadmnet") / name).read_text(encoding="utf-8")
    return ast.parse(source, name)


def _function(name: str, module: str = "design.py") -> ast.FunctionDef | ast.ClassDef:
    return next(node for node in _module(module).body
                if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name == name)


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
    assert {"design.py", "algorithms.py", "operation.py"} <= set(modules)
    callers = {name: sorted(BY_NAME & set(_calls(_module(name)))) for name in modules}
    assert {name for name, calls in callers.items() if calls} <= {"milp.py"}, callers


def test_every_command_builds_without_a_by_name_row(monkeypatch, toy_inputs):
    """All four algorithms, ``operate`` and both transient modes."""
    def refuse(self, *args, **kwargs):
        raise AssertionError("a model was written by name")

    for method in BY_NAME:
        monkeypatch.setattr(LinearModel, method, refuse)
    topology, demands, costs = toy_inputs
    design, _ = design_optimal(topology, demands, costs)
    for algorithm in (design_simple, design_greedy, design_legacy):
        algorithm(topology, demands, costs)
    base = operate(topology, demands, design, FailureScenario.no_failure())
    failures = enumerate_failures(topology)
    for concurrent in (False, True):
        reports = transient_reports(topology, demands, base, failures, concurrent=concurrent)
        assert len(reports) == len(failures)


def _writes(method: ast.FunctionDef, storage: set[str]) -> bool:
    """Whether the method assigns, extends or mutates one of ``storage``'s
    attributes of ``self``, directly or through a local name bound to one."""
    def stored(node: ast.AST) -> bool:
        return (isinstance(node, ast.Attribute) and ast.unparse(node.value) == "self"
                and node.attr in storage)

    aliases = set()
    for node in ast.walk(method):
        if isinstance(node, ast.Assign):
            for target in node.targets:
                pairs = ([(target, node.value)] if not isinstance(target, ast.Tuple)
                         else zip(target.elts, getattr(node.value, "elts", ())))
                aliases |= {t.id for t, v in pairs if isinstance(t, ast.Name) and stored(v)}

    def held(node: ast.AST) -> bool:
        return stored(node) or isinstance(node, ast.Name) and node.id in aliases

    for node in ast.walk(method):
        targets = (node.targets if isinstance(node, ast.Assign)
                   else [node.target] if isinstance(node, (ast.AugAssign, ast.AnnAssign))
                   else [])
        for target in targets:
            if stored(target) or isinstance(target, ast.Subscript) and held(target.value):
                return True
            if isinstance(node, ast.AugAssign) and held(target):
                return True
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr in MUTATORS and held(node.func.value)):
            return True
    return False


def test_only_add_block_writes_a_linear_model():
    cls = _function("LinearModel", "milp.py")
    methods = [node for node in cls.body if isinstance(node, ast.FunctionDef)]
    init = next(method for method in methods if method.name == "__init__")
    # The column index and the storage lists.
    storage = {node.target.attr for node in ast.walk(init) if isinstance(node, ast.AnnAssign)}
    assert len(storage) == 11 and {"_index", "_row_names", "_cost"} <= storage
    # set_objective replaces the costs, and nothing else.
    for attr in sorted(storage):
        writers = {method.name for method in methods if _writes(method, {attr})}
        want = {"__init__", "_add_block"} | ({"set_objective"} if attr == "_cost" else set())
        assert writers == want, attr


def test_the_search_solves_every_lp_at_one_site():
    func = _function("_branch_and_bound", "milp.py")
    sites = [call for call in ast.walk(func)
             if isinstance(call, ast.Call) and ast.unparse(call.func) == "linprog"]
    assert len(sites) == 1
