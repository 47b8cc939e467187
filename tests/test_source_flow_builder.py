"""``design.add_routing`` writes every flow model through ``_add_block``.

Each demand is one block of flow columns and rows and the arc-capacity rows
one more; no row or column goes in by name, and nothing is handed in as a
callable.
"""

from __future__ import annotations

import ast
from importlib import resources

from roadmnet import DemandMatrix, LinearModel, Router
from roadmnet.design import add_routing


def _add_routing() -> ast.FunctionDef:
    source = (resources.files("roadmnet") / "design.py").read_text(encoding="utf-8")
    tree = ast.parse(source, "design.py")
    return next(node for node in tree.body
                if isinstance(node, ast.FunctionDef) and node.name == "add_routing")


def _calls(node: ast.AST) -> list[str]:
    return [call.func.attr for call in ast.walk(node)
            if isinstance(call, ast.Call) and isinstance(call.func, ast.Attribute)]


def test_add_routing_writes_only_blocks():
    func = _add_routing()
    calls = _calls(func)
    assert not {"add_constraint", "add_variable", "_add_columns", "_add_rows"} & set(calls)
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
