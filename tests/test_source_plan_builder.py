"""Every OperationPlan in the package is built by ``OperationPlan.from_links``.

The plan format (units in both orientations, chains and span paths under the
canonical pair of an external link, none for an intra-node link) is written
in one place; builders hand it canonical ``LinkRecord``s.
"""

from __future__ import annotations

import ast
from importlib import resources

MODULES = sorted(
    p.name for p in resources.files("roadmnet").iterdir() if p.name.endswith(".py")
)


def _constructions(module: str, tree: ast.Module) -> list[str]:
    """Where the module constructs an OperationPlan: by name anywhere, or as
    ``cls(...)`` in a method of the class itself."""
    found = []

    def visit(node: ast.AST, where: str, in_plan_method: bool) -> None:
        if isinstance(node, ast.ClassDef):
            where = node.name
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            in_plan_method = where == "OperationPlan"
            where = f"{where}.{node.name}" if where else node.name
        elif isinstance(node, ast.Call):
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if name == "OperationPlan" or (name == "cls" and in_plan_method):
                found.append(f"{module}:{node.lineno} in {where or '<module>'}")
        for child in ast.iter_child_nodes(node):
            visit(child, where, in_plan_method)

    visit(tree, "", False)
    return found


def test_one_plan_constructor():
    found = []
    for module in MODULES:
        source = (resources.files("roadmnet") / module).read_text(encoding="utf-8")
        found += _constructions(module, ast.parse(source, module))
    assert [site.split(" in ")[1] for site in found] == ["OperationPlan.from_links"], found
