"""Every OperationPlan and every Design in the package has one constructor.

The plan format (units in both orientations, chains and span paths under the
canonical pair of an external link, none for an intra-node link) is written
in one place, ``OperationPlan.from_links``; builders hand it canonical
``LinkRecord``s.  Counts become a priced ``Design`` in one place,
``Design.covering``; only ``io.load_design`` builds one from a document's
fields.
"""

from __future__ import annotations

import ast
from importlib import resources

import pytest

MODULES = sorted(
    p.name for p in resources.files("roadmnet").iterdir() if p.name.endswith(".py")
)


def _constructions(cls: str, module: str, tree: ast.Module) -> list[str]:
    """Where the module constructs a ``cls``: by name anywhere, or as
    ``cls(...)`` in a method of the class itself."""
    found = []

    def visit(node: ast.AST, where: str, in_own_method: bool) -> None:
        if isinstance(node, ast.ClassDef):
            where = node.name
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            in_own_method = where == cls
            where = f"{where}.{node.name}" if where else node.name
        elif isinstance(node, ast.Call):
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if name == cls or (name == "cls" and in_own_method):
                found.append(f"{module}:{node.lineno} in {where or '<module>'}")
        for child in ast.iter_child_nodes(node):
            visit(child, where, in_own_method)

    visit(tree, "", False)
    return found


@pytest.mark.parametrize("cls,sites", [
    ("OperationPlan", ["OperationPlan.from_links"]),
    ("Design", ["Design.covering", "load_design"]),
], ids=["OperationPlan", "Design"])
def test_one_constructor(cls, sites):
    found = []
    for module in MODULES:
        source = (resources.files("roadmnet") / module).read_text(encoding="utf-8")
        found += _constructions(cls, module, ast.parse(source, module))
    assert sorted(site.split(" in ")[1] for site in found) == sites, found
