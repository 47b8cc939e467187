"""Every module-level import in the package is used.

A name bound by an import at the top of a module counts as used when the
module reads it anywhere (annotations included) or lists it in ``__all__``.
"""

from __future__ import annotations

import ast
from importlib import resources

import pytest

MODULES = sorted(
    p.name for p in resources.files("roadmnet").iterdir() if p.name.endswith(".py")
)


def _imported_names(tree: ast.Module) -> dict[str, int]:
    """Names bound by the module's top-level imports, with their line."""
    names: dict[str, int] = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                names[bound] = node.lineno
    return names


def _used_names(tree: ast.Module) -> set[str]:
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if (
            isinstance(node, ast.Assign)
            and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)
        ):
            used.update(ast.literal_eval(node.value))
    return used


def test_modules_found():
    assert {"algorithms.py", "cli.py", "operation.py", "verify.py"} <= set(MODULES)


@pytest.mark.parametrize("module", MODULES)
def test_no_unused_imports(module):
    source = (resources.files("roadmnet") / module).read_text(encoding="utf-8")
    tree = ast.parse(source, module)
    used = _used_names(tree)
    unused = [
        f"{module}:{line}: {name}"
        for name, line in _imported_names(tree).items()
        if name not in used
    ]
    assert unused == []
