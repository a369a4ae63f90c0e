import ast
from pathlib import Path

import pytest

import pairnet

MODULES = sorted(Path(pairnet.__file__).parent.glob("*.py"))


def unused_imports(tree: ast.Module) -> list[str]:
    """The names that tree's import statements bind, anywhere in the module,
    and that no expression of the module reads."""
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                bound.setdefault(name, node.lineno)
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in bound.items() if name not in read]


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_every_imported_name_is_used(path):
    assert unused_imports(ast.parse(path.read_text(encoding="utf-8"))) == []


def test_an_unused_import_is_found():
    tree = ast.parse("import os\nfrom a.b import c, d as e\nimport x.y\nprint(c, x)\n")
    assert unused_imports(tree) == ["os (line 1)", "e (line 2)"]
