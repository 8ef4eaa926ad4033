"""Every name a package module imports is used in that module.

There is no linter in the toolchain, so this walks each module's syntax
tree with the standard library.  ``__init__`` is exempt: its imports are
the package's public re-exports.
"""

import ast
from pathlib import Path

import pytest

import quadgenus

MODULES = sorted(p for p in Path(quadgenus.__file__).parent.glob("*.py")
                 if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in sorted(imported.items())
            if name not in used]


def test_detector_flags_an_unused_name():
    source = "from os import path, sep\nimport json\nprint(sep)\n"
    assert unused_imports(source) == ["line 2: json", "line 1: path"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_has_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []
