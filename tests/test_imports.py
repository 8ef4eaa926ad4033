"""Every name a package module imports is used in that module, and every
top-level function or class of a package module is used somewhere.

There is no linter in the toolchain, so this walks each module's syntax
tree with the standard library.  ``__init__`` is exempt from the import
check: its imports are the package's public re-exports, and a definition
it re-exports counts as used.
"""

import ast
from pathlib import Path

import pytest

import quadgenus

PACKAGE = Path(quadgenus.__file__).parent
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
SCRIPTS = sorted(
    (Path(__file__).resolve().parents[1] / "scripts").glob("*.py"))


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


def _referenced(node: ast.AST) -> set[str]:
    """Names a syntax tree reads, looks up as an attribute or imports."""
    out = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            out.add(sub.attr)
        elif isinstance(sub, ast.alias):
            out.add(sub.name.split(".")[-1])
    return out


def unreferenced_definitions(modules: dict[str, str], others: list[str],
                             exported: set[str]) -> list[str]:
    """Top-level functions and classes of `modules` (file name -> source)
    that are not in `exported` and that no statement of `modules` or
    `others` references, apart from the definition itself."""
    defined: list[tuple[str, ast.stmt]] = []
    refs: list[tuple[ast.AST, set[str]]] = []
    for module, source in modules.items():
        for stmt in ast.parse(source).body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
                defined.append((module, stmt))
            refs.append((stmt, _referenced(stmt)))
    for source in others:
        tree = ast.parse(source)
        refs.append((tree, _referenced(tree)))
    return [f"{module}: {stmt.name}" for module, stmt in defined
            if stmt.name not in exported
            and not any(stmt.name in names for other, names in refs
                        if other is not stmt)]


def test_detector_flags_an_unused_name():
    source = "from os import path, sep\nimport json\nprint(sep)\n"
    assert unused_imports(source) == ["line 2: json", "line 1: path"]


def test_detector_flags_an_unreferenced_definition():
    modules = {
        "a.py": "def helper():\n    pass\n\n\n"
                "def dead():\n    return dead()\n\n\n"
                "class Public:\n    pass\n\n\n"
                "def caller():\n    helper()\n",
        "b.py": "from .a import caller\nCONST = caller\n",
    }
    script = "import quadgenus.b\nquadgenus.b.CONST()\n"
    assert unreferenced_definitions(modules, [script], {"Public"}) == [
        "a.py: dead"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_has_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_package_has_no_unreferenced_definitions():
    init = ast.parse((PACKAGE / "__init__.py").read_text())
    exported = {alias.asname or alias.name for node in ast.walk(init)
                if isinstance(node, ast.ImportFrom) for alias in node.names}
    modules = {p.name: p.read_text() for p in MODULES}
    scripts = [p.read_text() for p in SCRIPTS]
    assert unreferenced_definitions(modules, scripts, exported) == []
