"""Production code imports nothing outside the standard library, and its
imports are layered: all at module level, and none from ``coloring`` back
to ``structures``."""

import ast
import sys
from pathlib import Path

import heptalab

SOURCES = sorted(Path(heptalab.__file__).parent.glob("*.py"))


def absolute_imports(path: Path) -> list[str]:
    names = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            names += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.append(node.module)
    return names


def test_production_modules_import_only_the_standard_library():
    assert len(SOURCES) >= 7
    outside = {
        f"{path.name}: {name}"
        for path in SOURCES
        for name in absolute_imports(path)
        if name.split(".")[0] not in sys.stdlib_module_names
    }
    assert not outside


def test_no_imports_inside_functions():
    inner = [
        f"{path.name}:{sub.lineno}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        for sub in ast.walk(node)
        if isinstance(sub, (ast.Import, ast.ImportFrom))
    ]
    assert not inner


def test_coloring_imports_nothing_from_structures():
    path = Path(heptalab.__file__).parent / "coloring.py"
    names = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.ImportFrom):
            names += [node.module or ""] + [alias.name for alias in node.names]
        elif isinstance(node, ast.Import):
            names += [alias.name for alias in node.names]
    assert len(names) >= 3
    assert not [name for name in names if "structures" in name.split(".")]
