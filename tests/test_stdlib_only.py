"""Production code imports nothing outside the standard library."""

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
