import ast
import importlib
import inspect
from pathlib import Path

import heptalab


def test_all_names_resolve_and_are_not_modules():
    assert len(heptalab.__all__) == len(set(heptalab.__all__))
    for name in heptalab.__all__:
        obj = getattr(heptalab, name)
        assert not inspect.ismodule(obj), name


def test_budget_is_exported():
    assert heptalab.Budget is heptalab.detect.Budget
    assert "Budget" in heptalab.__all__


def test_every_public_import_is_exported():
    public = {
        name
        for name, obj in vars(heptalab).items()
        if not name.startswith("_") and not inspect.ismodule(obj)
    }
    assert public == set(heptalab.__all__)


SOURCES = sorted(Path(heptalab.__file__).parent.glob("*.py"))
# names that left the package: test oracles that moved to tests/lemmas.py,
# code that no search or CLI path called, and the CLI's per-graph record
# pipelines that ``cli.GraphFacts`` and ``cli.theorem_outcome`` replaced
LEFT_THE_PACKAGE = (
    "HeptagramWitness",
    "verify_heptagram",
    "VertexClassification",
    "Tail",
    "classify_vertex",
    "find_tails",
    "classify_outside_vertices",
    "heptagram_consequences",
    "SetRelation",
    "relation",
    "find_induced_embedding",
    "find_induced_pattern",
    "MAX_PATTERN_SIZE",
    "canonical_graph6",
    "write_graph6_file",
    "canonical_relabel",
    "_grow",
    "class_facts",
    "class_record",
    "_theorem_record",
    "record_outcome",
    "dichotomy_outcome",
    "verdict_from_records",
)


def test_retired_names_stay_out_of_the_package():
    for path in SOURCES:
        module = importlib.import_module(f"heptalab.{path.stem}".removesuffix(".__init__"))
        for name in LEFT_THE_PACKAGE:
            assert not hasattr(module, name), (module.__name__, name)
    assert not hasattr(heptalab.Graph, "edge_mask")
    assert "stats_out" not in inspect.signature(heptalab.generate_heptagram_type).parameters


def test_package_never_imports_the_tests():
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            assert not any(n == "tests" or n.startswith("tests.") for n in names), path.name
