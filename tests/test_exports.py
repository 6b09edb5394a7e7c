import ast
import dataclasses
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
    "is_perfect",
    "full_house_graph",
    "is_stable_set",
    "side_vertex_sets",
    "random_graphs",
    "_cutset_pool",
    "_check_sets",
)

# public module-level names that no package module uses, each with the
# reason it stays: the open ROADMAP item that will call it, or the paper's
# object it builds
KEPT_FOR = {
    "is_proper": "ROADMAP items 2 and 3: checking a certified coloring and a report's coloring",
    "is_clique": "ROADMAP items 2 and 3: checking a certified lower bound and a report's clique",
    "verify_hit": "ROADMAP items 2 and 3: checking an antihole lower bound and a report's hits",
    "merge_colorings": "ROADMAP item 2: gluing the side colorings across a harmonious cutset",
    "four_color_t11": "ROADMAP item 2: coloring a T11-type piece",
    "four_color_heptagram_type": "ROADMAP item 2: coloring a heptagram-type piece",
    "recognize_heptagram_type": "the public recognizer, with its antihole pre-check",
    "c7_complement": "the paper's H, the 7-vertex antihole",
}


def test_every_public_definition_is_reached_or_kept():
    # a public function or class that no package module other than
    # ``__init__`` names is reached only by tests, and leaves the package
    # unless KEPT_FOR says why it stays
    trees = {path.stem: ast.parse(path.read_text()) for path in SOURCES}
    defined = {
        node.name
        for tree in trees.values()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_")
    }
    named = {
        node.id if isinstance(node, ast.Name) else node.attr
        for stem, tree in trees.items()
        if stem != "__init__"
        for node in ast.walk(tree)
        if isinstance(node, (ast.Name, ast.Attribute))
    }
    assert sorted(defined - named - KEPT_FOR.keys()) == []
    # and each kept name is still defined and still unused
    assert KEPT_FOR.keys() <= defined - named


def test_retired_names_stay_out_of_the_package():
    for path in SOURCES:
        module = importlib.import_module(f"heptalab.{path.stem}".removesuffix(".__init__"))
        for name in LEFT_THE_PACKAGE:
            assert not hasattr(module, name), (module.__name__, name)
    assert not hasattr(heptalab.Graph, "edge_mask")
    assert not hasattr(heptalab.Graph, "from_edge_mask")
    assert "stats_out" not in inspect.signature(heptalab.generate_heptagram_type).parameters
    # fields a reader derives or already holds: a hole's length is the
    # number of its vertices, a violation's parts are in its partition, and
    # the clique that seeds the chi search is the caller's
    for cls, name in (
        (heptalab.PatternHit, "length"),
        (heptalab.HarmonyViolation, "part_pair"),
        (heptalab.ChiResult, "clique"),
    ):
        assert name not in {f.name for f in dataclasses.fields(cls)}, (cls.__name__, name)
    # the mask checks live in ``graph``, next to ``iter_bits``, and only there
    for name in ("_first_bit", "_edge_between", "_missing_edge", "_lonely"):
        assert not hasattr(heptalab.structures, name), name
    defs = [
        node.name
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.FunctionDef)
    ]
    for name in ("first_bit", "edge_between", "missing_edge", "lonely"):
        assert defs.count(name) == 1 and hasattr(heptalab.graph, name), name


def test_vertex_sets_are_checked_in_one_place():
    # a witness's vertex sets become masks through ``Graph.vertex_masks``
    # (or ``vertex_mask``), never through a loop of ``has_vertex`` calls;
    # ``is_proper`` checks a coloring's keys, which are no vertex sets
    naming = sorted(path.name for path in SOURCES if "has_vertex" in path.read_text())
    assert naming == ["coloring.py", "graph.py"]


def test_one_complete_multipartite_test():
    # the full-house search and the cutset shape share one peel,
    # ``graph.multipartite_parts``; ``_shape`` builds no parts list of its own
    naming = sorted(path.name for path in SOURCES if "multipartite_parts" in path.read_text())
    assert naming == ["detect.py", "graph.py", "harmonious.py"]
    tree = ast.parse(Path(heptalab.harmonious.__file__).read_text())
    shape = next(node for node in tree.body if getattr(node, "name", None) == "_shape")
    calls = [node.func for node in ast.walk(shape) if isinstance(node, ast.Call)]
    assert "multipartite_parts" in {f.id for f in calls if isinstance(f, ast.Name)}
    appended = {f.value.id for f in calls if isinstance(f, ast.Attribute) and f.attr == "append"}
    assert appended == {"bip"}
    assert not any(isinstance(node, ast.NotIn) for node in ast.walk(shape))


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
