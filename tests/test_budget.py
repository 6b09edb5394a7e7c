"""One step budget for every exponential search.

Each search charges a ``Budget``; short of the steps it needs it gives no
answer (it raises SearchBudgetExceeded or reports "inconclusive"), and
with them it gives the answer it gives unbudgeted, never another one.
``Budget.spend`` is the only place in the package that raises.
"""

import ast
from pathlib import Path

import pytest

import heptalab
from heptalab.coloring import chromatic_number_exact
from heptalab.detect import Budget, SearchBudgetExceeded, c7_complement, find_odd_hole
from heptalab.graph import Graph
from heptalab.harmonious import find_harmonious_cutset, minimal_separators, verify_harmonious
from heptalab.structures import (
    generate_heptagram_type,
    generate_t11_type,
    recognize_heptagram_type,
)

from .planted import planted_instances

SOURCES = sorted(Path(heptalab.__file__).parent.glob("*.py"))
SEARCHES = (
    find_odd_hole,
    minimal_separators,
    chromatic_number_exact,
    recognize_heptagram_type,
    find_harmonious_cutset,
)
GRAPHS = (
    c7_complement(),
    Graph.cycle(6),
    Graph.circulant(10, (1, 3)),
    generate_heptagram_type([1, 2, 1, 1, 2, 1, 1], [1, 0, 0, 0, 0, 0, 0])[0],
    generate_t11_type([1] * 11)[0],
)
NO_ANSWER = "no answer"


def outcome(search, budget):
    """``search(budget)``, or NO_ANSWER when it raises or is inconclusive."""
    try:
        got = search(budget)
    except SearchBudgetExceeded:
        return NO_ANSWER
    return NO_ANSWER if getattr(got, "status", None) == "inconclusive" else got


def check_every_limit(search):
    """Below the steps the search spends, no answer; from there on, the
    unbudgeted one.  Returns those steps."""
    spent = Budget()
    want = search(spent)
    for limit in range(spent.spent + 2):
        got = outcome(search, Budget(limit))
        assert got == (NO_ANSWER if limit < spent.spent else want), limit
    return spent.spent


@pytest.mark.parametrize("search", SEARCHES, ids=lambda f: f.__name__)
def test_a_short_budget_never_gives_a_wrong_answer(search):
    spent = [check_every_limit(lambda b: search(g, b)) for g in GRAPHS]
    assert any(spent), "no graph made this search spend a step"


def test_verifier_under_every_limit():
    for inst in planted_instances(8, seed=5):
        check_every_limit(lambda b: verify_harmonious(inst.graph, inst.partition, b))


def test_one_budget_is_shared_by_the_stages():
    # the separators, the pool and the parity passes all charge one budget
    g = Graph.cycle(6)
    budget = Budget()
    separators = len(minimal_separators(g))
    res = find_harmonious_cutset(g, budget)
    assert res.steps == budget.spent > separators


def _budget_raises(tree):
    """The ``raise SearchBudgetExceeded(...)`` statements under ``tree``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if isinstance(exc, ast.Name) and exc.id == "SearchBudgetExceeded":
                yield node


def test_only_budget_spend_raises():
    found = []  # (module, whether the raise sits in Budget.spend)
    for path in SOURCES:
        tree = ast.parse(path.read_text())
        in_spend = {
            id(node)
            for cls in ast.walk(tree)
            if isinstance(cls, ast.ClassDef) and cls.name == "Budget"
            for fn in cls.body
            if isinstance(fn, ast.FunctionDef) and fn.name == "spend"
            for node in _budget_raises(fn)
        }
        found += [(path.name, id(node) in in_spend) for node in _budget_raises(tree)]
    assert found == [("detect.py", True)]


def test_no_second_budget_mechanism():
    for path in SOURCES:
        text = path.read_text()
        for name in ("DETECTOR_BUDGET", "MAX_EXACT_VERTICES", "nonlocal steps"):
            assert name not in text, (path.name, name)
