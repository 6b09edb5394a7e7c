"""Acceptance gate: ten numbered end-to-end criteria.

Each test covers exactly one criterion and records a single PASS/FAIL line
(echoed in the terminal summary).  Pinned tolerances:

  - wall clock: criterion 1 < 1 s; criterion 2 < 1800 s; criterion 7 < 300 s
  - everything else is exact: integer equalities and zero-violation counts

Corpora, all seeded and rebuilt from scratch here:
  - every graph on at most 7 vertices up to isomorphism (built-in enumeration)
  - 100,000 random graphs on 8-10 vertices
  - 10,000 random graphs on at most 8 vertices
  - 200 planted harmonious-cutset instances on at most 20 vertices
  - 100 + 100 generated structured instances
"""

import json
import random
import time

import pytest

from heptalab.cli import (
    GraphFacts,
    _random_outer_sizes,
    theorem_outcome,
    verdict_from_outcomes,
)
from heptalab.coloring import chromatic_number_exact, is_proper
from heptalab.corpus import all_graphs_up_to
from heptalab.detect import (
    DEFAULT_BUDGET,
    c7_complement,
    clique_number,
    find_full_house,
    find_odd_hole,
)
from heptalab.graph import Graph, induced_subgraph, to_graph6
from heptalab.harmonious import merge_colorings, verify_harmonious
from heptalab.structures import (
    four_color_heptagram_type,
    four_color_t11,
    generate_heptagram_type,
    generate_t11_type,
    recognize_heptagram_type,
    recognize_t11_type,
    verify_heptagram_type,
    verify_t11_type,
)

from .conftest import summary_lines
from .lemmas import HeptagramWitness, heptagram_consequences
from .naive import (
    full_houses_by_degree,
    naive_chromatic,
    odd_holes_by_isomorphism,
    side_vertex_sets,
)
from .planted import planted_instances, random_graphs
from .test_harmonious import side_coloring

SEED = 1729

RANDOM_SAMPLE_COUNT = 100_000
RANDOM_SAMPLE_SIZES = (8, 9, 10)
ORACLE_SAMPLE_COUNT = 10_000
PLANTED_COUNT = 200
STRUCTURE_COUNT = 100


def report(number: int, ok: bool, detail: str) -> None:
    line = f"criterion {number:2d}: {'PASS' if ok else 'FAIL'} - {detail}"
    summary_lines.append(line)
    assert ok, line


# ---------------------------------------------------------------------------
# shared corpora (session-scoped so each is built exactly once)
# ---------------------------------------------------------------------------


@pytest.fixture(scope="session")
def corpus7_records():
    return [GraphFacts(g, DEFAULT_BUDGET) for g in all_graphs_up_to(7)]


def _random_sample_records():
    graphs = random_graphs(RANDOM_SAMPLE_COUNT, RANDOM_SAMPLE_SIZES, seed=SEED)
    return [GraphFacts(g, DEFAULT_BUDGET) for g in graphs]


@pytest.fixture(scope="session")
def random_records():
    t0 = time.perf_counter()
    records = _random_sample_records()
    return records, time.perf_counter() - t0


def _bound_verdict_json(records) -> str:
    outcomes = [(theorem_outcome(rec, "t1.4-bound"), graph6(rec)) for rec in records]
    verdict = verdict_from_outcomes(outcomes, "t1.4-bound", budget=DEFAULT_BUDGET, seed=SEED)
    return json.dumps(verdict, sort_keys=True)


@pytest.fixture(scope="session")
def planted200():
    return planted_instances(PLANTED_COUNT, SEED)


def _generate_structures(seed: int):
    """The criterion-7 instance set plus its canonical JSON transcript."""
    rng = random.Random(seed)
    t11 = []
    for _ in range(STRUCTURE_COUNT):
        sizes = [rng.randint(1, 3) for _ in range(11)]
        t11.append((generate_t11_type(sizes), sizes))
    hepta = []
    for _ in range(STRUCTURE_COUNT):
        sizes = [rng.randint(1, 3) for _ in range(7)]
        outer = _random_outer_sizes(rng)
        hepta.append((generate_heptagram_type(sizes, outer), sizes, outer))
    lines = [
        json.dumps(
            {
                "kind": "t11",
                "graph6": to_graph6(g).decode("ascii"),
                "witness": w.to_json_dict(),
            },
            sort_keys=True,
        )
        for (g, w), _ in t11
    ] + [
        json.dumps(
            {
                "kind": "heptagram",
                "graph6": to_graph6(g).decode("ascii"),
                "witness": w.to_json_dict(),
            },
            sort_keys=True,
        )
        for (g, w), _, _ in hepta
    ]
    return t11, hepta, "\n".join(lines)


@pytest.fixture(scope="session")
def structures200():
    t0 = time.perf_counter()
    t11, hepta, transcript = _generate_structures(SEED)
    return t11, hepta, transcript, time.perf_counter() - t0


def class_member(rec: GraphFacts) -> bool:
    return bool(rec.odd_hole_free and rec.full_house_free)


def graph6(rec: GraphFacts) -> str:
    return to_graph6(rec.g).decode("ascii")


# ---------------------------------------------------------------------------
# criteria
# ---------------------------------------------------------------------------


def test_criterion_01_seven_antihole_reproduction():
    t0 = time.perf_counter()
    g = c7_complement()
    hole_free = find_odd_hole(g) is None
    house_free = find_full_house(g) is None
    omega, _ = clique_number(g)
    chi = chromatic_number_exact(g).chi
    elapsed = time.perf_counter() - t0
    ok = hole_free and house_free and omega == 3 and chi == 4 and elapsed < 1.0
    report(
        1,
        ok,
        f"class flags both true, omega={omega}, chi={chi}, {elapsed * 1e3:.0f} ms",
    )


def test_criterion_02_bound_exhaustive_and_random(corpus7_records, random_records):
    records, sample_elapsed = random_records
    t0 = time.perf_counter()
    violations = []
    population = 0
    for rec in corpus7_records + records:
        if not class_member(rec):
            continue
        population += 1
        if rec.chi > rec.omega + 1:
            violations.append(graph6(rec))
    elapsed = sample_elapsed + (time.perf_counter() - t0)
    ok = not violations and elapsed < 1800.0
    report(
        2,
        ok,
        f"{population} class members across {len(corpus7_records)} exhaustive "
        f"+ {len(records)} random graphs, {len(violations)} violations, "
        f"{elapsed:.1f} s",
    )


def test_criterion_03_equality_characterization(corpus7_records, random_records):
    records, _ = random_records
    violations = []
    checked = 0
    for rec in corpus7_records + records:
        if not class_member(rec):
            continue
        checked += 1
        omega, chi, antihole = rec.omega, rec.chi, rec.has_c7_complement
        if (chi == omega + 1) != (omega == 3 and antihole):
            violations.append(("equality", graph6(rec)))
        if not antihole and chi != omega:
            violations.append(("perfection", graph6(rec)))
    report(
        3,
        not violations,
        f"{checked} class members, {len(violations)} violations of the "
        f"equality/perfection split",
    )


def test_criterion_04_k4_free_four_colorable(corpus7_records, random_records):
    records, _ = random_records
    violations = []
    checked = 0
    for rec in corpus7_records + records:
        if not rec.odd_hole_free or rec.omega > 3:
            continue
        checked += 1
        if rec.chi > 4:
            violations.append(graph6(rec))
    report(
        4,
        not violations,
        f"{checked} triangle-or-less clique graphs checked, "
        f"{len(violations)} exceeded four colors",
    )


def test_criterion_05_merge_two_hundred_planted(planted200):
    failures = 0
    for inst in planted200:
        g, p = inst.graph, inst.partition
        k = max(2, len(p.parts))
        c1 = side_coloring(g, p, 0, k)
        c2 = side_coloring(g, p, 1, k)
        counts: list[int] = []
        merged = merge_colorings(
            g, p, c1, c2, on_swap=lambda side, aligned: counts.append(aligned)
        )
        if not is_proper(g, merged) or merged.k != k:
            failures += 1
            continue
        if not all(b > a for a, b in zip(counts, counts[1:])):
            failures += 1
    report(
        5,
        failures == 0,
        f"{len(planted200)} planted instances merged, {failures} failures, "
        f"swap counts strictly increasing",
    )


def test_criterion_06_composition_preserves_hole_freeness(planted200):
    failures = 0
    for inst in planted200:
        g, p = inst.graph, inst.partition
        if verify_harmonious(g, p).status != "yes":
            failures += 1
            continue
        sides_clean = True
        for members in side_vertex_sets(g, p):
            sub, _ = induced_subgraph(g, sorted(members))
            if find_odd_hole(sub) is not None:
                sides_clean = False
        if not sides_clean or find_odd_hole(g) is not None:
            failures += 1
    report(
        6,
        failures == 0,
        f"{len(planted200)} glued instances with odd-hole-free sides, "
        f"{failures} failures",
    )


def test_criterion_07_structure_round_trips(structures200):
    t11, hepta, _, gen_elapsed = structures200
    t0 = time.perf_counter()
    failures = []
    for (g, w), sizes in t11:
        if not verify_t11_type(g, w).ok:
            failures.append("verify")
        if find_odd_hole(g) is not None or find_full_house(g) is not None:
            failures.append("detect")
        seen = recognize_t11_type(g)
        if seen is None or sorted(seen.size_vector()) != sorted(sizes):
            failures.append("recognize")
        col = four_color_t11(g, w)
        if not is_proper(g, col) or col.k > 4:
            failures.append("color")
    for (g, w), sizes, outer in hepta:
        if not verify_heptagram_type(g, w).ok:
            failures.append("verify")
        if find_odd_hole(g) is not None or find_full_house(g) is not None:
            failures.append("detect")
        seen = recognize_heptagram_type(g)
        if (
            seen is None
            or sorted(len(p) for p in seen.ring) != sorted(sizes)
            or sorted(len(p) for p in seen.outer) != sorted(outer)
        ):
            failures.append("recognize")
        col = four_color_heptagram_type(g, w)
        if not is_proper(g, col) or col.k > 4:
            failures.append("color")
    elapsed = gen_elapsed + (time.perf_counter() - t0)
    ok = not failures and elapsed < 300.0
    report(
        7,
        ok,
        f"{len(t11)}+{len(hepta)} instances round-tripped, "
        f"{len(failures)} failures, {elapsed:.1f} s",
    )


def test_criterion_08_ring_lemma_suite(structures200):
    _, hepta, _, _ = structures200
    failures = []
    for (g, w), _, _ in hepta:
        ring_witness = HeptagramWitness(w.ring)
        issues = heptagram_consequences(g, ring_witness)
        if issues:
            failures.append(issues[0])
        # no two outer vertices of the same group may be adjacent
        for group in w.outer:
            members = sorted(group)
            for a_pos, u in enumerate(members):
                for v in members[a_pos + 1 :]:
                    if g.adjacent(u, v):
                        failures.append(f"outer pair {u},{v} adjacent")
        # consecutive outer groups: pairwise adjacent, and both endpoints
        # complete to the ring part they share (index i+4 = i-3 mod 7)
        for i in range(7):
            shared = sorted(w.ring[(i + 4) % 7])
            for u in sorted(w.outer[i]):
                for v in sorted(w.outer[(i + 1) % 7]):
                    if not g.adjacent(u, v):
                        failures.append(f"consecutive outer {u},{v} not adjacent")
                    for x in shared:
                        if not g.adjacent(u, x) or not g.adjacent(v, x):
                            failures.append(f"pair {u},{v} misses shared part")
    report(
        8,
        not failures,
        f"{len(hepta)} instances, ring consequences + outer-group adjacency "
        f"laws, {len(failures)} failures",
    )


def test_criterion_09_oracle_agreement():
    disagreements = 0
    checked = 0
    for g in all_graphs_up_to(6):
        checked += 1
        if chromatic_number_exact(g).chi != naive_chromatic(g):
            disagreements += 1
        if (find_odd_hole(g) is None) != (not odd_holes_by_isomorphism(g)):
            disagreements += 1
        if (find_full_house(g) is None) != (not full_houses_by_degree(g)):
            disagreements += 1
    for g in random_graphs(ORACLE_SAMPLE_COUNT, list(range(9)), seed=SEED + 1):
        checked += 1
        if chromatic_number_exact(g).chi != naive_chromatic(g):
            disagreements += 1
        if (find_odd_hole(g) is None) != (not odd_holes_by_isomorphism(g)):
            disagreements += 1
        if (find_full_house(g) is None) != (not full_houses_by_degree(g)):
            disagreements += 1
    report(
        9,
        disagreements == 0,
        f"{checked} graphs against subset/ascending oracles, "
        f"{disagreements} disagreements",
    )


def test_criterion_10_byte_identical_reruns(random_records, structures200):
    records, _ = random_records
    first_verdict = _bound_verdict_json(records)
    second_verdict = _bound_verdict_json(_random_sample_records())
    _, _, first_transcript, _ = structures200
    _, _, second_transcript = _generate_structures(SEED)
    verdict_same = first_verdict == second_verdict
    transcript_same = first_transcript == second_transcript
    report(
        10,
        verdict_same and transcript_same,
        f"theorem verdict rerun identical: {verdict_same}; "
        f"structure transcript rerun identical: {transcript_same}",
    )
