import importlib.util
import random
import sys
from itertools import combinations, product
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from heptalab import structures
from heptalab.cli import _random_outer_sizes
from heptalab.corpus import nonisomorphic_graphs
from heptalab.detect import (
    Budget,
    PatternHit,
    SearchBudgetExceeded,
    c7_complement,
    find_full_house,
    find_odd_hole,
    has_c7_complement,
    verify_hit,
)
from heptalab.graph import Graph, from_graph6, induced_subgraph
from heptalab.structures import (
    GenerationError,
    HeptagramTypeWitness,
    StructureVerdict,
    T11Witness,
    generate_heptagram_type,
    generate_t11_type,
    recognize_heptagram_type,
    recognize_t11_type,
    verify_heptagram_type,
    verify_t11_type,
)

from .lemmas import (
    HeptagramWitness,
    Tail,
    classify_outside_vertices,
    classify_vertex,
    find_tails,
    heptagram_consequences,
    relation,
    verify_heptagram,
)
from .naive import heptagram_type_by_assignment, is_stable_set, t11_sizes_by_twins
from .planted import from_edge_mask
from .test_cli import RECOGNIZER_MISSES


def naive_heptagram_check(g: Graph, parts) -> bool:
    """Relation-based recheck of the six ring axioms, written independently
    of the verifier's scan order."""
    sets = [sorted(p) for p in parts]
    if any(not p for p in sets):
        return False
    seen = set()
    for p in sets:
        for v in p:
            if v in seen:
                return False
            seen.add(v)
    if any(not is_stable_set(g, p) for p in sets):
        return False
    for i in range(7):
        for d in (3, 4):
            if relation(g, sets[i], sets[(i + d) % 7]).label != "anticomplete":
                return False
        for d in (1, 2):
            if not relation(g, sets[i], sets[(i + d) % 7]).linked:
                return False
    for i in range(7):
        a, b, c = sets[(i - 1) % 7], sets[i], sets[(i + 1) % 7]
        for v in b:
            for u in a:
                for w in c:
                    uv, vw, uw = g.adjacent(u, v), g.adjacent(v, w), g.adjacent(u, w)
                    if uv and vw and not uw:
                        return False
                    if not uv and not vw and uw:
                        return False
        for u in a:
            for w in c:
                if not g.adjacent(u, w):
                    continue
                for v in b:
                    for x in sets[(i + 2) % 7]:
                        if g.adjacent(v, x) and not g.adjacent(u, v) and not g.adjacent(w, x):
                            return False
    return True


class TestVerifyHeptagram:
    def test_c7_complement_singletons(self):
        w = HeptagramWitness(tuple(frozenset({i}) for i in range(7)))
        verdict = verify_heptagram(c7_complement(), w)
        assert verdict.ok

    def test_deleted_edge_breaks_linkage(self):
        g = c7_complement()
        edges = [e for e in g.edges() if e != (0, 1)]
        w = HeptagramWitness(tuple(frozenset({i}) for i in range(7)))
        verdict = verify_heptagram(Graph.from_edges(7, edges), w)
        assert not verdict.ok and verdict.rule == "3"

    def test_doubled_blowup_with_naive_recheck(self):
        g, tw = generate_heptagram_type([2] * 7)
        w = HeptagramWitness(tw.ring)
        assert verify_heptagram(g, w).ok
        assert naive_heptagram_check(g, w.parts)

    def test_ring_parts_need_not_cover(self):
        # a heptagram ignores vertices outside its parts entirely
        g, tw = generate_heptagram_type([1] * 7, [1, 0, 0, 0, 0, 0, 0])
        assert verify_heptagram(g, HeptagramWitness(tw.ring)).ok


class TestVerifyHeptagramType:
    def test_outer_all_empty(self):
        g, w = generate_heptagram_type([1, 2, 1, 1, 2, 1, 1])
        assert verify_heptagram_type(g, w).ok

    @pytest.mark.parametrize("stray", [0.0, True, 7, -1])
    def test_non_vertex_rejected(self, stray):
        g, w = generate_heptagram_type([1] * 7)
        assert w.ring[0] == {0} and verify_heptagram_type(g, w).ok
        for ring, outer in (
            (parts({stray}, *w.ring[1:]), w.outer),
            (w.ring, parts({stray}, *w.outer[1:])),
        ):
            with pytest.raises(ValueError, match="out of range"):
                verify_heptagram_type(g, HeptagramTypeWitness(ring, outer))

    def test_single_outer_vertex(self):
        g, w = generate_heptagram_type([1] * 7, [1, 0, 0, 0, 0, 0, 0])
        verdict = verify_heptagram_type(g, w)
        assert verdict.ok
        y = next(iter(w.outer[0]))
        for j, expect in ((0, "complete"), (3, "complete"), (4, "complete"),
                          (1, "anticomplete"), (2, "anticomplete"),
                          (5, "anticomplete"), (6, "anticomplete")):
            assert relation(g, {y}, w.ring[j]).label == expect

    def test_triple_rules_report_u_v_w(self):
        # rules 4 and 5 report (u, v, w): v in ring part 1, u in part 0 and
        # w in part 2, both neighbors of v (rule 4) or neither (rule 5)
        g, w = generate_heptagram_type([2, 2, 2, 1, 1, 1, 1])
        (a, _), (v, _), (c, _) = (sorted(w.ring[i]) for i in range(3))
        edges = set(g.edges())
        no_ac = Graph.from_edges(g.n, sorted(edges - {(a, c)}))
        assert verify_heptagram_type(no_ac, w) == StructureVerdict(False, "4", (a, v, c))
        far = Graph.from_edges(g.n, sorted(edges - {(a, v), (v, c)}))
        assert verify_heptagram_type(far, w) == StructureVerdict(False, "5", (a, v, c))

    def test_forbidden_near_edge_names_rule_six(self):
        g, w = generate_heptagram_type([1] * 7, [1, 0, 0, 0, 0, 0, 0])
        y = next(iter(w.outer[0]))
        bad = Graph.from_edges(g.n, g.edges() + [(y, next(iter(w.ring[1])))])
        verdict = verify_heptagram_type(bad, w)
        assert not verdict.ok and verdict.rule == "6"

    def test_missing_vertex_breaks_partition(self):
        g, w = generate_heptagram_type([1] * 7)
        bigger = Graph.from_edges(g.n + 1, g.edges())
        verdict = verify_heptagram_type(bigger, w)
        assert not verdict.ok and verdict.rule == "partition"

    def test_preamble_order(self):
        # partition, then nonempty ring parts, then stability
        g = c7_complement()
        rest = [{i} for i in range(2, 7)]
        empty = parts(*[()] * 7)
        unstable = HeptagramTypeWitness(parts({0, 7}, {1}, *rest), empty)
        verdict = verify_heptagram_type(g.with_vertex(1), unstable)
        assert verdict == StructureVerdict(False, "stable", (0, 7))
        hollow = HeptagramTypeWitness(parts({0, 1}, (), *rest), empty)
        assert verify_heptagram_type(g, hollow) == StructureVerdict(False, "nonempty", (1,))
        short = HeptagramTypeWitness(parts({0}, (), *rest), empty)
        assert verify_heptagram_type(g, short) == StructureVerdict(False, "partition", (1,))

    # ring 4 = {4, 5}, ring 5 = {6, 7}, outer 1 = {9} on parts 1, 4 and 5;
    # ring 4 and ring 5 are only linked once the listed edges are gone
    @pytest.mark.parametrize(
        "removed, verdict, kind",
        [
            ([(4, 7), (5, 6), (5, 9), (7, 9)], StructureVerdict(True), "y_vertex"),
            ([(4, 7), (5, 6), (5, 9), (6, 9)], StructureVerdict(False, "7", (9, 4, 7)),
             "unclassifiable"),
            ([(4, 7), (5, 9), (7, 9)], StructureVerdict(False, "7", (9, 6, 5)), "unclassifiable"),
        ],
    )
    def test_anchor_coherence(self, removed, verdict, kind):
        g, w = generate_heptagram_type([1, 1, 1, 1, 2, 2, 1], [0, 1, 0, 0, 0, 0, 0])
        g = Graph.from_edges(g.n, [e for e in g.edges() if e not in removed])
        assert verify_heptagram_type(g, w) == verdict
        ring = HeptagramWitness(w.ring)
        assert classify_vertex(g, ring, 9).kind == kind
        assert find_tails(g, ring, [9]) == ([Tail((9,), 1)] if verdict.ok else [])

    def test_three_consecutive_outer_rejected(self):
        g, w = generate_heptagram_type([1] * 7, [0, 0, 1, 1, 0, 0, 0])
        assert verify_heptagram_type(g, w).ok
        with pytest.raises(GenerationError) as exc:
            generate_heptagram_type([1] * 7, [1, 1, 1, 0, 0, 0, 0])
        assert exc.value.rule == "10"

    def test_rule_ten_callers_agree(self):
        # every outer size vector in {0,1,2}^7: the verifier, the generator's
        # check and the CLI's repair all read structures._crowded_window
        def repaired_by_hand(sizes):
            sizes = list(sizes)
            for i in range(7):
                if sizes[i] and sizes[(i + 1) % 7] and sizes[(i + 2) % 7]:
                    sizes[(i + 2) % 7] = 0
            return sizes

        class Draws:  # stands in for the CLI's random stream
            def __init__(self, values):
                self.values = iter(values)

            def randint(self, lo, hi):
                return next(self.values)

        joined = ("complete", "linked", "seen")
        crowded_count = 0
        for sizes in product(range(3), repeat=7):
            crowded = next(
                (i for i in range(7) if all(sizes[(i + d) % 7] for d in range(3))), None
            )
            assert structures._crowded_window(sizes) == crowded, sizes
            crowded_count += crowded is not None
            g, parts = structures._blow_up(
                (1,) * 7 + sizes, lambda s, t: structures._slot_rule(s, t)[0] in joined
            )
            w = HeptagramTypeWitness(
                tuple(frozenset(p) for p in parts[:7]), tuple(frozenset(p) for p in parts[7:])
            )
            verdict = verify_heptagram_type(g, w)
            if crowded is None:
                assert verdict == StructureVerdict(True), sizes
                generate_heptagram_type([1] * 7, sizes)
            else:
                assert verdict == StructureVerdict(False, "10", (crowded,)), sizes
                with pytest.raises(GenerationError, match="rule 10"):
                    generate_heptagram_type([1] * 7, sizes)
            repaired = _random_outer_sizes(Draws(sizes))
            assert repaired == repaired_by_hand(sizes), sizes
            assert structures._crowded_window(repaired) is None, sizes
        assert 0 < crowded_count < 3**7


class TestVerifyT11:
    def test_canonical_circulant(self):
        g, w = generate_t11_type([1] * 11)
        assert g == Graph.circulant(11, (3, 4, 5))
        assert verify_t11_type(g, w).ok

    def test_removed_offset_edge(self):
        g, w = generate_t11_type([1] * 11)
        edges = [e for e in g.edges() if e != (0, 3)]
        verdict = verify_t11_type(Graph.from_edges(11, edges), w)
        assert not verdict.ok and verdict.rule == "complete"

    def test_added_near_edge(self):
        g, w = generate_t11_type([1] * 11)
        verdict = verify_t11_type(Graph.from_edges(11, g.edges() + [(0, 1)]), w)
        assert not verdict.ok and verdict.rule == "anticomplete"

    def test_blowup(self):
        g, w = generate_t11_type([2] + [1] * 10)
        assert g.n == 12 and verify_t11_type(g, w).ok

    def test_empty_part(self):
        g = Graph.circulant(11, (3, 4, 5))
        w = T11Witness(parts({0, 1}, (), *[{i} for i in range(2, 11)]))
        assert verify_t11_type(g, w) == StructureVerdict(False, "nonempty", (1,))

    @pytest.mark.parametrize("stray", [0.0, True, 11, -1])
    def test_non_vertex_rejected(self, stray):
        # a float, a bool and an out-of-range int are no vertices
        g = Graph.circulant(11, (3, 4, 5))
        w = T11Witness(parts(*[{i} for i in range(11)]))
        assert verify_t11_type(g, w).ok
        bad = T11Witness(parts({stray}, *[{i} for i in range(1, 11)]))
        with pytest.raises(ValueError, match="out of range"):
            verify_t11_type(g, bad)


class TestRecognizeT11:
    def test_canonical(self):
        w = recognize_t11_type(Graph.circulant(11, (3, 4, 5)))
        assert w is not None and all(len(p) == 1 for p in w.parts)

    def test_random_blowups(self):
        rng = random.Random(321)
        for _ in range(25):
            sizes = [rng.randint(1, 3) for _ in range(11)]
            g, _ = generate_t11_type(sizes)
            w = recognize_t11_type(g)
            assert w is not None
            assert verify_t11_type(g, w).ok
            assert sorted(map(len, w.parts)) == sorted(sizes)

    def test_relabeled_blowup(self):
        rng = random.Random(5)
        g, _ = generate_t11_type([2, 1, 1, 2, 1, 1, 1, 1, 3, 1, 1])
        perm = list(range(g.n))
        rng.shuffle(perm)
        h = g.relabel(perm)
        w = recognize_t11_type(h)
        assert w is not None and verify_t11_type(h, w).ok

    def test_too_small(self):
        assert recognize_t11_type(c7_complement()) is None

    def test_embeds_only_in_the_twin_quotient(self, monkeypatch):
        # the ring order is walked in the complement of the quotient, and
        # that complement is the only one the recognizer builds
        hosts = []
        complement = Graph.complement

        def spy(host):
            hosts.append(host.n)
            return complement(host)

        monkeypatch.setattr(Graph, "complement", spy)
        g, _ = generate_t11_type([30] * 11)
        w = recognize_t11_type(g)
        assert w is not None and w.size_vector() == (30,) * 11
        rng = random.Random(40)
        assert recognize_t11_type(from_edge_mask(40, rng.getrandbits(780))) is None
        assert hosts and set(hosts) == {11}

    def test_other_class_counts_build_no_quotient(self, monkeypatch):
        def refuse(g):
            raise AssertionError("twin quotient built for a graph without 11 classes")

        monkeypatch.setattr(structures, "_twin_quotient", refuse)
        g, _ = generate_heptagram_type([2] * 7)
        for h in (c7_complement(), Graph.circulant(12, (3, 4, 5)), g):
            assert len(set(h.rows)) != 11
            assert recognize_t11_type(h) is None

    def test_every_blowup_has_the_antihole(self):
        # one vertex from each of parts 0, 1, 3, 4, 6, 7 and 9 of a witness
        # induces the 7-vertex antihole (the structures docstring)
        rng = random.Random(77)
        for _ in range(20):
            g, generated = generate_t11_type([rng.randint(1, 3) for _ in range(11)])
            perm = list(range(g.n))
            rng.shuffle(perm)
            h = g.relabel(perm)
            for host, w in ((g, generated), (h, recognize_t11_type(h))):
                picks = tuple(rng.choice(sorted(w.parts[j])) for j in (0, 1, 3, 4, 6, 7, 9))
                assert verify_hit(host, PatternHit("c7_complement", picks))

    def test_near_miss(self):
        g, _ = generate_t11_type([1] * 11)
        g2 = Graph.from_edges(11, g.edges() + [(0, 1)])
        assert recognize_t11_type(g2) is None

    def test_matches_twin_quotient_oracle(self):
        rng = random.Random(1018)
        cases = []
        for _ in range(12):
            g, _ = generate_t11_type([rng.randint(1, 3) for _ in range(11)])
            perm = list(range(g.n))
            rng.shuffle(perm)
            g = g.relabel(perm)
            u, v = rng.sample(range(g.n), 2)
            flipped = set(g.edges()) ^ {(min(u, v), max(u, v))}
            twin = rng.randrange(g.n)
            cases += [
                g,
                Graph.from_edges(g.n, sorted(flipped)),
                g.with_vertex(rng.getrandbits(g.n)),
                g.with_vertex(g.rows[twin]),  # a false twin stays in the class
            ]
        for _ in range(30):
            n = rng.randint(11, 14)
            cases.append(from_edge_mask(n, rng.getrandbits(n * (n - 1) // 2)))
        # the complements of the ten 4-regular circulants C11(a, b), relabeled:
        # five are the core with another ring order, and five are not members
        for a, b in combinations(range(1, 6), 2):
            perm = list(range(11))
            rng.shuffle(perm)
            cases.append(Graph.circulant(11, (a, b)).complement().relabel(perm))
        # the core with one pair flipped, for each of its 55 pairs
        core = Graph.circulant(11, (3, 4, 5))
        for pair in combinations(range(11), 2):
            cases.append(Graph.from_edges(11, sorted(set(core.edges()) ^ {pair})))
        members = 0
        for g in cases:
            w = recognize_t11_type(g)
            sizes = t11_sizes_by_twins(g)
            assert (w is None) == (sizes is None), g.edges()
            if w is None:
                continue
            members += 1
            assert verify_t11_type(g, w).ok
            assert w.size_vector() in dihedral_images(sizes)
        assert members >= 29


class TestClassifyVertex:
    def make(self, ysizes):
        g, w = generate_heptagram_type([1] * 7, ysizes)
        return g, HeptagramWitness(w.ring), w

    def test_y_vertex(self):
        g, hw, w = self.make([1, 0, 0, 0, 0, 0, 0])
        y = next(iter(w.outer[0]))
        cls = classify_vertex(g, hw, y)
        assert cls.kind == "y_vertex" and cls.ring_index == 0

    def test_hat(self):
        base = c7_complement()
        g = base.with_vertex((1 << 3) | (1 << 4))
        hw = HeptagramWitness(tuple(frozenset({i}) for i in range(7)))
        cls = classify_vertex(g, hw, 7)
        assert cls.kind == "hat" and cls.ring_index == 0

    def test_local_window(self):
        base = c7_complement()
        g = base.with_vertex(1 << 1)
        hw = HeptagramWitness(tuple(frozenset({i}) for i in range(7)))
        cls = classify_vertex(g, hw, 7)
        assert cls.kind == "local" and cls.window == (0, 1, 2)

    def test_unclassifiable_spread(self):
        base = c7_complement()
        g = base.with_vertex((1 << 0) | (1 << 3))
        hw = HeptagramWitness(tuple(frozenset({i}) for i in range(7)))
        assert classify_vertex(g, hw, 7).kind == "unclassifiable"

    def test_ring_vertex_rejected(self):
        hw = HeptagramWitness(tuple(frozenset({i}) for i in range(7)))
        with pytest.raises(ValueError):
            classify_vertex(c7_complement(), hw, 3)


class TestFindTails:
    def test_y_vertex_is_length_zero_tail(self):
        g, w = generate_heptagram_type([1] * 7, [1, 0, 0, 0, 0, 0, 0])
        hw = HeptagramWitness(w.ring)
        y = next(iter(w.outer[0]))
        assert find_tails(g, hw, [y]) == [Tail((y,), 0)]

    def test_constructed_three_vertex_tail(self):
        # ring is the antihole 0..6; 7 is a hat at parts 3,4; 9 lands on part 0
        base = c7_complement()
        g = base.with_vertex((1 << 3) | (1 << 4))   # 7
        g = g.with_vertex(1 << 7)                    # 8
        g = g.with_vertex((1 << 8) | (1 << 0))       # 9
        hw = HeptagramWitness(tuple(frozenset({i}) for i in range(7)))
        tails = find_tails(g, hw, [7, 8, 9])
        assert len(tails) == 1
        assert tails[0].vertices == (7, 8, 9) and tails[0].ring_index == 0

    def test_even_path_not_a_tail(self):
        base = c7_complement()
        g = base.with_vertex((1 << 3) | (1 << 4))
        g = g.with_vertex((1 << 7) | (1 << 0))
        hw = HeptagramWitness(tuple(frozenset({i}) for i in range(7)))
        assert find_tails(g, hw, [7, 8]) == []

    def test_empty_outside(self):
        hw = HeptagramWitness(tuple(frozenset({i}) for i in range(7)))
        assert find_tails(c7_complement(), hw, []) == []

    def test_outside_taxonomy(self):
        base = c7_complement()
        g = base.with_vertex((1 << 3) | (1 << 4))
        g = g.with_vertex(1 << 7)
        g = g.with_vertex((1 << 8) | (1 << 0))
        hw = HeptagramWitness(tuple(frozenset({i}) for i in range(7)))
        kinds = {v: c.kind for v, c in classify_outside_vertices(g, hw, [7, 8, 9]).items()}
        assert kinds[7] == "hat"
        assert kinds[8] == "tail_member"
        assert kinds[9] == "tail_member"


class TestRecognizeHeptagramType:
    def test_c7_complement(self):
        w = recognize_heptagram_type(c7_complement())
        assert w is not None
        assert all(len(p) == 1 for p in w.ring)
        assert all(not p for p in w.outer)

    def test_round_trip_with_outer_three(self):
        g, gen = generate_heptagram_type([2, 1, 1, 1, 2, 1, 1], [0, 0, 1, 0, 0, 0, 0])
        w = recognize_heptagram_type(g)
        assert w is not None
        assert verify_heptagram_type(g, w).ok
        assert sorted(len(p) for p in w.ring) == sorted(len(p) for p in gen.ring)
        assert sorted(len(p) for p in w.outer) == sorted(len(p) for p in gen.outer)

    def test_five_cycle_rejected(self):
        assert recognize_heptagram_type(Graph.cycle(5)) is None

    def test_relabeled_instance(self):
        rng = random.Random(44)
        g, _ = generate_heptagram_type([1, 2, 1, 1, 1, 1, 2], [0, 1, 0, 0, 1, 0, 0])
        perm = list(range(g.n))
        rng.shuffle(perm)
        h = g.relabel(perm)
        w = recognize_heptagram_type(h)
        assert w is not None and verify_heptagram_type(h, w).ok

    @pytest.mark.parametrize("text", RECOGNIZER_MISSES)
    def test_former_greedy_misses(self, text):
        g = from_graph6(text)
        w = recognize_heptagram_type(g)
        assert w is not None and verify_heptagram_type(g, w).ok

    def test_matches_assignment_oracle(self):
        # every class member on 7 and 8 vertices, and T11 blow-ups with at
        # most 14 vertices (each holds the antihole, so ring parts open
        # before the search fails), as listed and relabeled
        rng = random.Random(78)
        cases = [
            g
            for n in (7, 8)
            for g in nonisomorphic_graphs(n)
            if find_odd_hole(g) is None and find_full_house(g) is None
        ]
        for sizes in ([1] * 11, [1] * 5 + [2, 1, 2, 1, 1, 1], [2, 1, 1, 2] + [1] * 6 + [2]):
            g, _ = generate_t11_type(sizes)
            assert has_c7_complement(g)
            cases.append(g)
        # twin-rich members: ring parts of two or three vertices
        for ring, outer in (
            ([2, 3, 2, 2, 3, 2, 2], [0] * 7),
            ([3, 2, 2, 3, 2, 2, 3], [1, 0, 0, 2, 0, 0, 0]),
        ):
            cases.append(generate_heptagram_type(ring, outer)[0])
        for g in cases:
            perm = list(range(g.n))
            rng.shuffle(perm)
            for h in (g, g.relabel(perm)):
                w = recognize_heptagram_type(h)
                assert (w is None) == (heptagram_type_by_assignment(h) is None)
                assert w is None or verify_heptagram_type(h, w).ok

    def test_antihole_free_members_need_no_search(self):
        # with no step to spend, every class member up to 8 vertices without
        # the antihole still gets None, and every one with it runs out
        for n in range(9):
            for g in nonisomorphic_graphs(n):
                if find_odd_hole(g) is not None or find_full_house(g) is not None:
                    continue
                if has_c7_complement(g):
                    with pytest.raises(SearchBudgetExceeded):
                        recognize_heptagram_type(g, Budget(0))
                else:
                    assert recognize_heptagram_type(g, Budget(0)) is None

    def test_pinned_witnesses(self):
        # graph6, source and canonical witness (14 parts, ring then outer,
        # "|"-separated; "-" for None) of 124 graphs: the five former misses,
        # the other 19 rows of bench/structured.tsv and 100 generated
        # instances (50 per profile, seeded sizes), the last 119 relabeled
        pins = Path(__file__).parent / "data" / "heptagram_pins.tsv"
        lines = pins.read_text().splitlines()
        for line in lines:
            g6, _, want = line.split("\t")
            w = recognize_heptagram_type(from_graph6(g6))
            got = "-" if w is None else "|".join(
                ",".join(map(str, sorted(p))) for p in w.ring + w.outer
            )
            assert got == want, g6
        assert len(lines) == 124

    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(st.integers(1, 3), min_size=7, max_size=7),
        st.lists(st.integers(0, 2), min_size=7, max_size=7),
        st.sampled_from(("all_complete", "custom")),
        st.randoms(use_true_random=False),
    )
    def test_generated_instances_recovered(self, ring, outer, profile, rng):
        for i in range(7):  # keep an empty group in every window of three
            if outer[i] and outer[(i + 1) % 7]:
                outer[(i + 2) % 7] = 0
        try:
            g, gen = generate_heptagram_type(ring, outer, profile=profile, rng=rng)
        except GenerationError:
            return  # a custom draw that never verified: no instance to test
        perm = list(range(g.n))
        rng.shuffle(perm)
        h = g.relabel(perm)
        w = recognize_heptagram_type(h)
        assert w is not None and verify_heptagram_type(h, w).ok
        # any turn or reflection of the ring, applied to both vectors at once
        images = {
            tuple(tuple(v[(a + s * j) % 7] for j in range(7)) for v in gen.size_vector())
            for a in range(7)
            for s in (1, -1)
        }
        assert w.size_vector() in images

    def test_sparse_linked_pairs(self):
        # custom draws with parts of two or three vertices leave the linked
        # ring pairs short of complete, which all_complete instances never do
        rng = random.Random(31)
        for _ in range(20):
            ring = [rng.randint(2, 3) for _ in range(7)]
            g, _ = generate_heptagram_type(ring, profile="custom", rng=rng)
            perm = list(range(g.n))
            rng.shuffle(perm)
            h = g.relabel(perm)
            w = recognize_heptagram_type(h)
            assert w is not None and verify_heptagram_type(h, w).ok

    def test_budget(self):
        # a deterministic work count, the same for every part size because
        # the search runs on the 11-vertex twin quotient
        for k in (1, 2, 3):
            g, _ = generate_t11_type([k] * 11)
            with pytest.raises(SearchBudgetExceeded):
                recognize_heptagram_type(g, Budget(678))
            budget = Budget()
            assert recognize_heptagram_type(g, budget) is None
            assert budget.spent == 679

    def test_large_instance_runs_without_recursion(self):
        # one search level per placed vertex: 1,001 levels are more than
        # Python's default recursion limit, so the search must not recurse
        g, _ = generate_heptagram_type([143] * 7)
        w = recognize_heptagram_type(g)
        assert w is not None and verify_heptagram_type(g, w).ok
        assert w.size_vector() == ((143,) * 7, (0,) * 7)

    def test_searches_only_the_twin_quotient(self, monkeypatch):
        hosts = []
        slot_search = structures._slot_search

        def spy(host, budget):
            hosts.append(host)
            return slot_search(host, budget)

        monkeypatch.setattr(structures, "_slot_search", spy)
        g, _ = generate_heptagram_type([143] * 7)
        assert recognize_heptagram_type(g).size_vector() == ((143,) * 7, (0,) * 7)
        g, _ = generate_t11_type([3] * 11)
        assert recognize_heptagram_type(g) is None
        assert [h.n for h in hosts] == [7, 11]
        assert all(len(set(h.rows)) == h.n for h in hosts)

    def test_antihole_free_graphs_build_no_quotient(self, monkeypatch):
        def refuse(g):
            raise AssertionError("twin quotient built before the antihole check")

        monkeypatch.setattr(structures, "_twin_quotient", refuse)
        checked = 0
        for g in nonisomorphic_graphs(7):
            if not has_c7_complement(g):
                assert recognize_heptagram_type(g) is None
                checked += 1
        assert checked == 1043  # every graph on 7 vertices but the antihole

    def test_lifted_witness_is_checked_on_the_input(self, monkeypatch):
        # a lift that keeps only the least vertex of each class covers too
        # little of g, so the check on g must refuse it
        twin_quotient = structures._twin_quotient

        def least_only(g):
            classes, quotient = twin_quotient(g)
            return [c & -c for c in classes], quotient

        monkeypatch.setattr(structures, "_twin_quotient", least_only)
        g, _ = generate_heptagram_type([2, 1, 1, 1, 1, 1, 1])
        with pytest.raises(RuntimeError):
            recognize_heptagram_type(g)


def twin_classes(g: Graph) -> list[set[int]]:
    """The false-twin classes of g, read off its edge list."""
    nbrs = [set() for _ in range(g.n)]
    for u, v in g.edges():
        nbrs[u].add(v)
        nbrs[v].add(u)
    classes: dict[frozenset[int], set[int]] = {}
    for v in range(g.n):
        classes.setdefault(frozenset(nbrs[v]), set()).add(v)
    return list(classes.values())


def seeded_members(seed: int, count: int):
    """Relabeled heptagram-type instances of both profiles, ring parts of
    one to three vertices and outer groups of up to two."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        ring = [rng.randint(1, 3) for _ in range(7)]
        outer = [rng.randint(0, 2) for _ in range(7)]
        for i in range(7):  # keep an empty group in every window of three
            if outer[i] and outer[(i + 1) % 7]:
                outer[(i + 2) % 7] = 0
        profile = ("all_complete", "custom")[len(out) % 2]
        try:
            g, _ = generate_heptagram_type(ring, outer, profile=profile, rng=rng)
        except GenerationError:
            continue
        perm = list(range(g.n))
        rng.shuffle(perm)
        out.append(g.relabel(perm))
    return out


class TestTwinLemma:
    """False twins share a slot of every heptagram-type witness, so adding
    or removing one keeps the recognizer's answer."""

    def test_twin_classes_share_a_part(self):
        for g in seeded_members(2026, 30):
            w = recognize_heptagram_type(g)
            assert w is not None and verify_heptagram_type(g, w).ok
            for cls in twin_classes(g):
                assert any(cls <= p for p in w.ring + w.outer), cls

    def test_added_twin_joins_its_original(self):
        rng = random.Random(7)
        for g in seeded_members(7, 20):
            v = rng.randrange(g.n)
            h = g.with_vertex(g.rows[v])
            w = recognize_heptagram_type(h)
            assert w is not None and verify_heptagram_type(h, w).ok
            assert any({v, g.n} <= p for p in w.ring + w.outer)

    def test_added_twin_keeps_t11_blowups_out(self):
        rng = random.Random(11)
        for _ in range(10):
            g, _ = generate_t11_type([rng.randint(1, 3) for _ in range(11)])
            h = g.with_vertex(g.rows[rng.randrange(g.n)])
            assert has_c7_complement(h)
            assert recognize_heptagram_type(h) is None

    def test_removed_twin_keeps_a_witness(self):
        rng = random.Random(13)
        removed = 0
        for g in seeded_members(13, 20):
            big = [c for c in twin_classes(g) if len(c) >= 2]
            if not big:
                continue
            v = rng.choice(sorted(rng.choice(big)))
            h, _ = induced_subgraph(g, (u for u in range(g.n) if u != v))
            w = recognize_heptagram_type(h)
            assert w is not None and verify_heptagram_type(h, w).ok
            removed += 1
        assert removed >= 10


class TestPairTables:
    def test_t11_demands(self):
        # parts complete exactly where the (3,4,5)-circulant core has an edge
        core = Graph.circulant(11, (3, 4, 5))
        for s in range(11):
            for t in range(11):
                if core.adjacent(s, t):
                    want = ("complete", "complete")
                else:
                    want = ("anticomplete", "stable" if s == t else "anticomplete")
                assert structures._t11_rule(s, t) == want, (s, t)

    def test_slot_demands(self):
        # rules "1"-"3", "6" and "8" as literal pair lists and attachments,
        # independent of the table's ring arithmetic
        complete_2 = {(1, 3), (2, 4), (3, 5), (4, 6), (5, 0), (6, 1)}
        complete_3 = {(2, 3), (3, 4), (5, 6), (6, 0)}
        linked_2 = {(0, 2)}
        linked_3 = {(0, 1), (1, 2), (4, 5)}
        for s in range(7):
            for t in range(7):
                pair = {(s, t), (t, s)}
                if s == t:
                    want = ("anticomplete", "stable")
                elif pair & complete_2:
                    want = ("complete", "2")
                elif pair & complete_3:
                    want = ("complete", "3")
                elif pair & linked_2:
                    want = ("linked", "2")
                elif pair & linked_3:
                    want = ("linked", "3")
                else:
                    want = ("anticomplete", "1")
                assert structures._slot_rule(s, t) == want, (s, t)
        assert structures._LINKED == ((0, 1), (0, 2), (1, 2), (4, 5))
        for i in range(7):
            attached = {i, (i + 3) % 7, (i + 4) % 7}
            for j in range(7):
                want = ("seen" if j in attached else "anticomplete", "6")
                assert structures._slot_rule(j, 7 + i) == want, (j, i)
                assert structures._slot_rule(7 + i, j) == want, (i, j)
            for k in range(7):
                want = (
                    ("anticomplete", "stable") if k == i
                    else ("complete" if k in ((i + 1) % 7, (i - 1) % 7) else "anticomplete", "8")
                )
                assert structures._slot_rule(7 + i, 7 + k) == want, (i, k)

    def test_witness_maps_are_the_table_symmetries(self):
        # canonical() may only use the ring maps that keep every part pair's
        # demand; for the 14 slots, a map moves ring parts and outer groups alike
        def symmetries(rule, m, slots):
            def keeps(sigma):
                def image(s):
                    return sigma[s % m] + s - s % m

                return all(
                    rule(s, t)[0] == rule(image(s), image(t))[0]
                    for s in range(slots)
                    for t in range(slots)
                )

            return tuple(sigma for sigma in structures._dihedral_maps(m) if keeps(sigma))

        assert symmetries(structures._t11_rule, 11, 11) == T11Witness._MAPS
        assert len(T11Witness._MAPS) == 22
        assert symmetries(structures._slot_rule, 7, 14) == HeptagramTypeWitness._MAPS
        assert HeptagramTypeWitness._MAPS == ((0, 1, 2, 3, 4, 5, 6), (2, 1, 0, 6, 5, 4, 3))


class TestGenerators:
    def test_bench_structured_instances_reproduced(self, monkeypatch):
        # bench/structured.tsv was drawn once by bench/make_pool.py from the
        # seeded generators of both kinds and profiles; drawing it again must
        # give the same graphs and witness sizes, row for row
        bench = Path(__file__).parent.parent / "bench"
        monkeypatch.setattr(sys, "path", list(sys.path))  # make_pool adds bench/
        spec = importlib.util.spec_from_file_location("make_pool", bench / "make_pool.py")
        make_pool = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(make_pool)
        rows = (bench / "structured.tsv").read_text().splitlines()
        assert rows[0].startswith("#")
        assert make_pool.structured_instances() == [tuple(r.split("\t")) for r in rows[1:]]

    def test_t11_sizes_validated(self):
        with pytest.raises(GenerationError):
            generate_t11_type([0] + [1] * 10)
        with pytest.raises(GenerationError):
            generate_t11_type([1] * 10)

    def test_t11_random_vectors_stay_in_class(self):
        rng = random.Random(777)
        for _ in range(50):
            sizes = [rng.randint(1, 3) for _ in range(11)]
            g, w = generate_t11_type(sizes)
            assert verify_t11_type(g, w).ok
            assert find_odd_hole(g) is None
            assert find_full_house(g) is None

    def test_heptagram_minimal_is_antihole(self):
        g, _ = generate_heptagram_type([1] * 7)
        assert g == c7_complement()

    def test_heptagram_eight_vertex(self):
        g, w = generate_heptagram_type([1] * 7, [1, 0, 0, 0, 0, 0, 0])
        assert g.n == 8
        assert verify_heptagram_type(g, w).ok
        assert find_odd_hole(g) is None and find_full_house(g) is None

    def test_unknown_profile(self):
        with pytest.raises(ValueError):
            generate_heptagram_type([1] * 7, profile="sparse")


class TestConsequences:
    def test_generated_instances_clean(self):
        rng = random.Random(2718)
        for _ in range(20):
            sizes = [rng.randint(1, 3) for _ in range(7)]
            g, w = generate_heptagram_type(sizes)
            assert heptagram_consequences(g, HeptagramWitness(w.ring)) == []

    def test_custom_instances_clean(self):
        rng = random.Random(6)
        for _ in range(10):
            g, w = generate_heptagram_type(
                [2, 1, 1, 2, 1, 1, 1], profile="custom", rng=rng
            )
            assert heptagram_consequences(g, HeptagramWitness(w.ring)) == []


def dihedral_images(sizes):
    m = len(sizes)
    return {tuple(sizes[(a + j) % m] for j in range(m)) for a in range(m)} | {
        tuple(sizes[(a - j) % m] for j in range(m)) for a in range(m)
    }


def parts(*sets):
    return tuple(frozenset(p) for p in sets)


class TestWitnessSerialization:
    def test_t11_json(self):
        _, w = generate_t11_type([2] + [1] * 10)
        d = w.to_json_dict()
        assert d["kind"] == "t11_type"
        assert sorted(map(tuple, d["parts"])) == sorted(
            tuple(sorted(p)) for p in w.parts
        )

    def test_heptagram_type_json(self):
        _, w = generate_heptagram_type([1] * 7, [1, 0, 0, 0, 0, 0, 0])
        d = w.to_json_dict()
        assert d["kind"] == "heptagram_type"
        assert len(d["parts"]) == 14

    def test_canonical_is_idempotent_and_minimal(self):
        _, w = generate_t11_type([3, 1, 2, 1, 1, 2, 1, 1, 1, 1, 1])
        c = w.canonical()
        assert c.canonical() == c
        assert c.size_vector() == min(dihedral_images(w.size_vector()))

    @pytest.mark.parametrize(
        "make",
        [
            lambda: T11Witness(parts(*[{i} for i in range(10)])),
            lambda: T11Witness(parts(*[{i} for i in range(12)])),
            lambda: HeptagramWitness(parts(*[{i} for i in range(6)])),
            lambda: HeptagramWitness(parts(*[{i} for i in range(11)])),
            lambda: HeptagramTypeWitness(parts(*[{i} for i in range(7)]), parts(*[()] * 6)),
            lambda: HeptagramTypeWitness(parts(*[{i} for i in range(8)]), parts(*[()] * 7)),
        ],
    )
    def test_wrong_part_count_rejected(self, make):
        with pytest.raises(ValueError):
            make()

    def test_pinned_t11(self):
        w = T11Witness(parts({4}, {0, 11}, {5}, {2}, {6, 12, 13}, {1}, {7}, {3}, {8}, {9}, {10}))
        assert w.size_vector() == (1, 2, 1, 1, 3, 1, 1, 1, 1, 1, 1)
        assert w.to_json_dict() == {
            "kind": "t11_type",
            "parts": [[4], [0, 11], [5], [2], [6, 12, 13], [1], [7], [3], [8], [9], [10]],
        }
        c = w.canonical()
        assert c == T11Witness(
            parts({1}, {7}, {3}, {8}, {9}, {10}, {4}, {0, 11}, {5}, {2}, {6, 12, 13})
        )
        assert c.size_vector() == (1, 1, 1, 1, 1, 1, 1, 2, 1, 1, 3)

    def test_pinned_heptagram(self):
        w = HeptagramWitness(parts({3}, {0, 7}, {4}, {1}, {5, 8}, {2}, {6}))
        assert w.to_json_dict() == {
            "kind": "heptagram",
            "parts": [[3], [0, 7], [4], [1], [5, 8], [2], [6]],
        }
        c = w.canonical()
        assert c == HeptagramWitness(parts({2}, {6}, {3}, {0, 7}, {4}, {1}, {5, 8}))
        assert c.size_vector() == (1, 1, 1, 2, 1, 1, 2)

    def test_pinned_heptagram_type(self):
        w = HeptagramTypeWitness(
            parts({1}, {0, 9}, {2}, {3}, {4, 8}, {5}, {6}),
            parts({7}, (), (), (), (), (), ()),
        )
        assert w.size_vector() == ((1, 2, 1, 1, 2, 1, 1), (1, 0, 0, 0, 0, 0, 0))
        assert w.to_json_dict() == {
            "kind": "heptagram_type",
            "parts": [[1], [0, 9], [2], [3], [4, 8], [5], [6], [7], [], [], [], [], [], []],
        }
        # only the reflection j -> 2 - j is allowed, and here it is smaller
        c = w.canonical()
        assert c == HeptagramTypeWitness(
            parts({2}, {0, 9}, {1}, {6}, {5}, {4, 8}, {3}),
            parts((), (), {7}, (), (), (), ()),
        )
        assert c.size_vector() == ((1, 2, 1, 1, 1, 2, 1), (0, 0, 1, 0, 0, 0, 0))
