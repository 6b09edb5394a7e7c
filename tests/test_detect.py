import random
from itertools import combinations

import networkx as nx
import pytest

from heptalab.corpus import all_graphs_up_to
from heptalab.detect import (
    Budget,
    PatternHit,
    SearchBudgetExceeded,
    c7_complement,
    clique_number,
    find_full_house,
    find_odd_hole,
    has_c7_complement,
    verify_hit,
)
from heptalab.graph import Graph, induced_subgraph, is_clique, to_graph6
from heptalab.structures import generate_heptagram_type, generate_t11_type

from .naive import (
    clique_number_subsets,
    from_networkx,
    full_house_graph,
    full_houses_by_degree,
    has_antihole7_by_isomorphism,
    is_bipartite,
    is_perfect_by_subgraphs,
    naive_chromatic,
    odd_holes_by_isomorphism,
    to_networkx,
)
from .planted import from_edge_mask

PETERSEN = Graph.from_edges(
    10,
    [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0),
     (5, 7), (7, 9), (9, 6), (6, 8), (8, 5),
     (0, 5), (1, 6), (2, 7), (3, 8), (4, 9)],
)

T11 = Graph.circulant(11, (3, 4, 5))


def gnp(rng: random.Random, n: int, p: float) -> Graph:
    return Graph.from_edges(n, [(u, v) for u, v in combinations(range(n), 2) if rng.random() < p])


def complete_multipartite(parts: int, size: int) -> Graph:
    """K_{parts x size}, vertex v in part v % parts."""
    n = parts * size
    return Graph.from_edges(n, [(u, v) for u, v in combinations(range(n), 2) if (v - u) % parts])


def antihole_core(g: Graph) -> set[int]:
    """What is left of g once vertices with fewer than 4 neighbors or fewer
    than 2 non-neighbors among those left are dropped, one at a time."""
    left = set(range(g.n))
    while True:
        degree = {v: sum(g.adjacent(v, w) for w in left) for v in left}
        drop = [v for v in sorted(left) if not 4 <= degree[v] <= len(left) - 3]
        if not drop:
            return left
        left.remove(drop[0])


class TestOddHole:
    def test_five_cycle(self):
        hit = find_odd_hole(Graph.cycle(5))
        assert hit is not None and len(hit.vertices) == 5
        assert verify_hit(Graph.cycle(5), hit)

    def test_six_cycle(self):
        assert find_odd_hole(Graph.cycle(6)) is None

    def test_c7_complement_none_with_subset_oracle(self):
        g = c7_complement()
        assert find_odd_hole(g) is None
        assert odd_holes_by_isomorphism(g) == []

    def test_petersen_has_five_hole(self):
        hit = find_odd_hole(PETERSEN)
        assert hit is not None and len(hit.vertices) == 5
        assert verify_hit(PETERSEN, hit)

    def test_shortest_is_returned(self):
        # C7 plus a disjoint C5: the reported hole must have length 5
        edges = [(i, (i + 1) % 7) for i in range(7)]
        edges += [(7 + i, 7 + (i + 1) % 5) for i in range(5)]
        g = Graph.from_edges(12, edges)
        hit = find_odd_hole(g)
        assert len(hit.vertices) == 5

    def test_matches_naive_on_small_random(self):
        rng = random.Random(2024)
        for _ in range(500):
            n = rng.randint(5, 8)
            g = from_edge_mask(n, rng.getrandbits(n * (n - 1) // 2))
            fast, slow = find_odd_hole(g), odd_holes_by_isomorphism(g)
            assert (fast is None) == (not slow)
            if fast is not None:
                assert len(fast.vertices) == min(len(hole) for hole in slow)
                assert verify_hit(g, fast)

    def test_budget_exhaustion(self):
        g = Graph.circulant(16, (1, 3))
        with pytest.raises(SearchBudgetExceeded):
            find_odd_hole(g, Budget(3))
        assert find_odd_hole(g, Budget(10_000)) == find_odd_hole(g)

    def test_long_holes_verified(self):
        for n in (13, 15):
            hit = find_odd_hole(Graph.cycle(n))
            assert len(hit.vertices) == n and verify_hit(Graph.cycle(n), hit)

    def test_fifteen_hole_inside_larger_graph(self):
        # C15 on scattered labels of a 20-vertex graph, plus five vertices
        # each closing a triangle on one hole edge: the C15 is the only hole
        rng = random.Random(15)
        labels = rng.sample(range(20), 20)
        hole, extra = labels[:15], labels[15:]
        edges = [(hole[i], hole[(i + 1) % 15]) for i in range(15)]
        edges += [(x, hole[3 * i + j]) for i, x in enumerate(extra) for j in (0, 1)]
        g = Graph.from_edges(20, [(min(e), max(e)) for e in edges])
        hit = find_odd_hole(g)
        assert hit is not None and len(hit.vertices) == 15
        assert sorted(hit.vertices) == sorted(hole)
        assert verify_hit(g, hit)

    def test_chorded_even_and_split_cycles_rejected(self):
        chorded = Graph.from_edges(13, Graph.cycle(13).edges() + [(0, 6)])
        assert not verify_hit(chorded, PatternHit("odd_hole", tuple(range(13))))
        assert not verify_hit(Graph.cycle(14), PatternHit("odd_hole", tuple(range(14))))
        # a C5 beside a C4: nine vertices, 2-regular, but not one cycle
        split = Graph.from_edges(9, Graph.cycle(5).edges() + [(5, 6), (6, 7), (7, 8), (5, 8)])
        assert not verify_hit(split, PatternHit("odd_hole", tuple(range(9))))
        # a true hole but for a vertex outside the graph
        assert not verify_hit(Graph.cycle(5), PatternHit("odd_hole", (0, 1, 2, 3, 5)))


class TestFullHouse:
    def test_pattern_itself(self):
        g = full_house_graph()
        hit = find_full_house(g)
        assert hit is not None and verify_hit(g, hit)
        assert full_houses_by_degree(g) == [(0, 1, 2, 3, 4)]

    def test_k4_and_k5(self):
        assert find_full_house(Graph.complete(4)) is None
        assert find_full_house(Graph.complete(5)) is None

    def test_agrees_with_degree_oracle(self):
        rng = random.Random(31)
        for _ in range(400):
            n = rng.randint(5, 8)
            g = from_edge_mask(n, rng.getrandbits(n * (n - 1) // 2))
            fast = find_full_house(g)
            slow = full_houses_by_degree(g)
            assert (fast is None) == (len(slow) == 0)
            if fast is not None:
                assert verify_hit(g, fast)

    def test_agrees_with_degree_oracle_on_every_graph_up_to_seven(self):
        houses = 0
        for g in all_graphs_up_to(7):
            fast = find_full_house(g)
            assert (fast is None) == (not full_houses_by_degree(g)), to_graph6(g)
            if fast is not None:
                assert verify_hit(g, fast), to_graph6(g)
                houses += 1
        assert houses == 288

    def test_agrees_with_degree_oracle_on_dense_random(self):
        rng = random.Random(26)
        houses = 0
        for _ in range(150):
            g = gnp(rng, rng.randint(8, 12), rng.choice((0.5, 0.7)))
            fast = find_full_house(g)
            assert (fast is None) == (not full_houses_by_degree(g)), to_graph6(g)
            if fast is not None:
                assert verify_hit(g, fast), to_graph6(g)
                houses += 1
        assert 0 < houses < 150


class TestCompleteMultipartiteMembers:
    """K_{12x5} and K_40 are class members, perfect, with many K4s: neither
    holds a full house or an antihole."""

    @pytest.mark.parametrize("g", [complete_multipartite(12, 5), Graph.complete(40)])
    def test_no_full_house_and_no_antihole(self, g):
        assert find_full_house(g) is None
        assert not has_c7_complement(g)


class TestInducedPattern:
    def test_identity_c7_complement(self):
        g = c7_complement()
        assert has_c7_complement(g)
        assert verify_hit(g, PatternHit("c7_complement", tuple(range(7))))

    def test_t11_contains_c7_complement(self):
        assert has_c7_complement(T11)
        # brute confirmation over all 7-subsets, each one checked without a search
        hits = [
            combo
            for combo in combinations(range(11), 7)
            if verify_hit(T11, PatternHit("c7_complement", combo))
        ]
        assert hits
        for combo in hits:
            sub, _ = induced_subgraph(T11, combo)
            assert nx.is_isomorphic(to_networkx(sub), to_networkx(c7_complement()))

    def test_has_c7_complement_flags(self):
        assert has_c7_complement(c7_complement())
        assert has_c7_complement(T11)
        assert not has_c7_complement(Graph.cycle(7))
        # complements of other cycles: induced cycles of the wrong length
        for n in (5, 6, 8, 9, 11):
            assert not has_c7_complement(Graph.cycle(n).complement())

    def test_c7_complement_against_matcher_on_atlas(self):
        sevens = [from_networkx(h) for h in nx.graph_atlas_g() if h.number_of_nodes() == 7]
        assert len(sevens) == 1044
        found = 0
        for g in sevens:
            answer = has_c7_complement(g)
            assert answer == has_antihole7_by_isomorphism(g), to_graph6(g)
            found += answer
        assert found == 1

    def test_c7_complement_against_matcher_on_random(self):
        rng = random.Random(7)
        found = 0
        for _ in range(300):
            n = rng.randint(8, 11)
            g = from_edge_mask(n, rng.getrandbits(n * (n - 1) // 2))
            answer = has_c7_complement(g)
            assert answer == has_antihole7_by_isomorphism(g), to_graph6(g)
            found += answer
        assert found > 0

    def test_c7_complement_in_relabeled_ring_families(self):
        rng = random.Random(77)
        graphs = [generate_t11_type([rng.randint(1, 2) for _ in range(11)])[0] for _ in range(6)]
        for ysizes in ([0] * 7, [1, 0, 0, 0, 0, 0, 0], [0, 1, 0, 0, 1, 0, 0], [0, 0, 1, 1, 0, 0, 0]):
            graphs.append(generate_heptagram_type([rng.randint(1, 2) for _ in range(7)], ysizes)[0])
        for g in graphs:
            perm = list(range(g.n))
            rng.shuffle(perm)
            h = g.relabel(perm)
            assert has_c7_complement(h) and has_antihole7_by_isomorphism(h), to_graph6(h)

    def test_c7_complement_against_matcher_where_the_peel_keeps_seven(self):
        rng = random.Random(2607)
        kept = absent = 0
        for _ in range(200):
            g = gnp(rng, rng.randint(9, 12), rng.choice((0.6, 0.7, 0.8)))
            if len(antihole_core(g)) < 7:
                continue
            answer = has_c7_complement(g)
            assert answer == has_antihole7_by_isomorphism(g), to_graph6(g)
            kept += 1
            absent += not answer
        assert kept >= 50 and 0 < absent < kept

    def test_relabeled_antiholes_with_pendants_and_twins(self):
        # false twins survive the peel beside their originals, pendant
        # vertices do not; with one antihole edge removed, the matcher decides
        rng = random.Random(2608)
        answers = set()
        for broken in (False, True) * 20:
            g = c7_complement()
            if broken:
                u = rng.randrange(7)
                gone = tuple(sorted((u, (u + 1) % 7)))
                g = Graph.from_edges(7, [e for e in g.edges() if e != gone])
            for _ in range(rng.randint(1, 4)):
                g = g.with_vertex(g.rows[rng.randrange(g.n)])
            for _ in range(rng.randint(1, 3)):
                g = g.with_vertex(1 << rng.randrange(g.n))
            perm = list(range(g.n))
            rng.shuffle(perm)
            h = g.relabel(perm)
            answer = has_c7_complement(h)
            assert answer == has_antihole7_by_isomorphism(h), to_graph6(h)
            assert answer or broken
            answers.add(answer)
        assert answers == {False, True}

    def test_checks_agree_with_isomorphism_on_atlas(self):
        # every graph on 5 vertices is or is not the full house, and every
        # graph on 7 vertices is or is not the 7-antihole
        targets = {
            5: ("full_house", to_networkx(full_house_graph())),
            7: ("c7_complement", to_networkx(c7_complement())),
        }
        seen = {5: 0, 7: 0}
        for h in nx.graph_atlas_g():
            if h.number_of_nodes() not in targets:
                continue
            kind, target = targets[h.number_of_nodes()]
            g = from_networkx(h)
            answer = verify_hit(g, PatternHit(kind, tuple(range(g.n))))
            assert answer == nx.is_isomorphic(h, target), (kind, to_graph6(g))
            seen[g.n] += 1
        assert seen == {5: 34, 7: 1044}

    def test_two_regular_complement_in_two_cycles_rejected(self):
        # the complement of C3 + C4 is 2-regular in the complement, not one cycle
        split = Graph.from_edges(7, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (5, 6), (3, 6)])
        g = split.complement()
        assert not verify_hit(g, PatternHit("c7_complement", tuple(range(7))))
        assert not has_c7_complement(g)


class TestCliqueNumber:
    def test_c7_complement(self):
        omega, witness = clique_number(c7_complement())
        assert omega == 3 and is_clique(c7_complement(), witness)
        assert clique_number_subsets(c7_complement()) == 3

    def test_k5(self):
        assert clique_number(Graph.complete(5))[0] == 5

    def test_t11(self):
        omega, witness = clique_number(T11)
        assert omega == 3 and is_clique(T11, witness)
        assert clique_number_subsets(T11) == 3

    def test_large_clique_runs_without_recursion(self):
        omega, witness = clique_number(Graph.complete(1100))
        assert omega == 1100 and witness == tuple(range(1100))

    def test_random_against_subsets(self):
        rng = random.Random(8)
        for _ in range(200):
            n = rng.randint(0, 8)
            g = from_edge_mask(n, rng.getrandbits(n * (n - 1) // 2))
            omega, witness = clique_number(g)
            assert omega == clique_number_subsets(g)
            assert is_clique(g, witness) and len(witness) == omega


def is_perfect(g: Graph) -> bool:
    """True when every induced subgraph has chi == omega.

    By the strong perfect graph theorem (Chudnovsky, Robertson, Seymour and
    Thomas, Ann. Math. 164, 2006) that holds exactly when neither ``g`` nor
    its complement has an odd hole.
    """
    return find_odd_hole(g) is None and find_odd_hole(g.complement()) is None


class TestPerfection:
    """``find_odd_hole`` on graphs and their complements, read through the
    strong perfect graph theorem, against the subgraph scan of chi and omega."""

    def test_five_cycle_imperfect(self):
        assert not is_perfect(Graph.cycle(5))

    def test_bipartite_perfect(self):
        rng = random.Random(12)
        checked = 0
        while checked < 20:
            n = rng.randint(2, 9)
            g = from_edge_mask(n, rng.getrandbits(n * (n - 1) // 2))
            if not is_bipartite(g):
                continue
            assert is_perfect(g)
            assert naive_chromatic(g) == clique_number(g)[0]
            checked += 1

    def test_c7_complement_imperfect(self):
        g = c7_complement()
        assert not is_perfect(g)
        assert naive_chromatic(g) == 4 and clique_number(g)[0] == 3

    def test_every_graph_up_to_seven_against_subgraph_scan(self):
        perfect_per_order = [0] * 8
        for h in nx.graph_atlas_g():
            g = from_networkx(h)
            answer = is_perfect(g)
            assert answer == is_perfect_by_subgraphs(g), to_graph6(g)
            perfect_per_order[g.n] += answer
        # perfect graphs per order, OEIS A052431 (with the empty graph first)
        assert perfect_per_order == [1, 1, 2, 4, 11, 33, 148, 906]

    def test_random_eight_to_ten_against_subgraph_scan(self):
        rng = random.Random(31)
        perfect = 0
        for _ in range(300):
            n = rng.randint(8, 10)
            g = from_edge_mask(n, rng.getrandbits(n * (n - 1) // 2))
            if rng.random() < 0.5:
                # a random bipartite or co-bipartite graph, to draw perfect ones
                side = rng.getrandbits(n)
                crossing = [(u, v) for u, v in g.edges() if (side >> u ^ side >> v) & 1]
                g = Graph.from_edges(n, crossing)
                if rng.random() < 0.5:
                    g = g.complement()
            answer = is_perfect(g)
            assert answer == is_perfect_by_subgraphs(g), to_graph6(g)
            perfect += answer
        assert 100 < perfect < 300

    def test_thirteen_and_sixteen_vertices(self):
        assert not is_perfect(Graph.cycle(13).complement())
        rng = random.Random(16)
        side = [v % 2 for v in range(16)]
        bipartite = Graph.from_edges(
            16,
            [(u, v) for u in range(16) for v in range(u + 1, 16)
             if side[u] != side[v] and rng.random() < 0.5],
        )
        assert bipartite.edge_count > 0
        assert is_perfect(bipartite)
        assert is_perfect(bipartite.complement())


class TestHitStaleness:
    def test_stale_hit_rejected_after_edge_addition(self):
        g = Graph.cycle(5)
        hit = find_odd_hole(g)
        # adding a chord makes the old witness non-induced
        g2 = Graph.from_edges(5, g.edges() + [(0, 2)])
        assert verify_hit(g, hit)
        assert not verify_hit(g2, hit)

    def test_wrong_vertex_count(self):
        assert not verify_hit(Graph.cycle(5), PatternHit("odd_hole", (0, 1, 2, 3, 3)))

    def test_vertex_outside_the_graph_is_false_for_every_kind(self):
        cases = [
            (Graph.cycle(5), "odd_hole", (0, 1, 2, 3)),
            (full_house_graph(), "full_house", (0, 1, 2, 3)),
            (c7_complement(), "c7_complement", (0, 1, 2, 3, 4, 5)),
        ]
        for g, kind, kept in cases:
            assert verify_hit(g, PatternHit(kind, kept + (g.n - 1,)))
            for stray in (9, g.n, -1, float(g.n - 1)):
                assert not verify_hit(g, PatternHit(kind, kept + (stray,))), (kind, stray)
            # True equals vertex 1 but is no vertex
            as_bool = (0, True) + kept[2:] + (g.n - 1,)
            assert not verify_hit(g, PatternHit(kind, as_bool)), kind
