import random
from pathlib import Path

import pytest

from heptalab.coloring import Coloring, chromatic_number_exact, greedy_coloring, is_proper
from heptalab.corpus import all_graphs_up_to
from heptalab.detect import Budget, SearchBudgetExceeded, c7_complement, clique_number
from heptalab.graph import Graph, from_graph6, is_clique
from heptalab.structures import (
    _HEPTA_COLORS,
    _T11_COLORS,
    HeptagramTypeWitness,
    four_color_heptagram_type,
    four_color_t11,
    generate_heptagram_type,
    generate_t11_type,
)

from .naive import greedy_coloring_by_scan, naive_chromatic
from .planted import from_edge_mask


class TestExactChromatic:
    def test_c7_complement(self):
        res = chromatic_number_exact(c7_complement())
        assert res.chi == 4
        assert is_proper(c7_complement(), res.coloring)
        assert len(set(res.coloring.colors.values())) == 4

    def test_t11_circulant(self):
        g = Graph.circulant(11, (3, 4, 5))
        res = chromatic_number_exact(g)
        assert res.chi == 4 and is_proper(g, res.coloring)

    def test_complete_graphs(self):
        for n in range(1, 7):
            assert chromatic_number_exact(Graph.complete(n)).chi == n

    def test_agrees_with_ascending_oracle(self):
        rng = random.Random(404)
        for _ in range(300):
            n = rng.randint(0, 8)
            g = from_edge_mask(n, rng.getrandbits(n * (n - 1) // 2))
            res = chromatic_number_exact(g)
            assert res.chi == naive_chromatic(g)
            if n:
                assert is_proper(g, res.coloring)
                assert len(set(res.coloring.colors.values())) == res.chi
            # the clique that seeds the search bounds chi from below
            omega, seed = clique_number(g)
            assert is_clique(g, seed) and len(seed) == omega <= res.chi
            assert chromatic_number_exact(g, clique=seed).chi == res.chi

    def test_no_size_cap(self):
        res = chromatic_number_exact(Graph.empty(41))
        assert (res.chi, res.nodes_explored) == (1, 0)

    def test_budget(self):
        # every node of the chi search charges n steps; an exhausted budget
        # raises, and one that suffices gives the unbudgeted answer
        g = c7_complement()
        done = Budget()
        res = chromatic_number_exact(g, done)
        assert res.chi == 4 and done.spent == res.nodes_explored * g.n
        with pytest.raises(SearchBudgetExceeded):
            chromatic_number_exact(g, Budget(done.spent - 1))
        again = chromatic_number_exact(g, Budget(done.spent))
        assert (again.chi, again.nodes_explored) == (res.chi, res.nodes_explored)

    def test_deeper_than_the_recursion_limit(self):
        # an odd cycle longer than Python's recursion limit: the clique is
        # one edge and every other vertex is a level of the search
        g = Graph.cycle(1201)
        res = chromatic_number_exact(g)
        assert res.chi == 3 and is_proper(g, res.coloring)

    def test_pinned_search_and_greedy(self):
        # 200 seeded G(n, 1/2), n = 8-14 (random.Random(808)), with chi, the
        # search node count and the greedy coloring (one color digit per
        # vertex); the node count is a deterministic work counter, and it
        # and the greedy coloring move whenever either pick order does
        pins = Path(__file__).parent / "data" / "coloring_pins.tsv"
        searched = 0
        for line in pins.read_text().splitlines():
            g6, chi, nodes, greedy = line.split("\t")
            g = from_graph6(g6)
            res = chromatic_number_exact(g)
            assert (res.chi, res.nodes_explored) == (int(chi), int(nodes)), g6
            colors = greedy_coloring(g).colors
            assert "".join(str(colors[v]) for v in range(g.n)) == greedy, g6
            searched += res.nodes_explored > 0
        assert searched == 26

    def test_pinned_search_colorings(self):
        # 30 seeded G(n, p) graphs whose search branches, n = 12-45 and p in
        # (0.3, 0.5, 0.7) (random.Random(909)), with chi, the node count and
        # the coloring the search returns (comma-separated, by vertex)
        pins = Path(__file__).parent / "data" / "search_pins.tsv"
        for line in pins.read_text().splitlines():
            g6, chi, nodes, colors = line.split("\t")
            g = from_graph6(g6)
            res = chromatic_number_exact(g)
            assert (res.chi, res.nodes_explored) == (int(chi), int(nodes)), g6
            assert res.nodes_explored > 0 and is_proper(g, res.coloring), g6
            assert ",".join(str(res.coloring.colors[v]) for v in range(g.n)) == colors, g6


class TestFourColorT11:
    def test_class_table(self):
        # the runs {0,1,2}, {3,4,5}, {6,7,8}, {9,10} of the 11-ring
        assert _T11_COLORS == (0, 0, 0, 1, 1, 1, 2, 2, 2, 3, 3)

    def test_canonical_circulant(self):
        g, w = generate_t11_type([1] * 11)
        c = four_color_t11(g, w)
        assert is_proper(g, c) and c.k == 4

    def test_random_blowups(self):
        rng = random.Random(55)
        for _ in range(50):
            sizes = [rng.randint(1, 3) for _ in range(11)]
            g, w = generate_t11_type(sizes)
            c = four_color_t11(g, w)
            assert is_proper(g, c) and c.k <= 4

    def test_single_part_inflated(self):
        g, w = generate_t11_type([5] + [1] * 10)
        c = four_color_t11(g, w)
        assert is_proper(g, c) and c.k == 4

    def test_unverified_witness_rejected(self):
        g, w = generate_t11_type([1] * 11)
        maimed = Graph.from_edges(11, g.edges()[1:])
        with pytest.raises(ValueError):
            four_color_t11(maimed, w)


class TestFourColorHeptagramType:
    def test_class_tables(self):
        # the ring parts' classes, then the outer groups'; pairs of ring
        # parts three apart share a class
        ring, outer = _HEPTA_COLORS[:7], _HEPTA_COLORS[7:]
        assert ring == (0, 1, 2, 0, 1, 2, 3)
        assert outer == (2, 0, 1, 2, 3, 0, 1)
        # each outer group's class avoids every class it can see: ring parts
        # i, i+3, i+4 and the next outer group (the previous one by symmetry)
        for i in range(7):
            assert outer[i] not in {ring[i], ring[(i + 3) % 7], ring[(i + 4) % 7]}
            assert outer[i] != outer[(i + 1) % 7]

    def test_all_outer_empty(self):
        g, w = generate_heptagram_type([2, 1, 1, 2, 1, 1, 1])
        c = four_color_heptagram_type(g, w)
        assert is_proper(g, c) and c.k <= 4

    def test_c7_complement_needs_all_four(self):
        g = c7_complement()
        w = HeptagramTypeWitness(
            tuple(frozenset({i}) for i in range(7)),
            tuple(frozenset() for _ in range(7)),
        )
        c = four_color_heptagram_type(g, w)
        assert is_proper(g, c)
        assert len(set(c.colors.values())) == 4
        assert chromatic_number_exact(g).chi == 4

    def test_single_outer_vertex(self):
        g, w = generate_heptagram_type([1] * 7, [1, 0, 0, 0, 0, 0, 0])
        c = four_color_heptagram_type(g, w)
        assert is_proper(g, c) and c.k <= 4

    def test_outer_spread(self):
        rng = random.Random(900)
        for _ in range(30):
            sizes = [rng.randint(1, 3) for _ in range(7)]
            while True:
                outer = [rng.randint(0, 2) for _ in range(7)]
                if not any(
                    outer[i] and outer[(i + 1) % 7] and outer[(i + 2) % 7]
                    for i in range(7)
                ):
                    break
            g, w = generate_heptagram_type(sizes, outer)
            c = four_color_heptagram_type(g, w)
            assert is_proper(g, c) and c.k <= 4

    def test_unverified_witness_rejected(self):
        g, w = generate_heptagram_type([1] * 7)
        maimed = Graph.from_edges(g.n, g.edges()[1:])
        with pytest.raises(ValueError):
            four_color_heptagram_type(maimed, w)


class TestIsProper:
    def test_constant_on_k2(self):
        assert not is_proper(Graph.complete(2), Coloring({0: 0, 1: 0}, 1))

    def test_two_coloring_c4(self):
        assert is_proper(Graph.cycle(4), Coloring({0: 0, 1: 1, 2: 0, 3: 1}, 2))

    def test_uncolored_vertex_raises(self):
        with pytest.raises(ValueError):
            is_proper(Graph.cycle(4), Coloring({0: 0, 1: 1, 2: 0}, 2))

    def test_out_of_range_color(self):
        assert not is_proper(Graph.empty(1), Coloring({0: 5}, 2))

    def test_color_must_be_a_plain_int(self):
        g = Graph.path(2)
        assert is_proper(g, Coloring({0: 0, 1: 1}, 2))
        assert not is_proper(g, Coloring({0: 0.5, 1: 1}, 2))
        assert not is_proper(g, Coloring({0: True, 1: 0}, 2))
        assert not is_proper(g, Coloring({0: 1.0, 1: 0}, 2))

    def test_key_that_is_no_vertex(self):
        g = Graph.path(2)
        assert not is_proper(g, Coloring({0: 0, 1: 1, 9: 0}, 2))
        assert not is_proper(g, Coloring({0: 0, 1: 1, -1: 0}, 2))
        # False equals vertex 0 as a key but is no vertex
        assert not is_proper(g, Coloring({False: 0, 1: 1}, 2))
        with pytest.raises(ValueError):
            is_proper(g, Coloring({0: 0, 9: 1}, 2))

    def test_greedy_always_proper(self):
        rng = random.Random(3)
        for _ in range(100):
            n = rng.randint(1, 12)
            g = from_edge_mask(n, rng.getrandbits(n * (n - 1) // 2))
            assert is_proper(g, greedy_coloring(g))

    def test_greedy_matches_scan_oracle(self):
        # the same colors, set in the same order, as a full scan per step on
        # every graph with at most 7 vertices and on seeded G(n, p) up to 40
        rng = random.Random(11)
        graphs = list(all_graphs_up_to(7))
        for _ in range(300):
            n, p = rng.randint(0, 40), rng.random()
            graphs.append(Graph.from_edges(
                n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
            ))
        for g in graphs:
            colors = greedy_coloring(g).colors
            oracle = greedy_coloring_by_scan(g)
            assert colors == oracle and list(colors) == list(oracle), g
