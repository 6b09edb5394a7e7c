import pickle
import random

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from heptalab.corpus import nonisomorphic_graphs
from heptalab.graph import (
    Graph,
    Graph6Error,
    from_graph6,
    induced_subgraph,
    is_clique,
    multipartite_parts,
    to_graph6,
)
from heptalab.structures import generate_t11_type

from .lemmas import relation
from .naive import is_stable_set, to_networkx
from .planted import from_edge_mask


def random_graph(rng: random.Random, n: int) -> Graph:
    return from_edge_mask(n, rng.getrandbits(n * (n - 1) // 2))


class TestKnownEncodings:
    def test_empty_graph_is_question_mark(self):
        assert to_graph6(Graph.empty(0)) == b"?"

    def test_single_vertex(self):
        assert to_graph6(Graph.empty(1)) == b"@"
        g = from_graph6(b"@")
        assert g.n == 1 and g.edge_count == 0

    def test_triangle_matches_reference_encoder(self):
        enc = to_graph6(Graph.complete(3))
        ref = nx.to_graph6_bytes(nx.complete_graph(3), header=False).strip()
        assert enc == ref == b"Bw"

    def test_star_decoding(self):
        g = from_graph6(b"D?{")
        assert g.n == 5
        assert sorted(g.edges()) == [(0, 4), (1, 4), (2, 4), (3, 4)]

    def test_duw_round_trip(self):
        g = from_graph6(b"DUW")
        assert g.n == 5
        assert to_graph6(g) == b"DUW"
        # it is a 5-cycle under relabeling
        assert nx.is_isomorphic(to_networkx(g), nx.cycle_graph(5))

    def test_cycle_five_natural_labels(self):
        assert to_graph6(Graph.cycle(5)) == b"Dhc"


class TestCodecAgainstReference:
    def test_fifty_random_graphs_both_directions(self):
        rng = random.Random(501)
        for _ in range(50):
            n = rng.randint(0, 20)
            g = random_graph(rng, n)
            enc = to_graph6(g)
            ref = nx.to_graph6_bytes(to_networkx(g), header=False).strip()
            assert enc == ref
            back = nx.from_graph6_bytes(enc)
            assert sorted(back.edges()) == g.edges()

    def test_thousand_round_trips(self):
        rng = random.Random(77)
        for _ in range(1000):
            n = rng.randint(0, 32)
            g = random_graph(rng, n)
            assert from_graph6(to_graph6(g)) == g

    def test_multibyte_size_header(self):
        for n in (63, 64, 70):
            g = Graph.cycle(n)
            enc = to_graph6(g)
            assert from_graph6(enc) == g
            assert enc == nx.to_graph6_bytes(nx.cycle_graph(n), header=False).strip()

    @settings(max_examples=120, deadline=None)
    @given(st.integers(0, 12), st.integers(0, 2**66 - 1))
    def test_round_trip_property(self, n, bits):
        g = from_edge_mask(n, bits & ((1 << (n * (n - 1) // 2)) - 1))
        assert from_graph6(to_graph6(g)) == g


class TestCodecTolerance:
    def test_optional_header(self):
        assert from_graph6(b">>graph6<<Bw") == Graph.complete(3)

    def test_trailing_newline(self):
        assert from_graph6(b"Bw\n") == Graph.complete(3)
        assert from_graph6("Bw\r\n") == Graph.complete(3)

    def test_string_input(self):
        assert from_graph6("Dhc") == Graph.cycle(5)


class TestCodecErrors:
    def test_empty_payload(self):
        with pytest.raises(Graph6Error):
            from_graph6(b"")

    def test_nonprintable_payload_byte_offset(self):
        with pytest.raises(Graph6Error) as exc:
            from_graph6(b"D\x05{")
        assert exc.value.offset == 1

    def test_payload_too_short(self):
        with pytest.raises(Graph6Error):
            from_graph6(b"D?")

    def test_payload_too_long(self):
        with pytest.raises(Graph6Error):
            from_graph6(b"Bww")

    def test_nonzero_padding_rejected(self):
        # "B~" carries K3 plus set padding bits; strict decoding refuses it
        with pytest.raises(Graph6Error):
            from_graph6(b"B~")

    def test_truncated_size_header(self):
        with pytest.raises(Graph6Error):
            from_graph6(b"~")

    def test_non_ascii(self):
        with pytest.raises(Graph6Error):
            from_graph6("Bwé")


class TestConnectivity:
    def test_matches_networkx_on_random_masks(self):
        rng = random.Random(41)
        for _ in range(400):
            n = rng.randint(1, 12)
            g = random_graph(rng, n)
            h = to_networkx(g)
            assert g.is_connected() == nx.is_connected(h)
            mask = rng.randrange(1, 1 << n)
            sub = h.subgraph([v for v in range(n) if mask >> v & 1])
            assert (g.component_of(mask & -mask, mask) == mask) == nx.is_connected(sub)
            expected = sorted(
                (sum(1 << v for v in comp) for comp in nx.connected_components(sub)),
                key=lambda comp: comp & -comp,
            )
            assert g.component_masks(mask) == expected


class TestHasVertex:
    def test_only_plain_ints_in_range(self):
        g = Graph.cycle(5)
        assert [v for v in range(-2, 8) if g.has_vertex(v)] == [0, 1, 2, 3, 4]
        for stray in (True, False, 1.0, "1", None):
            assert not g.has_vertex(stray), stray
        assert not Graph.empty(0).has_vertex(0)


class TestFromEdges:
    @pytest.mark.parametrize("edge", [(True, 2), (1.0, 2), (2, 1.0), (0, 3), (-1, 2)])
    def test_non_vertex_endpoint_rejected(self, edge):
        # True would build the edge 1-2, and 1.0 fails no range check
        with pytest.raises(ValueError, match="outside vertex range"):
            Graph.from_edges(3, [edge])

    def test_loop_rejected(self):
        with pytest.raises(ValueError, match="loop"):
            Graph.from_edges(3, [(1, 1)])


class TestVertexMasks:
    def test_masks_in_order(self):
        g = Graph.cycle(5)
        assert g.vertex_masks([]) == []
        assert g.vertex_masks([frozenset({4, 0}), (), [2]]) == [0b10001, 0, 0b100]

    @pytest.mark.parametrize("stray", [True, 1.0, -1, 5])
    def test_non_vertex_rejected(self, stray):
        with pytest.raises(ValueError, match="out of range"):
            Graph.cycle(5).vertex_masks([{0}, {stray, 3}])


class TestMultipartiteParts:
    def test_every_mask_of_every_graph_up_to_six(self):
        # against the definition: G[mask] is complete multipartite when
        # non-adjacency is an equivalence on mask, and its classes are the parts
        shapes = {"parts": 0, "none": 0}
        for g in (g for n in range(7) for g in nonisomorphic_graphs(n)):
            for mask in range(1 << g.n):
                vs = [v for v in range(g.n) if mask >> v & 1]
                away = {v: frozenset(w for w in vs if not g.adjacent(v, w)) for v in vs}
                equivalence = all(away[v] == away[w] for v in vs for w in away[v])
                parts = sorted({sum(1 << w for w in cls) for cls in away.values()},
                               key=lambda part: part & -part)
                got = multipartite_parts(g.rows, mask)
                assert got == (parts if equivalence else None), (to_graph6(g), mask)
                shapes["parts" if equivalence else "none"] += 1
        assert shapes == {"parts": 7_365, "none": 3_926}

    def test_complete_multipartite_graph(self):
        # K_{3x2} on interleaved labels: parts {0, 3}, {1, 4}, {2, 5}
        g = Graph.from_edges(6, [(u, v) for u in range(6) for v in range(u + 1, 6) if (v - u) % 3])
        assert multipartite_parts(g.rows, 0b111111) == [0b1001, 0b10010, 0b100100]
        assert multipartite_parts(g.rows, 0) == []
        # an edge plus an isolated vertex is not: the isolated vertex sees
        # neither end, and the ends see each other
        assert multipartite_parts(Graph.from_edges(3, [(0, 1)]).rows, 0b111) is None


class TestPickle:
    def test_round_trip(self):
        rng = random.Random(5)
        for n in range(0, 12):
            g = random_graph(rng, n)
            assert pickle.loads(pickle.dumps(g)) == g

    def test_unpickling_runs_the_constructor_checks(self):
        data = pickle.dumps(Graph.path(3), protocol=4)
        # row 1 of the path 0-1-2 is 0b101; make it 0b100 so 0 sees 1 but
        # not the other way round
        assert data.count(b"K\x05") == 1
        with pytest.raises(ValueError, match="not symmetric"):
            pickle.loads(data.replace(b"K\x05", b"K\x04"))


class TestTrustedConstruction:
    def test_derived_graphs_pass_the_constructor_checks(self):
        # graphs built without the checks hold rows the checks accept
        rng = random.Random(12)
        for _ in range(60):
            n = rng.randint(0, 12)
            g = random_graph(rng, n)
            perm = list(range(n))
            rng.shuffle(perm)
            derived = [
                from_graph6(to_graph6(g)),
                g.complement(),
                induced_subgraph(g, rng.sample(range(n), n // 2))[0],
                g.relabel(perm),
                g.with_vertex(rng.getrandbits(n)),
            ]
            for h in derived:
                assert isinstance(h.rows, tuple) and Graph(h.n, h.rows) == h

    def test_orderly_generation_passes_the_constructor_checks(self):
        for g in nonisomorphic_graphs(6):
            assert Graph(g.n, g.rows) == g

    def test_unpickling_checks_a_trusted_graph(self):
        bad = Graph._trusted(2, [0b10, 0])
        with pytest.raises(ValueError, match="not symmetric"):
            pickle.loads(pickle.dumps(bad))


class TestComplement:
    def test_involution(self):
        rng = random.Random(9)
        for _ in range(30):
            g = random_graph(rng, rng.randint(0, 14))
            assert g.complement().complement() == g

    def test_cycle_seven(self):
        h = Graph.cycle(7).complement()
        assert all(h.degree(v) == 4 for v in h.vertices())
        assert h == Graph.circulant(7, (2, 3))

    def test_complete_becomes_empty(self):
        assert Graph.complete(6).complement() == Graph.empty(6)

    def test_commutes_with_induced_subgraph(self):
        rng = random.Random(10)
        for _ in range(30):
            g = random_graph(rng, 10)
            vs = rng.sample(range(10), 6)
            a, _ = induced_subgraph(g.complement(), vs)
            b, _ = induced_subgraph(g, vs)
            assert a == b.complement()


class TestInducedSubgraph:
    def test_full_set_is_identity(self):
        g = Graph.circulant(8, (1, 3))
        sub, mapping = induced_subgraph(g, range(8))
        assert sub == g and mapping == tuple(range(8))

    def test_cycle_prefix_is_path(self):
        sub, _ = induced_subgraph(Graph.cycle(5), [0, 1, 2])
        assert sub == Graph.path(3)

    def test_c7_complement_has_no_k4(self):
        from itertools import combinations

        g = Graph.circulant(7, (1, 2))
        for quad in combinations(range(7), 4):
            sub, _ = induced_subgraph(g, quad)
            assert sub != Graph.complete(4)

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            induced_subgraph(Graph.cycle(4), [0, 5])

    @pytest.mark.parametrize("stray", [True, 1.0])
    def test_non_vertex_rejected(self, stray):
        # True equals vertex 1 and 1.0 sorts like it, but neither is a vertex
        with pytest.raises(ValueError, match="outside range"):
            induced_subgraph(Graph.cycle(4), [stray, 2])

    def test_repeats_and_order_do_not_matter(self):
        sub, mapping = induced_subgraph(Graph.cycle(5), [2, 0, 2, 1])
        assert sub == Graph.path(3) and mapping == (0, 1, 2)


class TestRelation:
    def test_t11_offsets(self):
        g, w = generate_t11_type([2, 1, 2, 1, 1, 2, 1, 1, 1, 2, 1])
        for i in range(11):
            a = w.parts[i]
            assert relation(g, a, w.parts[(i + 3) % 11]).label == "complete"
            assert relation(g, a, w.parts[(i + 1) % 11]).label == "anticomplete"

    def test_k2_singletons(self):
        rel = relation(Graph.complete(2), {0}, {1})
        assert rel.complete and rel.linked and not rel.anticomplete
        assert rel.label == "complete"

    def test_linked_not_complete(self):
        # path 0-1-2-3: {0,2} vs {1,3} has all four vertices matched but
        # misses the 0-3 pair
        rel = relation(Graph.path(4), {0, 2}, {1, 3})
        assert rel.label == "linked"

    def test_mixed(self):
        g = Graph.from_edges(4, [(0, 2)])
        assert relation(g, {0, 1}, {2, 3}).label == "mixed"

    def test_overlap_rejected(self):
        with pytest.raises(ValueError):
            relation(Graph.complete(3), {0, 1}, {1, 2})


class TestStableAndClique:
    def test_singleton(self):
        g = Graph.cycle(5)
        assert is_stable_set(g, {3}) and is_clique(g, {3})

    def test_cycle_pair(self):
        assert is_stable_set(Graph.cycle(5), {0, 2})
        assert not is_clique(Graph.cycle(5), {0, 2})

    def test_generated_parts_are_stable(self):
        g, w = generate_t11_type([1, 2, 1, 1, 3, 1, 1, 1, 2, 1, 1])
        assert all(is_stable_set(g, part) for part in w.parts)

    def test_triangle(self):
        assert is_clique(Graph.complete(3), {0, 1, 2})
        assert not is_stable_set(Graph.complete(3), {0, 1})

    def test_clique_of_non_vertices_or_repeats_is_false(self):
        g = Graph.cycle(5)
        assert is_clique(g, [0, 1]) and is_clique(g, [])
        # a repeated vertex would overstate the clique's size
        assert not is_clique(g, [0, 0])
        # True equals vertex 1 but is no vertex
        assert not is_clique(g, [True, 0])
        for stray in (7, 5, -1, 0.0):
            assert not is_clique(g, [stray]), stray

    def test_vertex_mask(self):
        g = Graph.cycle(5)
        assert g.vertex_mask([]) == 0
        assert g.vertex_mask((4, 0, 2)) == 0b10101
        for bad in ([0, 0], [True], [5], [-1], [1.0]):
            assert g.vertex_mask(bad) is None, bad
