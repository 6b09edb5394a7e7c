from collections import defaultdict

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from heptalab.corpus import (
    _columns,
    _labeling_below,
    all_graphs_up_to,
    nonisomorphic_graphs,
)
from heptalab.graph import Graph, to_graph6

from .naive import (
    canonical_by_placement,
    isomorphic,
    nonisomorphic_by_dedupe,
    to_networkx,
)
from .planted import from_edge_mask, random_graphs

# number of graphs on n vertices up to isomorphism (OEIS A000088)
GRAPH_COUNTS = [1, 1, 2, 4, 11, 34, 156, 1044]


class TestEnumeration:
    @pytest.mark.parametrize("n", range(7))
    def test_counts(self, n):
        assert len(nonisomorphic_graphs(n)) == GRAPH_COUNTS[n]

    @pytest.mark.slow
    def test_count_n7(self):
        assert len(nonisomorphic_graphs(7)) == GRAPH_COUNTS[7]

    def test_all_canonical_and_sorted(self):
        # made in graph6 order, with no sort, at every order up to 7
        for n in range(8):
            keys = [to_graph6(g).decode() for g in nonisomorphic_graphs(n)]
            assert keys == sorted(keys), n
        for g in nonisomorphic_graphs(5):
            assert canonical_by_placement(g) == g

    def test_pairwise_nonisomorphic_n5(self):
        graphs = nonisomorphic_graphs(5)
        for i, g in enumerate(graphs):
            for h in graphs[i + 1 :]:
                assert not isomorphic(g, h)

    def test_all_graphs_up_to(self):
        assert len(all_graphs_up_to(6)) == sum(GRAPH_COUNTS[:7])

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            nonisomorphic_graphs(-1)
        with pytest.raises(ValueError):
            nonisomorphic_graphs(9)


def assert_canonicity_test(h):
    """The early-exit canonicity test that orderly generation runs accepts
    h exactly when h is its own canonical form, and otherwise returns a
    labeling with a strictly smaller graph6 string."""
    canon = canonical_by_placement(h)
    order = _labeling_below(h.rows, _columns(h.rows))
    assert (order is None) == (canon == h)
    if order is not None:
        assert to_graph6(h.relabel(order)) < to_graph6(h)
    assert _labeling_below(canon.rows, _columns(canon.rows)) is None


class TestOrderlyGeneration:
    """Differential checks of orderly generation against canonicalizing
    every extension and deduping (``naive.nonisomorphic_by_dedupe``)."""

    @pytest.mark.parametrize("n", range(7))
    def test_matches_dedupe_oracle(self, n):
        assert nonisomorphic_graphs(n) == nonisomorphic_by_dedupe(n)

    @pytest.mark.slow
    def test_matches_dedupe_oracle_n7(self):
        assert nonisomorphic_graphs(7) == nonisomorphic_by_dedupe(7)

    def test_canonicity_on_every_extension(self):
        # every one-vertex extension of every graph with at most 5 vertices
        for g in all_graphs_up_to(5):
            for neighbor_mask in range(1 << g.n):
                assert_canonicity_test(g.with_vertex(neighbor_mask))

    @settings(max_examples=150, deadline=None)
    @given(st.integers(0, 8).flatmap(
        lambda n: st.tuples(
            st.just(n),
            st.integers(0, 2 ** (n * (n - 1) // 2) - 1),
            st.permutations(range(n)),
        )
    ))
    def test_canonicity_on_relabeled_graphs(self, case):
        n, edge_mask, perm = case
        assert_canonicity_test(from_edge_mask(n, edge_mask).relabel(perm))


class TestRandomGraphs:
    def test_deterministic(self):
        a = random_graphs(40, [6, 9], seed=123)
        b = random_graphs(40, [6, 9], seed=123)
        assert a == b

    def test_seed_changes_output(self):
        assert random_graphs(40, [8], seed=0) != random_graphs(40, [8], seed=1)

    def test_sizes_respected(self):
        for g in random_graphs(50, [4, 7], seed=2):
            assert g.n in (4, 7)

    def test_degenerate_sizes(self):
        gs = random_graphs(3, [0, 1], seed=5)
        assert all(g.edge_count == 0 for g in gs)

    def test_bad_arguments(self):
        with pytest.raises(ValueError):
            random_graphs(-1, [5], seed=0)
        with pytest.raises(ValueError):
            random_graphs(1, [], seed=0)
        with pytest.raises(ValueError):
            random_graphs(1, [-2], seed=0)


def assert_matches_atlas(n):
    """Each networkx atlas graph on n vertices is isomorphic to exactly one
    enumerated graph, and each enumerated graph to exactly one atlas graph
    (candidates bucketed by degree sequence)."""
    atlas = [g for g in nx.graph_atlas_g() if g.number_of_nodes() == n]
    ours = [to_networkx(g) for g in nonisomorphic_graphs(n)]
    assert len(atlas) == len(ours) == GRAPH_COUNTS[n]
    buckets = defaultdict(list)
    for i, h in enumerate(ours):
        buckets[tuple(sorted(d for _, d in h.degree()))].append(i)
    matched = set()
    for a in atlas:
        key = tuple(sorted(d for _, d in a.degree()))
        hits = [i for i in buckets[key] if nx.is_isomorphic(a, ours[i])]
        assert len(hits) == 1
        matched.add(hits[0])
    assert matched == set(range(len(ours)))


class TestReferenceCrossCheck:
    def test_n4_matches_networkx_atlas(self):
        # nx.graph_atlas_g() lists all graphs with up to 7 vertices; entries
        # 8..18 are exactly the 11 four-vertex graphs
        assert_matches_atlas(4)

    @pytest.mark.parametrize("n", [0, 1, 2, 3, 5, 6])
    def test_matches_networkx_atlas(self, n):
        assert_matches_atlas(n)

    @pytest.mark.slow
    def test_n7_matches_networkx_atlas(self):
        assert_matches_atlas(7)

