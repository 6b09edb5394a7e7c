import random
from itertools import islice
from pathlib import Path

import networkx as nx
import pytest

from heptalab import harmonious
from heptalab.coloring import Coloring, chromatic_number_exact, greedy_coloring, is_proper
from heptalab.corpus import all_graphs_up_to
from heptalab.detect import Budget, c7_complement, find_full_house, find_odd_hole
from heptalab.graph import Graph, from_graph6, induced_subgraph, iter_bits, mask_of, to_graph6
from heptalab.detect import SearchBudgetExceeded
from heptalab.structures import generate_heptagram_type, generate_t11_type
from heptalab.harmonious import (
    HarmoniousPartition,
    MergeError,
    find_harmonious_cutset,
    merge_colorings,
    minimal_separators,
    verify_harmonious,
)

from .naive import (
    _adjacency,
    _candidate_partitions,
    cutset_pool_from_scratch,
    first_harmonious_candidate,
    from_networkx,
    harmonious_cutset_by_partitions,
    harmonious_partition_by_subsets,
    induced_path_lengths,
    is_shaped,
    minimal_separators_by_subsets,
    shape_classes,
    shaped_cutsets_by_subsets,
    side_vertex_sets,
)
from .planted import glued_instances, planted_instances


def random_connected_graphs(
    count: int, seed: int, sizes=(6, 12), densities=(0.2, 0.3, 0.5)
) -> list[Graph]:
    """Seeded connected G(n, p) graphs with n in ``sizes`` and p drawn from
    ``densities``."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        n = rng.randint(*sizes)
        p = rng.choice(densities)
        g = Graph.from_edges(
            n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
        )
        if g.is_connected():
            out.append(g)
    return out


def five_cycle_with_triangle() -> Graph:
    """The 5-cycle 1-3-2-4-5 with a triangle 0-4-5 on its edge 4-5.  Its
    first pool cutset {1, 2} is joined by the even path 1-3-2 and the odd
    path 1-5-4-2; the edge {4, 5} is harmonious."""
    return Graph.from_edges(6, [(0, 4), (0, 5), (1, 3), (1, 5), (2, 3), (2, 4), (4, 5)])


def side_coloring(g: Graph, p: HarmoniousPartition, side: int, k: int) -> Coloring:
    """A proper k-coloring of one side's subgraph, colors renamed so part
    alignment is NOT assumed."""
    members = sorted(side_vertex_sets(g, p)[side])
    sub, mapping = induced_subgraph(g, members)
    base = chromatic_number_exact(sub).coloring
    assert base.k <= k
    return Coloring({mapping[i]: c for i, c in base.colors.items()}, k)


def shaped_separators(g: Graph) -> list[tuple[int, list[tuple[int, ...]]]]:
    """The minimal separators that ``harmonious._shape`` classifies, in
    order, with their classes: the sets ``find_harmonious_cutset`` tries."""
    pairs = ((cut, harmonious._shape(g.rows, cut)) for cut in minimal_separators(g))
    return [(cut, classes) for cut, classes in pairs if classes is not None]


def record_pool(monkeypatch) -> list[int]:
    """The cutsets the search takes from its pool (the minimal separators
    that ``_shape`` classifies), recorded as it runs."""
    tried: list[int] = []
    shape = harmonious._shape

    def recording(rows, cut):
        classes = shape(rows, cut)
        if classes is not None:
            tried.append(cut)
        return classes

    monkeypatch.setattr(harmonious, "_shape", recording)
    return tried


def record_passes(monkeypatch) -> list[int]:
    """The cutsets the search gives a parity pass, recorded as it runs."""
    passed: list[int] = []
    run = harmonious._parity_pass

    def recording(g, cut, classes, budget):
        passed.append(cut)
        return run(g, cut, classes, budget)

    monkeypatch.setattr(harmonious, "_parity_pass", recording)
    return passed


def separator_masks_by_subsets(g: Graph) -> list[int]:
    """``minimal_separators_by_subsets`` as masks, in its order."""
    return [mask_of(s) for s in minimal_separators_by_subsets(g)]


def structured_bench_graphs() -> list[Graph]:
    """The 24 class members of ``bench/structured.tsv``."""
    rows = (Path(__file__).parent.parent / "bench" / "structured.tsv").read_text().splitlines()
    return [from_graph6(row.split("\t")[1]) for row in rows[1:]]


class TestVerify:
    def test_cut_vertex_single_part(self):
        g = Graph.from_edges(5, [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (2, 4)])
        p = HarmoniousPartition(
            (frozenset({2}),), (frozenset({0, 1}), frozenset({3, 4}))
        )
        assert verify_harmonious(g, p).status == "yes"

    def test_p4_middle_pair_rejected(self):
        g = Graph.path(4)
        p = HarmoniousPartition(
            (frozenset({1, 2}),), (frozenset({0}), frozenset({3}))
        )
        verdict = verify_harmonious(g, p)
        assert verdict.status == "no"
        assert verdict.violation.kind == "parity"
        assert set(verdict.violation.vertices) == {1, 2}

    def test_two_c6_antipodal_glue(self):
        # hubs 0 and 3 on both hexagons; every hub-to-hub arc has length 3
        edges = [(i, (i + 1) % 6) for i in range(6)]
        arc1 = [0, 6, 7, 3]
        arc2 = [3, 8, 9, 0]
        edges += [(arc1[i], arc1[i + 1]) for i in range(3)]
        edges += [(arc2[i], arc2[i + 1]) for i in range(3)]
        g = Graph.from_edges(10, edges)
        p = HarmoniousPartition(
            (frozenset({0}), frozenset({3})),
            (frozenset({1, 2, 4, 5}), frozenset({6, 7, 8, 9})),
        )
        assert verify_harmonious(g, p).status == "yes"
        # brute parity confirmation
        interior = {1, 2, 4, 5, 6, 7, 8, 9}
        assert all(
            length % 2 == 1
            for length in induced_path_lengths(g, 0, 3, interior)
        )

    def test_even_cross_path_counterexample(self):
        g = Graph.cycle(4)
        p = HarmoniousPartition(
            (frozenset({0}), frozenset({2})), (frozenset({1}), frozenset({3}))
        )
        verdict = verify_harmonious(g, p)
        assert verdict.status == "no" and verdict.violation.kind == "parity"
        path = verdict.violation.vertices
        assert len(path) == 3 and {path[0], path[-1]} == {0, 2}

    def test_three_parts_need_pairwise_complete(self):
        g = Graph.path(5)
        p = HarmoniousPartition(
            (frozenset({0}), frozenset({2}), frozenset({4})),
            (frozenset({1}), frozenset({3})),
        )
        verdict = verify_harmonious(g, p)
        assert verdict.status == "no"
        assert verdict.violation.kind == "parts_not_complete"

    def test_sides_with_cross_edge_rejected(self):
        g = Graph.from_edges(4, [(0, 1), (0, 2), (1, 2), (1, 3), (2, 3)])
        p = HarmoniousPartition(
            (frozenset({0}),), (frozenset({1}), frozenset({2, 3}))
        )
        verdict = verify_harmonious(g, p)
        assert verdict.status == "no"
        assert verdict.violation.kind == "sides_connected"

    def test_least_cross_edge_in_vertex_order_reported(self):
        # the side {1, 8} iterates as 8, 1; the report follows vertex order
        edges = [(0, 1), (0, 2), (1, 2), (2, 8), (0, 8)]
        g = Graph.from_edges(10, edges)
        p = HarmoniousPartition(
            (frozenset({0}),), (frozenset({1, 8}), frozenset({2, 3, 4, 5, 6, 7, 9}))
        )
        verdict = verify_harmonious(g, p)
        assert verdict.violation == harmonious.HarmonyViolation("sides_connected", (1, 2))

    @pytest.mark.parametrize("stray", [True, 1.0, 4, -1])
    def test_non_vertex_rejected(self, stray):
        # on C4 the cut {1, 3} is harmonious; True or 1.0 equals 1 in a set
        # but is no vertex
        g = Graph.cycle(4)
        sides = (frozenset({0}), frozenset({2}))
        good = HarmoniousPartition((frozenset({1, 3}),), sides)
        assert verify_harmonious(g, good).status == "yes"
        p = HarmoniousPartition((frozenset({stray, 3}),), sides)
        with pytest.raises(ValueError, match="out of range"):
            verify_harmonious(g, p)

    def test_third_side_rejected(self):
        # vertex 5 is no vertex of the path; a third side would hide it
        with pytest.raises(ValueError, match="exactly two sides"):
            HarmoniousPartition(
                (frozenset({1}),), (frozenset({0}), frozenset({2}), frozenset({5}))
            )

    def test_list_side_rejected(self):
        # a list is what a JSON record decodes to
        with pytest.raises(ValueError, match="side is a list, not a frozenset"):
            HarmoniousPartition((frozenset({1}),), ([0], frozenset({2})))

    def test_mutable_blocks_rejected(self):
        with pytest.raises(ValueError, match="side is a set, not a frozenset"):
            HarmoniousPartition((frozenset({1}),), ({0}, frozenset({2})))
        with pytest.raises(ValueError, match="cutset part is a set, not a frozenset"):
            HarmoniousPartition(({1},), (frozenset({0}), frozenset({2})))

    def test_single_side_rejected(self):
        with pytest.raises(ValueError, match="exactly two sides"):
            HarmoniousPartition((frozenset({1}),), (frozenset({0, 2}),))

    def test_budget_exhaustion_inconclusive(self):
        inst = planted_instances(4, seed=5)[1]
        verdict = verify_harmonious(inst.graph, inst.partition, Budget(1))
        assert verdict.status == "inconclusive"

    def test_planted_families_verify(self):
        for inst in planted_instances(40, seed=17):
            assert verify_harmonious(inst.graph, inst.partition).status == "yes", inst.family


class TestSeparators:
    def test_path_four(self):
        assert minimal_separators(Graph.path(4)) == [mask_of({1}), mask_of({2})]

    def test_cycle_four(self):
        assert minimal_separators(Graph.cycle(4)) == [mask_of({0, 2}), mask_of({1, 3})]

    def test_separators_are_masks(self):
        # plain vertex masks, the form the cutset search reads
        separators = minimal_separators(Graph.cycle(6))
        assert len(separators) == 9 and all(type(sep) is int for sep in separators)

    def test_clique_has_none(self):
        assert minimal_separators(Graph.complete(4)) == []

    def test_atlas_matches_subset_scan(self):
        # every graph on at most 7 vertices, disconnected ones included
        for h in nx.graph_atlas_g():
            g = from_networkx(h)
            assert minimal_separators(g) == separator_masks_by_subsets(g), g

    def test_random_matches_subset_scan(self):
        for g in random_connected_graphs(30, seed=11):
            assert minimal_separators(g) == separator_masks_by_subsets(g), g

    def test_budget_caps_separators_found(self):
        g = Graph.cycle(8)  # its minimal separators: the 20 non-adjacent pairs
        count = len(minimal_separators(g))
        assert len(minimal_separators(g, Budget(count))) == count
        with pytest.raises(SearchBudgetExceeded):
            minimal_separators(g, Budget(count - 1))


class TestPool:
    def test_equals_subset_scan(self):
        # the pool is the shaped minimal separators by subsets, in order; the
        # full pool is every shaped disconnecting set, each once (adding
        # vertices only above the largest member, with a seen-set prune,
        # misses sets here; adding every vertex to every set does not)
        for g in random_connected_graphs(30, seed=5):
            pool = [cut for cut, _ in shaped_separators(g)]
            separators = minimal_separators_by_subsets(g)
            assert pool == [mask_of(s) for s in separators if is_shaped(g, s)], g
            full = [cut for cut, _ in cutset_pool_from_scratch(g, minimal_separators(g))]
            assert len(full) == len(set(full)), g
            assert set(full) == shaped_cutsets_by_subsets(g), g

    def test_matches_the_from_scratch_pool(self):
        # the shaped members of the separators, in order, with the classes a
        # fresh shape search gives them: the head of the full pool
        graphs = [g for g in all_graphs_up_to(7) if g.n and g.is_connected()]
        graphs += random_connected_graphs(
            80, seed=17, sizes=(8, 16), densities=(0.15, 0.2, 0.3, 0.5)
        )
        graphs += glued_instances(3, seed=2) + structured_bench_graphs()
        for g in graphs:
            separators = minimal_separators(g)
            shaped = [s for s in separators if is_shaped(g, iter_bits(s))]
            got = shaped_separators(g)
            assert [cut for cut, _ in got] == shaped, to_graph6(g)
            assert got == list(islice(cutset_pool_from_scratch(g, separators), len(shaped)))

    def test_shape_matches_the_from_scratch_classes(self):
        # every nonempty vertex set of every graph with at most 6 vertices,
        # then random vertex sets of random graphs with 8 to 14 vertices
        cases = []
        for h in nx.graph_atlas_g():
            if h.number_of_nodes() <= 6:
                g = from_networkx(h)
                cases += [(g.rows, cut) for cut in range(1, 1 << g.n)]
        rng = random.Random(19)
        for _ in range(300):
            n, p = rng.randint(8, 14), rng.choice((0.2, 0.3, 0.5, 0.7))
            g = Graph.from_edges(
                n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
            )
            cases += [(g.rows, rng.randrange(1, 1 << n)) for _ in range(20)]
        shapes = {"bipartite": 0, "multipartite": 0, "none": 0}
        for rows, cut in cases:
            got = harmonious._shape(rows, cut)
            assert got == shape_classes(rows, cut), (rows, cut)
            if got is None:
                shapes["none"] += 1
            else:
                shapes["bipartite" if len(got[0]) == 2 else "multipartite"] += 1
        assert min(shapes.values()) > 1000, shapes

    def test_shaped_separators_come_first(self):
        # the full pool starts with the nine separators of the 6-cycle and
        # goes on to larger sets; the package pool stops after the nine
        g = Graph.cycle(6)
        separators = minimal_separators(g)
        pool = [cut for cut, _ in shaped_separators(g)]
        full = [cut for cut, _ in cutset_pool_from_scratch(g, separators)]
        assert pool == full[: len(separators)] == separators
        assert len(pool) == 9 and len(full) > len(pool)

    def test_every_shaped_cutset_contains_a_shaped_separator(self):
        # why the pool may stop after the separators: by the lemma in the
        # ``harmonious`` docstring, a set fails when one inside it does
        graphs = [g for g in all_graphs_up_to(6) if g.n and g.is_connected()]
        graphs += random_connected_graphs(40, seed=19, sizes=(7, 11))
        for g in graphs:
            shaped = [s for s in minimal_separators(g) if is_shaped(g, iter_bits(s))]
            for cut in shaped_cutsets_by_subsets(g):
                assert any(s & cut == s for s in shaped), (to_graph6(g), cut)

    def test_accepted_cutsets_are_shaped(self):
        for inst in planted_instances(40, seed=31):
            assert verify_harmonious(inst.graph, inst.partition).status == "yes"
            assert is_shaped(inst.graph, inst.partition.cutset), inst.family
            res = find_harmonious_cutset(inst.graph)
            assert is_shaped(inst.graph, res.partition.cutset), inst.family


class TestSearch:
    def test_clique_none(self):
        assert find_harmonious_cutset(Graph.complete(5)).status == "none"

    def test_p3_cut_vertex(self):
        res = find_harmonious_cutset(Graph.path(3))
        assert res.status == "found"
        assert res.partition.cutset == frozenset({1})

    def test_two_triangles_shared_vertex(self):
        g = Graph.from_edges(5, [(0, 1), (0, 2), (1, 2), (2, 3), (2, 4), (3, 4)])
        res = find_harmonious_cutset(g)
        assert res.status == "found"
        assert res.partition.cutset == frozenset({2})

    def test_returned_partition_reverifies(self):
        for inst in planted_instances(12, seed=23):
            res = find_harmonious_cutset(inst.graph)
            assert res.status == "found", inst.family
            assert verify_harmonious(inst.graph, res.partition).status == "yes"

    def test_disconnected_rejected(self):
        with pytest.raises(ValueError):
            find_harmonious_cutset(Graph.empty(3))

    def test_exhaustive_candidates_on_c7_complement(self):
        assert find_harmonious_cutset(c7_complement()).status == "none"

    def test_status_matches_subset_search_on_small_members(self):
        members = [
            g
            for g in all_graphs_up_to(7)
            if g.is_connected() and find_odd_hole(g) is None and find_full_house(g) is None
        ]
        statuses = set()
        for g in members:
            expected = harmonious_partition_by_subsets(g)
            if expected is not None:
                assert is_shaped(g, frozenset().union(*expected)), g
            res = find_harmonious_cutset(g)
            assert res.status == ("none" if expected is None else "found"), g
            statuses.add(res.status)
        assert statuses == {"found", "none"}

    def test_budget_runs_out_while_separators_are_built(self, monkeypatch):
        g = c7_complement()
        tried = record_pool(monkeypatch)
        res = find_harmonious_cutset(g, Budget(len(minimal_separators(g)) - 1))
        assert res.status == "inconclusive" and res.partition is None
        assert tried == []

    def test_budget_runs_out_at_the_last_separator(self, monkeypatch):
        # no harmonious cutset: 5 separators, all shaped, and 5 larger
        # shaped cutsets the search never tries
        g = Graph.cycle(5)
        separators = minimal_separators(g)
        assert len(shaped_cutsets_by_subsets(g)) == 10
        done = find_harmonious_cutset(g)
        tried = record_pool(monkeypatch)
        res = find_harmonious_cutset(g, Budget(done.steps - 1))
        assert res.status == "inconclusive" and res.steps == done.steps
        assert tried == separators

    def test_pinned_steps_never_rise(self):
        # the 24 structured bench instances, then 60 connected G(n, p) with
        # n = 17-20 and p in (0.15, 0.2, 0.25) (random.Random(2027)), with
        # the status, parts ("|" between them, "-" for none) and steps of
        # the search that also walked the one-vertex extensions of each set
        pins = Path(__file__).parent / "data" / "cutset_steps.tsv"
        fell = 0
        for line in pins.read_text().splitlines():
            g6, status, parts, steps = line.split("\t")
            res = find_harmonious_cutset(from_graph6(g6))
            got = "-" if res.partition is None else "|".join(
                ",".join(map(str, sorted(part))) for part in res.partition.parts
            )
            assert (res.status, got) == (status, parts), g6
            assert res.steps <= int(steps), g6
            fell += res.steps < int(steps)
        assert fell >= 30


class TestParityPass:
    def test_cut_vertex_of_a_long_chain_is_cheap(self):
        # no path can close at the last cut vertex, so its DFS is skipped:
        # a glued class member on 174 vertices with 11 cut vertices gets
        # "found" well inside the default budget
        g = glued_instances(12, seed=1)[-1]
        assert g.n == 174
        res = find_harmonious_cutset(g)
        assert res.status == "found" and len(res.partition.cutset) == 1
        assert res.steps < 1000
        assert verify_harmonious(g, res.partition).status == "yes"

    def test_three_components_take_the_first_consistent_flip(self):
        # in the 8-cycle, the cutset {0, 3, 5} splits into three singleton
        # components; paths 0..3 and 5..0 are odd and 3..5 is even, so only
        # the last of the four flips, {0} against {3, 5}, is consistent
        g = Graph.cycle(8)
        cut = mask_of((0, 3, 5))
        classes = shape_classes(g.rows, cut)
        assert len(classes) == 3
        all_false = next(_candidate_partitions(_adjacency(g), cut))
        assert all_false == (frozenset({0, 3, 5}),)
        label, path = harmonious._parity_pass(g, cut, classes, Budget())
        assert path is None
        assert [label[v] for v in (0, 3, 5)] == [0, 1, 1]
        expected = first_harmonious_candidate(g, _adjacency(g), cut)
        assert expected.parts == (frozenset({0}), frozenset({3, 5}))

    def test_relabeled_flips_match_the_oracle(self):
        # every bipartite cutset with three or more components of relabeled
        # even cycles (none is a minimal separator, so the full pool gives
        # them): the pass accepts exactly when some flip verifies, and then
        # with the oracle's first verified partition
        rng = random.Random(8)
        checked = 0
        for n in (8, 10, 12):
            perm = list(range(n))
            rng.shuffle(perm)
            g = Graph.cycle(n).relabel(perm)
            for cut, classes in cutset_pool_from_scratch(g, minimal_separators(g)):
                if len(classes) < 3:
                    continue
                checked += 1
                label, path = harmonious._parity_pass(g, cut, classes, Budget())
                expected = first_harmonious_candidate(g, _adjacency(g), cut)
                if path is not None:
                    assert expected is None, (n, cut)
                    continue
                parts = [0, 0]
                for v in iter_bits(cut):
                    parts[label[v]] |= 1 << v
                got = tuple(frozenset(iter_bits(m)) for m in parts if m)
                assert got == expected.parts, (n, cut)
        assert checked > 100

    def test_pair_with_paths_of_both_parities_is_skipped(self):
        g = five_cycle_with_triangle()
        cut, classes = shaped_separators(g)[0]
        assert cut == mask_of((1, 2)) and len(classes) == 2
        _, path = harmonious._parity_pass(g, cut, classes, Budget())
        assert path is not None and {path[0], path[-1]} == {1, 2}
        assert first_harmonious_candidate(g, _adjacency(g), cut) is None
        res = find_harmonious_cutset(g)
        assert res.status == "found"
        assert res.partition.parts == (frozenset({4}), frozenset({5}))
        assert harmonious_cutset_by_partitions(g) == (res.status, res.partition)

    def test_complete_tripartite_parity_violation(self):
        # parts {0, 1}, {2}, {3}, pairwise complete; 0-4-5-1 joins the
        # same-part pair {0, 1} by an odd path
        edges = [(0, 2), (0, 3), (1, 2), (1, 3), (2, 3), (0, 4), (4, 5), (5, 1), (2, 6), (3, 6)]
        g = Graph.from_edges(7, edges)
        cut = mask_of((0, 1, 2, 3))
        classes = shape_classes(g.rows, cut)
        assert classes == [(mask_of((0, 1)), 1 << 2, 1 << 3)]
        _, path = harmonious._parity_pass(g, cut, classes, Budget())
        assert path == (0, 4, 5, 1)
        p = HarmoniousPartition(
            (frozenset({0, 1}), frozenset({2}), frozenset({3})),
            (frozenset({4, 5}), frozenset({6})),
        )
        verdict = verify_harmonious(g, p)
        assert verdict.status == "no"
        assert verdict.violation == harmonious.HarmonyViolation("parity", (0, 4, 5, 1))

    def test_budget_one_short_is_inconclusive(self):
        for g in (five_cycle_with_triangle(), Graph.cycle(8), Graph.cycle(9)):
            done = find_harmonious_cutset(g)
            res = find_harmonious_cutset(g, Budget(done.steps - 1))
            assert res.status == "inconclusive" and res.partition is None, g
            assert res.steps == done.steps, g

    def test_found_partition_is_verified_again(self, monkeypatch):
        g = five_cycle_with_triangle()
        calls = []

        def refusing(g, p, budget=None):
            calls.append(p)
            return harmonious.HarmonyVerdict("no", None, 0)

        monkeypatch.setattr(harmonious, "verify_harmonious", refusing)
        with pytest.raises(RuntimeError):
            find_harmonious_cutset(g)
        assert [p.cutset for p in calls] == [frozenset({4, 5})]


class TestInheritedFailures:
    """A pool set one vertex larger than a set whose pass failed gets no
    parity pass (the lemma in the ``harmonious`` docstring); run directly,
    its pass fails."""

    def test_lemma_on_every_pool_superset(self):
        # every shaped, disconnecting superset of a failed set fails
        graphs = [g for g in all_graphs_up_to(6) if g.n and g.is_connected()]
        graphs += random_connected_graphs(60, seed=21, sizes=(7, 10))
        superset_checks = 0
        for g in graphs:
            pool = list(cutset_pool_from_scratch(g, minimal_separators(g)))
            verdicts = [harmonious._parity_pass(g, cut, cls, Budget())[1] for cut, cls in pool]
            for (cut, _), path in zip(pool, verdicts):
                if path is None:
                    continue
                for (other, _), other_path in zip(pool, verdicts):
                    if other != cut and other & cut == cut:
                        assert other_path is not None, (to_graph6(g), cut, other)
                        superset_checks += 1
        assert superset_checks > 1000

    def skipped(self, monkeypatch, g: Graph) -> list[int]:
        tried, passed = record_pool(monkeypatch), record_passes(monkeypatch)
        res = find_harmonious_cutset(g)
        monkeypatch.undo()
        assert res == find_harmonious_cutset(g)  # recording changes nothing
        if res.status == "found":  # verify_harmonious repeats the last pass
            assert passed.pop() == passed[-1] == tried[-1] == mask_of(res.partition.cutset)
        assert tried == [cut for cut, _ in shaped_separators(g)][: len(tried)]
        assert set(passed) <= set(tried) and len(passed) == len(set(passed))
        skipped = [cut for cut in tried if cut not in set(passed)]
        for cut in skipped:
            _, path = harmonious._parity_pass(g, cut, shape_classes(g.rows, cut), Budget())
            assert path is not None, (to_graph6(g), cut)
        return skipped

    def test_skipped_sets_fail_on_random_graphs(self, monkeypatch):
        graphs = random_connected_graphs(
            150, seed=13, sizes=(8, 14), densities=(0.15, 0.2, 0.3, 0.5)
        )
        assert sum(len(self.skipped(monkeypatch, g)) for g in graphs) > 0

    def test_skipped_sets_fail_on_a_heptagram_type_instance(self, monkeypatch):
        g, _ = generate_heptagram_type([1] * 7, [0, 1, 0, 0, 1, 0, 0])
        assert len(self.skipped(monkeypatch, g)) >= 1

    def test_skipped_sets_fail_on_the_structured_bench_instances(self, monkeypatch):
        for g in structured_bench_graphs():
            self.skipped(monkeypatch, g)


class TestAgainstPartitionSearch:
    """``find_harmonious_cutset`` gives the same (status, partition) as
    verifying every candidate partition of every pool cutset in turn."""

    def check(self, graphs):
        statuses = set()
        for g in graphs:
            res = find_harmonious_cutset(g)
            assert (res.status, res.partition) == harmonious_cutset_by_partitions(g), g
            statuses.add(res.status)
        return statuses

    def test_connected_graphs_up_to_seven_vertices(self):
        graphs = [g for g in all_graphs_up_to(7) if g.n and g.is_connected()]
        assert len(graphs) == 996
        assert self.check(graphs) == {"found", "none"}

    def test_random_graphs(self):
        # sparse to medium p, where cutsets with several components are common
        graphs = random_connected_graphs(
            200, seed=9, sizes=(8, 14), densities=(0.15, 0.2, 0.3, 0.5)
        )
        assert self.check(graphs) == {"found", "none"}

    def test_planted_instances(self):
        assert self.check(inst.graph for inst in planted_instances(60, seed=3)) == {"found"}

    def test_relabeled_ring_families(self):
        rng = random.Random(41)
        graphs = [generate_t11_type([rng.randint(1, 2) for _ in range(11)])[0] for _ in range(4)]
        for ysizes in ([0] * 7, [1, 0, 0, 0, 0, 0, 0], [0, 1, 0, 0, 1, 0, 0]):
            graphs.append(generate_heptagram_type([rng.randint(1, 2) for _ in range(7)], ysizes)[0])
        relabeled = []
        for g in graphs:
            perm = list(range(g.n))
            rng.shuffle(perm)
            relabeled.append(g.relabel(perm))
        assert self.check(relabeled) == {"none"}


class TestMerge:
    def test_already_compliant_unchanged(self):
        inst = planted_instances(4, seed=1)[2]  # theta: parts {0}, {1}
        g, p = inst.graph, inst.partition
        k = 2
        c1 = side_coloring(g, p, 0, k)
        c2 = side_coloring(g, p, 1, k)

        def align(c: Coloring) -> Coloring:
            # rename colors so each cutset vertex carries its part index
            want = {v: i for i, part in enumerate(p.parts) for v in part}
            mapping = {}
            for v, target in want.items():
                mapping[c.colors[v]] = target
            rest = [c for c in range(k) if c not in mapping]
            for c_old in range(k):
                if c_old not in mapping:
                    mapping[c_old] = rest.pop(0)
            return Coloring({v: mapping[c0] for v, c0 in c.colors.items()}, k)

        c1a, c2a = align(c1), align(c2)
        swaps = []
        merged = merge_colorings(g, p, c1a, c2a, on_swap=lambda s, n: swaps.append((s, n)))
        assert swaps == []
        assert is_proper(g, merged)
        for v, col in c1a.colors.items():
            assert merged.colors[v] == col
        for v, col in c2a.colors.items():
            assert merged.colors[v] == col

    def test_swapped_side_gets_fixed(self):
        # hexagon pair glued at {0, 3}, one part; k = 2
        inst = planted_instances(4, seed=9)[1]
        g, p = inst.graph, inst.partition
        c1 = side_coloring(g, p, 0, 2)
        c2 = side_coloring(g, p, 1, 2)
        merged = merge_colorings(g, p, c1, c2)
        assert is_proper(g, merged) and merged.k == 2
        for i, part in enumerate(p.parts):
            assert all(merged.colors[v] == i for v in part)

    def test_hundred_planted_instances(self):
        instances = planted_instances(100, seed=42)
        for inst in instances:
            g, p = inst.graph, inst.partition
            k = max(2, len(p.parts))
            c1 = side_coloring(g, p, 0, k)
            c2 = side_coloring(g, p, 1, k)
            counts = []
            merged = merge_colorings(g, p, c1, c2, on_swap=lambda s, n: counts.append(n))
            assert is_proper(g, merged) and merged.k == k
            # strict progress at every swap
            assert all(b > a for a, b in zip(counts, counts[1:]))

    def test_color_count_mismatch(self):
        inst = planted_instances(4, seed=2)[2]
        g, p = inst.graph, inst.partition
        c1 = side_coloring(g, p, 0, 2)
        c2 = side_coloring(g, p, 1, 3)
        with pytest.raises(ValueError):
            merge_colorings(g, p, c1, c2)

    def test_improper_input_rejected(self):
        inst = planted_instances(4, seed=2)[2]
        g, p = inst.graph, inst.partition
        c1 = side_coloring(g, p, 0, 2)
        c2 = side_coloring(g, p, 1, 2)
        v = min(side_vertex_sets(g, p)[0])
        broken = dict(c1.colors)
        u = next(iter(g.neighbors(v)))
        broken[v] = broken[u]
        with pytest.raises(ValueError):
            merge_colorings(g, p, Coloring(broken, 2), c2)

    @pytest.mark.parametrize("stray", [True, 1.0])
    def test_color_outside_the_palette_rejected(self, stray):
        # on C4 the cut {1, 3} is harmonious; True and 1.0 equal a color
        # but are none (``Coloring.has_color``), so a merge must not return them
        g = Graph.cycle(4)
        p = HarmoniousPartition((frozenset({1, 3}),), (frozenset({0}), frozenset({2})))
        assert verify_harmonious(g, p).status == "yes"
        left, right = Coloring({0: 1, 1: 0, 3: 0}, 2), Coloring({2: 1, 1: 0, 3: 0}, 2)
        assert is_proper(g, merge_colorings(g, p, left, right))
        with pytest.raises(ValueError, match="out of range"):
            merge_colorings(g, p, Coloring({0: stray, 1: 0, 3: 0}, 2), right)
        with pytest.raises(ValueError, match="out of range"):
            merge_colorings(g, p, left, Coloring({2: stray, 1: 0, 3: 0}, 2))

    def test_non_harmonious_partition_detected(self):
        g = Graph.cycle(4)
        p = HarmoniousPartition(
            (frozenset({0}), frozenset({2})), (frozenset({1}), frozenset({3}))
        )
        c1 = Coloring({0: 0, 1: 1, 2: 0}, 2)
        c2 = Coloring({0: 0, 3: 1, 2: 0}, 2)
        with pytest.raises(MergeError):
            merge_colorings(g, p, c1, c2)


class TestComposition:
    def test_odd_hole_free_sides_compose(self):
        for inst in planted_instances(40, seed=77):
            g, p = inst.graph, inst.partition
            for side in (0, 1):
                sub, _ = induced_subgraph(g, sorted(side_vertex_sets(g, p)[side]))
                assert find_odd_hole(sub) is None, inst.family
            assert find_odd_hole(g) is None, inst.family
