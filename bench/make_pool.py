"""Rebuild the benchmark's stored inputs and known answers: bench/pool.tsv,
bench/known.json and bench/structured.tsv.

pool.tsv holds seeded G(n, 1/2) graphs with their class flags, omega, chi
and cutset facts; known.json holds the graph counts and the T1.4 population
over every graph with at most 7 vertices, taken from networkx's graph atlas.
Those answers come from the independent oracles in tests/naive.py and from
networkx, never from heptalab's detectors, so the benchmark can check the
program against them.  structured.tsv holds the structured instances of the
``structures`` workload with their generator's witness size vectors, drawn
once here so that every later commit is benchmarked on the same graphs
whatever it does to the generators.  Run from the repository root (takes a
few minutes):

    PYTHONPATH=src:. python3 bench/make_pool.py
"""

from __future__ import annotations

import json
import os
import random
import sys
from itertools import combinations

import networkx as nx

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import graph6  # noqa: E402
from heptalab.graph import Graph  # noqa: E402  (container type only)
from heptalab.structures import (  # noqa: E402
    GenerationError,
    generate_heptagram_type,
    generate_t11_type,
)
from tests.naive import (  # noqa: E402
    full_houses_by_degree,
    naive_chromatic,
    odd_holes_by_isomorphism,
    to_networkx,
)

POOL_SEED = 20211024
PER_SIZE = 1500
SIZES = (8, 9, 10)
C7_COMPLEMENT = nx.circulant_graph(7, [1, 2])

STRUCTURED_SEED = 7
# Known heptagram-type members (from generate_heptagram_type(profile="custom"),
# whose witnesses verify) that the recognizer missed when this benchmark was
# written; also listed in ROADMAP.md.
KNOWN_MISSES = (
    "PidiPgDD_k?gd`}naoLlx@OS",
    "OlSt\\PRGuzcPzLJLCXXCU",
    "OtTRyd|_kNSijUSjwStI`",
    "Pd~p^FaFyfTbSxjEtbOz\\wec",
    "PufJz@s^CnewKOYJeiKFn^AC",
)
# Orders of the generated structured instances, fixed per slot: the cutset
# search switches strategy above 16 vertices, which changes a graph's cost
# tenfold.
HEPTAGRAM_ALL_COMPLETE_N = (14, 15, 16, 16, 17, 18)
HEPTAGRAM_CUSTOM_N = (15, 16, 16, 16, 17, 17, 17, 18)
T11_N = (13, 14, 15, 16, 17)


def has_c7_complement(h: nx.Graph) -> bool:
    for combo in combinations(h.nodes(), 7):
        sub = h.subgraph(combo)
        if all(d == 4 for _, d in sub.degree()) and nx.is_isomorphic(sub, C7_COMPLEMENT):
            return True
    return False


def has_clique_cutset(h: nx.Graph) -> bool:
    """Some clique (possibly a single vertex) whose removal disconnects h."""
    for clique in nx.enumerate_all_cliques(h):
        rest = h.subgraph(set(h) - set(clique))
        if rest.number_of_nodes() and not nx.is_connected(rest):
            return True
    return False


def answers(text: str) -> list[int]:
    n, rows = graph6.decode(text)
    g = Graph(n, rows)
    h = to_networkx(g)
    omega = max(len(c) for c in nx.find_cliques(h))
    return [
        int(not odd_holes_by_isomorphism(g)),
        int(not full_houses_by_degree(g)),
        omega,
        naive_chromatic(g),
        int(has_c7_complement(h)),
        int(nx.is_connected(h)),
        int(has_clique_cutset(h)),
    ]


def _sizes_with_order(rng: random.Random, parts: int, lo: int, hi: int, n: int) -> list[int]:
    while True:
        sizes = [rng.randint(lo, hi) for _ in range(parts)]
        if sum(sizes) == n:
            return sizes


def _outer_sizes(rng: random.Random, n_outer: int) -> list[int]:
    """Outer group sizes 0-2 with total n_outer and an empty group among any
    three consecutive ones (rule 10)."""
    while True:
        sizes = [rng.randint(0, 2) for _ in range(7)]
        if sum(sizes) == n_outer and not any(
            sizes[i] and sizes[(i + 1) % 7] and sizes[(i + 2) % 7] for i in range(7)
        ):
            return sizes


def structured_instances() -> list[tuple[str, str, str]]:
    """(kind, graph6, witness size vector) for every structured instance.

    A ``custom`` draw that fails to generate (GenerationError) is followed
    by the next shape from the same random stream; draws are never filtered
    on what the recognizer does."""
    rng = random.Random(STRUCTURED_SEED)
    out = [("known_miss", text, "-") for text in KNOWN_MISSES]

    def sizes(vec) -> str:
        return ",".join(map(str, vec))

    for profile, orders in (
        ("all_complete", HEPTAGRAM_ALL_COMPLETE_N),
        ("custom", HEPTAGRAM_CUSTOM_N),
    ):
        for n in orders:
            while True:
                ring_n = rng.randint(max(7, n - 8), min(14, n))
                ring = _sizes_with_order(rng, 7, 1, 2, ring_n)
                outer = _outer_sizes(rng, n - ring_n)
                try:
                    g, wit = generate_heptagram_type(ring, outer, profile=profile, rng=rng)
                except GenerationError:
                    continue
                ring_sizes, outer_sizes = wit.size_vector()
                text = graph6.encode(g.n, list(g.rows))
                out.append((f"heptagram_{profile}", text, sizes(ring_sizes) + ";" + sizes(outer_sizes)))
                break
    for n in T11_N:
        g, wit = generate_t11_type(_sizes_with_order(rng, 11, 1, 2, n))
        out.append(("t11", graph6.encode(g.n, list(g.rows)), sizes(wit.size_vector())))
    return out


def atlas_facts() -> dict:
    """Counts by order and the number of (odd hole, full house)-free graphs,
    over networkx's atlas of all graphs with at most 7 vertices."""
    by_n = [0] * 8
    members = 0
    for h in nx.graph_atlas_g():
        by_n[h.number_of_nodes()] += 1
        index = {v: i for i, v in enumerate(h.nodes())}
        g = Graph.from_edges(len(index), [(index[u], index[v]) for u, v in h.edges()])
        members += not odd_holes_by_isomorphism(g) and not full_houses_by_degree(g)
    return {"graphs_by_n": by_n, "t1.4_population": members}


def main() -> None:
    here = os.path.dirname(os.path.abspath(__file__))
    with open(os.path.join(here, "structured.tsv"), "w") as fh:
        fh.write("#kind\tgraph6\twitness_sizes\n")
        for row in structured_instances():
            fh.write("\t".join(row) + "\n")
    with open(os.path.join(here, "known.json"), "w") as fh:
        json.dump({"up_to_7": atlas_facts()}, fh, indent=1, sort_keys=True)
        fh.write("\n")
    rng = random.Random(POOL_SEED)
    with open(os.path.join(here, "pool.tsv"), "w") as fh:
        fh.write("#graph6\todd_hole_free\tfull_house_free\tomega\tchi\tc7_complement\tconnected\tclique_cutset\n")
        for n in SIZES:
            for _ in range(PER_SIZE):
                text = graph6.random_gnp_half(n, rng)
                fh.write("\t".join([text] + [str(x) for x in answers(text)]) + "\n")


if __name__ == "__main__":
    main()
