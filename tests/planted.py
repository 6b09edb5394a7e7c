"""Seeded construction of graphs: uniform random samples, and graphs with
a known harmonious cutset.

``glued_instances`` chains ring-family class members at single vertices.
The planted instances come in three families, all with bipartite or
near-bipartite sides so that both side subgraphs are odd-hole-free (needed
by the composition checks):

  A. two even cycles sharing one vertex, or sharing two vertices at even
     distance along both cycles (cutset = the shared vertices, one part)
  B. a theta graph with three odd arcs between two nonadjacent hubs
     (cutset = the hubs, two singleton parts)
  C. a triangle with two odd ears attached to different edges
     (cutset = the triangle, three singleton parts)
"""

import random
from dataclasses import dataclass
from typing import Sequence

from heptalab.graph import Graph
from heptalab.harmonious import HarmoniousPartition
from heptalab.structures import generate_heptagram_type, generate_t11_type


def from_edge_mask(n: int, mask: int) -> Graph:
    """Build from a bitmask over vertex pairs.

    Pair bits are ordered (0,1), (0,2), (1,2), (0,3), ... which matches
    the graph6 column-major upper triangle.
    """
    rows = [0] * n
    k = 0
    for j in range(1, n):
        for i in range(j):
            if (mask >> k) & 1:
                rows[i] |= 1 << j
                rows[j] |= 1 << i
            k += 1
    return Graph(n, rows)


def random_graphs(count: int, sizes: Sequence[int], seed: int) -> list[Graph]:
    """Uniform edge-probability-1/2 samples with n drawn uniformly from
    ``sizes``; fully determined by the seed."""
    if count < 0:
        raise ValueError("count must be nonnegative")
    if not sizes or any(s < 0 for s in sizes):
        raise ValueError("sizes must be nonempty and nonnegative")
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        n = sizes[rng.randrange(len(sizes))]
        pairs = n * (n - 1) // 2
        out.append(from_edge_mask(n, rng.getrandbits(pairs) if pairs else 0))
    return out


@dataclass(frozen=True)
class PlantedInstance:
    graph: Graph
    partition: HarmoniousPartition
    family: str


def _shared_vertex(rng: random.Random) -> PlantedInstance:
    a = 2 * rng.randint(2, 4)
    b = 2 * rng.randint(2, 4)
    # vertex 0 is shared; cycle A uses 1..a-1, cycle B uses a..a+b-2
    edges = [(i, i + 1) for i in range(a - 1)] + [(a - 1, 0)]
    second = [0] + list(range(a, a + b - 1))
    edges += [(second[i], second[i + 1]) for i in range(b - 1)] + [(second[-1], 0)]
    g = Graph.from_edges(a + b - 1, edges)
    p = HarmoniousPartition(
        (frozenset({0}),),
        (frozenset(range(1, a)), frozenset(range(a, a + b - 1))),
    )
    return PlantedInstance(g, p, "shared-vertex")


def _shared_pair(rng: random.Random) -> PlantedInstance:
    # both glue distances even, so every induced path between the two
    # shared vertices has even length
    a = 2 * rng.randint(2, 4)
    d1 = 2 * rng.randint(1, a // 2 - 1)
    b = 2 * rng.randint(2, 4)
    d2 = 2 * rng.randint(1, b // 2 - 1)
    edges = []
    # cycle A on vertices 0..a-1 with hubs 0 and d1
    edges += [(i, (i + 1) % a) for i in range(a)]
    # cycle B reuses hubs 0 and d1, interior vertices get fresh labels
    arc1 = [0] + list(range(a, a + d2 - 1)) + [d1]
    arc2 = [d1] + list(range(a + d2 - 1, a + b - 2)) + [0]
    edges += [(arc1[i], arc1[i + 1]) for i in range(len(arc1) - 1)]
    edges += [(arc2[i], arc2[i + 1]) for i in range(len(arc2) - 1)]
    n = a + b - 2
    g = Graph.from_edges(n, edges)
    side_a = frozenset(range(a)) - {0, d1}
    side_b = frozenset(range(a, n))
    p = HarmoniousPartition((frozenset({0, d1}),), (side_a, side_b))
    return PlantedInstance(g, p, "shared-pair")


def _theta(rng: random.Random) -> PlantedInstance:
    # hubs 0 and 1, three arcs of odd length >= 3
    lengths = [2 * rng.randint(1, 3) + 1 for _ in range(3)]
    edges = []
    interiors = []
    nxt = 2
    for length in lengths:
        inner = list(range(nxt, nxt + length - 1))
        nxt += length - 1
        chain = [0] + inner + [1]
        edges += [(chain[i], chain[i + 1]) for i in range(len(chain) - 1)]
        interiors.append(frozenset(inner))
    g = Graph.from_edges(nxt, edges)
    p = HarmoniousPartition(
        (frozenset({0}), frozenset({1})),
        (interiors[0], interiors[1] | interiors[2]),
    )
    return PlantedInstance(g, p, "theta")


def _eared_triangle(rng: random.Random) -> PlantedInstance:
    # triangle 0,1,2; one odd ear from 0 to 1, another from 1 to 2
    edges = [(0, 1), (1, 2), (0, 2)]
    nxt = 3
    sides = []
    for u, v in ((0, 1), (1, 2)):
        length = 2 * rng.randint(1, 4) + 1
        inner = list(range(nxt, nxt + length - 1))
        nxt += length - 1
        chain = [u] + inner + [v]
        edges += [(chain[i], chain[i + 1]) for i in range(len(chain) - 1)]
        sides.append(frozenset(inner))
    g = Graph.from_edges(nxt, edges)
    p = HarmoniousPartition(
        (frozenset({0}), frozenset({1}), frozenset({2})),
        (sides[0], sides[1]),
    )
    return PlantedInstance(g, p, "eared-triangle")


_FAMILIES = (_shared_vertex, _shared_pair, _theta, _eared_triangle)


def planted_instances(count: int, seed: int) -> list[PlantedInstance]:
    rng = random.Random(seed)
    out = []
    for i in range(count):
        out.append(_FAMILIES[i % len(_FAMILIES)](rng))
    assert all(inst.graph.n <= 20 for inst in out)
    return out


def glued_instances(blocks: int, seed: int) -> list[Graph]:
    """Chains of class members glued at single vertices (1-sums): the i-th
    graph is the chain of the first i + 1 blocks.  Blocks alternate between
    heptagram-type instances (ring parts of 1-3 vertices) and T11 blow-ups
    (parts of 1-2 vertices); each new block shares one random vertex with
    the chain so far.  Odd holes and the full house are 2-connected, so
    every chain stays in the class; every block has omega = 3 and the
    first holds the 7-vertex antihole, so every chain has omega = 3 and
    chi = 4, and each glue vertex is a cut vertex."""
    rng = random.Random(seed)
    n, edges, out = 0, [], []
    for i in range(blocks):
        if i % 2 == 0:
            h, _ = generate_heptagram_type([rng.randint(1, 3) for _ in range(7)])
        else:
            h, _ = generate_t11_type([rng.randint(1, 2) for _ in range(11)])
        if n:  # h's vertex b becomes the chain's vertex a
            a, b = rng.randrange(n), rng.randrange(h.n)
            fresh = iter(range(n, n + h.n - 1))
            name = [a if v == b else next(fresh) for v in range(h.n)]
            n += h.n - 1
        else:
            name, n = list(range(h.n)), h.n
        edges += [
            (name[u], name[v]) for u in range(h.n) for v in range(u + 1, h.n) if h.adjacent(u, v)
        ]
        out.append(Graph.from_edges(n, edges))
    return out
