"""Independent reference implementations used only to cross-check results.

Everything here favors obviousness over speed: plain backtracking in vertex
order, exhaustive subset scans, and networkx round trips.  None of it shares
code paths with the package under test, except that the heptagram-type
oracle checks its candidates with the class verifier, the class definition,
and the per-partition cutset search walks the package's cutset pool and
checks each candidate partition with ``verify_harmonious``.  The first
helpers are small ones that only the tests need: the full house, the
stable-set test and the vertex sets of the two sides of a partition.
"""

from functools import lru_cache
from itertools import combinations, product
from typing import Iterable

import networkx as nx

from heptalab import harmonious
from heptalab.graph import Graph, iter_bits, mask_of, to_graph6
from heptalab.structures import HeptagramTypeWitness, verify_heptagram_type


def full_house_graph() -> Graph:
    """K4 on vertices 0..3 plus vertex 4 seeing both ends of the edge 0-1."""
    edges = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3), (4, 0), (4, 1)]
    return Graph.from_edges(5, edges)


def is_stable_set(g: Graph, vertices: Iterable[int]) -> bool:
    """True when no two of the given vertices are adjacent."""
    sel = mask_of(vertices)
    for v in iter_bits(sel):
        if g.rows[v] & sel:
            return False
    return True


def side_vertex_sets(
    g: Graph, p: harmonious.HarmoniousPartition
) -> tuple[frozenset[int], frozenset[int]]:
    cut = p.cutset
    return (p.sides[0] | cut, p.sides[1] | cut)


def to_networkx(g: Graph) -> nx.Graph:
    h = nx.Graph()
    h.add_nodes_from(range(g.n))
    h.add_edges_from(g.edges())
    return h


def from_networkx(h: nx.Graph) -> Graph:
    nodes = sorted(h.nodes())
    index = {v: i for i, v in enumerate(nodes)}
    return Graph.from_edges(len(nodes), [(index[u], index[v]) for u, v in h.edges()])


def naive_chromatic(g: Graph) -> int:
    """Smallest k admitting a proper coloring, by plain index-order search."""
    if g.n == 0:
        return 0
    if g.edge_count == 0:
        return 1

    def colorable(k: int) -> bool:
        colors = [-1] * g.n

        def place(v: int) -> bool:
            if v == g.n:
                return True
            used = {colors[u] for u in range(v) if g.adjacent(u, v)}
            # first vertex of each new color class is forced, cutting
            # symmetric assignments
            cap = min(k, max(colors[:v], default=-1) + 2)
            for c in range(cap):
                if c not in used:
                    colors[v] = c
                    if place(v + 1):
                        return True
                    colors[v] = -1
            return False

        return place(0)

    k = 1
    while not colorable(k):
        k += 1
    return k


def greedy_coloring_by_scan(g: Graph) -> dict[int, int]:
    """The saturation-order greedy by a full scan at each step: the uncolored
    vertex of largest (distinct neighbor colors, degree), the lowest index on
    ties, takes the lowest color no neighbor has.  The colors come in the
    order they were set."""
    colors: dict[int, int] = {}

    def neighbor_colors(u: int) -> set[int]:
        return {colors[w] for w in iter_bits(g.rows[u]) if w in colors}

    def key(u: int) -> tuple[int, int]:
        return len(neighbor_colors(u)), g.rows[u].bit_count()

    uncolored = list(range(g.n))
    while uncolored:
        v = uncolored[0]
        for u in uncolored:
            if key(u) > key(v):
                v = u
        uncolored.remove(v)
        used = neighbor_colors(v)
        colors[v] = next(c for c in range(g.n) if c not in used)
    return colors


def is_bipartite(g: Graph) -> bool:
    side = [-1] * g.n
    for start in range(g.n):
        if side[start] != -1:
            continue
        side[start] = 0
        queue = [start]
        while queue:
            u = queue.pop()
            for v in range(g.n):
                if not g.adjacent(u, v):
                    continue
                if side[v] == -1:
                    side[v] = 1 - side[u]
                    queue.append(v)
                elif side[v] == side[u]:
                    return False
    return True


def isomorphic(g: Graph, h: Graph) -> bool:
    return nx.is_isomorphic(to_networkx(g), to_networkx(h))


def odd_holes_by_isomorphism(g: Graph) -> list[tuple[int, ...]]:
    """Every odd hole found by testing each odd subset against a cycle graph."""
    out = []
    gx = to_networkx(g)
    for size in range(5, g.n + 1, 2):
        cycle = nx.cycle_graph(size)
        for combo in combinations(range(g.n), size):
            if nx.is_isomorphic(gx.subgraph(combo), cycle):
                out.append(combo)
    return out


def has_antihole7_by_isomorphism(g: Graph) -> bool:
    """An induced 7-cycle in the complement, found by networkx's induced
    subgraph matcher."""
    complement = nx.complement(to_networkx(g))
    return nx.isomorphism.GraphMatcher(complement, nx.cycle_graph(7)).subgraph_is_isomorphic()


def full_houses_by_degree(g: Graph) -> list[tuple[int, ...]]:
    """Every 5-subset whose induced degree sequence and clique content match
    a K4 plus a vertex pinned to one of its edges."""
    out = []
    for combo in combinations(range(g.n), 5):
        degs = sorted(
            sum(1 for u in combo if u != v and g.adjacent(u, v)) for v in combo
        )
        if degs != [2, 3, 3, 4, 4]:
            continue
        # the two degree-4 vertices must be adjacent to everything, the
        # degree-2 vertex exactly to them
        low = [v for v in combo if sum(1 for u in combo if u != v and g.adjacent(u, v)) == 2]
        high = [v for v in combo if sum(1 for u in combo if u != v and g.adjacent(u, v)) == 4]
        if g.adjacent(high[0], high[1]) and all(g.adjacent(low[0], h) for h in high):
            out.append(combo)
    return out


def induced_path_lengths(g: Graph, a: int, b: int, allowed_interior: set[int]) -> set[int]:
    """Lengths of all induced a-b paths whose interior stays in the given set."""
    lengths: set[int] = set()
    if g.adjacent(a, b):
        lengths.add(1)

    def extend(path: list[int]) -> None:
        head = path[-1]
        for v in sorted(allowed_interior | {b}):
            if v in path:
                continue
            if not g.adjacent(head, v):
                continue
            # induced: no chord back to earlier path vertices
            if any(g.adjacent(v, u) for u in path[:-1]):
                continue
            if v == b:
                lengths.add(len(path))
                continue
            extend(path + [v])

    extend([a])
    return lengths


def clique_number_subsets(g: Graph) -> int:
    from heptalab.graph import is_clique

    best = 0
    for size in range(1, g.n + 1):
        if any(is_clique(g, set(c)) for c in combinations(range(g.n), size)):
            best = size
        else:
            break
    return best


def is_perfect_by_subgraphs(g: Graph) -> bool:
    """chi == omega on every induced subgraph.

    Both invariants are tabulated for every vertex subset s by dynamic
    programming over subsets, with v the lowest vertex of s: omega(s) is
    the larger of omega(s - v) and 1 + omega(s & N(v)); chi(s) is 1 plus
    the least chi(s - I) over the stable sets I of s holding v.
    """
    full = 1 << g.n
    omega = [0] * full
    chi = [0] * full
    stable = [True] * full
    for s in range(1, full):
        low = s & -s
        rest = s ^ low
        neighbors = g.rows[low.bit_length() - 1] & rest
        omega[s] = max(omega[rest], 1 + omega[neighbors])
        stable[s] = stable[rest] and not neighbors
        others = rest & ~neighbors
        best = g.n
        sub = others
        while True:
            if stable[sub | low]:
                best = min(best, 1 + chi[rest & ~sub])
            if not sub:
                break
            sub = (sub - 1) & others
        chi[s] = best
        if chi[s] != omega[s]:
            return False
    return True


T11_CORE = nx.circulant_graph(11, [3, 4, 5])


def t11_sizes_by_twins(g: Graph) -> tuple[int, ...] | None:
    """Part sizes in ring order when g is T11-type, else None.

    A graph is T11-type exactly when it has 11 false-twin classes (vertices
    with equal neighborhoods) and its quotient on them is isomorphic to the
    (3,4,5)-circulant on 11 vertices.
    """
    classes: dict[frozenset[int], list[int]] = {}
    for v in range(g.n):
        neighbors = frozenset(u for u in range(g.n) if g.adjacent(u, v))
        classes.setdefault(neighbors, []).append(v)
    if len(classes) != 11:
        return None
    size_of = {members[0]: len(members) for members in classes.values()}
    quotient = to_networkx(g).subgraph(size_of)
    matcher = nx.isomorphism.GraphMatcher(T11_CORE, quotient)
    if not matcher.is_isomorphic():
        return None
    return tuple(size_of[matcher.mapping[i]] for i in range(11))


def canonical_by_placement(g: Graph) -> Graph:
    """Isomorph of g with the lexicographically least graph6 string, by a
    placement search over per-bit column lists.

    Vertices are placed one position at a time.  At each node only the
    placements whose next column of upper-triangle bits is minimal among the
    remaining vertices are explored, and whole accumulated prefixes are
    compared against the best full string found so far.
    """
    n = g.n
    if n <= 1 or g.edge_count in (0, n * (n - 1) // 2):
        return g
    rows = g.rows
    hint = sorted(range(n), key=lambda v: (g.degree(v), v))
    best: list[int] | None = None
    best_perm: list[int] = []

    def rec(placed: list[int], placed_mask: int, bits: list[int]) -> None:
        nonlocal best, best_perm
        if len(placed) == n:
            if best is None or bits < best:
                best, best_perm = bits, placed[:]
            return
        ties: list[tuple[int, list[int]]] = []
        low: list[int] | None = None
        for v in hint:
            if placed_mask & (1 << v):
                continue
            col = [1 if rows[v] & (1 << u) else 0 for u in placed]
            if low is None or col < low:
                low, ties = col, [(v, col)]
            elif col == low:
                ties.append((v, col))
        prefix = bits + low
        if best is not None and prefix > best[: len(prefix)]:
            return
        for v, col in ties:
            placed.append(v)
            rec(placed, placed_mask | (1 << v), bits + col)
            placed.pop()

    rec([], 0, [])
    return g.relabel(best_perm)


@lru_cache(maxsize=None)
def nonisomorphic_by_dedupe(n: int) -> tuple[Graph, ...]:
    """Graphs on n vertices up to isomorphism: every one-vertex extension of
    every (n-1)-vertex representative, canonicalized by
    ``canonical_by_placement``, deduped on graph6 and sorted by it."""
    if n == 0:
        return (Graph.empty(0),)
    seen: dict[bytes, Graph] = {}
    for base in nonisomorphic_by_dedupe(n - 1):
        for neighbor_mask in range(1 << (n - 1)):
            cand = canonical_by_placement(base.with_vertex(neighbor_mask))
            seen.setdefault(to_graph6(cand), cand)
    return tuple(seen[key] for key in sorted(seen))


# ---------------------------------------------------------------------------
# separators and harmonious cutsets, by subset scans over plain bitmasks
# ---------------------------------------------------------------------------


def _adjacency(g: Graph) -> list[int]:
    return [sum(1 << v for v in range(g.n) if g.adjacent(u, v)) for u in range(g.n)]


def _bits(mask: int) -> list[int]:
    return [v for v in range(mask.bit_length()) if mask >> v & 1]


def _components(adj: list[int], within: int) -> list[int]:
    comps = []
    left = within
    while left:
        comp = stack = left & -left
        while stack:
            u = (stack & -stack).bit_length() - 1
            stack &= stack - 1
            new = adj[u] & within & ~comp
            comp |= new
            stack |= new
        comps.append(comp)
        left &= ~comp
    return comps


def minimal_separators_by_subsets(g: Graph) -> list[frozenset[int]]:
    """Every nonempty vertex set with at least two components of its removal
    adjacent to all of it, sorted by (size, members)."""
    adj = _adjacency(g)
    full = (1 << g.n) - 1
    out = []
    for sep in range(1, full + 1):
        fulls = 0
        for comp in _components(adj, full & ~sep):
            border = 0
            for u in _bits(comp):
                border |= adj[u]
            fulls += border & sep == sep
        if fulls >= 2:
            out.append(frozenset(_bits(sep)))
    out.sort(key=lambda s: (len(s), sorted(s)))
    return out


def _bipartite_within(adj: list[int], mask: int) -> bool:
    side: dict[int, int] = {}
    for start in _bits(mask):
        if start in side:
            continue
        side[start] = 0
        todo = [start]
        while todo:
            u = todo.pop()
            for v in _bits(adj[u] & mask):
                if v not in side:
                    side[v] = 1 - side[u]
                    todo.append(v)
                elif side[v] == side[u]:
                    return False
    return True


def _complete_multipartite_within(adj: list[int], mask: int) -> bool:
    """Non-adjacency is transitive on ``mask``."""
    vs = _bits(mask)
    return not any(
        a != c and not adj[a] >> b & 1 and not adj[b] >> c & 1 and adj[a] >> c & 1
        for a in vs
        for b in vs
        for c in vs
        if a != b and b != c
    )


def is_shaped(g: Graph, cut) -> bool:
    """The cutset induces a bipartite or a complete multipartite graph."""
    adj = _adjacency(g)
    mask = sum(1 << v for v in cut)
    return _bipartite_within(adj, mask) or _complete_multipartite_within(adj, mask)


def shaped_cutsets_by_subsets(g: Graph) -> set[int]:
    """Every vertex set (as a mask) whose removal leaves at least two
    components and that induces a bipartite or complete multipartite graph."""
    adj = _adjacency(g)
    full = (1 << g.n) - 1
    return {
        cut
        for cut in range(1, full + 1)
        if len(_components(adj, full & ~cut)) >= 2
        and (_bipartite_within(adj, cut) or _complete_multipartite_within(adj, cut))
    }


def shape_classes(rows: tuple[int, ...], cut: int) -> list[tuple[int, ...]] | None:
    """The ``_parity_pass`` classes of ``cut``'s shape, or None, by search
    from scratch: one class per component of a bipartite G[cut], its two
    color classes with the component's least vertex first; else the parts
    of a complete multipartite G[cut] as one class.  Classes and parts come
    in order of their least vertex."""
    classes = []
    remaining = cut
    while remaining:
        colors, layer, side = [0, 0], remaining & -remaining, 0
        while layer:
            colors[side] |= layer
            side ^= 1
            reach = 0
            for u in _bits(layer):
                reach |= rows[u]
            if reach & layer:  # an edge inside a BFS layer closes an odd cycle
                break
            layer = reach & cut & ~(colors[0] | colors[1])
        if layer:
            break
        classes.append((colors[0], colors[1]))
        remaining &= ~(colors[0] | colors[1])
    else:
        return classes
    # complete multipartite iff non-adjacency is an equivalence: the parts
    parts = []
    remaining = cut
    while remaining:
        part = cut & ~rows[(remaining & -remaining).bit_length() - 1]
        for v in _bits(part):
            if cut & ~rows[v] != part:
                return None
        parts.append(part)
        remaining &= ~part
    return [tuple(parts)]


def cutset_pool_from_scratch(g: Graph, separators: list[int]):
    """Every shaped set that disconnects g, each with its ``shape_classes``:
    the shaped separators (masks) in order, then the shaped, disconnecting
    one-vertex extensions of each admitted set in turn, each tested with a
    fresh component search.  ``find_harmonious_cutset`` tries only the first
    part; the lemma in the ``harmonious`` docstring says the rest cannot
    change an answer, and the tests check it against this pool."""
    full = (1 << g.n) - 1
    seen = set(separators)
    admitted = []
    for cut in separators:
        if (shape := shape_classes(g.rows, cut)) is not None:
            admitted.append(cut)
            yield cut, shape
    for base in admitted:  # grows while it is walked
        for v in _bits(full & ~base):
            cut = base | 1 << v
            if cut in seen:
                continue
            seen.add(cut)
            if len(_components(g.rows, full & ~cut)) >= 2:
                if (shape := shape_classes(g.rows, cut)) is not None:
                    admitted.append(cut)
                    yield cut, shape


def _set_partitions(items: list[int]):
    if not items:
        yield []
        return
    head, rest = items[0], items[1:]
    for sub in _set_partitions(rest):
        yield [[head]] + sub
        for i in range(len(sub)):
            yield sub[:i] + [[head] + sub[i]] + sub[i + 1 :]


def harmonious_partition_by_subsets(g: Graph) -> tuple[frozenset[int], ...] | None:
    """The first harmonious partition of a disconnecting vertex set, by
    subsets in mask order and set partitions: stable parts, pairwise
    complete when three or more, and every induced path between two cutset
    vertices with its interior off the cutset even when they share a part
    and odd otherwise.  None when there is none."""
    adj = _adjacency(g)
    full = (1 << g.n) - 1
    for cut in range(1, full + 1):
        if len(_components(adj, full & ~cut)) < 2:
            continue
        vs = _bits(cut)
        outside = set(_bits(full & ~cut))
        parities = {
            (a, b): {length % 2 for length in induced_path_lengths(g, a, b, outside)}
            for a, b in combinations(vs, 2)
        }
        if any(len(seen) == 2 for seen in parities.values()):
            continue  # no partition suits a pair joined by paths of both parities
        for parts in _set_partitions(vs):
            part_of = {v: i for i, part in enumerate(parts) for v in part}
            if len(parts) >= 3 and any(
                not adj[a] >> b & 1
                for p, q in combinations(parts, 2)
                for a in p
                for b in q
            ):
                continue
            if all(
                seen <= ({0} if part_of[a] == part_of[b] else {1})
                for (a, b), seen in parities.items()
            ):
                return tuple(frozenset(p) for p in parts)
    return None


def _candidate_partitions(adj: list[int], cut: int):
    """The partitions of ``cut`` that can be harmonious, in flip order: each
    two-coloring of a bipartite G[cut] with the least vertex in part 0, the
    later components of G[cut] flipped or not, earlier components first; or
    the parts of a complete multipartite G[cut], ordered by least vertex."""
    if _bipartite_within(adj, cut):
        colorings = []  # per component of G[cut]: its two color classes
        for comp in _components(adj, cut):
            classes, layer, side = [0, 0], comp & -comp, 0
            while layer:
                classes[side] |= layer
                side ^= 1
                reach = 0
                for u in _bits(layer):
                    reach |= adj[u]
                layer = reach & comp & ~(classes[0] | classes[1])
            colorings.append(classes)
        for flips in product((False, True), repeat=len(colorings) - 1):
            parts = [0, 0]
            for (own, other), flip in zip(colorings, (False,) + flips):
                parts[flip] |= own
                parts[not flip] |= other
            yield tuple(frozenset(_bits(m)) for m in parts if m)
    elif _complete_multipartite_within(adj, cut):
        parts = {cut & ~adj[u] | 1 << u for u in _bits(cut)}
        yield tuple(frozenset(_bits(m)) for m in sorted(parts, key=lambda m: m & -m))


def harmonious_cutset_by_partitions(g: Graph) -> tuple[str, object]:
    """(status, partition) of the first harmonious partition over every
    shaped disconnecting set (``cutset_pool_from_scratch``), found by
    verifying every candidate partition of each set in turn with
    ``verify_harmonious``: 2^(c-1) verifier calls for a bipartite cutset
    whose G[X] has c components."""
    adj = _adjacency(g)
    for cut, _ in cutset_pool_from_scratch(g, harmonious.minimal_separators(g)):
        partition = first_harmonious_candidate(g, adj, cut)
        if partition is not None:
            return "found", partition
    return "none", None


def first_harmonious_candidate(g: Graph, adj: list[int], cut: int):
    """The first candidate partition of ``cut``, in flip order, that
    ``verify_harmonious`` accepts, with the component of the least other
    vertex as the first side; None when none is accepted."""
    rest = (1 << g.n) - 1 & ~cut
    first = _components(adj, rest)[0]
    sides = (frozenset(_bits(first)), frozenset(_bits(rest & ~first)))
    for parts in _candidate_partitions(adj, cut):
        partition = harmonious.HarmoniousPartition(parts, sides)
        if harmonious.verify_harmonious(g, partition).status == "yes":
            return partition
    return None


ANTIHOLE_7 = nx.circulant_graph(7, [1, 2])


def heptagram_type_by_assignment(g: Graph) -> HeptagramTypeWitness | None:
    """A canonical heptagram-type witness of g, or None, by plain search.

    For every labeled induced 7-antihole (its vertex i in ring part i),
    each leftover vertex in index order tries every ring part j with no
    edge into parts j, j+3, j+4, then every outer group j with no edge into
    group j or ring parts j+-1, j+-2.  Every full assignment goes to
    ``verify_heptagram_type``; the first that passes is returned.
    """
    if sum(g.degree(v) >= 4 for v in range(g.n)) < 7:
        return None  # each antihole vertex has four neighbors in the antihole
    matcher = nx.isomorphism.GraphMatcher(to_networkx(g), ANTIHOLE_7)
    for mapping in matcher.subgraph_isomorphisms_iter():
        emb = sorted(mapping, key=mapping.get)
        rest = [v for v in range(g.n) if v not in mapping]

        def assign(idx: int, ring: list[int], outer: list[int]) -> HeptagramTypeWitness | None:
            if idx == len(rest):
                cand = HeptagramTypeWitness(
                    tuple(frozenset(_bits(m)) for m in ring),
                    tuple(frozenset(_bits(m)) for m in outer),
                )
                return cand.canonical() if verify_heptagram_type(g, cand).ok else None
            v = rest[idx]
            row = g.rows[v]
            for j in range(7):
                if row & (ring[j] | ring[(j + 3) % 7] | ring[(j + 4) % 7]):
                    continue
                ring[j] |= 1 << v
                found = assign(idx + 1, ring, outer)
                ring[j] &= ~(1 << v)
                if found:
                    return found
            for j in range(7):
                near = ring[(j + 1) % 7] | ring[(j + 2) % 7] | ring[(j + 5) % 7] | ring[(j + 6) % 7]
                if row & (outer[j] | near):
                    continue
                outer[j] |= 1 << v
                found = assign(idx + 1, ring, outer)
                outer[j] &= ~(1 << v)
                if found:
                    return found
            return None

        found = assign(0, [1 << v for v in emb], [0] * 7)
        if found:
            return found
    return None
