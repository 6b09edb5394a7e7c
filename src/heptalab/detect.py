"""Detectors for the forbidden configurations and basic graph measures.

The searches here are exact.  One induced-cycle search walks induced paths
with bitmask pruning and answers both cycle questions the paper asks:
``find_odd_hole`` returns a shortest induced odd cycle of length at least
five, and ``has_c7_complement`` looks for an induced 7-cycle in the
complement, which is an induced 7-vertex antihole of the graph, among the
vertices that a peel by degree leaves.  ``find_full_house`` is polynomial:
it asks whether the common neighborhood of some edge is not complete
multipartite.  Their deliberately simple exhaustive counterparts, used as
cross-check oracles, live in the test suite (``tests/naive.py``).
``verify_hit`` re-checks a witness of each kind directly, without a search.
``find_odd_hole`` charges its steps to a ``Budget``, as do the chi and
cutset searches elsewhere, and ``Budget.spend`` is the one place that
raises ``SearchBudgetExceeded``; ``clique_number`` and the antihole search
take no budget.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .graph import Graph, edge_between, iter_bits, multipartite_parts

DEFAULT_BUDGET = 10_000_000  # search steps of a budgeted search unless told otherwise


class SearchBudgetExceeded(RuntimeError):
    """A bounded search ran out of its node budget before finishing."""

    def __init__(self, steps: int) -> None:
        super().__init__(f"search budget exhausted after {steps} steps")
        self.steps = steps


class Budget:
    """Search steps allowed (``limit``) and spent so far (``spent``); one
    budget may be shared by the stages of a search."""

    def __init__(self, limit: int = DEFAULT_BUDGET) -> None:
        self.limit = limit
        self.spent = 0

    def spend(self, k: int = 1) -> None:
        """Charge ``k`` steps; past the limit, raise SearchBudgetExceeded."""
        self.spent += k
        if self.spent > self.limit:
            raise SearchBudgetExceeded(self.spent)


@dataclass(frozen=True)
class PatternHit:
    """Witness of an induced configuration: the vertex set plus its kind."""

    kind: str
    vertices: tuple[int, ...]


def c7_complement() -> Graph:
    """The 7-vertex ring where i ~ j exactly when they are 1 or 2 apart."""
    return Graph.circulant(7, (1, 2))


def _induced_cycle(
    rows: Sequence[int], n: int, shortest: int, longest: int, budget: Budget | None
) -> tuple[int, ...] | None:
    """A shortest induced cycle of odd length in ``shortest..longest``, or None.

    The search enumerates induced paths from each root r using only vertices
    above r, closing cycles back at r, and returns the first cycle of length
    ``shortest`` at once.  A path is dropped as soon as no vertex is left
    that could still close it: adjacent to r, clear of the interior and
    above path[1].  Each extension step charges ``budget``, if any.
    """
    best: tuple[int, ...] | None = None
    for r in range(n - shortest + 1):
        higher = ~((1 << (r + 1)) - 1)
        root_row = rows[r]
        for v1 in reversed(list(iter_bits(root_row & higher))):
            closable = root_row & ~((1 << (v1 + 1)) - 1)  # closers: r's neighbors above v1
            if not closable:
                continue
            # stack entries: (path, mid_adj) where mid_adj covers neighbors
            # of the interior vertices path[1:-1]
            stack = [((r, v1), 0)]
            while stack:
                path, mid_adj = stack.pop()
                head = path[-1]
                k = len(path) - 1
                if budget is not None:
                    budget.spend()
                if k % 2 == 1 and k + 2 >= shortest:
                    for w in iter_bits(rows[head] & closable & ~mid_adj):
                        cycle = path + (w,)
                        if best is None or len(cycle) < len(best):
                            best = cycle
                            if len(best) == shortest:
                                return best
                if k + 3 > (longest if best is None else len(best) - 1):
                    continue  # any extension closes beyond the window or the best
                new_mid = mid_adj | rows[head]
                if not closable & ~new_mid:
                    continue  # no vertex is left to close any extension
                ext = rows[head] & higher & ~mid_adj & ~root_row
                for v in iter_bits(ext):
                    stack.append((path + (v,), new_mid))
    return best


def find_odd_hole(g: Graph, budget: Budget | None = None) -> PatternHit | None:
    """Return a shortest induced odd cycle of length >= 5, or None.

    Each extension step charges ``budget`` (a fresh ``Budget()`` if None),
    so an exhausted one raises rather than return a possibly wrong answer.
    """
    cycle = _induced_cycle(g.rows, g.n, 5, g.n, Budget() if budget is None else budget)
    return None if cycle is None else PatternHit("odd_hole", cycle)


def find_full_house(g: Graph) -> PatternHit | None:
    """Find five vertices inducing a K4 with a pendant vertex on one edge.

    Lemma: g has a full house exactly when some edge ab has a common
    neighborhood C = N(a) & N(b) that induces no complete multipartite
    graph.  Proof: in a full house, the K4 is a, b, c, d and the fifth
    vertex v sees a and b.  Then c, d and v lie in C, and they induce an
    edge plus an isolated vertex.  Conversely, such a triple c ~ d, with v
    seeing neither, in C makes {a, b, c, d} a K4 and v the fifth vertex.  A
    graph without an induced edge plus an isolated vertex is complete
    multipartite: its complement has no induced path on three vertices, so
    it is a disjoint union of cliques.

    Each edge ab with a < b costs O(n) mask operations
    (``multipartite_parts``), so the test takes O(m n) of them.  The
    witness is a, b and the first offending triple in C.
    """
    rows = g.rows
    for a in range(g.n):
        if rows[a].bit_count() < 4:
            continue  # a sees b and three vertices of C
        for b in iter_bits(rows[a] & ~((1 << (a + 1)) - 1)):
            common = rows[a] & rows[b]
            if common.bit_count() < 3 or multipartite_parts(rows, common) is not None:
                continue
            for v in iter_bits(common):
                away = common & ~rows[v] & ~(1 << v)
                edge = edge_between(g, away, away)
                if edge is not None:
                    return PatternHit("full_house", tuple(sorted((a, b, v) + edge)))
    return None


def has_c7_complement(g: Graph) -> bool:
    """True when ``g`` has an induced 7-vertex antihole, that is, when its
    complement has an induced 7-cycle.

    Each vertex of an antihole has 4 neighbors and 2 non-neighbors inside
    it, so an antihole survives a peel that repeatedly drops every vertex
    with fewer than 4 neighbors, or fewer than 2 non-neighbors, among the
    vertices left.  The cycle search runs on the complement of what is
    left; its rows are valid by construction, so no Graph is built.
    """
    rows, left = g.rows, (1 << g.n) - 1
    while True:
        size = left.bit_count()
        if size < 7:
            return False
        keep = 0
        for u in iter_bits(left):
            if 4 <= (rows[u] & left).bit_count() <= size - 3:
                keep |= 1 << u
        if keep == left:
            break
        left = keep
    comp = [0] * g.n
    for u in iter_bits(left):
        comp[u] = (left & ~rows[u]) ^ (1 << u)
    return _induced_cycle(comp, g.n, 7, 7, None) is not None


def _is_hole(g: Graph, cycle: int) -> bool:
    """True when the vertices of the mask ``cycle`` induce a connected
    2-regular subgraph of ``g``, that is, an induced cycle."""
    return (
        all((g.rows[v] & cycle).bit_count() == 2 for v in iter_bits(cycle))
        and g.component_of(cycle & -cycle, cycle) == cycle
    )


def verify_hit(g: Graph, hit: PatternHit) -> bool:
    """Re-check a reported hit against ``g`` from scratch, without a search.

    The vertices must be distinct vertices of ``g`` (``Graph.vertex_mask``),
    or the answer is False.  An odd hole is an odd number of vertices, at
    least 5, inducing a connected 2-regular subgraph, so it is checked at
    any length.  A 7-antihole is seven vertices inducing such a subgraph in
    the complement.
    A full house is five vertices with exactly two non-adjacent pairs, and
    the pairs share a vertex: its complement is a path on three vertices
    plus two isolated ones, so the non-neighbors inside have counts 2, 1, 1,
    0, 0.
    """
    if hit.kind not in ("odd_hole", "c7_complement", "full_house"):
        raise ValueError(f"no check for hit kind {hit.kind!r}")
    vs = hit.vertices
    inside = g.vertex_mask(vs)
    if inside is None:
        return False
    if hit.kind == "odd_hole":
        return len(vs) % 2 == 1 and len(vs) >= 5 and _is_hole(g, inside)
    if hit.kind == "c7_complement":
        return len(vs) == 7 and _is_hole(g.complement(), inside)
    strangers = sorted((inside & ~g.rows[v]).bit_count() - 1 for v in vs)
    return strangers == [0, 0, 1, 1, 2]


def clique_number(g: Graph) -> tuple[int, tuple[int, ...]]:
    """Exact maximum clique size with a witness.

    Branch and bound on an explicit stack: candidates are greedily colored
    and visited in reverse color order, pruning branches whose color bound
    cannot beat the best.
    """
    rows = g.rows

    def colored(cand: int) -> list[tuple[int, int]]:
        """A greedy coloring of ``cand``: (vertex, color) in coloring order."""
        seq: list[tuple[int, int]] = []
        rest, color = cand, 0
        while rest:
            color += 1
            avail = rest
            while avail:
                v = (avail & -avail).bit_length() - 1
                seq.append((v, color))
                avail &= ~rows[v] & ~((1 << (v + 1)) - 1)
                rest ^= 1 << v
        return seq

    best: list[int] = []
    current: list[int] = []
    # one frame per open branch: its colored candidates not yet visited (the
    # next one last) and their mask; frames below the first extend ``current``
    full = (1 << g.n) - 1
    stack = [[colored(full), full]]
    while stack:
        frame = stack[-1]
        seq = frame[0]
        if not seq or len(current) + seq[-1][1] <= len(best):
            stack.pop()
            if stack:
                current.pop()
            continue
        v = seq.pop()[0]
        cand = frame[1] & rows[v]
        frame[1] ^= 1 << v
        current.append(v)
        if cand:
            stack.append([colored(cand), cand])
        else:
            if len(current) > len(best):
                best = list(current)
            current.pop()
    return len(best), tuple(sorted(best))
