"""Detectors for the forbidden configurations and basic graph measures.

The searches here are exact.  One induced-cycle search walks induced paths
with bitmask pruning and answers both cycle questions the paper asks:
``find_odd_hole`` returns a shortest induced odd cycle of length at least
five, and ``has_c7_complement`` looks for an induced 7-cycle in the
complement, which is an induced 7-vertex antihole of the graph.
``find_full_house`` enumerates 4-cliques and scans for the attached fifth
vertex.  Their deliberately simple exhaustive counterparts, used as
cross-check oracles, live in the test suite (``tests/naive.py``).
``verify_hit`` re-checks a witness of each kind directly, without a search.
Every exponential search of the package charges its steps to a ``Budget``,
whose ``spend`` is the one place that raises ``SearchBudgetExceeded``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .graph import Graph, iter_bits

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

    Enumerates 4-cliques and scans fifth vertices with exactly two neighbors
    inside.
    """
    rows = g.rows
    for a in range(g.n):
        above_a = ~((1 << (a + 1)) - 1)
        for b in iter_bits(rows[a] & above_a):
            common_ab = rows[a] & rows[b] & ~((1 << (b + 1)) - 1)
            for c in iter_bits(common_ab):
                common = common_ab & rows[c] & ~((1 << (c + 1)) - 1)
                for d in iter_bits(common):
                    quad = (1 << a) | (1 << b) | (1 << c) | (1 << d)
                    for v in range(g.n):
                        if (1 << v) & quad:
                            continue
                        if (rows[v] & quad).bit_count() == 2:
                            return PatternHit(
                                "full_house", tuple(sorted((a, b, c, d, v)))
                            )
    return None


def has_c7_complement(g: Graph) -> bool:
    """True when ``g`` has an induced 7-vertex antihole, that is, when its
    complement has an induced 7-cycle.  The complement's rows are valid by
    construction, so they go to the search without building a Graph."""
    full = (1 << g.n) - 1
    rows = [(full ^ r) & ~(1 << u) for u, r in enumerate(g.rows)]
    return _induced_cycle(rows, g.n, 7, 7, None) is not None


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

    Branch and bound: candidates are greedily colored and visited in reverse
    color order, pruning branches whose color bound cannot beat the best.
    """
    n = g.n
    if n == 0:
        return 0, ()
    rows = g.rows
    best: list[int] = []

    def expand(current: list[int], cand: int) -> None:
        nonlocal best
        if not cand:
            if len(current) > len(best):
                best = list(current)
            return
        # greedy coloring of the candidate set
        colors: dict[int, int] = {}
        seq: list[int] = []
        rest = cand
        color = 0
        while rest:
            color += 1
            avail = rest
            while avail:
                v = (avail & -avail).bit_length() - 1
                colors[v] = color
                seq.append(v)
                avail &= ~rows[v] & ~((1 << (v + 1)) - 1)
                rest ^= 1 << v
        pool = cand
        for v in reversed(seq):
            if len(current) + colors[v] <= len(best):
                return
            current.append(v)
            expand(current, pool & rows[v])
            current.pop()
            pool ^= 1 << v

    expand([], (1 << n) - 1)
    return len(best), tuple(sorted(best))

