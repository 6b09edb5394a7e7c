"""Exact chromatic number and the structure-guided 4-colorings.

``chromatic_number_exact`` is a saturation-ordered branch and bound squeezed
between a clique lower bound and a greedy upper bound; a value of chi is only
reported once the (chi - 1)-search has been exhausted.  Both the greedy and
the search track each vertex's neighbor colors as a bitmask; the search keeps
the masks current with per-color counts as it places and undoes colors.  It
runs at any order under a ``detect.Budget``, each node costing one step per
vertex.  The ring families' 4-colorings need no search; they live in
``structures``, next to the pair tables they read.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Mapping

from .detect import Budget, clique_number
from .graph import Graph, iter_bits


@dataclass(frozen=True)
class Coloring:
    """A color per vertex (vertex -> color index in [0, k))."""

    colors: Mapping[int, int]
    k: int

    def has_color(self, c: object) -> bool:
        """True when ``c`` is a plain ``int`` (not a ``bool``) in ``0..k-1``."""
        return type(c) is int and 0 <= c < self.k


@dataclass(frozen=True)
class ChiResult:
    chi: int
    coloring: Coloring
    nodes_explored: int


def is_proper(g: Graph, coloring: Coloring) -> bool:
    """True when the colored vertices are those of ``g`` (``Graph.has_vertex``),
    every color is one of the palette (``Coloring.has_color``) and no edge is
    monochrome.

    Raises ValueError if some vertex of ``g`` has no color at all.
    """
    cols = coloring.colors
    for v in range(g.n):
        if v not in cols:
            raise ValueError(f"vertex {v} is uncolored")
    if not all(map(g.has_vertex, cols)) or not all(map(coloring.has_color, cols.values())):
        return False
    for u in range(g.n):
        cu = cols[u]
        for v in iter_bits(g.rows[u] >> (u + 1)):
            if cols[u + 1 + v] == cu:
                return False
    return True


def greedy_coloring(g: Graph) -> Coloring:
    """Deterministic saturation-order greedy; an upper bound, not optimal.

    Each step colors the uncolored vertex of most distinct neighbor colors,
    then of highest degree, then of lowest index, with the lowest free color.
    """
    n = g.n
    if n == 0:
        return Coloring({}, 0)
    rows = g.rows
    degree = [r.bit_count() for r in rows]
    neighbor_colors = [0] * n  # bitmask of the colors among each vertex's neighbors
    uncolored = list(range(n))
    colors: dict[int, int] = {}
    for _ in range(n):
        v = uncolored[0]
        best = (neighbor_colors[v].bit_count(), degree[v])
        for u in uncolored:
            key = (neighbor_colors[u].bit_count(), degree[u])
            if key > best:  # ties keep the lowest index
                v, best = u, key
        uncolored.remove(v)
        seen = neighbor_colors[v]
        c = (~seen & (seen + 1)).bit_length() - 1  # the lowest color not seen
        colors[v] = c
        for w in iter_bits(rows[v]):
            neighbor_colors[w] |= 1 << c
    return Coloring(colors, max(colors.values()) + 1)


def _try_k_coloring(
    g: Graph, k: int, seed_clique: tuple[int, ...], budget: Budget
) -> tuple[dict[int, int] | None, int]:
    """Exhaustive k-colorability with DSATUR ordering.

    The seed clique is pre-colored (any optimal coloring can be relabeled to
    agree, so this loses nothing) and brand-new colors are introduced at most
    one at a time to kill color-permutation symmetry.  Returns the coloring
    and the number of search nodes, or ``None`` and the node count.
    """
    n = g.n
    rows = g.rows
    degree = [r.bit_count() for r in rows]
    colors = [-1] * n
    nodes = 0
    # per vertex, its neighbors of each color (count[u * k + c]) and the
    # mask of the colors they use, kept as colors are placed and undone
    count = [0] * (n * k)
    seen = [0] * n

    def paint(v: int, c: int, step: int) -> None:
        colors[v] = c if step > 0 else -1
        for w in iter_bits(rows[v]):
            count[w * k + c] += step
            if count[w * k + c]:
                seen[w] |= 1 << c
            else:
                seen[w] &= ~(1 << c)

    for idx, v in enumerate(seed_clique):
        paint(v, idx, 1)
    used_max = len(seed_clique) - 1

    def branch(used_max: int) -> tuple[int, Iterator[int], int]:
        # the vertex to color next (DSATUR) and the colors it may still take
        best_v, best_key = -1, -1
        for u in range(n):
            if colors[u] == -1:
                key = seen[u].bit_count() * n + degree[u]
                if key > best_key:  # ties keep the lowest index
                    best_v, best_key = u, key
        banned, cap = seen[best_v], min(k - 1, used_max + 1)
        return best_v, (c for c in range(cap + 1) if not banned >> c & 1), used_max

    # depth-first over an explicit stack, so no order is too deep to search
    remaining = colors.count(-1)
    stack = [branch(used_max)]
    while remaining:
        if not stack:
            return None, nodes
        v, options, used_max = stack[-1]
        c = next(options, None)
        if colors[v] != -1:
            paint(v, colors[v], -1)
        if c is None:
            stack.pop()
            continue
        nodes += 1
        budget.spend(n)
        paint(v, c, 1)
        if len(stack) == remaining:
            break
        stack.append(branch(max(used_max, c)))
    return {v: colors[v] for v in range(n)}, nodes


def chromatic_number_exact(
    g: Graph, budget: Budget | None = None, clique: tuple[int, ...] | None = None
) -> ChiResult:
    """Exact chromatic number with a certified optimal coloring.

    Ascends k from the clique bound; the answer k is certified because every
    smaller k (down to the clique number, below which no coloring can exist)
    fails an exhaustive search.  The searches share ``budget`` (a fresh
    ``Budget()`` if None); an exhausted one raises SearchBudgetExceeded.
    ``clique``, a maximum clique of ``g`` that the caller already holds,
    saves the ``clique_number`` search.
    """
    budget = Budget() if budget is None else budget
    if g.n == 0:
        return ChiResult(0, Coloring({}, 0), 0)
    witness = clique_number(g)[1] if clique is None else clique
    omega = len(witness)
    upper = greedy_coloring(g)
    total_nodes = 0
    if omega == upper.k:
        return ChiResult(omega, upper, 0)
    for k in range(omega, upper.k):
        found, nodes = _try_k_coloring(g, k, witness, budget)
        total_nodes += nodes
        if found is not None:
            return ChiResult(k, Coloring(found, k), total_nodes)
    return ChiResult(upper.k, upper, total_nodes)
