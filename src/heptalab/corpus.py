"""Small-graph corpora: exhaustive enumeration up to isomorphism.

Enumeration is orderly generation.  A graph is canonical when no labeling
gives it a lexicographically smaller graph6 bit string; each canonical
(n-1)-vertex graph is extended by one vertex with every possible neighbor
mask, and an extension is kept exactly when it is itself canonical.  The
canonicity test places vertices one position at a time with prefix pruning
and stops at the first smaller labeling.  Every class is made once, with no
dedupe; this is intended for n <= 8.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Sequence

from .graph import Graph

MAX_ENUMERATION_N = 8


def _column(row: int, k: int) -> int:
    """Column k of a graph6 string: the adjacency of a vertex with neighbor
    mask ``row`` to vertices 0..k-1, vertex 0 in the most significant bit."""
    col = 0
    for i in range(k):
        col = (col << 1) | (row >> i & 1)
    return col


def _columns(rows: Sequence[int]) -> list[int]:
    """The graph6 string of ``rows`` as given, one int per column."""
    return [_column(row, k) for k, row in enumerate(rows)]


def _labeling_below(rows: Sequence[int], bound: Sequence[int]) -> list[int] | None:
    """The canonicity test that orderly generation runs.

    Looks for a labeling of ``rows`` whose graph6 string, column by column,
    is lexicographically below ``bound`` (``_columns`` of ``rows``), and
    returns at the first one it meets: its placement order (``order[pos]``
    is the vertex placed at position ``pos``, the argument ``Graph.relabel``
    expects), or None when there is none, that is when ``rows`` is canonical.

    The graph6 string is column-major, so placing vertices one position at a
    time fixes it one column at a time.  An unplaced vertex's column is its
    adjacency to the placed ones, an int with the first placed vertex in the
    most significant bit; vertices of equal column form a cell, and the
    cells are kept as (vertex mask, column) pairs in increasing column
    order.  Placing u splits each cell into the non-neighbors and the
    neighbors of u, appending one bit to the column, which keeps the order.
    Only the first cell, the least column, is ever placed next (a larger
    column loses against any completion of a smaller one), and its column is
    compared with the same column of the bound.  Of two twins (equal
    neighborhoods apart from each other) only the lower is tried: swapping
    them is an automorphism that fixes everything placed.
    """
    n = len(rows)
    placed: list[int] = []

    def rec(k: int, cells: list[tuple[int, int]]) -> list[int] | None:
        if k == n:
            return None
        ties, low = cells[0]
        if low > bound[k]:
            return None
        if low < bound[k]:
            return placed + [v for m, _ in cells for v in range(n) if m >> v & 1]
        rest = ties
        while rest:
            bit = rest & -rest
            rest ^= bit
            u = bit.bit_length() - 1
            row = rows[u]
            below = ties & (bit - 1)
            while below:
                w = below & -below
                if not (rows[w.bit_length() - 1] ^ row) & ~(w | bit):
                    break  # a twin of a sibling already considered
                below ^= w
            if below:
                continue
            child = []
            for m, c in cells:
                m &= ~bit
                if m & ~row:
                    child.append((m & ~row, c << 1))
                if m & row:
                    child.append((m & row, c << 1 | 1))
            placed.append(u)
            order = rec(k + 1, child)
            if order is not None:
                return order
            placed.pop()
        return None

    return rec(0, [((1 << n) - 1, 0)])


@lru_cache(maxsize=None)
def nonisomorphic_graphs(n: int) -> tuple[Graph, ...]:
    """All graphs on n vertices up to isomorphism, in canonical form,
    ordered by canonical graph6 string.

    Orderly generation (Read, 1978): the graph6 string of a graph is that of
    the graph minus its last vertex followed by the last vertex's column, so
    deleting the last vertex of a canonical graph leaves a canonical graph.
    Each class is therefore made exactly once, as the one canonical
    one-vertex extension of one canonical (n-1)-vertex graph.

    Before the full test, an extension is dropped when moving the new vertex
    to some position j < n-1 already gives a smaller column j: the columns
    before j stay the parent's, and the new one is the top j bits of the new
    vertex's column.

    The output needs no sort: the parents come in graph6 order, and each
    parent's extensions are made in increasing last column, which is the
    tail of their graph6 bit string."""
    if not 0 <= n <= MAX_ENUMERATION_N:
        raise ValueError(f"enumeration supported for 0 <= n <= {MAX_ENUMERATION_N}")
    if n == 0:
        return (Graph.empty(0),)
    new = n - 1
    # per last column, the new vertex's neighbor mask: _column reverses the
    # low ``new`` bits, so it is its own inverse
    column_masks = [_column(col, new) for col in range(1 << new)]
    out = []
    for parent in nonisomorphic_graphs(new):
        parent_columns = _columns(parent.rows)
        for col, mask in enumerate(column_masks):
            if any(col >> (new - j) < parent_columns[j] for j in range(1, new)):
                continue
            rows = [r | (mask >> u & 1) << new for u, r in enumerate(parent.rows)]
            rows.append(mask)
            if _labeling_below(rows, parent_columns + [col]) is None:
                out.append(Graph._trusted(n, rows))
    return tuple(out)


def all_graphs_up_to(n_max: int) -> list[Graph]:
    out: list[Graph] = []
    for n in range(n_max + 1):
        out.extend(nonisomorphic_graphs(n))
    return out

