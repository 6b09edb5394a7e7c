"""A graph6 codec and vertex relabeling written for the benchmark alone.

Graphs are ``(n, rows)`` pairs with ``rows[v]`` the neighbor bitmask of v.
Nothing here imports heptalab, so input generation and answer checks do not
depend on the code under test.
"""

from __future__ import annotations

import random


def encode(n: int, rows: list[int]) -> str:
    """Standard graph6 for n <= 62: column-major upper triangle, zero padded."""
    if not 0 <= n <= 62:
        raise ValueError("benchmark graphs have at most 62 vertices")
    bits = [(rows[j] >> i) & 1 for j in range(1, n) for i in range(j)]
    bits += [0] * (-len(bits) % 6)
    out = [chr(n + 63)]
    for k in range(0, len(bits), 6):
        val = 0
        for b in bits[k : k + 6]:
            val = (val << 1) | b
        out.append(chr(val + 63))
    return "".join(out)


def decode(text: str) -> tuple[int, list[int]]:
    n = ord(text[0]) - 63
    if not 0 <= n <= 62 or len(text) != 1 + (n * (n - 1) // 2 + 5) // 6:
        raise ValueError(f"not a short graph6 string: {text!r}")
    bits = []
    for ch in text[1:]:
        val = ord(ch) - 63
        bits.extend((val >> s) & 1 for s in range(5, -1, -1))
    rows = [0] * n
    k = 0
    for j in range(1, n):
        for i in range(j):
            if bits[k]:
                rows[i] |= 1 << j
                rows[j] |= 1 << i
            k += 1
    return n, rows


def from_edges(n: int, edges) -> list[int]:
    rows = [0] * n
    for u, v in edges:
        rows[u] |= 1 << v
        rows[v] |= 1 << u
    return rows


def relabel(rows: list[int], perm: list[int]) -> list[int]:
    """Rows of the graph with vertex v renamed perm[v]."""
    out = [0] * len(rows)
    for v, row in enumerate(rows):
        acc = 0
        u = 0
        while row:
            if row & 1:
                acc |= 1 << perm[u]
            row >>= 1
            u += 1
        out[perm[v]] = acc
    return out


def shuffled(text: str, rng: random.Random) -> str:
    """The graph6 text of a uniformly random relabeling."""
    n, rows = decode(text)
    perm = list(range(n))
    rng.shuffle(perm)
    return encode(n, relabel(rows, perm))


def random_gnp_half(n: int, rng: random.Random) -> str:
    """G(n, 1/2): each vertex pair is an edge with probability one half."""
    pairs = [(i, j) for j in range(1, n) for i in range(j)]
    mask = rng.getrandbits(len(pairs)) if pairs else 0
    return encode(n, from_edges(n, [p for k, p in enumerate(pairs) if mask >> k & 1]))
