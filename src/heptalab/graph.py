"""Immutable small graphs with bit-row adjacency, plus the graph6 wire format.

Vertices are dense integers 0..n-1.  Adjacency is one Python int bitmask per
vertex: for n <= 64 each row fits in a machine word, and the same code stays
correct for larger graphs because Python ints are unbounded.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Sequence

GRAPH6_HEADER = b">>graph6<<"

_SIZE_SHORT_MAX = 62
_SIZE_MEDIUM_MAX = 258047
_SIZE_LONG_MAX = 68719476735


def iter_bits(mask: int) -> Iterator[int]:
    """Yield the set bit positions of ``mask`` in ascending order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def mask_of(vertices: Iterable[int]) -> int:
    m = 0
    for v in vertices:
        m |= 1 << v
    return m


def first_bit(mask: int) -> int:
    return (mask & -mask).bit_length() - 1


def edge_between(g: Graph, a: int, b: int) -> tuple[int, int] | None:
    """First (u, v) with u in mask a, v in mask b, uv an edge; None if the
    masks are anticomplete."""
    for u in iter_bits(a):
        hit = g.rows[u] & b
        if hit:
            return (u, first_bit(hit))
    return None


def missing_edge(g: Graph, a: int, b: int) -> tuple[int, int] | None:
    """First (u, v) with u in a, v in b, uv not an edge; None if complete."""
    for u in iter_bits(a):
        miss = b & ~g.rows[u]
        if miss:
            return (u, first_bit(miss))
    return None


def lonely(g: Graph, a: int, b: int) -> tuple[int] | None:
    """(u,) for the first u in mask a with no neighbor in mask b; None if none."""
    for u in iter_bits(a):
        if not g.rows[u] & b:
            return (u,)
    return None


def multipartite_parts(rows: Sequence[int], mask: int) -> list[int] | None:
    """The parts of G[mask] in order of least vertex, or None when G[mask]
    is not complete multipartite.  Parts are peeled one at a time: the least
    vertex left and its non-neighbors left form a part exactly when each of
    them sees exactly the vertices left outside it."""
    parts = []
    while mask:
        part = mask & ~rows[(mask & -mask).bit_length() - 1]
        rest = mask ^ part
        left = part
        while left:  # bits walked inline: on K_n each part is one vertex
            low = left & -left
            if rows[low.bit_length() - 1] & mask != rest:
                return None
            left ^= low
        parts.append(part)
        mask = rest
    return parts


class Graph6Error(ValueError):
    """Malformed graph6 input.  ``offset`` points at the offending byte."""

    def __init__(self, message: str, offset: int | None = None) -> None:
        self.offset = offset
        if offset is not None:
            message = f"{message} (byte offset {offset})"
        super().__init__(message)


class Graph:
    """An immutable simple undirected graph.

    ``rows[u]`` is the neighbor bitmask of vertex ``u``.  Construction
    validates symmetry and rejects loops, except through ``_trusted`` for
    rows that are valid by construction; instances never mutate, so they
    are safe to share across threads or worker processes.
    """

    __slots__ = ("n", "rows")

    def __init__(self, n: int, rows: Sequence[int]) -> None:
        rows = tuple(rows)
        if n < 0:
            raise ValueError("vertex count must be nonnegative")
        if len(rows) != n:
            raise ValueError(f"expected {n} adjacency rows, got {len(rows)}")
        for u, row in enumerate(rows):
            if row < 0 or row >> n:
                raise ValueError(f"row {u} has bits outside the vertex range")
            if (row >> u) & 1:
                raise ValueError(f"loop at vertex {u}")
        for u, row in enumerate(rows):
            m = row
            while m:
                low = m & -m
                v = low.bit_length() - 1
                if not (rows[v] >> u) & 1:
                    raise ValueError(f"adjacency not symmetric at ({u}, {v})")
                m ^= low
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "rows", rows)

    @classmethod
    def _trusted(cls, n: int, rows: Sequence[int]) -> "Graph":
        """A graph from ``n`` rows known to be in range, loop-free and
        symmetric, built without the constructor's checks."""
        g = object.__new__(cls)
        object.__setattr__(g, "n", n)
        object.__setattr__(g, "rows", tuple(rows))
        return g

    def __setattr__(self, name, value):  # pragma: no cover - guards misuse
        raise AttributeError("Graph is immutable")

    def __reduce__(self):
        # unpickling rebuilds through the constructor, so a graph arriving
        # in a worker process passes the same symmetry and loop checks
        return (Graph, (self.n, self.rows))

    # -- constructors ------------------------------------------------------

    @classmethod
    def empty(cls, n: int) -> "Graph":
        return cls(n, (0,) * n)

    @classmethod
    def from_edges(cls, n: int, edges: Iterable[tuple[int, int]]) -> "Graph":
        rows = [0] * n
        has_vertex = cls.empty(n).has_vertex
        for u, v in edges:
            if u == v:
                raise ValueError(f"loop at vertex {u}")
            if not (has_vertex(u) and has_vertex(v)):
                raise ValueError(f"edge ({u}, {v}) outside vertex range")
            rows[u] |= 1 << v
            rows[v] |= 1 << u
        return cls(n, rows)

    @classmethod
    def complete(cls, n: int) -> "Graph":
        full = (1 << n) - 1
        return cls(n, tuple(full ^ (1 << u) for u in range(n)))

    @classmethod
    def cycle(cls, n: int) -> "Graph":
        if n < 3:
            raise ValueError("cycle needs at least 3 vertices")
        return cls.from_edges(n, [(i, (i + 1) % n) for i in range(n)])

    @classmethod
    def path(cls, n: int) -> "Graph":
        return cls.from_edges(n, [(i, i + 1) for i in range(n - 1)])

    @classmethod
    def circulant(cls, n: int, offsets: Iterable[int]) -> "Graph":
        """Ring graph: i ~ j iff their circular distance is a listed offset."""
        offs = {d % n for d in offsets} | {(-d) % n for d in offsets}
        offs.discard(0)
        edges = [(i, (i + d) % n) for i in range(n) for d in offs if i < (i + d) % n]
        return cls.from_edges(n, edges)

    # -- queries -----------------------------------------------------------

    def adjacent(self, u: int, v: int) -> bool:
        return bool((self.rows[u] >> v) & 1)

    def degree(self, u: int) -> int:
        return self.rows[u].bit_count()

    def neighbors(self, u: int) -> Iterator[int]:
        return iter_bits(self.rows[u])

    def vertices(self) -> range:
        return range(self.n)

    def has_vertex(self, v: object) -> bool:
        """True when ``v`` is a plain ``int`` (not a ``bool``) in ``0..n-1``."""
        return type(v) is int and 0 <= v < self.n

    def vertex_mask(self, vertices: Iterable[object]) -> int | None:
        """The bitmask of ``vertices``, or None when one of them is not a
        vertex (``has_vertex``) or comes twice."""
        m = 0
        for v in vertices:
            if not self.has_vertex(v) or m >> v & 1:
                return None
            m |= 1 << v
        return m

    def vertex_masks(self, sets: Iterable[Iterable[object]]) -> list[int]:
        """The bitmask of each vertex set; ValueError when a member of one is
        not a vertex (``has_vertex``)."""
        masks = []
        for vertices in sets:
            m = 0
            for v in vertices:
                if not self.has_vertex(v):
                    raise ValueError(f"vertex {v!r} out of range")
                m |= 1 << v
            masks.append(m)
        return masks

    def edges(self) -> list[tuple[int, int]]:
        out = []
        for u in range(self.n):
            m = self.rows[u] >> (u + 1)
            while m:
                low = m & -m
                out.append((u, u + 1 + low.bit_length() - 1))
                m ^= low
        return out

    @property
    def edge_count(self) -> int:
        return sum(r.bit_count() for r in self.rows) // 2

    def component_of(self, seed: int, within: int) -> int:
        """Bitmask of the vertices reachable from the vertices of ``seed``
        through the subgraph induced on ``within``; ``seed`` is a bitmask
        inside ``within``.  This is the one breadth-first search behind every
        connectivity question asked of a graph."""
        rows = self.rows
        seen = frontier = seed
        while frontier:
            nxt = 0
            while frontier:
                low = frontier & -frontier
                nxt |= rows[low.bit_length() - 1]
                frontier ^= low
            frontier = nxt & within & ~seen
            seen |= frontier
        return seen

    def is_connected(self) -> bool:
        full = (1 << self.n) - 1
        return self.n <= 1 or self.component_of(1, full) == full

    def component_masks(self, within: int | None = None) -> list[int]:
        """Connected components (as bitmasks) of the subgraph induced on
        ``within`` (all vertices when omitted), ordered by smallest member."""
        remaining = (1 << self.n) - 1 if within is None else within
        comps = []
        while remaining:
            comp = self.component_of(remaining & -remaining, remaining)
            comps.append(comp)
            remaining &= ~comp
        return comps

    # -- derived graphs ----------------------------------------------------

    def complement(self) -> "Graph":
        full = (1 << self.n) - 1
        # a list, not a generator: tuple() over a generator raised the peak
        # RSS of 12,000 complements of 8-10 vertices by about 0.5 MB
        return Graph._trusted(self.n, [(full ^ r) & ~(1 << u) for u, r in enumerate(self.rows)])

    def with_vertex(self, neighbor_mask: int) -> "Graph":
        """Extend by one vertex adjacent to the vertices in ``neighbor_mask``."""
        if neighbor_mask >> self.n:
            raise ValueError("neighbor mask outside vertex range")
        new = self.n
        rows = [r | ((neighbor_mask >> u & 1) << new) for u, r in enumerate(self.rows)]
        rows.append(neighbor_mask)
        return Graph._trusted(self.n + 1, rows)

    def relabel(self, perm: Sequence[int]) -> "Graph":
        """Return the graph with new vertex i taking the role of ``perm[i]``."""
        if sorted(perm) != list(range(self.n)):
            raise ValueError("not a permutation of the vertex set")
        pos = [0] * self.n
        for new, old in enumerate(perm):
            pos[old] = new
        rows = [0] * self.n
        for new, old in enumerate(perm):
            m = 0
            for v in iter_bits(self.rows[old]):
                m |= 1 << pos[v]
            rows[new] = m
        return Graph._trusted(self.n, rows)

    # -- dunder ------------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Graph) and self.n == other.n and self.rows == other.rows

    def __hash__(self) -> int:
        return hash((self.n, self.rows))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.edge_count})"


def induced_subgraph(g: Graph, vertices: Iterable[int]) -> tuple[Graph, tuple[int, ...]]:
    """Induced subgraph plus the index map (new index -> original vertex).

    Vertices are taken in ascending order, so the map is the sorted tuple of
    the requested set.
    """
    sel = 0
    for v in vertices:
        if not g.has_vertex(v):
            raise ValueError(f"vertex {v} outside range")
        sel |= 1 << v
    vs = tuple(iter_bits(sel))
    pos = {old: new for new, old in enumerate(vs)}
    rows = []
    for old in vs:
        m = 0
        for w in iter_bits(g.rows[old] & sel):
            m |= 1 << pos[w]
        rows.append(m)
    return Graph._trusted(len(vs), rows), vs


def is_clique(g: Graph, vertices: Iterable[int]) -> bool:
    """True when ``vertices`` are distinct vertices of ``g`` (``Graph.vertex_mask``)
    and pairwise adjacent."""
    sel = g.vertex_mask(vertices)
    if sel is None:
        return False
    for v in iter_bits(sel):
        if (g.rows[v] & sel) != sel ^ (1 << v):
            return False
    return True


# ---------------------------------------------------------------------------
# graph6 codec
# ---------------------------------------------------------------------------


def _encode_size(n: int) -> bytes:
    if n <= _SIZE_SHORT_MAX:
        return bytes([n + 63])
    if n <= _SIZE_MEDIUM_MAX:
        return bytes([126, 63 + (n >> 12 & 63), 63 + (n >> 6 & 63), 63 + (n & 63)])
    if n <= _SIZE_LONG_MAX:
        return bytes([126, 126] + [63 + (n >> s & 63) for s in (30, 24, 18, 12, 6, 0)])
    raise ValueError("graph too large for graph6")


def to_graph6(g: Graph) -> bytes:
    """Encode to canonical graph6 bytes (no header, no trailing newline)."""
    out = bytearray(_encode_size(g.n))
    acc = 0
    nbits = 0
    for j in range(1, g.n):
        col = g.rows[j]
        for i in range(j):
            acc = (acc << 1) | ((col >> i) & 1)
            nbits += 1
            if nbits == 6:
                out.append(acc + 63)
                acc = 0
                nbits = 0
    if nbits:
        out.append((acc << (6 - nbits)) + 63)
    return bytes(out)


def _decode_size(data: bytes, base: int) -> tuple[int, int]:
    def word(pos: int) -> int:
        byte = data[pos]
        if not 63 <= byte <= 126:
            raise Graph6Error("size byte out of printable range", base + pos)
        return byte - 63

    b0 = data[0]
    if b0 != 126:
        return word(0), 1
    if len(data) < 2:
        raise Graph6Error("truncated size header", base + 1)
    if data[1] != 126:
        if len(data) < 4:
            raise Graph6Error("truncated size header", base + len(data))
        n = (word(1) << 12) | (word(2) << 6) | word(3)
        if n <= _SIZE_SHORT_MAX:
            raise Graph6Error("non-canonical size header", base)
        return n, 4
    if len(data) < 8:
        raise Graph6Error("truncated size header", base + len(data))
    n = 0
    for pos in range(2, 8):
        n = (n << 6) | word(pos)
    if n <= _SIZE_MEDIUM_MAX:
        raise Graph6Error("non-canonical size header", base)
    return n, 8


def from_graph6(data: bytes | str) -> Graph:
    """Decode one graph6 line.  Accepts an optional ``>>graph6<<`` header and
    a trailing newline; anything else malformed raises ``Graph6Error`` with
    the byte offset of the problem."""
    if isinstance(data, str):
        try:
            data = data.encode("ascii")
        except UnicodeEncodeError as exc:
            raise Graph6Error("non-ASCII input", exc.start) from None
    while data[-1:] in (b"\n", b"\r"):
        data = data[:-1]
    base = 0
    if data.startswith(GRAPH6_HEADER):
        base = len(GRAPH6_HEADER)
        data = data[base:]
    if not data:
        raise Graph6Error("empty graph6 payload", base)
    n, used = _decode_size(data, base)
    npairs = n * (n - 1) // 2
    need = (npairs + 5) // 6
    payload = data[used:]
    if len(payload) < need:
        raise Graph6Error(
            f"payload too short: need {need} bytes for n={n}", base + len(data)
        )
    if len(payload) > need:
        raise Graph6Error(
            f"payload too long: need {need} bytes for n={n}", base + used + need
        )
    rows = [0] * n
    i, j = 0, 1
    pair = 0
    for k, byte in enumerate(payload):
        if not 63 <= byte <= 126:
            raise Graph6Error("payload byte out of printable range", base + used + k)
        val = byte - 63
        for shift in range(5, -1, -1):
            bit = (val >> shift) & 1
            if pair < npairs:
                if bit:
                    rows[i] |= 1 << j
                    rows[j] |= 1 << i
                i += 1
                if i == j:
                    i = 0
                    j += 1
            elif bit:
                raise Graph6Error("nonzero padding bits", base + used + k)
            pair += 1
    return Graph._trusted(n, rows)
