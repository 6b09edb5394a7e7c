"""Recognition machinery for the two structured graph classes.

The toolkit works with two part systems:

* an 11-part ring where consecutive parts (distance 1 and 2) are
  anticomplete and distant parts (distance 3, 4, 5) are complete;
* a 7-part ring with seven optional stable outer groups, each attached
  to one ring part and the two parts opposite it, under rules "1"
  through "10" checked by ``verify_heptagram_type``.

Rule identifiers are opaque labels; each verifier's docstring states what
the numbered rules check.  Everything here is pure and deterministic:
verifiers scan exhaustively, and generators build instances part by part.
Both recognizers work on the false-twin quotient (one vertex per class of
equal rows) and lift its witness back: the 11-ring one reads its witness
off the classes, and the full-class one runs one budgeted, forward-checked
backtracking search whose first levels pick the antihole that opens the
ring parts.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Iterable

from .detect import Budget, find_induced_embedding, has_c7_complement
from .graph import Graph, induced_subgraph, iter_bits, mask_of


class GenerationError(ValueError):
    """Requested instance shape violates a class rule (named in ``rule``)."""

    def __init__(self, message: str, rule: str | None = None):
        super().__init__(message)
        self.rule = rule


@dataclass(frozen=True)
class StructureVerdict:
    ok: bool
    rule: str | None = None
    witness: tuple[int, ...] | None = None


def _dihedral_maps(m: int) -> tuple[tuple[int, ...], ...]:
    """Each turn j -> j + a of an m-ring, followed by the reflection j -> a - j."""
    return tuple(tuple((a + s * j) % m for j in range(m)) for a in range(m) for s in (1, -1))


@dataclass(frozen=True)
class _RingWitness:
    """Shared base of the witnesses: every field is a tuple of vertex sets
    indexed around a ring.  A subclass declares its fields, the part count
    of each (``_COUNTS``), the index maps that carry a witness to an
    equivalent one (``_MAPS``) and its JSON kind (``_KIND``)."""

    def _groups(self) -> tuple[tuple[frozenset[int], ...], ...]:
        # a frozen dataclass instance holds exactly its fields, in order
        return tuple(vars(self).values())

    def __post_init__(self) -> None:
        counts = tuple(map(len, self._groups()))
        if counts != self._COUNTS:
            raise ValueError(
                f"{type(self).__name__} needs part counts {self._COUNTS}, got {counts}"
            )

    def size_vector(self):
        """Part sizes: a flat tuple for one field, one tuple per field else."""
        sizes = tuple(tuple(len(p) for p in grp) for grp in self._groups())
        return sizes[0] if len(sizes) == 1 else sizes

    def canonical(self):
        """The image under ``_MAPS`` minimizing (size vectors, sorted parts)."""

        def key(groups: tuple[tuple[frozenset[int], ...], ...]):
            sizes = tuple(tuple(len(p) for p in grp) for grp in groups)
            contents = tuple(tuple(tuple(sorted(p)) for p in grp) for grp in groups)
            return (sizes, contents)

        images = (
            tuple(tuple(grp[j] for j in sigma) for grp in self._groups())
            for sigma in self._MAPS
        )
        return type(self)(*min(images, key=key))

    def to_json_dict(self) -> dict:
        return {
            "kind": self._KIND,
            "parts": [sorted(p) for grp in self._groups() for p in grp],
        }


@dataclass(frozen=True)
class T11Witness(_RingWitness):
    """Eleven disjoint nonempty stable parts on a ring, anticomplete at
    distance 1 and 2 and complete at distance 3, 4, 5."""

    parts: tuple[frozenset[int], ...]

    _COUNTS = (11,)
    _MAPS = _dihedral_maps(11)
    _KIND = "t11_type"


@dataclass(frozen=True)
class HeptagramTypeWitness(_RingWitness):
    """Seven nonempty ring parts plus seven optional outer groups which,
    together, partition the vertex set."""

    ring: tuple[frozenset[int], ...]
    outer: tuple[frozenset[int], ...]

    _COUNTS = (7, 7)
    # The full-class rules are not rotation symmetric: only the identity and
    # the reflection j -> 2 - j preserve the designated linked pairs and the
    # special (0, 1, 2) triple.
    _MAPS = (tuple(range(7)), tuple((2 - j) % 7 for j in range(7)))
    _KIND = "heptagram_type"


# ---------------------------------------------------------------------------
# verifiers
# ---------------------------------------------------------------------------


def _first_bit(mask: int) -> int:
    return (mask & -mask).bit_length() - 1


def _edge_between(g: Graph, a: int, b: int) -> tuple[int, int] | None:
    """First (u, v) with u in mask a, v in mask b, uv an edge; None if the
    masks are anticomplete."""
    for u in iter_bits(a):
        hit = g.rows[u] & b
        if hit:
            return (u, _first_bit(hit))
    return None


def _missing_edge(g: Graph, a: int, b: int) -> tuple[int, int] | None:
    """First (u, v) with u in a, v in b, uv not an edge; None if complete."""
    for u in iter_bits(a):
        miss = b & ~g.rows[u]
        if miss:
            return (u, _first_bit(miss))
    return None


def _unlinked_vertex(g: Graph, a: int, b: int) -> int | None:
    for u in iter_bits(a):
        if not g.rows[u] & b:
            return u
    for v in iter_bits(b):
        if not g.rows[v] & a:
            return v
    return None


def _check_sets(g: Graph, parts: Iterable[frozenset[int]]) -> None:
    for part in parts:
        for v in part:
            if not 0 <= v < g.n:
                raise ValueError(f"vertex {v} out of range")


def _preamble_failure(g: Graph, masks: list[int], ring_parts: int) -> StructureVerdict | None:
    """The first failure of the rules shared by the two covering witnesses,
    or None: "partition" (the masks are disjoint and cover the vertex set),
    then "nonempty" (the first ``ring_parts`` masks), then "stable" (all)."""
    union = 0
    for m in masks:
        if union & m:
            return StructureVerdict(False, "partition", (_first_bit(union & m),))
        union |= m
    missing = ~union & ((1 << g.n) - 1)
    if missing:
        return StructureVerdict(False, "partition", (_first_bit(missing),))
    for i in range(ring_parts):
        if not masks[i]:
            return StructureVerdict(False, "nonempty", (i,))
    for m in masks:
        hit = _edge_between(g, m, m)
        if hit:
            return StructureVerdict(False, "stable", hit)
    return None


def verify_t11_type(g: Graph, w: T11Witness) -> StructureVerdict:
    """Check the 11-ring conditions.

    Rules: "partition" (parts disjoint and covering), "nonempty", "stable",
    "anticomplete" (ring distance 1 and 2), "complete" (distance 3, 4, 5).
    """
    _check_sets(g, w.parts)
    masks = [mask_of(p) for p in w.parts]
    bad = _preamble_failure(g, masks, 11)
    if bad:
        return bad
    for i in range(11):
        for d in (1, 2):
            hit = _edge_between(g, masks[i], masks[(i + d) % 11])
            if hit:
                return StructureVerdict(False, "anticomplete", hit)
        for d in (3, 4, 5):
            miss = _missing_edge(g, masks[i], masks[(i + d) % 11])
            if miss:
                return StructureVerdict(False, "complete", miss)
    return StructureVerdict(True)


def _anchor_violation(g: Graph, v: int, far_hi: int, far_lo: int) -> tuple[int, int] | None:
    """Neighborhood coherence at an attachment vertex: its two far-part
    neighborhoods are complete to each other and anticomplete to the
    non-neighbors of the opposite part.  Returns the first offending pair,
    or None when coherent."""
    n_hi, n_lo = g.rows[v] & far_hi, g.rows[v] & far_lo
    return (
        _missing_edge(g, n_hi, n_lo)
        or _edge_between(g, n_hi, far_lo & ~n_lo)
        or _edge_between(g, n_lo, far_hi & ~n_hi)
    )


# ring-pair regimes for the full class, 0-indexed: (i, j) -> required relation
_COMPLETE_PAIRS = (
    (1, 3), (2, 4), (3, 5), (4, 6), (5, 0), (6, 1),  # distance-2 pairs, rule "2"
    (2, 3), (3, 4), (5, 6), (6, 0),  # distance-1 pairs, rule "3"
)
_LINKED_PAIRS_2 = ((0, 2),)
_LINKED_PAIRS_3 = ((0, 1), (1, 2), (4, 5))


def verify_heptagram_type(g: Graph, w: HeptagramTypeWitness) -> StructureVerdict:
    """Check the full-class conditions, rules "1" through "10".

    Preamble rules: "partition" (the 14 sets partition the vertex set),
    "nonempty" (ring parts), "stable" (all 14 sets).  Numbered rules:
    "1" ring distance 3 anticomplete; "2" distance 2 pairs complete except
    (0,2) which is only linked; "3" distance 1 pairs (2,3),(3,4),(5,6),(6,0)
    complete and (0,1),(1,2),(4,5) linked; "4"/"5" the coherence conditions
    on the (0,1,2) triple; "6" outer group i sees ring parts i and i+-3 and
    nothing else on the ring; "7" per-vertex neighborhood coherence for
    outer vertices; "8" consecutive outer groups complete, distance 2 and 3
    anticomplete; "9" an outer group not complete to its two far parts
    forces those far parts complete to their distance-2 neighbors and the
    four surrounding outer groups empty; "10" among any three consecutive
    outer groups one is empty.
    """
    _check_sets(g, w.ring + w.outer)
    ring = [mask_of(p) for p in w.ring]
    outer = [mask_of(p) for p in w.outer]
    bad = _preamble_failure(g, ring + outer, 7)
    if bad:
        return bad

    rows = g.rows
    for i in range(7):
        hit = _edge_between(g, ring[i], ring[(i + 3) % 7])
        if hit:
            return StructureVerdict(False, "1", hit)
    for idx, (i, j) in enumerate(_COMPLETE_PAIRS):
        miss = _missing_edge(g, ring[i], ring[j])
        if miss:
            return StructureVerdict(False, "2" if idx < 6 else "3", miss)
    for i, j in _LINKED_PAIRS_2:
        v = _unlinked_vertex(g, ring[i], ring[j])
        if v is not None:
            return StructureVerdict(False, "2", (v,))
    for i, j in _LINKED_PAIRS_3:
        v = _unlinked_vertex(g, ring[i], ring[j])
        if v is not None:
            return StructureVerdict(False, "3", (v,))

    for v in iter_bits(ring[1]):
        back, fwd = rows[v] & ring[0], rows[v] & ring[2]
        for u in iter_bits(back):
            miss = fwd & ~rows[u]
            if miss:
                return StructureVerdict(False, "4", (u, v, _first_bit(miss)))
        back, fwd = ring[0] & ~rows[v], ring[2] & ~rows[v]
        for u in iter_bits(back):
            hit = rows[u] & fwd
            if hit:
                return StructureVerdict(False, "5", (u, v, _first_bit(hit)))

    for i in range(7):
        near = ring[(i + 1) % 7] | ring[(i + 2) % 7] | ring[(i + 5) % 7] | ring[(i + 6) % 7]
        for y in iter_bits(outer[i]):
            for j in (i, (i + 3) % 7, (i + 4) % 7):
                if not rows[y] & ring[j]:
                    return StructureVerdict(False, "6", (y, j))
            hit = rows[y] & near
            if hit:
                return StructureVerdict(False, "6", (y, _first_bit(hit)))
    for i in range(7):
        far_hi, far_lo = ring[(i + 3) % 7], ring[(i + 4) % 7]
        near = ring[(i + 1) % 7] | ring[(i + 2) % 7] | ring[(i + 5) % 7] | ring[(i + 6) % 7]
        for y in iter_bits(outer[i]):
            bad = _anchor_violation(g, y, far_hi, far_lo) or _missing_edge(
                g, rows[y] & ring[i], near
            )
            if bad:
                return StructureVerdict(False, "7", (y,) + bad)
    for i in range(7):
        miss = _missing_edge(g, outer[i], outer[(i + 1) % 7])
        if miss:
            return StructureVerdict(False, "8", miss)
        for d in (2, 3):
            hit = _edge_between(g, outer[i], outer[(i + d) % 7])
            if hit:
                return StructureVerdict(False, "8", hit)
    for i in range(7):
        far = ring[(i + 3) % 7] | ring[(i + 4) % 7]
        if _missing_edge(g, outer[i], far) is None:
            continue
        flank = ring[(i + 2) % 7] | ring[(i + 5) % 7]
        miss = _missing_edge(g, far, flank)
        if miss:
            return StructureVerdict(False, "9", (i,) + miss)
        for d in (1, 3, 4, 6):
            if outer[(i + d) % 7]:
                return StructureVerdict(False, "9", (i, _first_bit(outer[(i + d) % 7])))
    for i in range(7):
        if outer[i] and outer[(i + 1) % 7] and outer[(i + 2) % 7]:
            return StructureVerdict(False, "10", (i,))
    return StructureVerdict(True)


# ---------------------------------------------------------------------------
# recognizers
# ---------------------------------------------------------------------------


def _twin_quotient(g: Graph) -> tuple[list[int], Graph]:
    """The false-twin classes of ``g`` (masks of vertices with equal rows,
    in order of least vertex) and the graph induced on one vertex per
    class, whose vertex j stands for class j.  Every row is a union of
    classes, so the quotient has no false twins."""
    classes: dict[int, int] = {}
    for v, row in enumerate(g.rows):
        classes[row] = classes.get(row, 0) | 1 << v
    masks = list(classes.values())
    quotient, _ = induced_subgraph(g, [_first_bit(m) for m in masks])
    return masks, quotient


def recognize_t11_type(g: Graph) -> T11Witness | None:
    """Recover an 11-ring witness, or None; exact, read off the false-twin
    classes.

    The vertices of one part of a witness are false twins (the part is
    stable, and every pair of parts is complete or anticomplete), while the
    11-vertex (3,4,5)-circulant core has no false twins, so vertices of
    different parts have different rows.  The classes of equal rows are
    therefore the parts.  A graph with other than 11 classes is not of the
    type; otherwise an induced copy of the core in the quotient on one
    vertex per class orders the classes around the ring, and a missing copy
    or a witness that fails verification shows that ``g`` is not of the type.
    """
    classes, quotient = _twin_quotient(g)
    if len(classes) != 11:
        return None
    emb = find_induced_embedding(quotient, Graph.circulant(11, (3, 4, 5)))
    if emb is None:
        return None
    w = T11Witness(tuple(frozenset(iter_bits(classes[j])) for j in emb))
    return w.canonical() if verify_t11_type(g, w).ok else None


def _slot_relation(s: int, t: int) -> bool | None:
    """What ``verify_heptagram_type`` demands of every vertex pair between
    slots s and t (0-6 ring parts, 7-13 outer groups 0-6): True adjacent,
    False non-adjacent, None either."""
    if s > t:
        s, t = t, s
    d = min((t - s) % 7, (s - t) % 7)
    if t < 7:  # two ring parts
        if d in (0, 3):
            return False
        return True if (s, t) in _COMPLETE_PAIRS or (t, s) in _COMPLETE_PAIRS else None
    if s >= 7:  # two outer groups
        return d == 1
    return None if (s - t) % 7 in (0, 3, 4) else False  # ring part s, group t - 7


# per slot s: the slots open to a neighbor, and to a non-neighbor, of a vertex in s
_NEIGHBOR_SLOTS = tuple(
    mask_of(t for t in range(14) if _slot_relation(s, t) is not False) for s in range(14)
)
_STRANGER_SLOTS = tuple(
    mask_of(t for t in range(14) if _slot_relation(s, t) is not True) for s in range(14)
)


def _narrow(g: Graph, domains: dict[int, int], v: int, s: int) -> dict[int, int] | None:
    """The other vertices' slot domains once v takes slot s; None when one
    of them empties."""
    row = g.rows[v]
    near, far = _NEIGHBOR_SLOTS[s], _STRANGER_SLOTS[s]
    out = {}
    for u, d in domains.items():
        if u != v:
            d &= near if row >> u & 1 else far
            if not d:
                return None
            out[u] = d
    return out


def _slot_search(g: Graph, budget: Budget) -> HeptagramTypeWitness | None:
    """The first full-class witness of ``g`` that a forward-checked
    backtracking search meets, or None; exact.

    Every vertex gets one of the 14 slots (ring parts and outer groups).
    Each slot pair has a required relation (``_slot_relation``: stable
    slots, the complete and anticomplete ring pairs, outer groups seeing no
    ring part at +-1 or +-2, consecutive outer groups complete, the rest
    anticomplete), so a placed vertex narrows the slot domain of every other
    vertex.  While a ring part is empty, the search branches on which vertex
    opens the first empty part i: one that still has slot i and sees the
    openers of i's linked partners (the pairs in ``_LINKED_PAIRS_2`` and
    ``_LINKED_PAIRS_3``, the only ring pairs whose relation is open), so the
    seven openers induce the 7-vertex antihole.  Then it branches on a
    vertex with the fewest slots left.  It prunes on an empty domain and
    runs the full verifier at each leaf.  A failed opener of part 0 loses
    slot 0: any vertex of part 0 can open it (below).

    None is exact.  In every witness the openers can form an antihole that
    is a transversal of its ring parts: take any v0 in part 0 and, as pairs
    (0, 1) and (1, 2) are linked, a neighbor v1 in part 1 and a neighbor v2
    of v1 in part 2; rule "4" makes v0 and v2 adjacent.  Take any v3 and
    v4, a neighbor v5 of v4 in part 5 (the pair (4, 5) is linked) and any
    v6.  The witness meets every pairwise requirement, so no prune cuts it
    off and the search reaches it (or another witness first).

    Each search node, openers included, charges ``budget`` a step.
    """
    slots = [0] * 14

    def node(domains: dict[int, int]) -> list:
        """A search node charged one step: [domains, choices, next choice, i]."""
        budget.spend()
        i = next((i for i in range(7) if not slots[i]), None)
        if i is None:
            v = min(domains, key=lambda u: domains[u].bit_count())
            choices = [(v, s) for s in iter_bits(domains[v])]
        else:
            seen = 0  # the openers of i's linked partners; slots[i] is empty
            for pair in _LINKED_PAIRS_2 + _LINKED_PAIRS_3:
                if i in pair:
                    seen |= slots[pair[0]] | slots[pair[1]]
            choices = [
                (v, i) for v, d in domains.items() if d >> i & 1 and g.rows[v] & seen == seen
            ]
        return [domains, choices, 0, i]

    stack = [node(dict.fromkeys(range(g.n), (1 << 14) - 1))]
    while stack:
        frame = stack[-1]
        domains, choices, k, i = frame
        if k:  # the subtree of choice k - 1 is done
            v, s = choices[k - 1]
            slots[s] &= ~(1 << v)
            if i == 0:  # only at the root: any vertex of part 0 can open it
                domains[v] &= ~1
        if k == len(choices):
            stack.pop()
            continue
        frame[2] = k + 1
        v, s = choices[k]
        rest = _narrow(g, domains, v, s)
        if rest is None:
            continue
        slots[s] |= 1 << v
        if rest:
            stack.append(node(rest))
            continue
        budget.spend()  # a leaf: every vertex is placed
        w = HeptagramTypeWitness(
            tuple(frozenset(iter_bits(m)) for m in slots[:7]),
            tuple(frozenset(iter_bits(m)) for m in slots[7:]),
        )
        if verify_heptagram_type(g, w).ok:
            return w
    return None


def recognize_heptagram_type(
    g: Graph, budget: Budget | None = None
) -> HeptagramTypeWitness | None:
    """Recover a full-class witness, or None; exact within ``budget``.

    A graph without the 7-vertex antihole has no witness (``_slot_search``
    shows that the ring parts hold one), so it gets None before any search.
    Otherwise ``_slot_search`` runs on the false-twin quotient
    (``_twin_quotient``), each part of its witness is lifted to the union of
    its classes, and the lifted witness, checked once on ``g``, is returned
    in canonical form.

    None is exact, because a witness of ``g`` and one of its quotient
    correspond.  Twins share a slot: take false twins u and v in different
    slots.  Their slots are not required adjacent, as twins are
    nonadjacent.  Ring parts s and s+3 are split by ring part s-1: every
    ring pair at distance 1 is complete or linked, so u has a neighbor in
    s-1, and s+3 is at distance 3 from s-1, so v has none.  The linked pairs
    (0,1), (1,2), (4,5) and (0,2) are split the same way, by ring parts 3,
    6, 2 and 5 respectively, and the other ring pairs at distance 1 or 2 are
    complete.  A ring vertex in part s sees exactly the four ring parts
    s+-1 and s+-2, and one of outer group j exactly ring parts j, j+3 and
    j+4 (rule "6"), so a vertex of an outer group has no twin on the ring
    or in another outer group.  Adjacency between classes is therefore well
    defined: restricting a witness of ``g`` to one vertex per class keeps
    every nonempty slot nonempty and every rule true, and lifting a witness
    of the quotient gives a witness of ``g``.

    Each search node charges ``budget`` (a fresh ``Budget()`` if None) a
    step; an exhausted one raises SearchBudgetExceeded rather than a guess
    returned.
    """
    budget = Budget() if budget is None else budget
    if not has_c7_complement(g):
        return None
    classes, quotient = _twin_quotient(g)
    found = _slot_search(quotient, budget)
    if found is None:
        return None
    parts = [
        frozenset(v for j in p for v in iter_bits(classes[j])) for p in found.ring + found.outer
    ]
    w = HeptagramTypeWitness(tuple(parts[:7]), tuple(parts[7:]))
    if not verify_heptagram_type(g, w).ok:
        raise RuntimeError("a lifted quotient witness fails on the input graph")
    return w.canonical()


# ---------------------------------------------------------------------------
# generators
# ---------------------------------------------------------------------------


def _layout(sizes: Iterable[int]) -> list[list[int]]:
    parts = []
    nxt = 0
    for s in sizes:
        parts.append(list(range(nxt, nxt + s)))
        nxt += s
    return parts


def generate_t11_type(sizes: Iterable[int]) -> tuple[Graph, T11Witness]:
    """Blow-up of the 11-vertex (3,4,5)-circulant with the given part sizes."""
    sizes = tuple(sizes)
    if len(sizes) != 11:
        raise GenerationError("exactly 11 part sizes required", rule="partition")
    if any(s < 1 for s in sizes):
        raise GenerationError("part sizes must be positive", rule="nonempty")
    parts = _layout(sizes)
    edges = []
    # each unordered part pair at circular distance 3, 4, 5 arises exactly
    # once here (the reverse arc would need distance 6, 7, 8)
    for i in range(11):
        for d in (3, 4, 5):
            for u in parts[i]:
                for v in parts[(i + d) % 11]:
                    edges.append((u, v))
    g = Graph.from_edges(sum(sizes), edges)
    return g, T11Witness(tuple(frozenset(p) for p in parts))


def _validate_outer_sizes(y_sizes: tuple[int, ...]) -> None:
    if any(s < 0 for s in y_sizes):
        raise GenerationError("outer group sizes must be nonnegative", rule="partition")
    for i in range(7):
        if y_sizes[i] and y_sizes[(i + 1) % 7] and y_sizes[(i + 2) % 7]:
            raise GenerationError(
                "three consecutive outer groups are nonempty, violating rule 10 "
                "(each window of three consecutive groups needs an empty one)",
                rule="10",
            )


_CUSTOM_ATTEMPTS = 200  # random draws of the "custom" profile before giving up


def generate_heptagram_type(
    w_sizes: Iterable[int],
    y_sizes: Iterable[int] | None = None,
    profile: str = "all_complete",
    rng: random.Random | None = None,
    stats_out: dict | None = None,
) -> tuple[Graph, HeptagramTypeWitness]:
    """Build a full-class instance with the given ring and outer sizes.

    The default profile makes every linked ring pair fully complete and
    every outer vertex complete to its three attachment parts, which meets
    all ten rules by construction.  The "custom" profile samples sparser
    linkages and partial attachment neighborhoods at random and keeps the
    first draw that verifies; the attempt count lands in ``stats_out`` and
    feasibility is not guaranteed.
    """
    w_sizes = tuple(w_sizes)
    y_sizes = tuple(y_sizes) if y_sizes is not None else (0,) * 7
    if len(w_sizes) != 7 or len(y_sizes) != 7:
        raise GenerationError("exactly 7 ring and 7 outer sizes required", rule="partition")
    if any(s < 1 for s in w_sizes):
        raise GenerationError("ring part sizes must be positive", rule="nonempty")
    _validate_outer_sizes(y_sizes)

    ring = _layout(w_sizes)
    outer = _layout(y_sizes)
    base = sum(w_sizes)
    outer = [[v + base for v in grp] for grp in outer]
    n = base + sum(y_sizes)

    def witness() -> HeptagramTypeWitness:
        return HeptagramTypeWitness(
            tuple(frozenset(p) for p in ring), tuple(frozenset(p) for p in outer)
        )

    def outer_outer_edges() -> list[tuple[int, int]]:
        out = []
        for i in range(7):
            for u in outer[i]:
                for v in outer[(i + 1) % 7]:
                    out.append((min(u, v), max(u, v)))
        return out

    if profile == "all_complete":
        edges = []
        # each distance-1 or distance-2 pair on the 7-ring arises once here
        for i in range(7):
            for d in (1, 2):
                for u in ring[i]:
                    for v in ring[(i + d) % 7]:
                        edges.append((u, v))
        for i in range(7):
            for y in outer[i]:
                for j in (i, (i + 3) % 7, (i + 4) % 7):
                    for v in ring[j]:
                        edges.append((v, y))
        edges.extend(outer_outer_edges())
        g = Graph.from_edges(n, edges)
        if stats_out is not None:
            stats_out["attempts"] = 1
        return g, witness()

    if profile != "custom":
        raise ValueError(f"unknown profile {profile!r}")

    rng = rng if rng is not None else random.Random(0)
    linked_only = set(_LINKED_PAIRS_2) | set(_LINKED_PAIRS_3)
    complete_pairs = set(_COMPLETE_PAIRS)
    last_rule = None
    for attempt in range(1, _CUSTOM_ATTEMPTS + 1):
        edges = []
        for i, j in complete_pairs:
            for u in ring[i]:
                for v in ring[j]:
                    edges.append((min(u, v), max(u, v)))
        for i, j in linked_only:
            chosen = set()
            for u in ring[i]:
                for v in ring[j]:
                    if rng.random() < 0.7:
                        chosen.add((min(u, v), max(u, v)))
            for u in ring[i]:
                if not any(u in e for e in chosen):
                    v = rng.choice(ring[j])
                    chosen.add((min(u, v), max(u, v)))
            for v in ring[j]:
                if not any(v in e for e in chosen):
                    u = rng.choice(ring[i])
                    chosen.add((min(u, v), max(u, v)))
            edges.extend(chosen)
        for i in range(7):
            for y in outer[i]:
                for j in (i, (i + 3) % 7, (i + 4) % 7):
                    pool = ring[j]
                    pick = [v for v in pool if rng.random() < 0.8]
                    if not pick:
                        pick = [rng.choice(pool)]
                    for v in pick:
                        edges.append((v, y))
        edges.extend(outer_outer_edges())
        g = Graph.from_edges(n, edges)
        cand = witness()
        verdict = verify_heptagram_type(g, cand)
        if verdict.ok:
            if stats_out is not None:
                stats_out["attempts"] = attempt
            return g, cand
        last_rule = verdict.rule
    if stats_out is not None:
        stats_out["attempts"] = _CUSTOM_ATTEMPTS
    raise GenerationError(
        f"no verifying instance after {_CUSTOM_ATTEMPTS} draws "
        f"(last violated rule: {last_rule})",
        rule=last_rule,
    )
