"""Recognition machinery for the two structured graph classes.

The toolkit works with two part systems, each defined once by a pair
table that gives every part pair a demand and the rule a failure reports:

* ``_t11_rule``: an 11-part ring where consecutive parts (distance 1 and
  2) are anticomplete and distant parts (distance 3, 4, 5) are complete;
* ``_slot_rule``: a 7-part ring with seven optional stable outer groups,
  each attached to one ring part and the two parts opposite it, under
  rules "1" through "10" checked by ``verify_heptagram_type``.

The verifiers, the slot search's prune, the generators and the 4-colorings
all read these tables.  Rule identifiers are opaque labels; each
verifier's docstring states what the numbered rules check.
Everything here is pure and deterministic: verifiers scan exhaustively,
and generators build instances part by part.  Both recognizers work on the
false-twin quotient (one vertex per class of equal rows) and lift its
witness back: the 11-ring one reads its parts off the classes and walks
their ring order in the quotient's complement, and the full-class one
runs one budgeted, forward-checked backtracking search whose first levels
pick the antihole that opens the ring parts.

No graph is of both types.  A graph is of the full-class type exactly
when its quotient is (``search_heptagram_type``), and the quotient of every
T11-type graph is the 11-vertex (3,4,5)-circulant core, whose parts are
the twin classes (``recognize_t11_type``).  The type is an isomorphism
invariant, and the exact ``_slot_search`` finds no witness on the core (a
search of 679 steps).  So a caller that holds a T11-type witness may take
the full-class answer as None without a search.

Every T11-type graph has the 7-vertex antihole: one vertex from each of
parts 0, 1, 3, 4, 6, 7 and 9 of a witness.  Two parts are nonadjacent
exactly when they are 1 or 2 apart on the ring, and of these seven parts
that holds for exactly the pairs 0-1, 1-3, 3-4, 4-6, 6-7, 7-9 and 9-0, a
7-cycle.  So a caller that found no antihole may take the T11-type answer
as None without a search, as it may the full-class one
(``recognize_heptagram_type``).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import combinations
from typing import Callable, Iterable, Sequence

from .coloring import Coloring
from .detect import Budget, has_c7_complement
from .graph import (
    Graph,
    edge_between,
    first_bit,
    induced_subgraph,
    iter_bits,
    lonely,
    mask_of,
    missing_edge,
)


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
    # the reflection j -> 2 - j keep every slot pair's demand in ``_slot_rule``
    # (the linked pairs and the special (0, 1, 2) triple).
    _MAPS = (tuple(range(7)), tuple((2 - j) % 7 for j in range(7)))
    _KIND = "heptagram_type"


# ---------------------------------------------------------------------------
# pair tables
# ---------------------------------------------------------------------------

# A pair table maps a part pair (s, t) to its demand ("complete",
# "anticomplete", "linked": every vertex of either part has a neighbor in the
# other, or "seen": every vertex of the later part has a neighbor in the
# earlier) and to the rule a failure reports.  A part with itself is
# anticomplete: every part is stable.
_Rule = Callable[[int, int], tuple[str, str]]


def _t11_rule(s: int, t: int) -> tuple[str, str]:
    """The 11 ring parts: anticomplete at distance 1 and 2, complete at 3, 4, 5."""
    d = min((t - s) % 11, (s - t) % 11)
    if d == 0:
        return "anticomplete", "stable"
    return ("anticomplete", "anticomplete") if d <= 2 else ("complete", "complete")


def _slot_rule(s: int, t: int) -> tuple[str, str]:
    """The 14 heptagram-type slots: 0-6 ring parts, 7-13 outer groups 0-6.

    Ring parts at distance 3 are anticomplete (rule "1"), at distance 2
    complete (rule "2") and at distance 1 complete (rule "3"), except that
    the pairs inside the (0, 1, 2) triple and the pair (4, 5) are only
    linked.  Outer group i is seen from ring parts i, i+3 and i+4 and is
    anticomplete to the rest of the ring (rule "6").  Consecutive outer
    groups are complete, the others anticomplete (rule "8").
    """
    s, t = min(s, t), max(s, t)
    d = min((t - s) % 7, (s - t) % 7)
    if s == t:
        return "anticomplete", "stable"
    if t < 7:  # two ring parts
        if d == 3:
            return "anticomplete", "1"
        linked = t <= 2 or (s, t) == (4, 5)
        return ("linked" if linked else "complete"), "2" if d == 2 else "3"
    if s >= 7:  # two outer groups
        return ("complete" if d == 1 else "anticomplete"), "8"
    return ("seen" if (s - t) % 7 in (0, 3, 4) else "anticomplete"), "6"


# the linked ring pairs, in sorted order: the only ring pairs a vertex pair may
# meet either way
_LINKED = tuple(p for p in combinations(range(7), 2) if _slot_rule(*p)[0] == "linked")


# ---------------------------------------------------------------------------
# verifiers
# ---------------------------------------------------------------------------


# per demand: the first offending vertices between masks a and b, or None
_CHECKS = {
    "complete": missing_edge,
    "anticomplete": edge_between,
    "linked": lambda g, a, b: lonely(g, a, b) or lonely(g, b, a),
    "seen": lambda g, a, b: lonely(g, b, a),
}


def _preamble_failure(g: Graph, masks: list[int], ring_parts: int) -> StructureVerdict | None:
    """The first failure of the rules shared by the two covering witnesses,
    or None: "partition" (the masks are disjoint and cover the vertex set),
    then "nonempty" (the first ``ring_parts`` masks), then "stable" (all)."""
    union = 0
    for m in masks:
        if union & m:
            return StructureVerdict(False, "partition", (first_bit(union & m),))
        union |= m
    missing = ~union & ((1 << g.n) - 1)
    if missing:
        return StructureVerdict(False, "partition", (first_bit(missing),))
    for i in range(ring_parts):
        if not masks[i]:
            return StructureVerdict(False, "nonempty", (i,))
    for m in masks:
        hit = edge_between(g, m, m)
        if hit:
            return StructureVerdict(False, "stable", hit)
    return None


def _pair_checks(rule: _Rule, k: int) -> tuple[tuple[int, int, Callable, str], ...]:
    """(s, t, check, rule name) for the part pairs s < t of a k-part table,
    in lexicographic order."""
    return tuple(
        (s, t, _CHECKS[rule(s, t)[0]], rule(s, t)[1]) for s, t in combinations(range(k), 2)
    )


_T11_CHECKS = _pair_checks(_t11_rule, 11)
_SLOT_CHECKS = _pair_checks(_slot_rule, 14)


def _pair_failure(g: Graph, masks: list[int], checks) -> StructureVerdict | None:
    """The first part pair of ``checks`` whose demand fails, or None.  A
    pair with an empty part meets every demand but "linked", which only
    ring parts have, and those are nonempty once the preamble passed."""
    for s, t, check, rule in checks:
        a, b = masks[s], masks[t]
        if a and b:
            bad = check(g, a, b)
            if bad:
                return StructureVerdict(False, rule, bad)
    return None


def verify_t11_type(g: Graph, w: T11Witness) -> StructureVerdict:
    """Check the 11-ring conditions: the preamble rules, then the pair table
    ``_t11_rule`` over the part pairs (s, t), s < t, in lexicographic order.

    Rules: "partition" (parts disjoint and covering), "nonempty", "stable",
    "anticomplete" (ring distance 1 and 2), "complete" (distance 3, 4, 5).
    """
    masks = g.vertex_masks(w.parts)
    return (
        _preamble_failure(g, masks, 11)
        or _pair_failure(g, masks, _T11_CHECKS)
        or StructureVerdict(True)
    )


def _anchor_violation(g: Graph, v: int, far_hi: int, far_lo: int) -> tuple[int, int] | None:
    """Neighborhood coherence at an attachment vertex: its two far-part
    neighborhoods are complete to each other and anticomplete to the
    non-neighbors of the opposite part.  Returns the first offending pair,
    or None when coherent."""
    n_hi, n_lo = g.rows[v] & far_hi, g.rows[v] & far_lo
    return (
        missing_edge(g, n_hi, n_lo)
        or edge_between(g, n_hi, far_lo & ~n_lo)
        or edge_between(g, n_lo, far_hi & ~n_hi)
    )


def verify_heptagram_type(g: Graph, w: HeptagramTypeWitness) -> StructureVerdict:
    """Check the full-class conditions, rules "1" through "10".

    Preamble rules: "partition" (the 14 sets partition the vertex set),
    "nonempty" (ring parts), "stable" (all 14 sets).  Numbered rules: "1",
    "2", "3", "6" and "8" are the pair demands of the table ``_slot_rule``
    (ring distance 3 anticomplete, distance 2 and 1 complete or linked,
    outer group i seen from ring parts i, i+3, i+4 only, consecutive outer
    groups complete and the others anticomplete); "4"/"5" the coherence
    conditions on the (0,1,2) triple; "7" per-vertex neighborhood coherence
    for outer vertices; "9" an outer group not complete to its two far
    parts forces those far parts complete to their distance-2 neighbors and
    the four surrounding outer groups empty; "10" among any three
    consecutive outer groups one is empty.

    The first failure is reported, in this order: the preamble rules; the
    pair rules over the slot pairs (s, t), s < t, in lexicographic order
    (slots 0-6 are the ring parts, 7-13 the outer groups); then "4"/"5",
    "7", "9" and "10".
    """
    masks = g.vertex_masks(w.ring + w.outer)
    return _heptagram_failure(g, masks[:7], masks[7:]) or StructureVerdict(True)


def _heptagram_failure(g: Graph, ring: list[int], outer: list[int]) -> StructureVerdict | None:
    """The first failure of ``verify_heptagram_type`` on the ring part and
    outer group masks, or None when they meet every rule."""
    bad = _preamble_failure(g, ring + outer, 7) or _pair_failure(g, ring + outer, _SLOT_CHECKS)
    if bad:
        return bad

    rows = g.rows
    for v in iter_bits(ring[1]):
        miss = missing_edge(g, rows[v] & ring[0], rows[v] & ring[2])
        if miss:
            return StructureVerdict(False, "4", (miss[0], v, miss[1]))
        hit = edge_between(g, ring[0] & ~rows[v], ring[2] & ~rows[v])
        if hit:
            return StructureVerdict(False, "5", (hit[0], v, hit[1]))

    for i in range(7):
        far_hi, far_lo = ring[(i + 3) % 7], ring[(i + 4) % 7]
        near = ring[(i + 1) % 7] | ring[(i + 2) % 7] | ring[(i + 5) % 7] | ring[(i + 6) % 7]
        for y in iter_bits(outer[i]):
            bad = _anchor_violation(g, y, far_hi, far_lo) or missing_edge(
                g, rows[y] & ring[i], near
            )
            if bad:
                return StructureVerdict(False, "7", (y,) + bad)
    for i in range(7):
        far = ring[(i + 3) % 7] | ring[(i + 4) % 7]
        if missing_edge(g, outer[i], far) is None:
            continue
        flank = ring[(i + 2) % 7] | ring[(i + 5) % 7]
        miss = missing_edge(g, far, flank)
        if miss:
            return StructureVerdict(False, "9", (i,) + miss)
        for d in (1, 3, 4, 6):
            if outer[(i + d) % 7]:
                return StructureVerdict(False, "9", (i, first_bit(outer[(i + d) % 7])))
    crowded = _crowded_window(outer)
    if crowded is not None:
        return StructureVerdict(False, "10", (crowded,))
    return None


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
    quotient, _ = induced_subgraph(g, [first_bit(m) for m in masks])
    return masks, quotient


def recognize_t11_type(g: Graph) -> T11Witness | None:
    """Recover an 11-ring witness, or None; exact, read off the false-twin
    classes.

    The vertices of one part of a witness are false twins (the part is
    stable, and every pair of parts is complete or anticomplete), while the
    11-vertex (3,4,5)-circulant core has no false twins, so vertices of
    different parts have different rows.  The classes of equal rows are
    therefore the parts.  A graph with other than 11 classes is not of the
    type.  Otherwise the complement of the quotient on one vertex per class
    is the ring C11(1, 2) when ``g`` is of the type, and there a vertex
    shares two neighbors with each ring neighbor and one with each vertex
    two steps away.  So the ring order is walked from class 0, each step
    going to an unused neighbor that shares two neighbors with the current
    class.  A stuck walk, or a witness that fails verification, shows that
    ``g`` is not of the type.
    """
    if len(set(g.rows)) != 11:
        return None
    classes, quotient = _twin_quotient(g)
    ring = quotient.complement().rows
    order, used = [0], 1
    while len(order) < 11:
        here = ring[order[-1]]
        steps = [v for v in iter_bits(here & ~used) if (ring[v] & here).bit_count() == 2]
        if not steps:
            return None
        order.append(steps[0])
        used |= 1 << steps[0]
    w = T11Witness(tuple(frozenset(iter_bits(classes[j])) for j in order))
    return w.canonical() if verify_t11_type(g, w).ok else None


# per slot s: the slots open to a neighbor, and to a non-neighbor, of a vertex in s
_NEIGHBOR_SLOTS = tuple(
    mask_of(t for t in range(14) if _slot_rule(s, t)[0] != "anticomplete") for s in range(14)
)
_STRANGER_SLOTS = tuple(
    mask_of(t for t in range(14) if _slot_rule(s, t)[0] != "complete") for s in range(14)
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


def _slot_search(g: Graph, budget: Budget) -> list[int] | None:
    """The 14 slot masks of the first full-class witness of ``g`` that a
    forward-checked backtracking search meets, or None; exact.

    Every vertex gets one of the 14 slots (ring parts and outer groups).
    A complete or anticomplete slot pair of the table ``_slot_rule`` fixes
    whether a vertex pair between the two slots is adjacent, so a placed
    vertex narrows the slot domain of every other vertex.  While a ring part
    is empty, the search branches on which vertex opens the first empty
    part i: one that still has slot i and sees the openers of i's linked
    partners (``_LINKED``, the only ring pairs that fix no adjacency), so
    the seven openers induce the 7-vertex antihole.  Then it branches on a
    vertex with the fewest slots left.  It prunes on an empty domain,
    checks every rule on the slot masks at each leaf (``_heptagram_failure``)
    and returns those of the first leaf that passes.  A failed opener of
    part 0 loses slot 0: any vertex of part 0 can open it (below).

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
            for pair in _LINKED:
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
        if _heptagram_failure(g, slots[:7], slots[7:]) is None:
            return slots
    return None


def recognize_heptagram_type(
    g: Graph, budget: Budget | None = None
) -> HeptagramTypeWitness | None:
    """Recover a full-class witness, or None; exact within ``budget``.

    A graph without the 7-vertex antihole has no witness (``_slot_search``
    shows that the ring parts hold one), so it gets None before any search.
    Otherwise ``search_heptagram_type`` runs.
    """
    if not has_c7_complement(g):
        return None
    return search_heptagram_type(g, budget)


def search_heptagram_type(g: Graph, budget: Budget | None = None) -> HeptagramTypeWitness | None:
    """``recognize_heptagram_type`` without its antihole pre-check, for a
    caller that has already found the 7-vertex antihole in ``g``.

    ``_slot_search`` runs on the false-twin quotient (``_twin_quotient``),
    each of its slot masks is lifted to the union of its classes, and the
    lifted witness, checked once on ``g``, is returned in canonical form.

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
    classes, quotient = _twin_quotient(g)
    slots = _slot_search(quotient, budget)
    if slots is None:
        return None
    lifted = [sum(classes[j] for j in iter_bits(m)) for m in slots]
    if _heptagram_failure(g, lifted[:7], lifted[7:]) is not None:
        raise RuntimeError("a lifted quotient witness fails on the input graph")
    parts = [frozenset(iter_bits(m)) for m in lifted]
    return HeptagramTypeWitness(tuple(parts[:7]), tuple(parts[7:])).canonical()


# ---------------------------------------------------------------------------
# generators
# ---------------------------------------------------------------------------


def _blow_up(
    sizes: Iterable[int], joined: Callable[[int, int], bool]
) -> tuple[Graph, list[list[int]]]:
    """Consecutive parts of the given sizes, complete between parts s < t
    with ``joined(s, t)`` and anticomplete otherwise: the graph and its parts."""
    parts, n = [], 0
    for size in sizes:
        parts.append(list(range(n, n + size)))
        n += size
    edges = [
        (u, v)
        for s, t in combinations(range(len(parts)), 2)
        if joined(s, t)
        for u in parts[s]
        for v in parts[t]
    ]
    return Graph.from_edges(n, edges), parts


def generate_t11_type(sizes: Iterable[int]) -> tuple[Graph, T11Witness]:
    """Blow-up of the 11-vertex (3,4,5)-circulant with the given part sizes."""
    sizes = tuple(sizes)
    if len(sizes) != 11:
        raise GenerationError("exactly 11 part sizes required", rule="partition")
    if any(s < 1 for s in sizes):
        raise GenerationError("part sizes must be positive", rule="nonempty")
    g, parts = _blow_up(sizes, lambda s, t: _t11_rule(s, t)[0] == "complete")
    return g, T11Witness(tuple(frozenset(p) for p in parts))


def _crowded_window(outer: Sequence[int]) -> int | None:
    """The first i with outer groups i, i+1 and i+2 (mod 7) all nonempty,
    which rule 10 forbids, or None; ``outer`` holds sizes or masks."""
    return next(
        (i for i in range(7) if outer[i] and outer[(i + 1) % 7] and outer[(i + 2) % 7]), None
    )


def _validate_outer_sizes(y_sizes: tuple[int, ...]) -> None:
    if any(s < 0 for s in y_sizes):
        raise GenerationError("outer group sizes must be nonnegative", rule="partition")
    if _crowded_window(y_sizes) is not None:
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
) -> tuple[Graph, HeptagramTypeWitness]:
    """Build a full-class instance with the given ring and outer sizes.

    The default profile makes every linked ring pair fully complete and
    every outer vertex complete to its three attachment parts, which meets
    all ten rules by construction.  The "custom" profile samples sparser
    linkages and partial attachment neighborhoods at random and keeps the
    first draw that verifies; feasibility is not guaranteed.
    """
    w_sizes = tuple(w_sizes)
    y_sizes = tuple(y_sizes) if y_sizes is not None else (0,) * 7
    if len(w_sizes) != 7 or len(y_sizes) != 7:
        raise GenerationError("exactly 7 ring and 7 outer sizes required", rule="partition")
    if any(s < 1 for s in w_sizes):
        raise GenerationError("ring part sizes must be positive", rule="nonempty")
    _validate_outer_sizes(y_sizes)

    if profile not in ("all_complete", "custom"):
        raise ValueError(f"unknown profile {profile!r}")

    # "all_complete" makes every slot pair complete unless it is anticomplete;
    # "custom" starts from the complete pairs and draws the linked and seen ones
    joined = ("complete",) if profile == "custom" else ("complete", "linked", "seen")
    base, parts = _blow_up(w_sizes + y_sizes, lambda s, t: _slot_rule(s, t)[0] in joined)
    w = HeptagramTypeWitness(
        tuple(frozenset(p) for p in parts[:7]), tuple(frozenset(p) for p in parts[7:])
    )
    if profile == "all_complete":
        return base, w

    rng = rng if rng is not None else random.Random(0)
    ring, outer = parts[:7], parts[7:]
    # per outer group i: the ring parts that see it, walked from i: i, i+3, i+4
    seen_from = [
        [(i + d) % 7 for d in range(7) if _slot_rule((i + d) % 7, 7 + i)[0] == "seen"]
        for i in range(7)
    ]
    last_rule = None
    for _ in range(_CUSTOM_ATTEMPTS):
        edges = base.edges()
        for i, j in _LINKED:
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
                for j in seen_from[i]:
                    pool = ring[j]
                    pick = [v for v in pool if rng.random() < 0.8]
                    if not pick:
                        pick = [rng.choice(pool)]
                    for v in pick:
                        edges.append((v, y))
        g = Graph.from_edges(base.n, edges)
        verdict = verify_heptagram_type(g, w)
        if verdict.ok:
            return g, w
        last_rule = verdict.rule
    raise GenerationError(
        f"no verifying instance after {_CUSTOM_ATTEMPTS} draws "
        f"(last violated rule: {last_rule})",
        rule=last_rule,
    )


# ---------------------------------------------------------------------------
# 4-colorings
# ---------------------------------------------------------------------------


def _part_colors(rule: _Rule, k: int) -> tuple[int, ...]:
    """A color per part of a k-part table, greedily in part order: each part
    takes the least color of no earlier part that it is not anticomplete to."""
    colors: list[int] = []
    for t in range(k):
        taken = {colors[s] for s in range(t) if rule(s, t)[0] != "anticomplete"}
        colors.append(min(set(range(t + 1)) - taken))
    return tuple(colors)


_T11_COLORS = _part_colors(_t11_rule, 11)
_HEPTA_COLORS = _part_colors(_slot_rule, 14)


def _color_by_part(verdict: StructureVerdict, parts, table: tuple[int, ...]) -> Coloring:
    if not verdict.ok:
        raise ValueError(f"witness failed verification: rule {verdict.rule}")
    return Coloring({v: c for part, c in zip(parts, table) for v in part}, 4)


def four_color_t11(g: Graph, witness: T11Witness) -> Coloring:
    """Proper 4-coloring of a verified eleven-class ring witness.

    Consecutive ring classes are pairwise non-adjacent out to distance two,
    so the runs {0,1,2}, {3,4,5}, {6,7,8}, {9,10} are color classes
    (``_T11_COLORS``).
    """
    return _color_by_part(verify_t11_type(g, witness), witness.parts, _T11_COLORS)


def four_color_heptagram_type(g: Graph, witness: HeptagramTypeWitness) -> Coloring:
    """Proper 4-coloring of a verified heptagram-type witness.

    Ring parts three apart are anticomplete, which fixes the four ring
    color classes.  An outer group sees only ring parts i, i+3, i+4 and the
    outer groups beside it, so it finds a free class among the four
    (``_HEPTA_COLORS``).
    """
    return _color_by_part(
        verify_heptagram_type(g, witness), witness.ring + witness.outer, _HEPTA_COLORS
    )
