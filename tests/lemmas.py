"""Ring-lemma checkers for the plain 7-ring ("heptagram"), kept as test oracles.

The ring parts of every heptagram-type witness form a heptagram; the tests
check them with its verifier, the taxonomy of the vertices outside the ring
and the lemmas every ring satisfies.  Nothing in the package calls this code.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from heptalab.graph import (
    Graph,
    edge_between,
    first_bit,
    iter_bits,
    lonely,
    mask_of,
    missing_edge,
)
from heptalab.structures import (
    StructureVerdict,
    _anchor_violation,
    _dihedral_maps,
    _RingWitness,
)


@dataclass(frozen=True)
class HeptagramWitness(_RingWitness):
    """Seven disjoint nonempty stable parts, ring-indexed mod 7."""

    parts: tuple[frozenset[int], ...]

    _COUNTS = (7,)
    _MAPS = _dihedral_maps(7)
    _KIND = "heptagram"


def verify_heptagram(g: Graph, w: HeptagramWitness) -> StructureVerdict:
    """Check the 7-ring conditions, rules "1" through "6".

    "1" disjoint nonempty stable parts; "2" distance 3 pairs anticomplete;
    "3" parts at distance 1 and 2 pairwise linked; "4" a vertex adjacent to
    neighbors on both sides forces that pair adjacent; "5" a vertex adjacent
    to neither forces the pair nonadjacent; "6" for a cross pair of edges
    u-w, v-x spanning four consecutive parts, u-v or w-x must be an edge.
    """
    masks = g.vertex_masks(w.parts)
    union = 0
    for i, m in enumerate(masks):
        if not m:
            return StructureVerdict(False, "1", (i,))
        if union & m:
            return StructureVerdict(False, "1", (first_bit(union & m),))
        union |= m
        hit = edge_between(g, m, m)
        if hit:
            return StructureVerdict(False, "1", hit)
    rows = g.rows
    for i in range(7):
        hit = edge_between(g, masks[i], masks[(i + 3) % 7])
        if hit:
            return StructureVerdict(False, "2", hit)
    for i in range(7):
        for d in (1, 2):
            a, b = masks[i], masks[(i + d) % 7]
            alone = lonely(g, a, b) or lonely(g, b, a)
            if alone:
                return StructureVerdict(False, "3", alone)
    for i in range(7):
        prev, cur, nxt = masks[(i + 6) % 7], masks[i], masks[(i + 1) % 7]
        for v in iter_bits(cur):
            back, fwd = rows[v] & prev, rows[v] & nxt
            for u in iter_bits(back):
                miss = fwd & ~rows[u]
                if miss:
                    return StructureVerdict(False, "4", (u, v, first_bit(miss)))
    for i in range(7):
        prev, cur, nxt = masks[(i + 6) % 7], masks[i], masks[(i + 1) % 7]
        for v in iter_bits(cur):
            back, fwd = prev & ~rows[v], nxt & ~rows[v]
            for u in iter_bits(back):
                hit = rows[u] & fwd
                if hit:
                    return StructureVerdict(False, "5", (u, v, first_bit(hit)))
    for i in range(7):
        a, b = masks[(i + 6) % 7], masks[i]
        c, d = masks[(i + 1) % 7], masks[(i + 2) % 7]
        for u in iter_bits(a):
            for wv in iter_bits(rows[u] & c):
                bad_v = b & ~rows[u]
                bad_x = d & ~rows[wv]
                for v in iter_bits(bad_v):
                    hit = rows[v] & bad_x
                    if hit:
                        return StructureVerdict(
                            False, "6", (u, v, wv, first_bit(hit))
                        )
    return StructureVerdict(True)


# ---------------------------------------------------------------------------
# vertex taxonomy relative to a 7-ring
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class VertexClassification:
    vertex: int
    kind: str  # "y_vertex" | "hat" | "tail_member" | "local" | "unclassifiable"
    ring_index: int | None = None
    window: tuple[int, int, int] | None = None
    neighborhoods: tuple[frozenset[int], ...] = ()


@dataclass(frozen=True)
class Tail:
    """An odd induced path outside the ring whose first vertex attaches to
    the two parts opposite ``ring_index`` and whose last attaches to the
    part itself."""

    vertices: tuple[int, ...]
    ring_index: int


def classify_vertex(g: Graph, w: HeptagramWitness, v: int) -> VertexClassification:
    """Classify an outside vertex by its ring neighborhoods.

    Priority: "y_vertex" (attached to part t and both far parts, with the
    coherence conditions); then "hat" (attached to exactly the two far
    parts, coherently); then "local" (all neighbors inside a window of
    three consecutive parts; the reported window prefers a nonempty center,
    then the smallest center index); else "unclassifiable".
    """
    masks = [mask_of(p) for p in w.parts]
    union = 0
    for m in masks:
        union |= m
    if (1 << v) & union:
        raise ValueError(f"vertex {v} lies inside the ring parts")
    rows = g.rows
    neigh = tuple(frozenset(iter_bits(rows[v] & m)) for m in masks)
    nonempty = [i for i in range(7) if neigh[i]]

    for t in range(7):
        hi, lo = (t + 3) % 7, (t + 4) % 7
        if set(nonempty) != {t, hi, lo}:
            continue
        near = masks[(t + 1) % 7] | masks[(t + 2) % 7] | masks[(t + 5) % 7] | masks[(t + 6) % 7]
        if _anchor_violation(g, v, masks[hi], masks[lo]) or missing_edge(
            g, rows[v] & masks[t], near
        ):
            continue
        return VertexClassification(v, "y_vertex", ring_index=t, neighborhoods=neigh)

    for t in range(7):
        hi, lo = (t + 3) % 7, (t + 4) % 7
        if set(nonempty) != {hi, lo}:
            continue
        if not _anchor_violation(g, v, masks[hi], masks[lo]):
            return VertexClassification(v, "hat", ring_index=t, neighborhoods=neigh)

    windows = [
        i
        for i in range(7)
        if all(j in ((i + 6) % 7, i, (i + 1) % 7) for j in nonempty)
    ]
    if windows:
        centered = [i for i in windows if neigh[i]]
        center = min(centered) if centered else min(windows)
        return VertexClassification(
            v,
            "local",
            window=((center + 6) % 7, center, (center + 1) % 7),
            neighborhoods=neigh,
        )
    return VertexClassification(v, "unclassifiable", neighborhoods=neigh)


def find_tails(g: Graph, w: HeptagramWitness, outside: Iterable[int]) -> list[Tail]:
    """Enumerate the odd induced paths outside the ring satisfying all six
    attachment conditions; single attached vertices count as length-zero
    paths.  Deterministic order: by ring index, then by path."""
    out_set = sorted(set(outside))
    masks = [mask_of(p) for p in w.parts]
    union = 0
    for m in masks:
        union |= m
    out_mask = mask_of(out_set)
    if out_mask & union:
        raise ValueError("outside vertices overlap the ring parts")
    rows = g.rows
    tails: list[Tail] = []

    for t in range(7):
        core = masks[t]
        far_hi, far_lo = masks[(t + 3) % 7], masks[(t + 4) % 7]
        side = masks[(t + 1) % 7] | masks[(t + 6) % 7]
        diag_hi, diag_lo = masks[(t + 2) % 7], masks[(t + 5) % 7]
        ring_near = side  # never allowed anywhere on the path

        def emit_ok(path: tuple[int, ...], hit_hi: bool, hit_lo: bool) -> bool:
            if len(path) % 2 == 0 or (hit_hi and hit_lo):
                return False
            head_core = rows[path[-1]] & core
            if not head_core:
                return False
            target = side | diag_hi | diag_lo
            return missing_edge(g, head_core, target) is None

        for start in out_set:
            if not (rows[start] & far_hi and rows[start] & far_lo):
                continue
            if rows[start] & ring_near:
                continue
            if _anchor_violation(g, start, far_hi, far_lo):
                continue
            h0 = bool(rows[start] & diag_hi)
            l0 = bool(rows[start] & diag_lo)
            # stack entries: (path, blocked mask for induced-ness, hit flags)
            stack = [((start,), 1 << start, h0, l0)]
            while stack:
                path, blocked, hit_hi, hit_lo = stack.pop()
                head = path[-1]
                if emit_ok(path, hit_hi, hit_lo):
                    tails.append(Tail(path, t))
                if rows[head] & core:
                    continue  # interior vertices may not touch the core part
                ext = rows[head] & out_mask & ~blocked
                for nxt in sorted(iter_bits(ext), reverse=True):
                    if rows[nxt] & (far_hi | far_lo | ring_near):
                        continue
                    nh = hit_hi or bool(rows[nxt] & diag_hi)
                    nl = hit_lo or bool(rows[nxt] & diag_lo)
                    if nh and nl:
                        continue
                    stack.append(
                        (path + (nxt,), blocked | rows[head] | (1 << nxt), nh, nl)
                    )
    tails.sort(key=lambda tl: (tl.ring_index, tl.vertices))
    return tails


def classify_outside_vertices(
    g: Graph, w: HeptagramWitness, outside: Iterable[int]
) -> dict[int, VertexClassification]:
    """Per-vertex taxonomy for a whole outside set; interior members of
    found tails are reported as "tail_member" when not already attachment
    vertices in their own right."""
    out_set = sorted(set(outside))
    result = {v: classify_vertex(g, w, v) for v in out_set}
    in_tail = {v for tail in find_tails(g, w, out_set) for v in tail.vertices}
    for v in out_set:
        if result[v].kind in ("local", "unclassifiable") and v in in_tail:
            result[v] = VertexClassification(
                v, "tail_member", neighborhoods=result[v].neighborhoods
            )
    return result


def heptagram_consequences(g: Graph, w: HeptagramWitness) -> list[str]:
    """Exhaustively check the structural consequences every verified 7-ring
    must satisfy; returns human-readable violations (empty when all hold).

    Checked: completeness propagation (part complete to its successor forces
    completeness to the part two ahead and between its neighbors); for each
    index, the pair (i, i+1) or the pair (i+2, i+3) is complete; there is an
    alignment index t with the stated completeness pattern, and every vertex
    pair spanning distance 4 has common neighbors in the three bridging
    parts plus a length-3 connecting path through the flanking parts.
    """
    masks = [mask_of(p) for p in w.parts]
    rows = g.rows

    def complete(i: int, j: int) -> bool:
        return missing_edge(g, masks[i % 7], masks[j % 7]) is None

    issues: list[str] = []
    for i in range(7):
        if complete(i, i + 1):
            if not complete(i, i + 2):
                issues.append(
                    f"parts {i},{(i + 1) % 7} complete but {i},{(i + 2) % 7} not"
                )
            if not complete(i - 1, i + 1):
                issues.append(
                    f"parts {i},{(i + 1) % 7} complete but {(i + 6) % 7},{(i + 1) % 7} not"
                )
    for i in range(7):
        if not complete(i, i + 1) and not complete(i + 2, i + 3):
            issues.append(
                f"neither parts {i},{(i + 1) % 7} nor {(i + 2) % 7},{(i + 3) % 7} complete"
            )

    def is_alignment(t: int) -> bool:
        for j in range(7):
            if j != t and not complete(j - 1, j + 1):
                return False
        return all(complete(j, j + 1) for j in (t - 3, t - 2, t + 1, t + 2))

    if not any(is_alignment(t) for t in range(7)):
        issues.append("no alignment index with the required completeness pattern")

    for i in range(7):
        a, b = masks[(i + 5) % 7], masks[(i + 2) % 7]
        for u in iter_bits(a):
            for v in iter_bits(b):
                for j in ((i + 4) % 7, i, (i + 3) % 7):
                    if not rows[u] & rows[v] & masks[j]:
                        issues.append(
                            f"vertices {u},{v} lack a common neighbor in part {j}"
                        )
                mid_a = rows[u] & masks[(i + 6) % 7]
                ok = any(rows[x] & rows[v] & masks[(i + 1) % 7] for x in iter_bits(mid_a))
                if not ok:
                    issues.append(
                        f"no length-3 path from {u} to {v} through parts "
                        f"{(i + 6) % 7},{(i + 1) % 7}"
                    )
    return issues


@dataclass(frozen=True)
class SetRelation:
    """How two disjoint vertex sets see each other.

    ``complete``: every cross pair is an edge.  ``anticomplete``: no cross
    edges at all.  ``linked``: every vertex on each side has at least one
    neighbor on the other.  ``label`` reports the strongest that applies.
    """

    complete: bool
    anticomplete: bool
    linked: bool

    @property
    def label(self) -> str:
        if self.complete:
            return "complete"
        if self.anticomplete:
            return "anticomplete"
        if self.linked:
            return "linked"
        return "mixed"


def relation(g: Graph, a: Iterable[int], b: Iterable[int]) -> SetRelation:
    am = mask_of(a)
    bm = mask_of(b)
    if (am | bm) >> g.n:
        raise ValueError("vertex outside range")
    if am & bm:
        raise ValueError("sets overlap")
    complete = True
    anticomplete = True
    linked = True
    for u in iter_bits(am):
        hit = g.rows[u] & bm
        if hit != bm:
            complete = False
        if hit:
            anticomplete = False
        else:
            linked = False
    for v in iter_bits(bm):
        if not g.rows[v] & am:
            linked = False
            break
    return SetRelation(complete, anticomplete, linked)
