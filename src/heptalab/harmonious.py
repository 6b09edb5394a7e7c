"""Harmonious cutsets: verification, search, and coloring merges.

A harmonious partition is a cutset X split into stable parts X_1..X_k (with
k >= 3 forcing the parts pairwise complete) such that every induced path
between cutset vertices whose interior avoids the cutset has even length when
its endpoints share a part and odd length otherwise.  Two proper colorings of
the two sides can then be aligned part-by-part with color swaps and glued.

The cutset search is exact.  A harmonious cutset induces a bipartite or
complete multipartite graph, and the search gives one parity pass over
those paths to each minimal separator of such a shape.  Every other shaped
set that disconnects the graph contains one of them and fails with it, by
the lemma below, so "none" rests on the lemma.  A parity union-find
settles in the pass which components of a bipartite set swap their two
colors.  Separators and pass are exponential in the worst case, so the
search and every check charge a ``detect.Budget`` and report
"inconclusive" when it runs dry; neither ever guesses.

Labels suit a shaped set X when the two color classes of each component
of a bipartite G[X] differ (the parts of a complete multipartite one are
its labels) and every induced path between vertices of X with its
interior off X is even exactly between equal labels.  The pass fails
exactly when no labels suit X.

Lemma (inherited failures).  If no labels suit X, none suit a shaped X'
containing X.  Proof: let labels suit X'.  The vertices of X' on a path
Q as above cut it into pieces: induced paths with their interiors off X',
which the labels suit.  If G[X'] is bipartite, so is G[X]; each component
of G[X] lies in one of G[X'] with the same two color classes, and Q's
parity is the sum of its pieces', so the labels suit X.  Otherwise G[X']
is complete multipartite with three or more parts, labeled by part.  Ends
of Q in two parts are adjacent, and Q is their edge.  Ends in one part
are not; an inner vertex of Q in another part would see both, so Q has
length two or each piece joins one part and is even.  G[X] is complete
multipartite with the parts of X' met on X, at most two if it is
bipartite, and labeling X by them suits X.  So the search tries only
minimal separators, and it gives no pass to a separator one vertex larger
than a failed one but counts it as failed too.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Callable

from .coloring import Coloring
from .detect import Budget, SearchBudgetExceeded
from .graph import Graph, edge_between, iter_bits, mask_of, missing_edge, multipartite_parts


class MergeError(RuntimeError):
    """The swap loop stalled, signaling a precondition violation."""


@dataclass(frozen=True)
class HarmoniousPartition:
    """A cutset split into parts, plus the two separated sides.

    ``parts`` are disjoint nonempty frozensets whose union is the cutset;
    ``sides``, exactly two, partition the remaining vertices.  Shape is
    validated here, while the parity and completeness conditions are the
    job of ``verify_harmonious``.
    """

    parts: tuple[frozenset[int], ...]
    sides: tuple[frozenset[int], frozenset[int]]

    def __post_init__(self) -> None:
        if not self.parts:
            raise ValueError("at least one cutset part required")
        if len(self.sides) != 2:
            raise ValueError(f"exactly two sides required, got {len(self.sides)}")
        seen: set[int] = set()
        for what, blocks in (("cutset part", self.parts), ("side", self.sides)):
            for block in blocks:
                if not isinstance(block, frozenset):
                    raise ValueError(f"{what} is a {type(block).__name__}, not a frozenset")
                if not block:
                    raise ValueError(f"empty {what}")
                if block & seen:
                    raise ValueError(f"{what} overlaps an earlier part or side")
                seen |= block

    @property
    def cutset(self) -> frozenset[int]:
        return frozenset().union(*self.parts)

    def to_json_dict(self) -> dict:
        return {
            "cutset": sorted(self.cutset),
            "parts": [sorted(p) for p in self.parts],
            "sides": [sorted(s) for s in self.sides],
        }


@dataclass(frozen=True)
class HarmonyViolation:
    kind: str  # "parity" | "parts_not_complete" | "sides_connected"
    vertices: tuple[int, ...]


@dataclass(frozen=True)
class HarmonyVerdict:
    status: str  # "yes" | "no" | "inconclusive"
    violation: HarmonyViolation | None
    steps: int


def _check_shape(g: Graph, p: HarmoniousPartition) -> tuple[list[int], list[int]]:
    """The part and side masks of ``p``, which must cover ``g``."""
    masks = g.vertex_masks(p.parts + p.sides)
    if sum(masks) != (1 << g.n) - 1:
        raise ValueError("partition does not cover the vertex set exactly")
    return masks[:-2], masks[-2:]


def _parity_pass(
    g: Graph, cut: int, classes: list[tuple[int, ...]], budget: Budget
) -> tuple[list[int], tuple[int, ...] | None]:
    """Check every induced path between ``cut`` vertices with its interior
    off ``cut`` against labels: even between equal labels, odd otherwise.

    ``classes`` gives classes of cut vertices as masks by label.  A path
    between two classes merges the later into the earlier, flipping its
    labels to suit the path (a parity union-find over the two-label classes
    of a bipartite cut); a class labeled 0 at its least vertex stays so.
    Returns the labels and the first path at odds with them or None; each
    search node charges ``budget`` one step.
    """
    cls, label = [0] * g.n, [0] * g.n
    for c, masks in enumerate(classes):
        for lab, m in enumerate(masks):
            for v in iter_bits(m):
                cls[v], label[v] = c, lab
    rows = g.rows
    interior = (1 << g.n) - 1 & ~cut
    for start in iter_bits(cut & ~(1 << (cut.bit_length() - 1))):
        # DFS from ``start``, closing at cut vertices above it (so none from
        # the largest); the stack holds (head, path, mid_adj), mid_adj the
        # neighbors of path minus head
        above = cut & ~((1 << (start + 1)) - 1)
        stack: list[tuple[int, tuple[int, ...], int]] = [(start, (start,), 0)]
        while stack:
            head, path, mid_adj = stack.pop()
            budget.spend()
            reach = rows[head] & ~mid_adj
            for b in iter_bits(reach & above):
                odd = len(path) % 2  # edges: path vertices + b minus 1
                if cls[b] == cls[start]:
                    if (label[b] == label[start]) == odd:
                        return label, path + (b,)
                    continue
                keep, gone = sorted((cls[start], cls[b]))
                flip = label[start] ^ label[b] ^ odd
                for v in iter_bits(cut):
                    if cls[v] == gone:
                        cls[v] = keep
                        label[v] ^= flip
            new_mid = mid_adj | rows[head]
            for w in iter_bits(reach & interior):
                stack.append((w, path + (w,), new_mid))
    return label, None


def verify_harmonious(
    g: Graph, p: HarmoniousPartition, budget: Budget | None = None
) -> HarmonyVerdict:
    """Check the harmonious conditions by exhaustive induced-path search.

    Returns yes, no with a concrete counterexample, or inconclusive when
    ``budget`` (a fresh ``Budget()`` if None) is exhausted, with its spent
    steps.  Stability of each part is subsumed by parity: an edge inside a
    part is an odd same-part path of length one.
    """
    parts, sides = _check_shape(g, p)
    budget = Budget() if budget is None else budget

    leak = edge_between(g, *sides)
    if leak:
        return HarmonyVerdict("no", HarmonyViolation("sides_connected", leak), budget.spent)

    if len(parts) >= 3:
        for a, b in combinations(parts, 2):
            missing = missing_edge(g, a, b)
            if missing:
                violation = HarmonyViolation("parts_not_complete", missing)
                return HarmonyVerdict("no", violation, budget.spent)

    try:
        _, path = _parity_pass(g, sum(parts), [tuple(parts)], budget)
    except SearchBudgetExceeded:
        return HarmonyVerdict("inconclusive", None, budget.spent)
    if path is None:
        return HarmonyVerdict("yes", None, budget.spent)
    return HarmonyVerdict("no", HarmonyViolation("parity", path), budget.spent)


@dataclass(frozen=True)
class CutsetSearchResult:
    status: str  # "found" | "none" | "inconclusive"
    partition: HarmoniousPartition | None
    steps: int


def minimal_separators(g: Graph, budget: Budget | None = None) -> list[int]:
    """All inclusion-minimal vertex separators (sets with two components of
    their removal seeing all of them) as masks, sorted by (size, members).

    Berry-Bordat-Cogis closure (IJFCS 11(3), 2000): the separators are the
    neighborhoods of the components of g - N[v] for each vertex v, closed
    under taking those of g - (S | N(x)) for x in a separator S.  There can
    be exponentially many, so each one charges ``budget`` (a fresh
    ``Budget()`` if None) a step."""
    budget = Budget() if budget is None else budget
    rows = g.rows
    full = (1 << g.n) - 1
    found: list[int] = []
    seen: set[int] = set()

    def collect(removed: int) -> None:
        for comp in g.component_masks(full & ~removed):
            border = 0
            for u in iter_bits(comp):
                border |= rows[u]
            sep = border & ~comp
            if sep and sep not in seen:
                seen.add(sep)
                found.append(sep)
                budget.spend()

    for v in range(g.n):
        collect(rows[v] | 1 << v)
    for sep in found:  # grows while it is walked
        for x in iter_bits(sep):
            collect(sep | rows[x])
    return sorted(found, key=lambda sep: (sep.bit_count(), list(iter_bits(sep))))


def _shape(rows: tuple[int, ...], cut: int) -> list[tuple[int, ...]] | None:
    """The ``_parity_pass`` classes of G[cut], or None when it is neither
    bipartite nor complete multipartite.

    A bipartite G[cut] gets the two color classes of each component, the
    component's least vertex in the first mask; else a complete multipartite
    one gets its parts (the classes of non-adjacency) as one class.
    Components and parts come in order of their least vertex."""
    bip, left = [], cut
    while left:
        # color the component of the least vertex left, one BFS layer at a time
        sides, layer, odd = [0, 0], left & -left, 0
        while layer:
            sides[odd] |= layer
            odd ^= 1
            reach = 0
            for u in iter_bits(layer):
                reach |= rows[u]
            layer = reach & left & ~(sides[0] | sides[1])
        if any(rows[u] & side for side in sides for u in iter_bits(side)):
            break
        bip.append(tuple(sides))
        left &= ~(sides[0] | sides[1])
    else:
        return bip
    parts = multipartite_parts(rows, cut)
    return None if parts is None else [tuple(parts)]


def find_harmonious_cutset(g: Graph, budget: Budget | None = None) -> CutsetSearchResult:
    """Search the shaped minimal separators for a verifiable harmonious
    partition.

    The search walks ``minimal_separators`` in order and gives each shaped
    one (``_shape`` is not None) a ``_parity_pass``, except a set one vertex
    larger than a failed one, which fails too by the lemma above.  No larger
    set is needed: a shaped X that disconnects g contains a minimal
    (a, b)-separator S for two vertices a and b that X separates, S is
    shaped too, shape being hereditary, and if no labels suit S, none suit
    X.  As the least vertex of each class keeps label 0, a bipartite set
    gets the first of its two-colorings in flip order, so a hit is
    deterministic; it is checked again by ``verify_harmonious``.  "None"
    means that no shaped minimal separator passes, and by the lemma no
    shaped disconnecting set of any size does.  Each minimal separator
    built, cutset tried and parity-pass node charges ``budget`` (a fresh
    ``Budget()`` if None) a step, and ``steps`` reads what it spent; when it
    runs dry the answer is "inconclusive".
    """
    if not g.is_connected():
        raise ValueError("input graph must be connected")
    budget = Budget() if budget is None else budget
    failed: set[int] = set()  # tried cuts whose pass fails, by the lemma or run
    try:
        for cut in minimal_separators(g, budget):
            classes = _shape(g.rows, cut)
            if classes is None:
                continue
            budget.spend()
            if any(cut & ~(1 << u) in failed for u in iter_bits(cut)):
                failed.add(cut)
                continue
            label, path = _parity_pass(g, cut, classes, budget)
            if path is None:
                break
            failed.add(cut)
        else:
            return CutsetSearchResult("none", None, budget.spent)
    except SearchBudgetExceeded:
        return CutsetSearchResult("inconclusive", None, budget.spent)
    # each label up to the largest holds a vertex: 0 at the least one
    parts = tuple(
        frozenset(v for v in iter_bits(cut) if label[v] == i) for i in range(max(label) + 1)
    )
    rest = (1 << g.n) - 1 & ~cut
    first = g.component_of(rest & -rest, rest)
    sides = (frozenset(iter_bits(first)), frozenset(iter_bits(rest & ~first)))
    partition = HarmoniousPartition(parts, sides)
    # the re-check gets a budget of its own: it repeats a pass that fit
    if verify_harmonious(g, partition, Budget(budget.limit)).status != "yes":
        raise RuntimeError("parity pass accepted a partition the verifier rejects")
    return CutsetSearchResult("found", partition, budget.spent)


def merge_colorings(
    g: Graph,
    p: HarmoniousPartition,
    c1: Coloring,
    c2: Coloring,
    on_swap: Callable[[int, int], None] | None = None,
) -> Coloring:
    """Glue proper k-colorings of the two sides into one proper k-coloring.

    A cutset vertex is aligned when its color equals its part index.  On each
    side in turn, any misaligned vertex picks out the component of the
    subgraph spanned by its two colors (its current one and its part's), and
    swapping the two colors there strictly increases the number of aligned
    cutset vertices; the harmonious conditions guarantee that component
    carries no aligned cutset vertex.  A swap without progress raises
    MergeError, which is the designed detector for a non-harmonious input;
    as each swap must align one more vertex, the loop ends.

    ``on_swap(side, aligned_count)`` is invoked after every swap, which the
    test suite uses to assert strict monotonicity.
    """
    parts, sides = _check_shape(g, p)
    k = c1.k
    if c2.k != k:
        raise ValueError("side colorings use different palette sizes")
    if k < len(parts):
        raise ValueError("palette smaller than the number of cutset parts")
    part_of = {v: i for i, part in enumerate(parts) for v in iter_bits(part)}
    cut = sorted(part_of)
    merged: dict[int, int] = {}

    for side_idx, (side, source) in enumerate(zip(sides, (c1, c2))):
        vis_mask = side | sum(parts)
        visible = list(iter_bits(vis_mask))
        colors = {}
        for v in visible:
            if v not in source.colors:
                raise ValueError(f"side {side_idx + 1} coloring misses vertex {v}")
            c = source.colors[v]
            if not source.has_color(c):
                raise ValueError(f"color {c} out of range on vertex {v}")
            colors[v] = c
        for u in visible:
            for w in iter_bits(g.rows[u] & vis_mask & ~((1 << (u + 1)) - 1)):
                if colors[u] == colors[w]:
                    raise ValueError(
                        f"side {side_idx + 1} coloring is not proper on edge ({u}, {w})"
                    )

        aligned = sum(colors[v] == part_of[v] for v in cut)
        while aligned < len(cut):
            bad = next(v for v in cut if colors[v] != part_of[v])
            want, have = part_of[bad], colors[bad]
            # swap the two colors on the two-colored component of `bad` in this side
            block = mask_of(v for v in visible if colors[v] in (want, have))
            for v in iter_bits(g.component_of(1 << bad, block)):
                colors[v] = want if colors[v] == have else have
            now = sum(colors[v] == part_of[v] for v in cut)
            if now <= aligned:
                raise MergeError("color swap made no progress; cutset is not harmonious")
            aligned = now
            if on_swap is not None:
                on_swap(side_idx, aligned)
        merged.update(colors)

    return Coloring(merged, k)
