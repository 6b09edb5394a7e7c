"""Harmonious cutsets: verification, search, and coloring merges.

A harmonious partition is a cutset X split into stable parts X_1..X_k (with
k >= 3 forcing the parts pairwise complete) such that every induced path
between cutset vertices whose interior avoids the cutset has even length when
its endpoints share a part and odd length otherwise.  Two proper colorings of
the two sides can then be aligned part-by-part with color swaps and glued.

The cutset search is exact: it tries every vertex set that disconnects the
graph and induces a bipartite or complete multipartite graph, the only
shapes a harmonious cutset can take.  Both that pool and the path parity
checks are exponential in the worst case, so the search and every check
run under one budget of search steps and report "inconclusive" when it
runs dry; neither ever guesses.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, product
from typing import Callable, Iterator

from .coloring import Coloring
from .detect import DEFAULT_BUDGET, SearchBudgetExceeded
from .graph import Graph, iter_bits, mask_of


class MergeError(RuntimeError):
    """The swap loop stalled or overran, signaling a precondition violation."""


@dataclass(frozen=True)
class HarmoniousPartition:
    """A cutset split into parts, plus the two separated sides.

    ``parts`` are disjoint nonempty vertex sets whose union is the cutset;
    ``sides`` partition the remaining vertices.  Shape is validated here,
    while the parity and completeness conditions are the job of
    ``verify_harmonious``.
    """

    parts: tuple[frozenset[int], ...]
    sides: tuple[frozenset[int], frozenset[int]]

    def __post_init__(self) -> None:
        if not self.parts:
            raise ValueError("at least one cutset part required")
        seen: set[int] = set()
        for part in self.parts:
            if not part:
                raise ValueError("empty cutset part")
            if part & seen:
                raise ValueError("cutset parts overlap")
            seen |= part
        for side in self.sides:
            if not side:
                raise ValueError("empty side")
            if side & seen:
                raise ValueError("side overlaps cutset or other side")
            seen |= side

    @property
    def cutset(self) -> frozenset[int]:
        return frozenset().union(*self.parts)

    def part_index(self) -> dict[int, int]:
        return {v: i for i, part in enumerate(self.parts) for v in part}

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
    part_pair: tuple[int, int] | None = None


@dataclass(frozen=True)
class HarmonyVerdict:
    status: str  # "yes" | "no" | "inconclusive"
    violation: HarmonyViolation | None
    steps: int


def _check_shape(g: Graph, p: HarmoniousPartition) -> None:
    covered = set(p.cutset) | set(p.sides[0]) | set(p.sides[1])
    if covered != set(range(g.n)):
        raise ValueError("partition does not cover the vertex set exactly")


def verify_harmonious(
    g: Graph,
    p: HarmoniousPartition,
    budget: int = DEFAULT_BUDGET,
) -> HarmonyVerdict:
    """Check the harmonious conditions by exhaustive induced-path search.

    Path interiors keep away from the whole cutset.  Returns yes, no with a
    concrete counterexample, or inconclusive when the step budget is
    exhausted.  Stability of each part is subsumed by parity: an edge inside
    a part is an odd same-part path of length one.
    """
    _check_shape(g, p)
    steps = 0

    side_masks = (mask_of(p.sides[0]), mask_of(p.sides[1]))
    for u in p.sides[0]:
        leak = g.rows[u] & side_masks[1]
        if leak:
            v = (leak & -leak).bit_length() - 1
            return HarmonyVerdict(
                "no", HarmonyViolation("sides_connected", (u, v)), steps
            )

    k = len(p.parts)
    part_masks = [mask_of(part) for part in p.parts]
    if k >= 3:
        for i, j in combinations(range(k), 2):
            for u in sorted(p.parts[i]):
                missing = part_masks[j] & ~g.rows[u]
                if missing:
                    v = (missing & -missing).bit_length() - 1
                    return HarmonyVerdict(
                        "no",
                        HarmonyViolation("parts_not_complete", (u, v), (i, j)),
                        steps,
                    )

    part_of = p.part_index()
    cut_mask = mask_of(p.cutset)
    interior = (1 << g.n) - 1 & ~cut_mask
    rows = g.rows
    for start in sorted(p.cutset):
        # DFS over induced paths from ``start`` with interiors outside the
        # cutset, closing at cutset vertices above ``start``
        above = ~((1 << (start + 1)) - 1)
        i = part_of[start]
        # stack: (head, path, mid_adj) with mid_adj = neighbors of path minus head
        stack: list[tuple[int, tuple[int, ...], int]] = [(start, (start,), 0)]
        while stack:
            head, path, mid_adj = stack.pop()
            steps += 1
            if steps > budget:
                return HarmonyVerdict("inconclusive", None, steps)
            reach = rows[head] & ~mid_adj
            for b in iter_bits(reach & cut_mask & above):
                j = part_of[b]
                length = len(path)  # edges: path vertices + b minus 1
                if (length % 2 == 0) != (i == j):
                    return HarmonyVerdict(
                        "no", HarmonyViolation("parity", path + (b,), (i, j)), steps
                    )
            new_mid = mid_adj | rows[head]
            for w in iter_bits(reach & interior):
                stack.append((w, path + (w,), new_mid))
    return HarmonyVerdict("yes", None, steps)


# ---------------------------------------------------------------------------
# search
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CutsetSearchResult:
    status: str  # "found" | "none" | "inconclusive"
    partition: HarmoniousPartition | None
    steps: int


def minimal_separators(g: Graph, budget: int | None = None) -> list[frozenset[int]]:
    """All inclusion-minimal vertex separators (sets with two components of
    their removal seeing all of them), sorted by (size, members).

    Berry-Bordat-Cogis closure (IJFCS 11(3), 2000): the separators are the
    neighborhoods of the components of g - N[v] for each vertex v, closed
    under taking those of g - (S | N(x)) for x in a separator S.  There can
    be exponentially many, so past ``budget`` of them SearchBudgetExceeded
    is raised."""
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
                if budget is not None and len(found) > budget:
                    raise SearchBudgetExceeded(len(found))

    for v in range(g.n):
        collect(rows[v] | 1 << v)
    for sep in found:  # grows while it is walked
        for x in iter_bits(sep):
            collect(sep | rows[x])
    out = [frozenset(iter_bits(sep)) for sep in found]
    out.sort(key=lambda s: (len(s), sorted(s)))
    return out


def _candidate_partitions(g: Graph, cut: int) -> Iterator[tuple[frozenset[int], ...]]:
    """The partitions of ``cut`` that can be harmonious, in restricted-growth
    order.  Parts are stable, and pairwise complete when three or more, so
    a bipartite G[cut] offers its two-colorings, a complete multipartite
    one its parts (the classes of non-adjacency), and any other none."""
    rows = g.rows
    colorings = []  # per component of G[cut]: its two color classes
    remaining = cut
    while remaining:
        classes, layer, side = [0, 0], remaining & -remaining, 0
        while layer:
            classes[side] |= layer
            side ^= 1
            reach = 0
            for u in iter_bits(layer):
                reach |= rows[u]
            if reach & layer:  # an edge inside a BFS layer closes an odd cycle
                break
            layer = reach & cut & ~(classes[0] | classes[1])
        if layer:
            break
        colorings.append(classes)
        remaining &= ~(classes[0] | classes[1])
    else:
        # the smallest vertex keeps part 0; each other component may flip
        for flips in product((False, True), repeat=len(colorings) - 1):
            parts = [0, 0]
            for (own, other), flip in zip(colorings, (False,) + flips):
                parts[flip] |= own
                parts[not flip] |= other
            yield tuple(frozenset(iter_bits(m)) for m in parts if m)
        return
    # complete multipartite iff the distinct non-neighborhoods are disjoint: the parts
    parts = sorted({cut & ~rows[u] for u in iter_bits(cut)}, key=lambda m: m & -m)
    if sum(part.bit_count() for part in parts) == cut.bit_count():
        yield tuple(frozenset(iter_bits(part)) for part in parts)


def _shaped(g: Graph, cut: int) -> bool:
    return next(_candidate_partitions(g, cut), None) is not None


def _cutset_pool(g: Graph, separators: list[frozenset[int]]) -> Iterator[int]:
    """Every set X (as a mask) that disconnects g while G[X] is bipartite or
    complete multipartite, each once: the shaped minimal separators in the
    given order, then every set reached from them by adding one vertex at a
    time while it stays shaped and disconnecting.  Shape is hereditary, and
    such an X contains a minimal separator S of two vertices it separates;
    every set between S and X separates them too, so a chain leads to X."""
    full = (1 << g.n) - 1
    masks = [mask_of(sep) for sep in separators]
    seen = set(masks)
    admitted = [m for m in masks if _shaped(g, m)]
    yield from admitted
    for base in admitted:  # grows while it is walked
        for v in iter_bits(full & ~base):
            cut = base | 1 << v
            if cut in seen:
                continue
            seen.add(cut)
            rest = full & ~cut
            if rest and g.component_of(rest & -rest, rest) != rest and _shaped(g, cut):
                admitted.append(cut)
                yield cut


def find_harmonious_cutset(g: Graph, budget: int = DEFAULT_BUDGET) -> CutsetSearchResult:
    """Search every possible cutset for a verifiable harmonious partition.

    The parts of a harmonious partition are stable, and pairwise complete
    when three or more, so its cutset induces a bipartite or complete
    multipartite graph.  The search therefore walks ``_cutset_pool``, which
    holds every such set that disconnects g, minimal separators first, and
    tries each set's candidate partitions in canonical order; the first hit
    is deterministic and "none" is a certificate.  One step is spent per
    minimal separator built, per cutset tried and per parity-search node;
    past ``budget`` steps the answer is "inconclusive".
    """
    if not g.is_connected():
        raise ValueError("input graph must be connected")
    try:
        separators = minimal_separators(g, budget)
    except SearchBudgetExceeded as exc:
        return CutsetSearchResult("inconclusive", None, exc.steps)
    steps = len(separators)
    full = (1 << g.n) - 1
    for cut in _cutset_pool(g, separators):
        steps += 1
        if steps > budget:
            return CutsetSearchResult("inconclusive", None, steps)
        rest = full & ~cut
        first = g.component_of(rest & -rest, rest)
        sides = (frozenset(iter_bits(first)), frozenset(iter_bits(rest & ~first)))
        for parts in _candidate_partitions(g, cut):
            partition = HarmoniousPartition(parts, sides)
            verdict = verify_harmonious(g, partition, budget - steps)
            steps += verdict.steps
            if verdict.status == "yes":
                return CutsetSearchResult("found", partition, steps)
            if verdict.status == "inconclusive":
                return CutsetSearchResult("inconclusive", None, steps)
    return CutsetSearchResult("none", None, steps)


# ---------------------------------------------------------------------------
# coloring merge
# ---------------------------------------------------------------------------


def side_vertex_sets(g: Graph, p: HarmoniousPartition) -> tuple[frozenset[int], frozenset[int]]:
    cut = p.cutset
    return (p.sides[0] | cut, p.sides[1] | cut)


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
    carries no aligned cutset vertex.  A stalled or overlong loop raises
    MergeError, which is the designed detector for a non-harmonious input.

    ``on_swap(side, aligned_count)`` is invoked after every swap, which the
    test suite uses to assert strict monotonicity.
    """
    _check_shape(g, p)
    k = c1.k
    if c2.k != k:
        raise ValueError("side colorings use different palette sizes")
    if k < len(p.parts):
        raise ValueError("palette smaller than the number of cutset parts")
    part_of = p.part_index()
    cut = sorted(p.cutset)
    merged: dict[int, int] = {}

    for side_idx, side in enumerate(p.sides):
        source = (c1, c2)[side_idx]
        visible = sorted(side | p.cutset)
        colors = {}
        for v in visible:
            if v not in source.colors:
                raise ValueError(f"side {side_idx + 1} coloring misses vertex {v}")
            c = source.colors[v]
            if not 0 <= c < k:
                raise ValueError(f"color {c} out of range on vertex {v}")
            colors[v] = c
        vis_mask = mask_of(visible)
        for u in visible:
            for w in iter_bits(g.rows[u] & vis_mask & ~((1 << (u + 1)) - 1)):
                if colors[u] == colors[w]:
                    raise ValueError(
                        f"side {side_idx + 1} coloring is not proper on edge ({u}, {w})"
                    )

        max_rounds = len(cut) * k + 1
        rounds = 0
        while True:
            bad = next((v for v in cut if colors[v] != part_of[v]), None)
            if bad is None:
                break
            rounds += 1
            if rounds > max_rounds:
                raise MergeError(
                    "swap loop exceeded its round limit; cutset is not harmonious"
                )
            want, have = part_of[bad], colors[bad]
            aligned_before = sum(1 for v in cut if colors[v] == part_of[v])
            # two-color component of `bad` within this side's graph
            block = mask_of(v for v in visible if colors[v] in (want, have))
            comp = g.component_of(1 << bad, block)
            for v in iter_bits(comp):
                colors[v] = want if colors[v] == have else have
            aligned_after = sum(1 for v in cut if colors[v] == part_of[v])
            if aligned_after <= aligned_before:
                raise MergeError(
                    "color swap made no progress; cutset is not harmonious"
                )
            if on_swap is not None:
                on_swap(side_idx, aligned_after)
        for v in visible:
            merged[v] = colors[v]

    return Coloring(merged, k)
