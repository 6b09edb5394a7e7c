"""Harmonious cutsets: verification, search, and coloring merges.

A harmonious partition is a cutset X split into stable parts X_1..X_k (with
k >= 3 forcing the parts pairwise complete) such that every induced path
between cutset vertices whose interior avoids the cutset has even length when
its endpoints share a part and odd length otherwise.  Two proper colorings of
the two sides can then be aligned part-by-part with color swaps and glued.

Path parity checks are exponential in the worst case, so every check runs
under a step budget and reports "inconclusive" when the budget runs dry; it
never guesses.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Callable, Iterable, Iterator

from .coloring import Coloring
from .detect import clique_number
from .graph import Graph, iter_bits, mask_of

DEFAULT_PARITY_BUDGET = 10_000_000


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
        out: frozenset[int] = frozenset()
        for part in self.parts:
            out |= part
        return out

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
    budget: int = DEFAULT_PARITY_BUDGET,
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


def minimal_separators(g: Graph) -> list[frozenset[int]]:
    """All inclusion-minimal vertex separators, by direct enumeration.

    Every minimal separator is the neighborhood of a connected set, and a
    candidate qualifies exactly when at least two components of its removal
    see all of it.  Exponential in n; intended for n <= 16.
    """
    full = (1 << g.n) - 1
    seen: set[int] = set()
    out: list[frozenset[int]] = []
    for sub in range(1, full + 1):
        if g.component_of(sub & -sub, sub) != sub:
            continue
        nb = 0
        for u in iter_bits(sub):
            nb |= g.rows[u]
        sep = nb & ~sub
        if not sep or (sub | sep) == full or sep in seen:
            continue
        seen.add(sep)
        rest = full & ~sep
        fulls = 0
        for comp in g.component_masks(rest):
            border = 0
            for u in iter_bits(comp):
                border |= g.rows[u]
            if border & sep == sep:
                fulls += 1
                if fulls >= 2:
                    break
        if fulls >= 2:
            out.append(frozenset(iter_bits(sep)))
    out.sort(key=lambda s: (len(s), sorted(s)))
    return out


def _candidate_cutsets(g: Graph, strategy: str, max_cutset: int) -> Iterator[frozenset[int]]:
    if strategy == "auto":
        strategy = "minimal-separators" if g.n <= 16 else "subsets"
    if strategy == "minimal-separators":
        yield from minimal_separators(g)
        return
    if strategy not in ("subsets", "all"):
        raise ValueError(f"unknown candidate strategy {strategy!r}")
    # smallest first; "all" reaches every subset that can disconnect g
    top = g.n - 2 if strategy == "all" else max_cutset
    for size in range(1, top + 1):
        for combo in combinations(range(g.n), size):
            yield frozenset(combo)


def _stable_partitions(g: Graph, vertices: list[int], max_parts: int) -> Iterator[tuple[frozenset[int], ...]]:
    """All partitions of ``vertices`` into stable parts, canonically ordered
    (restricted growth), pruned to ``max_parts``."""
    n = len(vertices)
    assignment = [0] * n

    def rec(idx: int, used: int) -> Iterator[tuple[frozenset[int], ...]]:
        if idx == n:
            parts = [[] for _ in range(used)]
            for pos, lab in enumerate(assignment[:n]):
                parts[lab].append(vertices[pos])
            yield tuple(frozenset(p) for p in parts)
            return
        v = vertices[idx]
        for lab in range(min(used + 1, max_parts)):
            ok = True
            for pos in range(idx):
                if assignment[pos] == lab and g.adjacent(v, vertices[pos]):
                    ok = False
                    break
            if ok:
                assignment[idx] = lab
                yield from rec(idx + 1, max(used, lab + 1))

    yield from rec(0, 0)


def find_harmonious_cutset(
    g: Graph,
    max_cutset: int = 4,
    budget: int = DEFAULT_PARITY_BUDGET,
    candidates: str = "auto",
) -> CutsetSearchResult:
    """Search candidate cutsets for a verifiable harmonious partition.

    ``candidates`` picks the pool: "auto" enumerates minimal separators up to
    16 vertices and falls back to all subsets of size <= max_cutset beyond
    that; "all" tries every disconnecting subset (complete but exponential,
    the right choice when a negative answer must be trusted).  Candidates are
    tried smallest first, partitions in canonical order, so the first hit is
    deterministic.  The parity budget is shared across the whole search.
    """
    if not g.is_connected():
        raise ValueError("input graph must be connected")
    omega, _ = clique_number(g)
    max_parts = max(2, omega + 1)
    steps_used = 0
    exhausted = False
    for cut in _candidate_cutsets(g, candidates, max_cutset):
        cut_mask = mask_of(cut)
        comps = g.component_masks((1 << g.n) - 1 & ~cut_mask)
        if len(comps) < 2:
            continue
        side1 = frozenset(iter_bits(comps[0]))
        side2 = frozenset(v for comp in comps[1:] for v in iter_bits(comp))
        for parts in _stable_partitions(g, sorted(cut), min(max_parts, len(cut))):
            partition = HarmoniousPartition(parts, (side1, side2))
            remaining = budget - steps_used
            if remaining <= 0:
                return CutsetSearchResult("inconclusive", None, steps_used)
            verdict = verify_harmonious(g, partition, remaining)
            steps_used += verdict.steps
            if verdict.status == "yes":
                return CutsetSearchResult("found", partition, steps_used)
            if verdict.status == "inconclusive":
                exhausted = True
                break
        if exhausted:
            return CutsetSearchResult("inconclusive", None, steps_used)
    return CutsetSearchResult("none", None, steps_used)


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
