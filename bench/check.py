"""Known-answer checks of the CLI's output, written without heptalab.

Each check sorts a graph into one of four outcomes:

- ``ok``: every answer is present and agrees with the known answer;
- ``inconclusive``: some stage answered null or "inconclusive";
- ``miss``: an answer is missing or disagrees with the known answer without
  being provably wrong (a recognizer or cutset search that found nothing, or
  a witness of another size vector);
- ``wrong``: an answer is provably wrong (a wrong invariant, a witness or
  cutset that fails the independent re-check, a malformed record).

``miss`` and ``wrong`` graphs count as failed; only ``wrong`` makes the run
incorrect, because the recognizer misses of the commit that defined the
benchmark are its recorded baseline.
"""

from __future__ import annotations

import json
from itertools import combinations

import graph6
from workloads import Expect, Workload, known

OK, INCONCLUSIVE, MISS, WRONG = "ok", "inconclusive", "miss", "wrong"
RANK = {OK: 0, INCONCLUSIVE: 1, MISS: 2, WRONG: 3}


def _mask(vertices) -> int:
    out = 0
    for v in vertices:
        out |= 1 << v
    return out


def _stable(rows, m: int) -> bool:
    return all(not rows[v] & m for v in range(len(rows)) if m >> v & 1)


def _complete(rows, a: int, b: int) -> bool:
    return all(rows[v] & b == b for v in range(len(rows)) if a >> v & 1)


def _partition(n: int, masks) -> bool:
    union = 0
    for m in masks:
        if union & m:
            return False
        union |= m
    return union == (1 << n) - 1


def t11_witness_ok(n: int, rows, parts) -> bool:
    """The 11-ring rules: stable parts partitioning V, anticomplete at ring
    distance 1 and 2, complete at distance 3, 4 and 5."""
    masks = [_mask(p) for p in parts]
    if len(masks) != 11 or not all(masks) or not _partition(n, masks):
        return False
    for i in range(11):
        if not _stable(rows, masks[i]):
            return False
        for d in (1, 2):
            if not _stable(rows, masks[i] | masks[(i + d) % 11]):
                return False
        for d in (3, 4, 5):
            if not _complete(rows, masks[i], masks[(i + d) % 11]):
                return False
    return True


def heptagram_witness_ok(n: int, rows, parts) -> bool:
    """Necessary conditions of a heptagram-type witness: 14 stable sets
    partitioning V with nonempty ring parts, ring parts at distance 3
    anticomplete, and each outer vertex of group i seeing ring parts i, i+3
    and i+4 and none of the other four."""
    masks = [_mask(p) for p in parts]
    if len(masks) != 14 or not _partition(n, masks):
        return False
    ring, outer = masks[:7], masks[7:]
    if not all(ring) or not all(_stable(rows, m) for m in masks):
        return False
    for i in range(7):
        if not _stable(rows, ring[i] | ring[(i + 3) % 7]):
            return False
        near = ring[(i + 1) % 7] | ring[(i + 2) % 7] | ring[(i + 5) % 7] | ring[(i + 6) % 7]
        for y in range(n):
            if outer[i] >> y & 1:
                if rows[y] & near:
                    return False
                if not all(rows[y] & ring[j] for j in (i, (i + 3) % 7, (i + 4) % 7)):
                    return False
    return True


def _induced_path_parities(rows, a: int, b: int, interior: int) -> set[int]:
    """Parities of the lengths of induced a-b paths with interior inside the
    given mask."""
    out = set()
    stack = [(a, 1 << a, 0)]  # head, path mask, neighbors of path minus head
    while stack:
        head, path, earlier = stack.pop()
        reach = rows[head] & ~earlier & ~path
        if reach >> b & 1:
            out.add(path.bit_count() % 2)  # edges = vertices on path
        nxt = earlier | rows[head]
        cand = reach & interior
        while cand:
            w = (cand & -cand).bit_length() - 1
            cand &= cand - 1
            stack.append((w, path | 1 << w, nxt))
    return out


def harmonious_ok(n: int, rows, partition: dict) -> bool:
    """A cutset split into stable parts (pairwise complete when three or
    more) separating two sides, where induced paths between cutset vertices
    with interior off the cutset are even inside a part and odd across."""
    parts = [_mask(p) for p in partition["parts"]]
    sides = [_mask(s) for s in partition["sides"]]
    cut = _mask(partition["cutset"])
    if not all(parts) or not all(sides) or len(sides) != 2:
        return False
    if not _partition(n, parts + sides) or cut != sum(parts):
        return False
    if any(rows[v] & sides[1] for v in range(n) if sides[0] >> v & 1):
        return False
    if len(parts) >= 3 and not all(
        _complete(rows, p, q) for p, q in combinations(parts, 2)
    ):
        return False
    part_of = {v: i for i, p in enumerate(partition["parts"]) for v in p}
    outside = (1 << n) - 1 & ~cut
    for a, b in combinations(sorted(part_of), 2):
        want = 0 if part_of[a] == part_of[b] else 1
        if _induced_path_parities(rows, a, b, outside) - {want}:
            return False
    return True


def _dihedral(*vectors) -> set:
    """Every rotation and reflection of the ring, applied to each of the
    equally long vectors at once, as one concatenated tuple."""
    m = len(vectors[0])
    return {
        tuple(v[(r + step * i) % m] for v in vectors for i in range(m))
        for r in range(m)
        for step in (1, -1)
    }


def check_analyze(text: str, record: dict, exp: Expect, structures: bool) -> str:
    """Outcome of one ``analyze`` record against what is known of its input."""
    n, rows = graph6.decode(text)
    if record.get("graph6") != text or record.get("n") != n:
        return WRONG
    if record.get("m") != sum(r.bit_count() for r in rows) // 2:
        return WRONG
    flags = record.get("flags") or {}
    answers = {
        "odd_hole_free": flags.get("odd_hole_free"),
        "full_house_free": flags.get("full_house_free"),
        "c7_complement": flags.get("has_c7_complement"),
        "omega": record.get("omega"),
        "chi": record.get("chi"),
    }
    outcome = OK
    if any(v is None for v in answers.values()):
        outcome = INCONCLUSIVE
    if exp.facts is not None:
        for key, got in answers.items():
            if got is not None and int(got) != exp.facts[key]:
                return WRONG
    elif answers["odd_hole_free"] is False or answers["full_house_free"] is False:
        return WRONG  # both structured families lie inside the class
    if answers["omega"] is not None and flags.get("k4_free") != (answers["omega"] < 4):
        return WRONG
    if not structures:
        return outcome
    found = record.get("structures")
    member = answers["odd_hole_free"] and answers["full_house_free"]
    if not member:
        return outcome if found is None else WRONG
    if found is None:
        return WRONG

    def worse(new: str) -> None:
        nonlocal outcome
        if RANK[new] > RANK[outcome]:
            outcome = new

    status = found.get("harmonious_status")
    if status == "found":
        if not harmonious_ok(n, rows, found["harmonious"]):
            return WRONG
    elif status == "inconclusive":
        worse(INCONCLUSIVE)
    elif exp.kind == "random_member":
        worse(MISS)  # a clique cutset is a harmonious cutset
    t11 = found.get("t11_type")
    if t11 is not None:
        if not t11_witness_ok(n, rows, t11["parts"]):
            return WRONG
        if exp.kind == "t11" and tuple(map(len, t11["parts"])) not in _dihedral(exp.sizes):
            worse(MISS)
    elif exp.kind == "t11":
        worse(MISS)
    hepta = found.get("heptagram_type")
    if hepta is not None:
        if not heptagram_witness_ok(n, rows, hepta["parts"]):
            return WRONG
        if exp.kind.startswith("heptagram"):
            # A relabeled instance can have several valid witnesses that
            # differ by a turn of the ring: the recognizer may pick any of
            # them, so only the sizes up to the ring's symmetry must match.
            if tuple(map(len, hepta["parts"])) not in _dihedral(*exp.sizes):
                worse(MISS)
    elif exp.kind.startswith("heptagram") or exp.kind == "known_miss":
        worse(MISS)
    return outcome


def check_verify(lines: list[str]) -> dict[str, int]:
    """Outcome counts for the ``verify --enumerate`` verdict line."""
    facts = known()
    total = sum(facts["graphs_by_n"])
    try:
        (verdict,) = [json.loads(line) for line in lines]
    except ValueError:
        return {WRONG: total}
    if verdict.get("total") != total or verdict.get("population") != facts["t1.4_population"]:
        return {WRONG: total}
    bad = len(verdict.get("violations", []))
    unsure = verdict.get("inconclusive", 0)
    return {WRONG: bad, INCONCLUSIVE: unsure, OK: total - bad - unsure}


def check_outputs(w: Workload, lines: list[str]) -> dict[str, int]:
    """Outcome counts over every input graph of a workload."""
    if w.name == "enumerate":
        return check_verify(lines)
    counts = {OK: 0, INCONCLUSIVE: 0, MISS: 0, WRONG: 0}
    if len(lines) != len(w.graphs):
        counts[WRONG] = len(w.graphs)
        return counts
    structures = "--structures" in w.argv
    for text, line, exp in zip(w.graphs, lines, w.expect):
        try:
            outcome = check_analyze(text, json.loads(line), exp, structures)
        except (ValueError, KeyError, TypeError):
            outcome = WRONG
        counts[outcome] += 1
    return counts
