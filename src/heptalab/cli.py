"""Command-line front end: analyze, verify, generate, decompose.

Reports are JSON Lines with sorted keys and a pinned schema_version; the
--no-timings flag removes the only non-deterministic field, making repeated
runs byte-identical.  Exit codes: 0 clean, 1 violations found, 2
inconclusive results present, 3 input error.  Violations dominate
inconclusive; input errors dominate both.
"""

from __future__ import annotations

import argparse
import functools
import io
import json
import multiprocessing
import os
import random
import sys
import time
from typing import Callable, Iterable, Iterator, Sequence

from . import __version__
from .coloring import chromatic_number_exact
from .corpus import MAX_ENUMERATION_N, all_graphs_up_to
from .detect import (
    DEFAULT_BUDGET,
    Budget,
    SearchBudgetExceeded,
    clique_number,
    find_full_house,
    find_odd_hole,
    has_c7_complement,
)
from .graph import Graph, Graph6Error, from_graph6, to_graph6
from .harmonious import find_harmonious_cutset
from .structures import (
    GenerationError,
    _crowded_window,
    generate_heptagram_type,
    generate_t11_type,
    recognize_heptagram_type,
    recognize_t11_type,
)

SCHEMA_VERSION = 1
# graphs handed to a worker process at a time when --workers is above 1
POOL_CHUNKSIZE = 16

THEOREM_IDS = {
    "t1.3": "T1.3",
    "t1.4-bound": "T1.4-bound",
    "t1.4-eq": "T1.4-equality",
    "perfection": "perfection-when-no-C7bar",
    "t2.3": "T2.3-dichotomy",
}


def _dump(obj: dict) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _worker_count(flag: str | None) -> int:
    """The --workers value, else HEPTALAB_WORKERS, else 1.  Raises
    ValueError naming a value that is not a positive integer."""
    source, text = "--workers", flag
    if text is None:
        source, text = "HEPTALAB_WORKERS", os.environ.get("HEPTALAB_WORKERS", "1")
    try:
        count = int(text)
    except ValueError:
        count = 0
    if count < 1:
        raise ValueError(f"{source} must be a positive integer, got {text!r}")
    return count


def _ordered_map(fn: Callable, items: Iterable, workers: int) -> Iterator:
    """``fn`` over ``items``, results in input order: in this process when
    ``workers`` is 1, else across that many worker processes.  ``fn`` and
    the items must pickle; results are yielded as they become ready."""
    if workers == 1:
        yield from map(fn, items)
        return
    with multiprocessing.get_context("spawn").Pool(workers) as pool:
        yield from pool.imap(fn, items, chunksize=POOL_CHUNKSIZE)


# ---------------------------------------------------------------------------
# per-graph analysis
# ---------------------------------------------------------------------------


def class_facts(g: Graph, budget: int, *, stop_early: bool) -> tuple[dict, list[str]]:
    """The class facts of one graph and notes on the ones left undecided.

    The facts are ``odd_hole_free`` and ``chi``, each None when its search
    runs out of its ``budget`` steps, ``full_house_free``, ``omega`` and
    ``has_c7_complement``.  With ``stop_early`` the work stops once the
    graph is not known to be odd-hole-free: every theorem assumes that
    hypothesis, so nothing further is consumed.
    """
    notes: list[str] = []
    try:
        odd_hole_free = find_odd_hole(g, Budget(budget)) is None
    except SearchBudgetExceeded:
        odd_hole_free = None
        notes.append("odd hole search hit its budget")
    facts: dict = {"odd_hole_free": odd_hole_free}
    if stop_early and not odd_hole_free:
        return facts, notes
    facts["full_house_free"] = find_full_house(g) is None
    try:
        res = chromatic_number_exact(g, Budget(budget))
        facts["omega"], facts["chi"] = len(res.clique), res.chi
    except SearchBudgetExceeded:
        facts["omega"], facts["chi"] = clique_number(g)[0], None
        notes.append("chromatic number search hit its budget")
    facts["has_c7_complement"] = has_c7_complement(g)
    return facts, notes


def analyze_graph(
    g: Graph, *, structures: bool = False, with_timings: bool = True
) -> dict:
    """Full per-graph report: class flags, clique and chromatic numbers, and
    (on request, for class members) structure witnesses.  Each search may
    take DEFAULT_BUDGET steps."""
    t0 = time.perf_counter()
    facts, notes = class_facts(g, DEFAULT_BUDGET, stop_early=False)
    report = {
        "schema_version": SCHEMA_VERSION,
        "tool_version": __version__,
        "graph6": to_graph6(g).decode("ascii"),
        "n": g.n,
        "m": g.edge_count,
        "flags": {
            "odd_hole_free": facts["odd_hole_free"],
            "full_house_free": facts["full_house_free"],
            "k4_free": facts["omega"] < 4,
            "has_c7_complement": facts["has_c7_complement"],
        },
        "omega": facts["omega"],
        "chi": facts["chi"],
        "seed": None,
        "structures": None,
        "notes": notes,
    }
    if structures and facts["odd_hole_free"] and facts["full_house_free"]:
        found: dict = {}
        if g.is_connected() and g.n >= 3:
            res = find_harmonious_cutset(g, Budget(DEFAULT_BUDGET))
            found["harmonious_status"] = res.status
            found["harmonious"] = (
                res.partition.to_json_dict() if res.partition else None
            )
        else:
            found["harmonious_status"] = "skipped"
            found["harmonious"] = None
        t11 = recognize_t11_type(g)
        hepta = None  # the recognizer's answer, too, without the antihole
        if facts["has_c7_complement"]:
            try:
                hepta = recognize_heptagram_type(g, Budget(DEFAULT_BUDGET))
            except SearchBudgetExceeded:
                notes.append("heptagram-type search hit its budget")
        found["t11_type"] = t11.to_json_dict() if t11 else None
        found["heptagram_type"] = hepta.to_json_dict() if hepta else None
        report["structures"] = found
    if with_timings:
        report["timings"] = {"total_ms": round((time.perf_counter() - t0) * 1e3, 3)}
    return report


# ---------------------------------------------------------------------------
# theorem evaluation
# ---------------------------------------------------------------------------


def class_record(g: Graph, budget: int = DEFAULT_BUDGET) -> dict:
    """The per-graph facts the theorem checks consume.  Work stops at the
    first disqualifier: a graph with an odd hole is outside every
    hypothesis, so nothing further is computed for it, and one whose odd-hole
    search ran out of budget is inconclusive under every theorem."""
    facts, _ = class_facts(g, budget, stop_early=True)
    return {
        "graph6": to_graph6(g).decode("ascii"),
        "n": g.n,
        "connected": g.is_connected(),
        **facts,
    }


def _theorem_record(g: Graph, theorem: str, budget: int) -> dict:
    """``class_record`` plus, under t2.3, the graph's ``dichotomy_outcome``
    as ``"dichotomy"``: the per-graph work ``evaluate_theorem`` hands to
    its workers."""
    rec = class_record(g, budget)
    if theorem == "t2.3":
        rec["dichotomy"] = dichotomy_outcome(g, rec, budget)
    return rec


def record_outcome(rec: dict, theorem: str) -> str:
    """Outcome of one record under one theorem: "filtered" (hypothesis not
    met), "pass", "violation", or "inconclusive".  Under t2.3 it is the
    record's ``"dichotomy"`` entry, which ``_theorem_record`` computes."""
    if theorem == "t2.3":
        return rec["dichotomy"]
    if rec["odd_hole_free"] is None:
        return "inconclusive"
    if not rec["odd_hole_free"]:
        return "filtered"
    omega, chi = rec["omega"], rec["chi"]
    if theorem == "t1.3":
        if omega >= 4:
            return "filtered"
        if chi is None:
            return "inconclusive"
        return "pass" if chi <= 4 else "violation"
    if not rec["full_house_free"]:
        return "filtered"
    if theorem == "t1.4-bound":
        if chi is None:
            return "inconclusive"
        return "pass" if chi <= omega + 1 else "violation"
    if theorem == "t1.4-eq":
        if chi is None:
            return "inconclusive"
        equality = chi == omega + 1
        characterized = omega == 3 and rec["has_c7_complement"]
        return "pass" if equality == characterized else "violation"
    if theorem == "perfection":
        if rec["has_c7_complement"]:
            return "filtered"
        if chi is None:
            return "inconclusive"
        return "pass" if chi == omega else "violation"
    raise ValueError(f"unknown theorem {theorem!r}")


def dichotomy_outcome(g: Graph, rec: dict, budget: int) -> str:
    """Outcome under the structural dichotomy: connected class members with
    the 7-vertex antihole and no harmonious cutset must be recognized as one
    of the two structured classes.  The cutset search and the
    heptagram-type recognizer are exact, each within ``budget`` steps, and
    the T11-type recognizer is exact outright: a graph that neither
    recognizer accepts is a violation, and an exhausted budget makes the
    outcome inconclusive."""
    if not rec["connected"]:
        return "filtered"
    if rec["odd_hole_free"] is None:
        return "inconclusive"
    if not rec["odd_hole_free"]:
        return "filtered"
    if not rec.get("full_house_free") or not rec.get("has_c7_complement"):
        return "filtered"
    res = find_harmonious_cutset(g, Budget(budget))
    if res.status == "found":
        return "filtered"
    if res.status == "inconclusive":
        return "inconclusive"
    if recognize_t11_type(g) is not None:
        return "pass"
    try:
        return "violation" if recognize_heptagram_type(g, Budget(budget)) is None else "pass"
    except SearchBudgetExceeded:
        return "inconclusive"


def verdict_from_records(
    records: Sequence[dict],
    theorem: str,
    *,
    budget: int = DEFAULT_BUDGET,
    seed: int | None = None,
) -> dict:
    population = 0
    violations: list[str] = []
    inconclusive = 0
    for rec in records:
        outcome = record_outcome(rec, theorem)
        if outcome == "filtered":
            continue
        population += 1
        if outcome == "violation":
            violations.append(rec["graph6"])
        elif outcome == "inconclusive":
            inconclusive += 1
    return {
        "schema_version": SCHEMA_VERSION,
        "tool_version": __version__,
        "theorem": THEOREM_IDS[theorem],
        "total": len(records),
        "population": population,
        "violations": violations,
        "inconclusive": inconclusive,
        "budget": budget,
        "seed": seed,
    }


def evaluate_theorem(
    graphs: Sequence[Graph],
    theorem: str,
    *,
    budget: int = DEFAULT_BUDGET,
    workers: int = 1,
    seed: int | None = None,
) -> dict:
    if theorem not in THEOREM_IDS:
        raise ValueError(f"unknown theorem {theorem!r}")
    record = functools.partial(_theorem_record, theorem=theorem, budget=budget)
    records = list(_ordered_map(record, graphs, workers))
    return verdict_from_records(records, theorem, budget=budget, seed=seed)


# ---------------------------------------------------------------------------
# input plumbing
# ---------------------------------------------------------------------------


def _open_input(path: str):
    """Input lines as text.  Files and stdin are both read as ASCII with
    every other byte kept as a lone surrogate, whatever the locale, so a
    non-ASCII byte becomes an error on its own line (``from_graph6`` reports
    it as a ``Graph6Error``) instead of a decoding failure of the stream."""
    if path != "-":
        return open(path, "r", encoding="ascii", errors="surrogateescape")
    if not hasattr(sys.stdin, "buffer"):
        return sys.stdin  # already a text stream with no bytes below it
    return io.TextIOWrapper(sys.stdin.buffer, encoding="ascii", errors="surrogateescape")


def _parse_debug_line(text: str) -> Graph:
    """Debug adjacency format: "n;u-v,u-v,..." with an empty edge list
    allowed ("3;").  A malformed field raises ValueError naming the field
    and its character offset in the line."""

    def number(field: str, offset: int, name: str) -> int:
        try:
            return int(field)
        except ValueError:
            raise ValueError(f"{name} at character {offset} is not an integer") from None

    head, _, rest = text.partition(";")
    n = number(head, 0, "vertex count")
    edges = []
    offset = len(head) + 1
    if rest.strip():
        for chunk in rest.split(","):
            a, dash, b = chunk.partition("-")
            if not dash:
                raise ValueError(f"edge at character {offset} has no '-'")
            u = number(a, offset, "edge endpoint")
            v = number(b, offset + len(a) + 1, "edge endpoint")
            edges.append((u, v))
            offset += len(chunk) + 1
    return Graph.from_edges(n, edges)


def _iter_input_graphs(
    stream, fmt: str
) -> Iterator[tuple[int, Graph | None, str | None]]:
    """The one reader of graph input.  Yields (line_number, graph or None,
    error or None) per nonblank line; blank lines still count."""
    for line_number, raw in enumerate(stream, start=1):
        text = raw.strip()
        if not text:
            continue
        try:
            g = _parse_debug_line(text) if fmt == "adjlist" else from_graph6(text)
            yield line_number, g, None
        except (Graph6Error, ValueError) as exc:
            yield line_number, None, str(exc)


def _error_record(line_number: int, error: str) -> dict:
    return {"schema_version": SCHEMA_VERSION, "line": line_number, "error": error}


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def _analyze_line(
    parsed: tuple[int, Graph | None, str | None], structures: bool, with_timings: bool
) -> dict:
    line_number, g, error = parsed
    if error is not None:
        return _error_record(line_number, error)
    return analyze_graph(g, structures=structures, with_timings=with_timings)


def cmd_analyze(args: argparse.Namespace) -> int:
    """One record per input line, each written before the next line is read
    (with --workers above 1, the pool reads ahead)."""
    analyze = functools.partial(
        _analyze_line, structures=args.structures, with_timings=not args.no_timings
    )
    had_error = False
    with _open_input(args.input) as stream:
        parsed = _iter_input_graphs(stream, args.format)
        for record in _ordered_map(analyze, parsed, args.workers):
            print(_dump(record))
            if "error" in record:
                if args.strict:
                    return 3
                had_error = True
    return 3 if had_error else 0


def cmd_verify(args: argparse.Namespace) -> int:
    if args.enumerate is not None:
        if not 0 <= args.enumerate <= MAX_ENUMERATION_N:
            print(
                f"--enumerate N must be at least 0 and at most {MAX_ENUMERATION_N}, "
                f"got {args.enumerate}",
                file=sys.stderr,
            )
            return 3
        graphs = all_graphs_up_to(args.enumerate)
    elif args.input is not None:
        graphs = []
        with _open_input(args.input) as stream:
            for line_number, g, error in _iter_input_graphs(stream, "graph6"):
                if error is not None:
                    print(f"line {line_number}: {error}", file=sys.stderr)
                    return 3
                graphs.append(g)
    else:
        print("verify needs --enumerate N or an input file", file=sys.stderr)
        return 3
    t0 = time.perf_counter()
    verdict = evaluate_theorem(
        graphs,
        args.theorem,
        budget=args.budget,
        workers=args.workers,
        seed=args.seed,
    )
    if not args.no_timings:
        verdict["timings"] = {"total_ms": round((time.perf_counter() - t0) * 1e3, 3)}
    print(_dump(verdict))
    if verdict["violations"]:
        return 1
    if verdict["inconclusive"]:
        return 2
    return 0


def _random_outer_sizes(rng) -> list[int]:
    sizes = [rng.randint(0, 2) for _ in range(7)]
    while (crowded := _crowded_window(sizes)) is not None:
        sizes[(crowded + 2) % 7] = 0
    return sizes


def _int_list(text: str | None, flag: str) -> list[int] | None:
    """The integers of a comma-separated ``flag`` value, or None if not given."""
    try:
        return [int(tok) for tok in text.split(",")] if text else None
    except ValueError:
        raise ValueError(f"{flag} must be a comma-separated integer list") from None


def cmd_generate(args: argparse.Namespace) -> int:
    if args.count < 0:
        print(f"--count must be at least 0, got {args.count}", file=sys.stderr)
        return 3
    try:
        fixed_sizes = _int_list(args.sizes, "--sizes")
        fixed_outer = _int_list(args.ysizes, "--ysizes")
    except ValueError as exc:
        print(exc, file=sys.stderr)
        return 3
    rng = random.Random(args.seed)
    for index in range(args.count):
        try:
            if args.kind == "t11":
                sizes = fixed_sizes or [rng.randint(1, 3) for _ in range(11)]
                g, witness = generate_t11_type(sizes)
            else:
                sizes = fixed_sizes or [rng.randint(1, 3) for _ in range(7)]
                outer = (
                    fixed_outer
                    if fixed_outer is not None
                    else _random_outer_sizes(rng)
                )
                g, witness = generate_heptagram_type(sizes, outer)
        except GenerationError as exc:
            rule = f" (rule {exc.rule})" if exc.rule else ""
            print(f"generation failed{rule}: {exc}", file=sys.stderr)
            return 3
        if args.g6_only:
            print(to_graph6(g).decode("ascii"))
        else:
            print(
                _dump(
                    {
                        "schema_version": SCHEMA_VERSION,
                        "kind": args.kind,
                        "index": index,
                        "seed": args.seed,
                        "graph6": to_graph6(g).decode("ascii"),
                        "witness": witness.to_json_dict(),
                    }
                )
            )
    return 0


def cmd_decompose(args: argparse.Namespace) -> int:
    had_error = False
    any_inconclusive = False
    with _open_input(args.input) as stream:
        for line_number, g, error in _iter_input_graphs(stream, "graph6"):
            if error is not None:
                print(_dump(_error_record(line_number, error)))
                had_error = True
                continue
            try:
                res = find_harmonious_cutset(g, Budget(args.budget))
            except ValueError as exc:
                record = _error_record(line_number, str(exc))
                record["graph6"] = to_graph6(g).decode("ascii")
                print(_dump(record))
                had_error = True
                continue
            any_inconclusive |= res.status == "inconclusive"
            record = {
                "schema_version": SCHEMA_VERSION,
                "graph6": to_graph6(g).decode("ascii"),
                "status": res.status,
                "partition": res.partition.to_json_dict() if res.partition else None,
                "steps": res.steps,
                "budget": args.budget,
            }
            print(_dump(record))
    if had_error:
        return 3
    return 2 if any_inconclusive else 0


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


WORKERS_HELP = "worker processes (default: $HEPTALAB_WORKERS, else 1)"
BUDGET_HELP = "search steps allowed to each exponential search"


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="heptalab",
        description="Structure toolkit for odd-hole-free graph corpora.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="per-graph class flags and invariants")
    p.add_argument("input", metavar="FILE", help="graph6 lines, or - for stdin")
    p.add_argument("--strict", action="store_true", help="stop at the first parse error")
    p.add_argument("--structures", action="store_true", help="search for witnesses")
    p.add_argument("--no-timings", action="store_true")
    p.add_argument("--workers", metavar="K", help=WORKERS_HELP)
    p.add_argument(
        "--format",
        choices=("graph6", "adjlist"),
        default="graph6",
        help='input format; "adjlist" is the debug form "n;u-v,u-v,..."',
    )
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("verify", help="check a theorem over a corpus")
    p.add_argument("input", metavar="FILE", nargs="?", help="graph6 lines, or - for stdin")
    p.add_argument("--theorem", required=True, choices=sorted(THEOREM_IDS))
    p.add_argument("--enumerate", type=int, metavar="N", help="all graphs up to N vertices")
    p.add_argument("--budget", type=int, default=DEFAULT_BUDGET, help=BUDGET_HELP)
    p.add_argument("--workers", metavar="K", help=WORKERS_HELP)
    p.add_argument("--seed", type=int, default=None, help="recorded in the verdict")
    p.add_argument("--no-timings", action="store_true")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("generate", help="emit structured instances")
    p.add_argument("--kind", required=True, choices=("t11", "heptagram"))
    p.add_argument("--sizes", help="comma-separated part sizes")
    p.add_argument("--ysizes", help="comma-separated outer group sizes (heptagram)")
    p.add_argument("--count", type=int, default=1)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--g6-only", action="store_true", help="plain graph6 lines, no JSON")
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("decompose", help="search for a harmonious cutset")
    p.add_argument("input", metavar="FILE", help="graph6 lines, or - for stdin")
    p.add_argument("--budget", type=int, default=DEFAULT_BUDGET, help=BUDGET_HELP)
    p.set_defaults(func=cmd_decompose)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if "workers" in vars(args):
        try:
            args.workers = _worker_count(args.workers)
        except ValueError as exc:
            print(exc, file=sys.stderr)
            return 3
    return args.func(args)


def cli_entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    cli_entry()
