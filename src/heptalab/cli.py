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
from collections import Counter
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
from .harmonious import CutsetSearchResult, find_harmonious_cutset
from .structures import (
    GenerationError,
    HeptagramTypeWitness,
    T11Witness,
    _crowded_window,
    generate_heptagram_type,
    generate_t11_type,
    recognize_t11_type,
    search_heptagram_type,
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
# per-graph facts
# ---------------------------------------------------------------------------


class _fact:
    """A ``GraphFacts`` fact: computed on first read, then kept in the instance dict."""

    def __init__(self, compute: Callable) -> None:
        self.compute, self.name = compute, compute.__name__

    def __get__(self, facts, owner=None):
        if facts is None:
            return self
        value = facts.__dict__[self.name] = self.compute(facts)
        return value


class GraphFacts:
    """The facts of one graph, each computed on its first read, so a reader
    pays only for what it reads.  Each search gets its own ``Budget(budget)``;
    one that runs out leaves its fact None and appends a note to ``notes``.

    ``clique`` is a maximum clique, ``omega`` its size, and the exact chi
    search starts from it.  ``cutset`` is the harmonious-cutset search
    result, None on a disconnected graph or one with fewer than three
    vertices.  ``t11_type`` and ``heptagram_type`` are witnesses, or False
    when there is none.  Both are searched only with the antihole, and the
    latter only without a T11-type witness: every graph of either type has
    the antihole, and no graph is of both types, as the ``structures``
    docstring shows.
    """

    def __init__(self, g: Graph, budget: int) -> None:
        self.g, self.budget, self.notes = g, budget, []

    @_fact
    def odd_hole_free(self) -> bool | None:
        try:
            return find_odd_hole(self.g, Budget(self.budget)) is None
        except SearchBudgetExceeded:
            self.notes.append("odd hole search hit its budget")
            return None

    @_fact
    def full_house_free(self) -> bool:
        return find_full_house(self.g) is None

    @_fact
    def clique(self) -> tuple[int, ...]:
        return clique_number(self.g)[1]

    @_fact
    def omega(self) -> int:
        return len(self.clique)

    @_fact
    def chi(self) -> int | None:
        try:
            return chromatic_number_exact(self.g, Budget(self.budget), self.clique).chi
        except SearchBudgetExceeded:
            self.notes.append("chromatic number search hit its budget")
            return None

    @_fact
    def has_c7_complement(self) -> bool:
        return has_c7_complement(self.g)

    @_fact
    def connected(self) -> bool:
        return self.g.is_connected()

    @_fact
    def cutset(self) -> CutsetSearchResult | None:
        if self.connected and self.g.n >= 3:
            return find_harmonious_cutset(self.g, Budget(self.budget))
        return None

    @_fact
    def t11_type(self) -> T11Witness | bool:
        return self.has_c7_complement and recognize_t11_type(self.g) or False

    @_fact
    def heptagram_type(self) -> HeptagramTypeWitness | bool | None:
        if not self.has_c7_complement or self.t11_type:
            return False
        try:
            return search_heptagram_type(self.g, Budget(self.budget)) or False
        except SearchBudgetExceeded:
            self.notes.append("heptagram-type search hit its budget")
            return None


def analyze_graph(g: Graph, *, structures: bool = False, with_timings: bool = True) -> dict:
    """Full per-graph report: class flags, clique and chromatic numbers, and
    (on request, for class members) structure witnesses.  Each search may
    take DEFAULT_BUDGET steps."""
    t0 = time.perf_counter()
    facts = GraphFacts(g, DEFAULT_BUDGET)
    report = {
        "schema_version": SCHEMA_VERSION,
        "tool_version": __version__,
        "graph6": to_graph6(g).decode("ascii"),
        "n": g.n,
        "m": g.edge_count,
        "flags": {
            "odd_hole_free": facts.odd_hole_free,
            "full_house_free": facts.full_house_free,
            "k4_free": facts.omega < 4,
            "has_c7_complement": facts.has_c7_complement,
        },
        "omega": facts.omega,
        "chi": facts.chi,
        "seed": None,
        "structures": None,
        "notes": facts.notes,
    }
    if structures and facts.odd_hole_free and facts.full_house_free:
        res, t11, hepta = facts.cutset, facts.t11_type, facts.heptagram_type
        report["structures"] = {
            "harmonious_status": res.status if res else "skipped",
            "harmonious": res.partition.to_json_dict() if res and res.partition else None,
            "t11_type": t11.to_json_dict() if t11 else None,
            "heptagram_type": hepta.to_json_dict() if hepta else None,
        }
    if with_timings:
        report["timings"] = {"total_ms": round((time.perf_counter() - t0) * 1e3, 3)}
    return report


# ---------------------------------------------------------------------------
# theorem evaluation
# ---------------------------------------------------------------------------


def theorem_outcome(facts: GraphFacts, theorem: str) -> str:
    """Outcome of one graph under one theorem: "filtered" (hypothesis not
    met), "pass", "violation", or "inconclusive", reading only the facts the
    hypothesis and then the conclusion need.  Under the dichotomy (t2.3),
    connected class members with the 7-vertex antihole and no harmonious
    cutset must be recognized as one of the two structured classes; the
    searches are exact, so an exhausted budget alone is inconclusive.
    """
    if theorem not in THEOREM_IDS:
        raise ValueError(f"unknown theorem {theorem!r}")
    if theorem == "t2.3" and not facts.connected:
        return "filtered"
    if facts.odd_hole_free is None:
        return "inconclusive"
    if not facts.odd_hole_free:
        return "filtered"
    if theorem == "t1.3":
        if facts.omega >= 4:
            return "filtered"
    elif not facts.full_house_free:
        return "filtered"
    if theorem == "t2.3":
        if not facts.has_c7_complement or facts.cutset.status == "found":
            return "filtered"
        if facts.cutset.status == "inconclusive":
            return "inconclusive"
        witness = facts.t11_type or facts.heptagram_type
        if witness is None:
            return "inconclusive"
        return "pass" if witness else "violation"
    if theorem == "perfection" and facts.has_c7_complement:
        return "filtered"
    chi = facts.chi
    if chi is None:
        return "inconclusive"
    omega = facts.omega
    if theorem == "t1.3":
        holds = chi <= 4
    elif theorem == "t1.4-bound":
        holds = chi <= omega + 1
    elif theorem == "t1.4-eq":
        holds = (chi == omega + 1) == (omega == 3 and facts.has_c7_complement)
    else:  # perfection
        holds = chi == omega
    return "pass" if holds else "violation"


def _graph_outcome(g: Graph, theorem: str, budget: int) -> tuple[str, str | None]:
    """The per-graph work of ``evaluate_theorem``: the outcome, and for a
    violation the graph6 string."""
    outcome = theorem_outcome(GraphFacts(g, budget), theorem)
    return outcome, to_graph6(g).decode("ascii") if outcome == "violation" else None


def verdict_from_outcomes(
    outcomes: Sequence[tuple[str, str | None]], theorem: str, *, budget: int, seed: int | None
) -> dict:
    """The verdict over a corpus's ``(outcome, graph6 of a violation)`` pairs."""
    counts = Counter(outcome for outcome, _ in outcomes)
    return {
        "schema_version": SCHEMA_VERSION,
        "tool_version": __version__,
        "theorem": THEOREM_IDS[theorem],
        "total": len(outcomes),
        "population": len(outcomes) - counts["filtered"],
        "violations": [g6 for outcome, g6 in outcomes if outcome == "violation"],
        "inconclusive": counts["inconclusive"],
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
    outcome = functools.partial(_graph_outcome, theorem=theorem, budget=budget)
    outcomes = list(_ordered_map(outcome, graphs, workers))
    return verdict_from_outcomes(outcomes, theorem, budget=budget, seed=seed)


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
    if vars(args).get("budget", 0) < 0:
        print(f"--budget must be at least 0, got {args.budget}", file=sys.stderr)
        return 3
    return args.func(args)


def cli_entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    cli_entry()
