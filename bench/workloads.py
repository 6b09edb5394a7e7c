"""The three benchmark workloads: seeded inputs and their known answers.

``build(name, seed)`` returns the CLI arguments, the graph6 text the program
reads on stdin, and the expected answer for every input graph.  Expected
answers never come from the code under test: enumeration counts and the T1.4
population come from networkx's graph atlas, random-graph facts from the
oracles stored in pool.tsv, and structured instances from their generator's
witness stored in structured.tsv (see README.md).  Nothing here imports
heptalab.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass, field

import graph6

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("enumerate", "stream", "structures")

ENUMERATE_N = 7
STREAM_GRAPHS = 12_000
# Random class members drawn per order (8, 9, 10 vertices): the cutset
# search cost grows about 2x per vertex, so fixed counts keep the median
# graph inside the 9-vertex block whatever the seed.
RANDOM_MEMBERS = {8: 16, 9: 48, 10: 16}
STRUCTURED_LABELING = 0  # seed of the one relabeling of structured.tsv

POOL_FIELDS = (
    "odd_hole_free",
    "full_house_free",
    "omega",
    "chi",
    "c7_complement",
    "connected",
    "clique_cutset",
)


@dataclass
class Expect:
    """What is known about one input graph, independently of heptalab."""

    kind: str  # "random", "known_miss", "heptagram_all_complete", ...
    facts: dict | None = None  # pool oracle answers
    sizes: tuple | None = None  # generator witness size vector


@dataclass
class Workload:
    name: str
    seed: int
    argv: list[str]
    graphs: list[str] = field(default_factory=list)
    expect: list[Expect] = field(default_factory=list)

    @property
    def stdin(self) -> str:
        return "".join(line + "\n" for line in self.graphs)

    @property
    def graph_count(self) -> int:
        if self.name == "enumerate":
            return sum(known()["graphs_by_n"][: ENUMERATE_N + 1])
        return len(self.graphs)


def known() -> dict:
    with open(os.path.join(HERE, "known.json")) as fh:
        return json.load(fh)["up_to_7"]


def load_pool() -> list[tuple[str, dict]]:
    pool = []
    with open(os.path.join(HERE, "pool.tsv")) as fh:
        for line in fh:
            if line.startswith("#"):
                continue
            text, *vals = line.rstrip("\n").split("\t")
            pool.append((text, dict(zip(POOL_FIELDS, map(int, vals)))))
    return pool


def build(name: str, seed: int) -> Workload:
    if name == "enumerate":
        # The corpus is fixed by definition; the seed is recorded only.
        argv = ["verify", "--theorem", "t1.4-bound", "--enumerate", str(ENUMERATE_N)]
        return Workload(name, seed, argv + ["--workers", "1", "--no-timings"])
    rng = random.Random(seed)
    argv = ["analyze", "-", "--workers", "1", "--no-timings"]
    if name == "stream":
        w = Workload(name, seed, argv)
        pool = load_pool()
        for _ in range(STREAM_GRAPHS):
            text, facts = pool[rng.randrange(len(pool))]
            w.graphs.append(graph6.shuffled(text, rng))
            w.expect.append(Expect("random", facts))
        return w
    if name == "structures":
        w = Workload(name, seed, argv + ["--structures"])
        _add_structures(w, rng)
        return w
    raise ValueError(f"unknown workload {name!r}")


def load_structured() -> list[tuple[str, str, tuple | None]]:
    """(kind, graph6, witness size vector) rows of structured.tsv."""
    out = []
    with open(os.path.join(HERE, "structured.tsv")) as fh:
        for line in fh:
            if line.startswith("#"):
                continue
            kind, text, sizes = line.rstrip("\n").split("\t")
            vec = None
            if sizes != "-":
                vec = tuple(tuple(map(int, part.split(","))) for part in sizes.split(";"))
                if len(vec) == 1:
                    (vec,) = vec
            out.append((kind, text, vec))
    return out


def _add_structures(w: Workload, rng: random.Random) -> None:
    # The structured instances hold nearly all of the workload's time, and
    # their cutset-search cost depends on the labeling.  Relabeled from the
    # seed, they made the seed rather than the code set the time, so they
    # get one fixed relabeling whatever the seed.
    fixed = random.Random(STRUCTURED_LABELING)
    for kind, text, sizes in load_structured():
        if kind != "known_miss":
            # the five known misses stay exactly as ROADMAP.md lists them
            text = graph6.shuffled(text, fixed)
        w.graphs.append(text)
        w.expect.append(Expect(kind, sizes=sizes))
    members = [
        (text, facts)
        for text, facts in load_pool()
        if facts["odd_hole_free"]
        and facts["full_house_free"]
        and facts["connected"]
        and facts["clique_cutset"]
    ]
    for n, count in RANDOM_MEMBERS.items():
        of_order = [m for m in members if graph6.decode(m[0])[0] == n]
        for text, facts in rng.sample(of_order, count):
            w.graphs.append(graph6.shuffled(text, rng))
            w.expect.append(Expect("random_member", facts))
    # Machine speed drifts within a second, so interleave the kinds: the
    # graphs that set the median and the 90th percentile then sample the
    # whole repetition rather than one stretch of it.
    mixed = list(zip(w.graphs, w.expect))
    rng.shuffle(mixed)
    w.graphs = [text for text, _ in mixed]
    w.expect = [exp for _, exp in mixed]
