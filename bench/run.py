"""Seeded end-to-end and per-layer benchmark of the heptalab CLI.

    python3 bench/run.py --workload enumerate|stream|structures|all \
        --seed N --seconds S --trace 0|1

Run from the repository root.  Each repetition is a fresh interpreter
(bench/child.py) running ``heptalab.cli.main`` with ``--workers 1`` on the
seeded input, so caches start cold every time.  Repetitions run back to back
until ``--seconds`` is spent.  With ``--trace 0`` the result holds the
end-to-end metrics (medians over repetitions); with ``--trace 1`` untraced
and traced repetitions alternate and the result holds the per-layer metrics.
Every repetition's output is checked against known answers (check.py).
The last stdout line is the JSON result; the lines before it are a table.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import check  # noqa: E402
import workloads  # noqa: E402

CHILD_TIMEOUT_S = 120
BUILDS = 3  # input generations timed per run; setup_s uses their median

# traced function -> metrics reported for it
FUNCTION_METRICS = {
    "corpus.canonical_relabel": ("calls", "self_s"),
    "graph.from_graph6": ("calls", "self_s"),
    "graph.to_graph6": ("calls", "self_s"),
    "detect.find_odd_hole": ("calls", "self_s", "hit_frac"),
    "detect.find_full_house": ("calls", "self_s"),
    "detect.clique_number": ("calls", "self_s"),
    "detect.has_c7_complement": ("calls", "self_s", "total_s", "hit_frac"),
    "detect.find_induced_embedding": ("calls", "self_s"),
    "coloring.chromatic_number_exact": ("calls", "self_s", "nodes", "greedy_frac"),
    "harmonious.find_harmonious_cutset": ("calls", "self_s", "steps", "found_frac"),
    "harmonious.minimal_separators": ("calls", "self_s", "separators"),
    "harmonious.verify_harmonious": ("calls", "self_s", "yes_frac"),
    "structures.recognize_t11_type": ("calls", "self_s", "hit_frac"),
    "structures.recognize_heptagram_type": ("calls", "self_s", "total_s", "hit_frac"),
}
# ratio metric -> counter divided by the function's call count
FRACTIONS = {
    "hit_frac": "hits",
    "greedy_frac": "greedy",
    "found_frac": "found",
    "yes_frac": "yes",
}
LAYER_NAMES = ("graph", "detect", "coloring", "corpus", "harmonious", "structures", "cli")


def declared_metrics() -> tuple[dict, dict]:
    """Names and units of the end-to-end and per-layer metrics, as
    BENCHMARK.json declares them."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return tuple({m["name"]: m["unit"] for m in spec[key]} for key in ("end_to_end", "per_layer"))


def calibrate_ms() -> float:
    """Time of a fixed pure-Python loop: a machine-speed reading."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(1_000_000):
        acc = (acc + i * i) % 1_000_003
    return (time.perf_counter() - t0) * 1e3


@dataclass
class Rep:
    traced: bool
    setup_s: float
    wall_s: float
    gaps_ms: list[float]
    rss_mb: float
    lines: list[str]
    trace: dict | None


def run_rep(w, traced: bool) -> Rep | None:
    """One fresh-process repetition; None when the child failed.

    The child reads its input from a file and writes its records to one,
    both unnamed files in this directory: through pipes, a child writing
    12,000 records stalled whenever the parent was not scheduled to drain
    them, which timed the scheduler along with the program."""
    cmd = [sys.executable, os.path.join(HERE, "child.py"), "1" if traced else "0"]
    env = dict(os.environ, PYTHONHASHSEED="0")
    with tempfile.TemporaryFile(dir=HERE) as fin, tempfile.TemporaryFile(dir=HERE) as fout:
        fin.write(w.stdin.encode("ascii"))
        fin.seek(0)
        t_spawn = time.monotonic()
        proc = subprocess.Popen(cmd + w.argv, cwd=ROOT, env=env, stdin=fin, stdout=fout)
        try:
            proc.wait(timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            return None
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        fout.seek(0)
        lines = fout.read().decode("ascii").splitlines()
    if proc.returncode != 0 or not lines or not lines[-1].startswith("#bench "):
        return None
    rec = json.loads(lines[-1][len("#bench ") :])
    stamps = [rec["t_first"]] + rec["stamps"]
    return Rep(
        traced=traced,
        setup_s=rec["t_first"] - t_spawn,
        wall_s=rec["t_end"] - rec["t_first"],
        gaps_ms=[(b - a) * 1e3 for a, b in zip(stamps, stamps[1:])],
        rss_mb=rec["peak_rss_kb"] / 1024,
        lines=lines[:-1],
        trace=rec["trace"],
    )


def _p90(values: list[float]) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[-1]


def end_to_end(w, reps: list[Rep], build_s: float) -> tuple[dict, str]:
    count = w.graph_count
    # Per-graph time is a gap between output records over the graphs each
    # record covers: one on analyze; all of them on verify, which prints a
    # single verdict, so there p50 and p90 are both its wall time per graph.
    per_record = count / len(reps[0].gaps_ms)
    values = {
        "setup_s": build_s + statistics.median(r.setup_s for r in reps),
        "graphs_per_s": statistics.median(count / r.wall_s for r in reps),
        "graph_ms_p50": statistics.median(statistics.median(r.gaps_ms) for r in reps) / per_record,
        "graph_ms_p90": statistics.median(_p90(r.gaps_ms) for r in reps) / per_record,
        "peak_rss_mb": statistics.median(r.rss_mb for r in reps),
    }
    samples = f"{len(reps[0].gaps_ms)} gaps per repetition, median of {len(reps)}"
    return values, samples


def per_layer(w, traced: list[Rep], plain: list[Rep], outcomes: dict) -> tuple[dict, list[str]]:
    """Per-layer metrics from the traced repetitions; the names a missing
    function or changed return type left unmeasured come back as absent."""
    first = traced[0].trace
    spans, counts = first["spans"], first["counts"]
    absent = []
    values = {}

    def self_median(select) -> float:
        return statistics.median(
            sum(s[1] for name, s in r.trace["spans"].items() if select(name)) for r in traced
        )

    for fn, metrics in FUNCTION_METRICS.items():
        calls = spans.get(fn, [0])[0]
        for m in metrics:
            key = f"{fn}.{m}"
            if fn not in spans or (m not in ("calls", "self_s", "total_s") and fn in first["broken"]):
                absent.append(key)
                values[key] = 0
            elif m == "calls":
                values[key] = calls
            elif m == "self_s":
                values[key] = self_median(lambda name: name == fn)
            elif m == "total_s":
                values[key] = statistics.median(r.trace["spans"][fn][2] for r in traced)
            elif m in FRACTIONS:
                values[key] = counts[fn].get(FRACTIONS[m], 0) / calls if calls else 0
            else:
                values[key] = counts[fn].get(m, 0)
    canon = spans.get("corpus.canonical_relabel", [0])[0]
    graphs = counts.get("corpus.all_graphs_up_to", {}).get("graphs", 0)
    values["corpus.unique_per_canonical"] = graphs / canon if canon else 0
    values["graph.decodes_per_graph"] = spans.get("graph.from_graph6", [0])[0] / w.graph_count
    wall = statistics.median(r.wall_s for r in traced)
    for layer in LAYER_NAMES[:-1]:
        values[f"{layer}.self_s"] = self_median(lambda name: name.startswith(layer + "."))
    values["cli.self_s"] = statistics.median(r.wall_s - r.trace["root_s"] for r in traced)
    for layer in LAYER_NAMES:
        values[f"{layer}.self_share"] = values[f"{layer}.self_s"] / wall
    values["trace.overhead_frac"] = wall / statistics.median(r.wall_s for r in plain) - 1
    attempted = sum(outcomes.values())
    values["failed_frac"] = (outcomes[check.MISS] + outcomes[check.WRONG]) / attempted
    values["inconclusive_frac"] = outcomes[check.INCONCLUSIVE] / attempted
    return values, absent


def deterministic_part(trace: dict) -> tuple:
    return ({k: v[0] for k, v in trace["spans"].items()}, trace["counts"])


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> tuple[dict, list[str]]:
    calib_start = calibrate_ms()
    builds, build_s = [], []
    for _ in range(BUILDS):
        t0 = time.perf_counter()
        builds.append(workloads.build(name, seed))
        build_s.append(time.perf_counter() - t0)
    w = builds[0]
    reps: list[Rep] = []
    outcomes = {check.OK: 0, check.INCONCLUSIVE: 0, check.MISS: 0, check.WRONG: 0}
    problems: list[str] = []
    if any(b.graphs != w.graphs for b in builds):
        problems.append("the same seed gave different inputs")
    start = time.monotonic()
    while True:
        rep = run_rep(w, trace and len(reps) % 2 == 1)
        if rep is None:
            problems.append("a repetition exited abnormally")
            outcomes[check.WRONG] += w.graph_count
            break
        for key, val in check.check_outputs(w, rep.lines).items():
            outcomes[key] += val
        differs = "output differs between repetitions"
        if reps and rep.lines != reps[0].lines and differs not in problems:
            problems.append(differs)
        reps.append(rep)
        elapsed = time.monotonic() - start
        typical = statistics.median(r.setup_s + r.wall_s for r in reps)
        if elapsed + typical > seconds and len(reps) >= (2 if trace else 1):
            break
    traced = [r for r in reps if r.traced]
    plain = [r for r in reps if not r.traced]
    if traced:
        if any(deterministic_part(r.trace) != deterministic_part(traced[0].trace) for r in traced):
            problems.append("deterministic trace counts differ between repetitions")
        if name == "enumerate":
            orders = traced[0].trace["counts"].get("corpus.nonisomorphic_graphs", {})
            by_n = workloads.known()["graphs_by_n"]
            if [orders.get(f"order_{n}") for n in range(len(by_n))] != by_n:
                problems.append("graphs per order differ from the known counts")
    attempted = sum(outcomes.values())
    failed = outcomes[check.MISS] + outcomes[check.WRONG]
    lines = [
        f"# workload={name} seed={seed} graphs={w.graph_count} "
        f"repetitions={len(plain)} untraced + {len(traced)} traced "
        f"calib_start_ms={calib_start:.2f} calib_end_ms={calibrate_ms():.2f}",
        f"#   failed_frac={failed / attempted:.4f} fraction "
        f"({outcomes[check.MISS]} missed, {outcomes[check.WRONG]} wrong of {attempted})",
        f"#   inconclusive_frac={outcomes[check.INCONCLUSIVE] / attempted:.4f} fraction",
    ]
    lines += [f"#   PROBLEM: {p}" for p in problems]
    metrics = {}
    if plain and not problems:
        if trace:
            values, absent = per_layer(w, traced, plain, outcomes)
            lines += [f"#   absent: {key}" for key in absent]
        else:
            values, samples = end_to_end(w, plain, statistics.median(build_s))
            lines.append(f"#   samples: {samples}")
            lines.append("#   wall_s per repetition: " + " ".join(f"{r.wall_s:.3f}" for r in plain))
        units = declared_metrics()[1 if trace else 0]
        if set(values) != set(units):
            raise RuntimeError(
                f"measured metrics differ from BENCHMARK.json: {sorted(set(values) ^ set(units))}"
            )
        for key, unit in units.items():
            metrics[key] = {"value": values[key], "unit": unit}
            lines.append(f"#   {key:45s} {values[key]:14.6g} {unit}")
    result = {
        "correct": not problems and outcomes[check.WRONG] == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    return result, lines


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not os.path.isfile(os.path.join(ROOT, "src", "heptalab", "cli.py")):
        print("bench: no heptalab sources under src/; run from a checkout", file=sys.stderr)
        return 2
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    for name in names:
        result, lines = run_workload(name, args.seed, args.seconds, bool(args.trace))
        print("\n".join(lines), flush=True)
        results[name] = result
    if len(results) == 1:
        (final,) = results.values()
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {
                f"{name}.{key}": val
                for name, r in results.items()
                for key, val in r["metrics"].items()
            },
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
