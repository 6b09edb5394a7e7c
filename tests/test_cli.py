import importlib.util
import io
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import heptalab
from heptalab import cli, structures
from heptalab.cli import GraphFacts, analyze_graph, evaluate_theorem, main, theorem_outcome
from heptalab.corpus import MAX_ENUMERATION_N, all_graphs_up_to
from heptalab.detect import DEFAULT_BUDGET, Budget, c7_complement
from heptalab.graph import Graph, from_graph6, to_graph6
from heptalab.harmonious import HarmoniousPartition, verify_harmonious
from heptalab.structures import generate_t11_type

from .naive import (
    full_houses_by_degree,
    naive_chromatic,
    odd_holes_by_isomorphism,
)
from .planted import glued_instances

C7BAR_G6 = to_graph6(c7_complement()).decode("ascii")
C5_G6 = to_graph6(Graph.cycle(5)).decode("ascii")
P4_G6 = to_graph6(Graph.path(4)).decode("ascii")
# a valid line, a line holding one non-ASCII character (two UTF-8 bytes), and
# another valid line
NON_ASCII_FILE = b"Bw\n\xc3\xa9\nDhc\n"
# heptagram-type class members on 16 and 17 vertices that an earlier greedy
# heptagram-type recognizer missed; none has a harmonious cutset
RECOGNIZER_MISSES = (
    "PidiPgDD_k?gd`}naoLlx@OS",
    "OlSt\\PRGuzcPzLJLCXXCU",
    "OtTRyd|_kNSijUSjwStI`",
    "Pd~p^FaFyfTbSxjEtbOz\\wec",
    "PufJz@s^CnewKOYJeiKFn^AC",
)


def run_cli(capsys, argv, stdin_text=None, monkeypatch=None):
    if stdin_text is not None:
        assert monkeypatch is not None
        monkeypatch.setattr("sys.stdin", io.StringIO(stdin_text))
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def json_lines(out):
    return [json.loads(line) for line in out.splitlines() if line]


class TestAnalyze:
    def test_antihole_report(self, capsys, tmp_path):
        path = tmp_path / "in.g6"
        path.write_text(C7BAR_G6 + "\n")
        code, out, _ = run_cli(capsys, ["analyze", str(path), "--no-timings"])
        assert code == 0
        (rec,) = json_lines(out)
        assert rec["schema_version"] == 1
        assert rec["graph6"] == C7BAR_G6
        assert rec["n"] == 7 and rec["m"] == 14
        assert rec["flags"] == {
            "odd_hole_free": True,
            "full_house_free": True,
            "k4_free": True,
            "has_c7_complement": True,
        }
        assert rec["omega"] == 3
        assert rec["chi"] == naive_chromatic(c7_complement())
        assert rec["structures"] is None
        assert "timings" not in rec

    def test_timings_present_by_default(self, capsys, tmp_path):
        path = tmp_path / "in.g6"
        path.write_text(C5_G6 + "\n")
        code, out, _ = run_cli(capsys, ["analyze", str(path)])
        (rec,) = json_lines(out)
        assert code == 0 and rec["timings"]["total_ms"] >= 0

    def test_structures_on_class_member(self, capsys, tmp_path):
        path = tmp_path / "in.g6"
        path.write_text(C7BAR_G6 + "\n")
        code, out, _ = run_cli(
            capsys, ["analyze", str(path), "--structures", "--no-timings"]
        )
        (rec,) = json_lines(out)
        assert code == 0
        s = rec["structures"]
        assert s["harmonious_status"] == "none"
        assert s["harmonious"] is None
        assert s["t11_type"] is None
        assert s["heptagram_type"]["kind"] == "heptagram_type"

    def test_structures_skipped_outside_class(self, capsys, tmp_path):
        path = tmp_path / "in.g6"
        path.write_text(C5_G6 + "\n")
        code, out, _ = run_cli(
            capsys, ["analyze", str(path), "--structures", "--no-timings"]
        )
        (rec,) = json_lines(out)
        assert code == 0
        assert rec["flags"]["odd_hole_free"] is False
        assert rec["structures"] is None

    def test_bad_line_without_strict(self, capsys, tmp_path):
        path = tmp_path / "in.g6"
        path.write_text("\x07bad\n" + C5_G6 + "\n")
        code, out, _ = run_cli(capsys, ["analyze", str(path), "--no-timings"])
        assert code == 3
        recs = json_lines(out)
        assert len(recs) == 2
        assert recs[0]["line"] == 1 and "error" in recs[0]
        assert recs[1]["graph6"] == C5_G6

    def test_bad_line_with_strict(self, capsys, tmp_path):
        path = tmp_path / "in.g6"
        path.write_text("\x07bad\n" + C5_G6 + "\n")
        code, out, _ = run_cli(
            capsys, ["analyze", str(path), "--strict", "--no-timings"]
        )
        assert code == 3
        recs = json_lines(out)
        assert len(recs) == 1 and "error" in recs[0]

    def test_non_ascii_byte_in_file(self, capsys, tmp_path):
        path = tmp_path / "in.g6"
        path.write_bytes(NON_ASCII_FILE)
        code, out, _ = run_cli(capsys, ["analyze", str(path), "--no-timings"])
        assert code == 3
        recs = json_lines(out)
        assert [r.get("graph6") for r in recs] == ["Bw", None, "Dhc"]
        assert recs[1]["line"] == 2 and "non-ASCII" in recs[1]["error"]

    def test_non_ascii_byte_on_strict_stdin(self, capsys, monkeypatch):
        # stdin as a UTF-8 locale gives it, strict about undecodable bytes
        stdin = io.TextIOWrapper(io.BytesIO(b"Bw\n\xff\nDhc\n"), encoding="utf-8")
        monkeypatch.setattr("sys.stdin", stdin)
        code, out, _ = run_cli(capsys, ["analyze", "-", "--no-timings"])
        assert code == 3
        recs = json_lines(out)
        assert [r.get("graph6") for r in recs] == ["Bw", None, "Dhc"]
        assert recs[1]["line"] == 2 and "non-ASCII" in recs[1]["error"]

    def test_bad_mid_file_line_with_strict(self, capsys, tmp_path):
        # the reports of the lines before the bad one are written; nothing
        # after it is
        path = tmp_path / "in.g6"
        path.write_text("Bw\nDhc\n\x07bad\n" + C7BAR_G6 + "\n")
        code, out, _ = run_cli(
            capsys, ["analyze", str(path), "--strict", "--no-timings"]
        )
        assert code == 3
        recs = json_lines(out)
        assert [rec.get("graph6") for rec in recs[:2]] == ["Bw", "Dhc"]
        assert len(recs) == 3 and recs[2]["line"] == 3 and "error" in recs[2]

    def test_blank_lines_skipped_but_counted(self, capsys, tmp_path):
        path = tmp_path / "in.g6"
        path.write_text("Bw\n\nDhc\n\n\x07bad\n")
        code, out, _ = run_cli(capsys, ["analyze", str(path), "--no-timings"])
        assert code == 3
        recs = json_lines(out)
        assert [rec.get("graph6") for rec in recs[:2]] == ["Bw", C5_G6]
        assert len(recs) == 3 and recs[2]["line"] == 5

    def test_stdin_input(self, capsys, monkeypatch):
        code, out, _ = run_cli(
            capsys,
            ["analyze", "-", "--no-timings"],
            stdin_text=C7BAR_G6 + "\n",
            monkeypatch=monkeypatch,
        )
        (rec,) = json_lines(out)
        assert code == 0 and rec["graph6"] == C7BAR_G6

    def test_adjlist_format(self, capsys, tmp_path):
        path = tmp_path / "in.adj"
        path.write_text("5;0-1,1-2,2-3,3-4,0-4\n")
        code, out, _ = run_cli(
            capsys, ["analyze", str(path), "--format", "adjlist", "--no-timings"]
        )
        (rec,) = json_lines(out)
        assert code == 0
        assert rec["graph6"] == C5_G6
        assert rec["flags"]["odd_hole_free"] is False

    def test_adjlist_empty_edges(self, capsys, tmp_path):
        path = tmp_path / "in.adj"
        path.write_text("3;\n")
        code, out, _ = run_cli(
            capsys, ["analyze", str(path), "--format", "adjlist", "--no-timings"]
        )
        (rec,) = json_lines(out)
        assert code == 0 and rec["n"] == 3 and rec["m"] == 0

    def test_adjlist_malformed(self, capsys, tmp_path):
        path = tmp_path / "in.adj"
        path.write_text("5;0-1,xx\n")
        code, out, _ = run_cli(
            capsys, ["analyze", str(path), "--format", "adjlist", "--no-timings"]
        )
        assert code == 3
        (rec,) = json_lines(out)
        assert "error" in rec

    @pytest.mark.parametrize(
        "bad, message",
        [
            (b"Bw;0-1", "vertex count at character 0 is not an integer"),
            (b"3;0-x", "edge endpoint at character 4 is not an integer"),
            (b"3;0-1,12", "edge at character 6 has no '-'"),
            (b"3;0-\xc3\xa9", "edge endpoint at character 4 is not an integer"),
        ],
    )
    def test_adjlist_bad_field_named(self, capsys, tmp_path, bad, message):
        def analyze(lines):
            path = tmp_path / "in.adj"
            path.write_bytes(b"\n".join(lines) + b"\n")
            return run_cli(
                capsys, ["analyze", str(path), "--format", "adjlist", "--no-timings"]
            )

        _, clean, _ = analyze([b"3;0-1", b"3;1-2"])
        code, out, _ = analyze([b"3;0-1", bad, b"3;1-2"])
        assert code == 3
        first, error, last = out.splitlines()
        assert [first, last] == clean.splitlines()
        assert json.loads(error) == {"error": message, "line": 2, "schema_version": 1}

    def test_workers_match_serial(self, capsys, tmp_path):
        path = tmp_path / "in.g6"
        graphs = all_graphs_up_to(4)
        path.write_text("".join(to_graph6(g).decode() + "\n" for g in graphs))
        _, serial, _ = run_cli(capsys, ["analyze", str(path), "--no-timings"])
        _, parallel, _ = run_cli(
            capsys, ["analyze", str(path), "--workers", "2", "--no-timings"]
        )
        assert serial == parallel

    def test_workers_env_default(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("HEPTALAB_WORKERS", "2")
        path = tmp_path / "in.g6"
        path.write_text(C5_G6 + "\n")
        code, out, _ = run_cli(capsys, ["analyze", str(path), "--no-timings"])
        (rec,) = json_lines(out)
        assert code == 0 and rec["graph6"] == C5_G6

    @pytest.mark.parametrize("value", ["0", "-3", "two"])
    def test_bad_workers_flag_rejected(self, capsys, tmp_path, value):
        path = tmp_path / "in.g6"
        path.write_text(C5_G6 + "\n")
        code, out, err = run_cli(
            capsys, ["analyze", str(path), f"--workers={value}", "--no-timings"]
        )
        assert code == 3 and out == ""
        assert "--workers" in err and repr(value) in err

    @pytest.mark.parametrize("value", ["0", "-3", "two", ""])
    def test_bad_workers_env_rejected(self, capsys, monkeypatch, value):
        monkeypatch.setenv("HEPTALAB_WORKERS", value)
        code, out, err = run_cli(
            capsys, ["verify", "--theorem", "t1.3", "--enumerate", "3"]
        )
        assert code == 3 and out == ""
        assert "HEPTALAB_WORKERS" in err and repr(value) in err


    def test_structures_transcript_is_pinned(self, capsys, monkeypatch):
        # the analyze --structures records of the 24 rows of
        # bench/structured.tsv, byte for byte as data/structures_transcript.jsonl
        # holds them
        rows = (Path(__file__).parent.parent / "bench" / "structured.tsv").read_text()
        lines = "".join(row.split("\t")[1] + "\n" for row in rows.splitlines()[1:])
        code, out, _ = run_cli(
            capsys, ["analyze", "-", "--structures", "--no-timings"], lines, monkeypatch
        )
        pinned = Path(__file__).parent / "data" / "structures_transcript.jsonl"
        assert code == 0 and len(out.splitlines()) == 24
        assert out == pinned.read_text()


class TestOnePipeline:
    def test_analyze_and_verify_agree(self):
        # every graph on at most 6 vertices: the analyze report states the
        # same facts that each theorem check reads, wherever it reads them
        for g in all_graphs_up_to(6):
            report = analyze_graph(g, with_timings=False)
            reported = dict(report["flags"], omega=report["omega"], chi=report["chi"])
            del reported["k4_free"]
            assert report["graph6"] == to_graph6(g).decode() and report["n"] == g.n
            read_by_any = set()
            for theorem in cli.THEOREM_IDS:
                facts = GraphFacts(g, DEFAULT_BUDGET)
                theorem_outcome(facts, theorem)
                read = {key: getattr(facts, key) for key in reported if key in vars(facts)}
                for key, value in read.items():
                    assert reported[key] == value, (report["graph6"], theorem, key)
                read_by_any |= set(read)
            # the theorems together read every class fact of an odd-hole-free
            # graph but chi, the antihole only once it is full-house-free, chi
            # only once some hypothesis holds (t1.3's omega <= 3, or the
            # others' full-house-freeness), and nothing past the odd-hole
            # search otherwise
            expected = {"odd_hole_free"}
            if reported["odd_hole_free"]:
                expected |= {"full_house_free", "omega"}
                if reported["full_house_free"]:
                    expected.add("has_c7_complement")
                if reported["full_house_free"] or reported["omega"] <= 3:
                    expected.add("chi")
            assert read_by_any == expected, report["graph6"]

    def test_chi_at_every_order(self):
        # no size cap: exact chi on 41 vertices, and on a 55-vertex glued
        # class member (omega 3 with the antihole, so chi 4)
        assert analyze_graph(Graph.empty(41), with_timings=False)["chi"] == 1
        g = glued_instances(4, seed=1)[-1]
        assert g.n == 55
        report = analyze_graph(g, with_timings=False)
        assert (report["omega"], report["chi"], report["notes"]) == (3, 4, [])

    def test_exhausted_chi_budget_is_null(self, monkeypatch):
        # the 5-cycle's odd hole costs 3 steps, its chi search 5 per node
        monkeypatch.setattr(cli, "DEFAULT_BUDGET", 3)
        report = analyze_graph(Graph.cycle(5), with_timings=False)
        assert report["flags"]["odd_hole_free"] is False
        assert (report["omega"], report["chi"]) == (2, None)
        assert report["notes"] == ["chromatic number search hit its budget"]

    def test_exhausted_odd_hole_budget_is_inconclusive(
        self, capsys, tmp_path, monkeypatch
    ):
        monkeypatch.setattr(cli, "DEFAULT_BUDGET", 1)
        path = tmp_path / "in.g6"
        path.write_text(C7BAR_G6 + "\n")
        code, out, _ = run_cli(capsys, ["analyze", str(path), "--no-timings"])
        (rec,) = json_lines(out)
        assert code == 0
        assert rec["flags"]["odd_hole_free"] is None
        # the chi search gets the same budget of one step
        assert rec["notes"] == [
            "odd hole search hit its budget",
            "chromatic number search hit its budget",
        ]
        code, out, _ = run_cli(
            capsys,
            ["verify", str(path), "--theorem", "t1.4-bound", "--budget", "1"]
            + ["--no-timings"],
        )
        (v,) = json_lines(out)
        assert code == 2
        assert v["population"] == 1 and v["inconclusive"] == 1

    def test_one_antihole_search_without_the_antihole(self, monkeypatch):
        # one antihole search per graph: the facts object reaches the
        # heptagram-type search without the recognizer's own antihole search,
        # and the report is the recognizer's
        graphs = [generate_t11_type(sizes)[0] for sizes in ([1] * 11, [2, 1] * 5 + [3])]
        graphs += [from_graph6(g6) for g6 in RECOGNIZER_MISSES] + [Graph.path(5)]
        searches = []
        real = cli.has_c7_complement

        def counting(h):
            searches.append(h)
            return real(h)

        monkeypatch.setattr(cli, "has_c7_complement", counting)
        monkeypatch.setattr(structures, "has_c7_complement", counting)
        seen = set()
        for g in graphs:
            searches.clear()
            report = analyze_graph(g, structures=True, with_timings=False)
            has_antihole = report["flags"]["has_c7_complement"]
            assert len(searches) == 1, to_graph6(g)
            hepta = structures.recognize_heptagram_type(g)
            assert report["structures"]["heptagram_type"] == (
                hepta.to_json_dict() if hepta else None
            )
            seen.add(has_antihole)
        assert seen == {False, True}

    def test_heptagram_recognizer_outcomes(self, monkeypatch):
        # an exhausted recognizer budget is a note and "inconclusive"; an
        # exact None is a violation at any order (this graph has 17 vertices)
        g = from_graph6(RECOGNIZER_MISSES[0])
        real = cli.search_heptagram_type
        monkeypatch.setattr(cli, "search_heptagram_type", lambda h, budget: real(h, Budget(10)))
        report = analyze_graph(g, structures=True, with_timings=False)
        assert report["structures"]["heptagram_type"] is None
        assert report["notes"] == ["heptagram-type search hit its budget"]
        assert theorem_outcome(GraphFacts(g, 10**6), "t2.3") == "inconclusive"
        monkeypatch.setattr(cli, "search_heptagram_type", lambda h, budget: None)
        assert theorem_outcome(GraphFacts(g, 10**6), "t2.3") == "violation"

    @pytest.mark.parametrize("theorem,search,needed_by", [
        ("t1.4-bound", "has_c7_complement", "perfection"),
        ("t2.3", "chromatic_number_exact", "t1.4-bound"),
    ])
    def test_each_theorem_runs_only_the_searches_it_reads(
        self, capsys, monkeypatch, theorem, search, needed_by
    ):
        # the bound needs no antihole search and the dichotomy no chi search;
        # another theorem over the same corpus does run that search
        calls = []
        real = getattr(cli, search)
        monkeypatch.setattr(cli, search, lambda *args: calls.append(args) or real(*args))
        verdicts = {}
        for name in (theorem, needed_by):
            calls.clear()
            code, out, _ = run_cli(
                capsys, ["verify", "--theorem", name, "--enumerate", "7", "--no-timings"]
            )
            (verdicts[name],) = json_lines(out)
            assert code == 0 and verdicts[name]["population"] > 0
            assert bool(calls) == (name == needed_by), (name, len(calls))

    def test_unknown_theorem_raises_before_any_search(self):
        # a graph with an odd hole is filtered under every theorem, but not
        # under a name that is none of them
        facts = GraphFacts(Graph.cycle(5), DEFAULT_BUDGET)
        with pytest.raises(ValueError, match="unknown theorem 't9'"):
            theorem_outcome(facts, "t9")
        assert vars(facts).keys() == {"g", "budget", "notes"}

    def test_t11_type_graphs_get_no_heptagram_type_search(self, monkeypatch):
        # no graph is of both types (the structures docstring), so a T11-type
        # witness answers the heptagram-type question without a slot search;
        # the recognizer itself still searches the core, for 679 steps in the
        # generator's labeling (the quotient's labeling sets the count)
        hosts = []
        slot_search = structures._slot_search
        monkeypatch.setattr(
            structures, "_slot_search", lambda h, budget: hosts.append(h) or slot_search(h, budget)
        )
        rng = random.Random(11)
        for _ in range(6):
            g, _ = generate_t11_type([rng.randint(1, 3) for _ in range(11)])
            perm = list(range(g.n))
            rng.shuffle(perm)
            h = g.relabel(perm)
            report = analyze_graph(h, structures=True, with_timings=False)
            assert report["flags"]["has_c7_complement"] and report["notes"] == []
            found = report["structures"]
            assert found["heptagram_type"] is None
            assert found["t11_type"] == structures.recognize_t11_type(h).to_json_dict()
            assert hosts == []
            assert structures.recognize_heptagram_type(h) is None
            budget = Budget()
            assert structures.recognize_heptagram_type(g, budget) is None
            assert budget.spent == 679 and len(hosts) == 2
            hosts.clear()

    def test_facts_agree_with_the_heptagram_type_recognizer(self):
        # the 124 pinned recognizer inputs, 5 of them T11 blow-ups
        pins = Path(__file__).parent / "data" / "heptagram_pins.tsv"
        shortcuts = 0
        for line in pins.read_text().splitlines():
            g = from_graph6(line.split("\t")[0])
            facts = GraphFacts(g, DEFAULT_BUDGET)
            assert (facts.heptagram_type or None) == structures.recognize_heptagram_type(g), line
            shortcuts += bool(facts.t11_type)
        assert shortcuts == 5

    def test_t13_runs_chi_only_when_omega_allows(self, monkeypatch):
        # omega comes from the clique search alone, so the 380 odd-hole-free
        # graphs with omega >= 4 get no chi search; the clique search runs
        # once per odd-hole-free graph, and chi starts from its clique
        calls = {"chromatic_number_exact": [], "clique_number": []}
        for name, seen in calls.items():
            real = getattr(cli, name)
            monkeypatch.setattr(
                cli, name, lambda *args, seen=seen, real=real: seen.append(args) or real(*args)
            )
        graphs = all_graphs_up_to(7)
        verdict = evaluate_theorem(graphs, "t1.3")
        assert (verdict["total"], verdict["population"], verdict["violations"]) == (1253, 727, [])
        assert len(calls["chromatic_number_exact"]) == 727
        assert len(calls["clique_number"]) == 1107
        assert all(len(args) == 3 for args in calls["chromatic_number_exact"])

    def test_one_antihole_search_per_structures_graph(self, monkeypatch):
        # the 104 graphs of one seed-1 structures bench repetition: 104
        # antihole searches (not 128), and a slot search on 19 quotients (not
        # 24: the 5 T11 blow-ups get none)
        bench = Path(__file__).parent.parent / "bench"
        monkeypatch.setattr(sys, "path", [str(bench)] + sys.path)  # workloads imports graph6
        spec = importlib.util.spec_from_file_location("workloads", bench / "workloads.py")
        workloads = importlib.util.module_from_spec(spec)
        monkeypatch.setitem(sys.modules, "workloads", workloads)  # for its dataclasses
        spec.loader.exec_module(workloads)
        graphs = workloads.build("structures", 1).graphs
        antihole, hosts = [], []
        real, slot_search = cli.has_c7_complement, structures._slot_search
        counting = lambda h: antihole.append(h) or real(h)  # noqa: E731
        monkeypatch.setattr(cli, "has_c7_complement", counting)
        monkeypatch.setattr(structures, "has_c7_complement", counting)
        monkeypatch.setattr(
            structures, "_slot_search", lambda h, budget: hosts.append(h) or slot_search(h, budget)
        )
        for g6 in graphs:
            analyze_graph(from_graph6(g6), structures=True, with_timings=False)
        assert (len(graphs), len(antihole), len(hosts)) == (104, 104, 19)

    def test_antihole_free_members_get_no_t11_type_search(self, monkeypatch):
        # every T11-type graph has the antihole (the structures docstring),
        # so the class members on at most 7 vertices reach the recognizer
        # only through the antihole itself
        hosts = []
        real = cli.recognize_t11_type
        monkeypatch.setattr(cli, "recognize_t11_type", lambda h: hosts.append(h) or real(h))
        members = 0
        for g in all_graphs_up_to(7):
            report = analyze_graph(g, structures=True, with_timings=False)
            if report["structures"] is not None:
                members += 1
                assert report["structures"]["t11_type"] is None
        assert members > 600 and len(hosts) == 1
        assert structures.has_c7_complement(hosts[0])

    def test_one_twin_quotient_per_antihole_graph(self, monkeypatch):
        # recognize_t11_type counts the classes before it builds the
        # quotient, so a graph with the antihole and other than 11 classes
        # builds one, for the heptagram-type search, and a T11 blow-up one,
        # for its own recognizer
        built = []
        real = structures._twin_quotient
        monkeypatch.setattr(structures, "_twin_quotient", lambda h: built.append(h) or real(h))
        graphs = [c7_complement(), generate_t11_type([2, 1] * 5 + [3])[0]]
        graphs += [from_graph6(g6) for g6 in RECOGNIZER_MISSES]
        for g in graphs:
            built.clear()
            report = analyze_graph(g, structures=True, with_timings=False)
            assert report["flags"]["has_c7_complement"] and report["notes"] == []
            assert len(built) == 1, to_graph6(g)

    def test_facts_are_computed_once_on_first_read(self, monkeypatch):
        calls = []
        real = cli.find_odd_hole
        monkeypatch.setattr(cli, "find_odd_hole", lambda *args: calls.append(1) or real(*args))
        facts = GraphFacts(Graph.cycle(5), DEFAULT_BUDGET)
        assert calls == [] and vars(facts).keys() == {"g", "budget", "notes"}
        assert facts.odd_hole_free is False and facts.odd_hole_free is False
        assert calls == [1] and facts.notes == []


class TestVerify:
    def test_bound_enumerate_small(self, capsys):
        code, out, _ = run_cli(
            capsys,
            ["verify", "--theorem", "t1.4-bound", "--enumerate", "5", "--no-timings"],
        )
        assert code == 0
        (v,) = json_lines(out)
        assert v["theorem"] == "T1.4-bound"
        assert v["total"] == len(all_graphs_up_to(5)) == 53
        expected_population = sum(
            1
            for g in all_graphs_up_to(5)
            if not odd_holes_by_isomorphism(g) and not full_houses_by_degree(g)
        )
        assert v["population"] == expected_population
        assert v["violations"] == [] and v["inconclusive"] == 0
        assert v["seed"] is None

    @pytest.mark.parametrize("theorem,name", [
        ("t1.3", "T1.3"),
        ("t1.4-eq", "T1.4-equality"),
        ("perfection", "perfection-when-no-C7bar"),
    ])
    def test_other_theorems_clean(self, capsys, theorem, name):
        code, out, _ = run_cli(
            capsys,
            ["verify", "--theorem", theorem, "--enumerate", "5", "--no-timings"],
        )
        assert code == 0
        (v,) = json_lines(out)
        assert v["theorem"] == name and v["violations"] == []

    def test_dichotomy_on_antihole(self, capsys, tmp_path):
        path = tmp_path / "in.g6"
        path.write_text(C7BAR_G6 + "\n")
        code, out, _ = run_cli(
            capsys, ["verify", str(path), "--theorem", "t2.3", "--no-timings"]
        )
        assert code == 0
        (v,) = json_lines(out)
        assert v["population"] == 1 and v["violations"] == []

    def test_dichotomy_former_recognizer_misses_pass(self, capsys, tmp_path):
        # no harmonious cutset, and each is recognized as heptagram-type
        path = tmp_path / "in.g6"
        path.write_text("\n".join(RECOGNIZER_MISSES) + "\n")
        code, out, _ = run_cli(
            capsys, ["verify", str(path), "--theorem", "t2.3", "--no-timings"]
        )
        assert code == 0
        (v,) = json_lines(out)
        assert v["population"] == 5 and v["inconclusive"] == 0
        assert v["violations"] == []

    def test_seed_recorded(self, capsys, tmp_path):
        path = tmp_path / "in.g6"
        path.write_text(C5_G6 + "\n")
        code, out, _ = run_cli(
            capsys,
            ["verify", str(path), "--theorem", "t1.3", "--seed", "5", "--no-timings"],
        )
        assert code == 0
        (v,) = json_lines(out)
        assert v["seed"] == 5

    def test_inconclusive_exit_code(self, capsys, tmp_path):
        # the odd-hole search of this 44-vertex class member needs 4,616
        # steps, more than --budget allows, so the bound check cannot
        # finish and must say so rather than guess
        from heptalab.structures import generate_t11_type

        g, _ = generate_t11_type([4] * 11)
        path = tmp_path / "big.g6"
        path.write_text(to_graph6(g).decode() + "\n")
        code, out, _ = run_cli(
            capsys,
            ["verify", str(path), "--theorem", "t1.4-bound", "--budget", "1000", "--no-timings"],
        )
        assert code == 2
        (v,) = json_lines(out)
        assert v["inconclusive"] == 1 and v["violations"] == []

    def test_negative_budget_rejected(self, capsys):
        args = ["verify", "--theorem", "t1.3", "--enumerate", "5"]
        code, out, err = run_cli(capsys, args + ["--budget", "-5"])
        assert code == 3 and out == "" and "--budget must be at least 0, got -5" in err
        # zero is a budget: searches that need a step are inconclusive
        code, out, _ = run_cli(capsys, args + ["--budget", "0", "--no-timings"])
        (v,) = json_lines(out)
        assert code == 2 and v["budget"] == 0 and v["inconclusive"] > 0

    def test_missing_input(self, capsys):
        code, _, err = run_cli(capsys, ["verify", "--theorem", "t1.3"])
        assert code == 3 and "enumerate" in err.lower()

    def test_enumerate_cap(self, capsys):
        code, _, err = run_cli(
            capsys, ["verify", "--theorem", "t1.3", "--enumerate", "9"]
        )
        assert code == 3 and "at most" in err

    def test_bad_input_line(self, capsys, tmp_path):
        path = tmp_path / "in.g6"
        path.write_text("\x07bad\n")
        code, _, err = run_cli(
            capsys, ["verify", str(path), "--theorem", "t1.3"]
        )
        assert code == 3 and "line 1" in err

    @pytest.mark.parametrize("n", [-1, MAX_ENUMERATION_N + 1])
    def test_enumerate_out_of_range(self, capsys, n):
        code, out, err = run_cli(
            capsys, ["verify", "--theorem", "t1.3", "--enumerate", str(n)]
        )
        assert code == 3 and out == ""
        assert f"at least 0 and at most {MAX_ENUMERATION_N}" in err

    @pytest.mark.parametrize("n", [0, 1])
    def test_enumerate_range_ends_accepted(self, capsys, n):
        code, out, _ = run_cli(
            capsys,
            ["verify", "--theorem", "t1.3", "--enumerate", str(n), "--no-timings"],
        )
        (v,) = json_lines(out)
        assert code == 0 and v["total"] == len(all_graphs_up_to(n))

    def test_non_ascii_byte_in_file(self, capsys, tmp_path):
        path = tmp_path / "in.g6"
        path.write_bytes(NON_ASCII_FILE)
        code, out, err = run_cli(capsys, ["verify", str(path), "--theorem", "t1.3"])
        assert code == 3 and out == ""
        assert "line 2" in err and "non-ASCII" in err

    def test_deterministic_output(self, capsys):
        args = ["verify", "--theorem", "t1.4-eq", "--enumerate", "4", "--no-timings"]
        _, first, _ = run_cli(capsys, args)
        _, second, _ = run_cli(capsys, args)
        assert first == second

    def test_workers_match_serial(self, capsys):
        args = ["verify", "--theorem", "t1.4-bound", "--enumerate", "4", "--no-timings"]
        _, serial, _ = run_cli(capsys, args)
        _, parallel, _ = run_cli(capsys, args + ["--workers", "2"])
        assert serial == parallel

    def test_dichotomy_workers_match_serial(self, capsys, tmp_path):
        # the workers run the cutset search and both recognizers as well
        from heptalab.structures import generate_t11_type

        g, _ = generate_t11_type([1, 2] + [1] * 9)
        path = tmp_path / "in.g6"
        path.write_text(
            "\n".join((*RECOGNIZER_MISSES, C7BAR_G6, C5_G6, to_graph6(g).decode())) + "\n"
        )
        args = ["verify", str(path), "--theorem", "t2.3", "--no-timings"]
        code, serial, _ = run_cli(capsys, args)
        _, parallel, _ = run_cli(capsys, args + ["--workers", "2"])
        assert code == 0 and serial == parallel
        (v,) = json_lines(serial)
        assert v["population"] == 7 and v["inconclusive"] == 0


class TestGenerate:
    def test_t11_json_records(self, capsys):
        code, out, _ = run_cli(
            capsys, ["generate", "--kind", "t11", "--count", "2"]
        )
        assert code == 0
        recs = json_lines(out)
        assert [r["index"] for r in recs] == [0, 1]
        for rec in recs:
            assert rec["seed"] == 0
            assert rec["witness"]["kind"] == "t11_type"
            g = from_graph6(rec["graph6"])
            assert g.n == sum(len(p) for p in rec["witness"]["parts"])

    def test_default_seed_deterministic(self, capsys):
        args = ["generate", "--kind", "heptagram", "--count", "3"]
        _, first, _ = run_cli(capsys, args)
        _, second, _ = run_cli(capsys, args)
        assert first == second

    def test_fixed_sizes_minimal_heptagram(self, capsys):
        code, out, _ = run_cli(
            capsys,
            ["generate", "--kind", "heptagram", "--sizes", "1,1,1,1,1,1,1",
             "--ysizes", "0,0,0,0,0,0,0", "--g6-only"],
        )
        assert code == 0
        assert out.strip() == C7BAR_G6

    def test_g6_only_parses_clean(self, capsys):
        code, out, _ = run_cli(
            capsys,
            ["generate", "--kind", "t11", "--count", "4", "--seed", "9", "--g6-only"],
        )
        assert code == 0
        from heptalab.detect import find_full_house, find_odd_hole

        for line in out.splitlines():
            g = from_graph6(line)
            assert find_odd_hole(g) is None and find_full_house(g) is None

    def test_bad_sizes_string(self, capsys):
        code, _, err = run_cli(
            capsys, ["generate", "--kind", "t11", "--sizes", "a,b"]
        )
        assert code == 3 and "comma-separated" in err

    def test_negative_count_rejected(self, capsys):
        code, out, err = run_cli(capsys, ["generate", "--kind", "t11", "--count", "-2"])
        assert code == 3 and out == "" and "--count must be at least 0" in err
        code, out, err = run_cli(capsys, ["generate", "--kind", "t11", "--count", "0"])
        assert (code, out, err) == (0, "", "")

    def test_zero_size_rejected(self, capsys):
        code, _, err = run_cli(
            capsys,
            ["generate", "--kind", "t11", "--sizes", "0,1,1,1,1,1,1,1,1,1,1"],
        )
        assert code == 3 and "generation failed" in err

    def test_consecutive_outer_rejected(self, capsys):
        code, _, err = run_cli(
            capsys,
            ["generate", "--kind", "heptagram", "--sizes", "1,1,1,1,1,1,1",
             "--ysizes", "1,1,1,0,0,0,0"],
        )
        assert code == 3 and "rule 10" in err


class TestDecompose:
    def test_path_has_cut_vertex(self, capsys, tmp_path):
        path = tmp_path / "in.g6"
        path.write_text(P4_G6 + "\n")
        code, out, _ = run_cli(capsys, ["decompose", str(path)])
        assert code == 0
        (rec,) = json_lines(out)
        assert rec["status"] == "found"
        p = HarmoniousPartition(
            tuple(frozenset(part) for part in rec["partition"]["parts"]),
            tuple(frozenset(side) for side in rec["partition"]["sides"]),
        )
        assert verify_harmonious(Graph.path(4), p).status == "yes"

    def test_antihole_certified_none(self, capsys, tmp_path):
        path = tmp_path / "in.g6"
        path.write_text(C7BAR_G6 + "\n")
        code, out, _ = run_cli(capsys, ["decompose", str(path)])
        assert code == 0
        (rec,) = json_lines(out)
        assert rec["status"] == "none" and rec["partition"] is None

    def test_zero_budget_inconclusive(self, capsys, tmp_path):
        path = tmp_path / "in.g6"
        path.write_text(P4_G6 + "\n")
        code, out, _ = run_cli(capsys, ["decompose", str(path), "--budget", "0"])
        assert code == 2
        (rec,) = json_lines(out)
        assert rec["status"] == "inconclusive"

    def test_negative_budget_rejected(self, capsys, tmp_path):
        path = tmp_path / "in.g6"
        path.write_text(P4_G6 + "\n")
        code, out, err = run_cli(capsys, ["decompose", str(path), "--budget", "-1"])
        assert code == 3 and out == "" and "--budget must be at least 0, got -1" in err

    def test_non_ascii_byte_in_file(self, capsys, tmp_path):
        path = tmp_path / "in.g6"
        path.write_bytes(NON_ASCII_FILE)
        code, out, _ = run_cli(capsys, ["decompose", str(path)])
        assert code == 3
        recs = json_lines(out)
        assert [r.get("graph6") for r in recs] == ["Bw", None, "Dhc"]
        assert recs[1]["line"] == 2 and "non-ASCII" in recs[1]["error"]

    def test_disconnected_rejected(self, capsys, tmp_path):
        path = tmp_path / "in.g6"
        path.write_text(to_graph6(Graph.empty(2)).decode() + "\n")
        code, out, _ = run_cli(capsys, ["decompose", str(path)])
        assert code == 3
        (rec,) = json_lines(out)
        assert "connected" in rec["error"]


class TestEntryPoints:
    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0

    def test_unknown_command(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2

    def test_console_script(self):
        # Run the console script that pyproject.toml declares the way the
        # wrapper generated from that declaration does, against the package
        # under test rather than any installed copy or any executable on PATH.
        tomllib = pytest.importorskip("tomllib")
        pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
        with pyproject.open("rb") as fh:
            target = tomllib.load(fh)["project"]["scripts"]["heptalab"]
        module, _, attr = target.partition(":")
        launcher = (
            "import importlib, sys\n"
            "func = getattr(importlib.import_module(sys.argv[1]), sys.argv[2])\n"
            "sys.argv = ['heptalab'] + sys.argv[3:]\n"
            "sys.exit(func())\n"
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = str(Path(heptalab.__file__).resolve().parents[1])
        proc = subprocess.run(
            [sys.executable, "-c", launcher, module, attr,
             "generate", "--kind", "heptagram", "--sizes", "1,1,1,1,1,1,1",
             "--ysizes", "0,0,0,0,0,0,0", "--g6-only"],
            capture_output=True,
            text=True,
            timeout=60,
            env=env,
        )
        assert proc.returncode == 0, (
            f"{target} exited {proc.returncode}:\n{proc.stderr}"
        )
        assert proc.stdout.strip() == C7BAR_G6, (
            f"{target} printed {proc.stdout!r}:\n{proc.stderr}"
        )
