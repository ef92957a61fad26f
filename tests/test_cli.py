import importlib
import itertools
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tgaug import steiner_expansion as exp_mod
from tgaug.augmentation import Infeasible, Solution
from tgaug.cli import main
from tgaug.octo import parse_matrix
from tgaug.reductions import parse_dimacs, parse_set_system, parse_static_graph
from tgaug.temporal_graph import ParseError, TemporalEdge, parse_candidates, parse_tg

SRC = Path(__file__).resolve().parents[1] / "src"
BENCHMARKS = SRC.parent / "benchmarks"

GRAPH = "V 3\nE 0 1 1\n"
CANDIDATES = "E 1 2 1\n"


def write_bundle(tmp_path, manifest, candidates=CANDIDATES, graph=GRAPH):
    (tmp_path / "g.tg").write_text(graph)
    (tmp_path / "c.cand").write_text(candidates)
    (tmp_path / "m.mat").write_text("2 2\n1 0\n0 1\n")
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps(manifest))
    return str(path)


def tca(**fields):
    manifest = {"kind": "tca", "graph": "g.tg", "candidates": "c.cand"}
    manifest.update(fields)
    return manifest


class TestExitCodes:
    def test_feasible_is_0(self, tmp_path, capsys):
        assert main(["solve", write_bundle(tmp_path, tca())]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["feasible"] and out["cost"] == 1
        assert out["selected"] == [{"u": 1, "v": 2, "t": 1}]

    def test_infeasible_is_1(self, tmp_path, capsys):
        assert main(["solve", write_bundle(tmp_path, tca(), candidates="")]) == 1
        out = json.loads(capsys.readouterr().out)
        assert not out["feasible"] and out["reason"] == "infeasible"

    def test_malformed_is_2(self, tmp_path, capsys):
        path = write_bundle(tmp_path, tca())
        Path(path).write_text("{not json")
        assert main(["solve", path]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("error:")

    def test_deeply_nested_manifest_is_2(self, tmp_path, capsys):
        path = write_bundle(tmp_path, tca())
        Path(path).write_text("[" * 100_000 + "]" * 100_000)
        assert main(["solve", path]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("error: manifest ")

    @pytest.mark.parametrize("engine", ["auto", "subset"])
    def test_empty_vertex_set_costs_0(self, tmp_path, capsys, engine):
        path = write_bundle(tmp_path, tca(), candidates="", graph="T 1\nV 0\n")
        assert main(["solve", path, "--engine", engine]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["feasible"] and out["cost"] == 0 and out["selected"] == []

    @pytest.mark.parametrize(
        "manifest, flags",
        [
            ({"kind": "octo", "matrix": "m.mat", "budget": -1}, []),
            ({"kind": "octo", "matrix": "m.mat"}, ["--budget", "-3"]),
            (tca(budget=-1), []),
            (tca(), ["--budget", "-3"]),
        ],
    )
    def test_negative_budget_is_2(self, tmp_path, capsys, manifest, flags):
        assert main(["solve", write_bundle(tmp_path, manifest), *flags]) == 2
        assert capsys.readouterr() == ("", "error: budget must be non-negative\n")

    @pytest.mark.parametrize(
        "manifest",
        [
            tca(requirement={"type": "pairs", "pairs": 5}),
            tca(budget="3"),
            tca(lifespan="3"),
            tca(requirement=[1]),
            tca(requirement={"type": "source", "vertex": [0]}),
            tca(graph=5),
            tca(budget=True),
            tca(budget=2.5),
            tca(requirement={"type": "pairs", "pairs": [[0, 2]], "demand": "1"}),
            {"kind": "octo", "matrix": 5},
            {"kind": "octo", "matrix": "m.mat", "budget": "2"},
        ],
    )
    def test_malformed_manifest_fields_are_input_errors(self, tmp_path, capsys, manifest):
        assert main(["solve", write_bundle(tmp_path, manifest)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: manifest field")

    @pytest.mark.parametrize(
        "field", ["kind", "semantics", "cost_model", "budget", "lifespan", "candidates", "requirement"]
    )
    def test_null_field_means_absent(self, tmp_path, capsys, field):
        absent = tca(requirement={"type": "pairs", "pairs": [[0, 2]]})
        absent.pop(field, None)
        runs = []
        for manifest in (absent, {**absent, field: None}):
            code = main(["solve", write_bundle(tmp_path, manifest)])
            runs.append((code, capsys.readouterr()))
        assert runs[0] == runs[1]
        assert runs[0][0] in (0, 1) and runs[0][1].err == ""

    def test_negative_lifespan_is_2(self, tmp_path, capsys):
        assert main(["solve", write_bundle(tmp_path, tca(lifespan=-4))]) == 2
        assert capsys.readouterr() == ("", "error: lifespan must be non-negative\n")


class TestSolutionCheck:
    @pytest.mark.parametrize("engine", ["subset", "expansion"])
    def test_failed_verification_prints_no_solution_under_O(self, tmp_path, engine):
        path = write_bundle(tmp_path, tca(requirement={"type": "pairs", "pairs": [[0, 2]]}))
        script = (
            "import sys\n"
            "import tgaug.augmentation as aug, tgaug.steiner_expansion as exp\n"
            "aug.verify_solution = exp.verify_solution = lambda *args: False\n"
            "from tgaug.cli import main\n"
            "sys.exit(main(sys.argv[1:]))\n"
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-O", "-c", script, "solve", path, "--engine", engine],
            capture_output=True,
            text=True,
            env=env,
            timeout=120,
        )
        assert proc.returncode == 3
        assert proc.stdout == ""
        assert "Traceback" not in proc.stderr
        assert proc.stderr.startswith("error: internal: ")
        assert "does not meet the requirement" in proc.stderr

    def test_engine_disagreement_is_an_internal_error(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(exp_mod, "solve_tpca_via_expansion", lambda problem: Solution((), 0))
        path = write_bundle(tmp_path, tca(requirement={"type": "pairs", "pairs": [[0, 2]]}))
        assert main(["solve", path, "--engine", "subset", "--cross-check"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            'error: internal: engine disagreement: {"cost":1,"feasible":true,"model":"edge",'
            '"schema":1,"selected":[{"t":1,"u":1,"v":2}],"semantics":"non-strict"} != '
            '{"cost":0,"feasible":true,"model":"edge","schema":1,"selected":[],'
            '"semantics":"non-strict"}\n'
        )

    @pytest.mark.parametrize(
        "budget, other",
        [
            (0, Infeasible("infeasible")),  # the subset engine reports budget_exceeded
            (None, Solution((TemporalEdge(0, 2, 1),), 1)),  # same cost, another selection
        ],
    )
    def test_cross_check_compares_the_whole_outcome(
        self, tmp_path, capsys, monkeypatch, budget, other
    ):
        monkeypatch.setattr(exp_mod, "solve_tpca_via_expansion", lambda problem: other)
        manifest = tca(requirement={"type": "pairs", "pairs": [[0, 2]]}, budget=budget)
        path = write_bundle(tmp_path, manifest)
        assert main(["solve", path, "--engine", "subset"]) == (1 if budget == 0 else 0)
        capsys.readouterr()
        assert main(["solve", path, "--engine", "subset", "--cross-check"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: internal: engine disagreement: ")

    def test_cross_check_runs_whatever_the_size(self, tmp_path, capsys, monkeypatch):
        calls = []
        monkeypatch.setattr(
            exp_mod, "solve_tpca_via_expansion", lambda problem: calls.append(1) or Solution((), 0)
        )
        candidates = "".join(f"E {u} {v} 2\n" for u, v in itertools.combinations(range(6), 2))
        manifest = tca(requirement={"type": "pairs", "pairs": [[0, 5]]})
        path = write_bundle(tmp_path, manifest, candidates, graph="V 6\nE 0 1 1\n")
        assert main(["solve", path, "--engine", "subset", "--cross-check"]) == 3
        assert len(calls) == 1
        assert capsys.readouterr().err.startswith("error: internal: engine disagreement: ")

    @pytest.mark.parametrize(
        "requirement", [{"type": "all"}, {"type": "source", "vertex": 0}], ids=["all", "source"]
    )
    def test_cross_check_takes_every_requirement(self, tmp_path, capsys, requirement):
        path = write_bundle(tmp_path, tca(requirement=requirement))
        outputs = {}
        for engine in ("subset", "expansion"):
            assert main(["solve", path, "--engine", engine, "--cross-check"]) == 0
            data = json.loads(capsys.readouterr().out)
            assert data.pop("engine") == engine
            outputs[engine] = data
        assert outputs["expansion"] == outputs["subset"]
        assert outputs["subset"]["selected"] == [{"u": 1, "v": 2, "t": 1}]
        assert main(["expand", path, "--format", "json"]) == 0
        assert json.loads(capsys.readouterr().out)["node_count"] == 3 * 2 + 2 * 2

    def test_cross_check_without_an_expansion_instance_is_2(self, tmp_path, capsys):
        manifest = tca(requirement={"type": "pairs", "pairs": [[0, 2]]}, cost_model="group")
        assert main(["solve", write_bundle(tmp_path, manifest), "--cross-check"]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "per-edge cost model" in captured.err

    def test_engines_agree_past_twenty_gates(self, tmp_path, capsys):
        graph = "V 8\nE 0 1 1\nE 1 2 2\n"
        candidates = "".join(
            f"E {u} {v} {t}\n"
            for t in (1, 2)
            for u, v in itertools.combinations(range(8), 2)
            if (u, v, t) not in {(0, 1, 1), (1, 2, 2)}
        )
        assert candidates.count("\n") == 54
        manifest = tca(requirement={"type": "pairs", "pairs": [[0, 7]]})
        path = write_bundle(tmp_path, manifest, candidates, graph)
        outputs = {}
        for engine in ("expansion", "subset"):
            assert main(["solve", path, "--engine", engine, "--cross-check"]) == 0
            data = json.loads(capsys.readouterr().out)
            assert data.pop("engine") == engine
            outputs[engine] = data
        assert outputs["expansion"] == outputs["subset"]
        assert outputs["subset"]["selected"] == [{"u": 0, "v": 7, "t": 1}]


class TestSuccessiveCalls:
    """``main`` reuses one argument parser; no call may see a flag of the one before."""

    @staticmethod
    def fresh(argv, cwd):
        """Exit code, stdout and stderr of ``argv`` in a new process."""
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-m", "tgaug.cli", *argv],
            capture_output=True,
            text=True,
            env=env,
            cwd=cwd,
            timeout=120,
        )
        return proc.returncode, proc.stdout, proc.stderr

    @pytest.fixture
    def bundle(self, tmp_path, monkeypatch):
        # non-strict connected, strict not; the solve costs one edge, so budget 0 falls short
        (tmp_path / "g").write_text("V 3\nE 0 1 1\nE 1 2 1\n")
        (tmp_path / "h.tg").write_text("V 3\nE 0 1 1\n")
        (tmp_path / "c.cand").write_text("E 1 2 1\nE 0 2 2\n")
        (tmp_path / "m").write_text(json.dumps({"graph": "h.tg", "candidates": "c.cand"}))
        monkeypatch.chdir(tmp_path)
        return tmp_path

    def test_each_call_matches_a_fresh_process(self, bundle, capsys):
        runs = [
            ["solve", "m", "--budget", "0"],
            ["solve", "m"],
            ["check", "g", "--semantics", "strict"],
            ["check", "g"],
        ]
        outputs = []
        for argv in runs:
            code = main(argv)
            captured = capsys.readouterr()
            outputs.append((code, captured.out, captured.err))
        assert [code for code, _, _ in outputs] == [1, 0, 1, 0]
        assert outputs == [self.fresh(argv, bundle) for argv in runs]

    def test_a_usage_error_leaves_the_next_call_intact(self, bundle, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["check", "g", "--semantics", "strict", "--no-such-flag"])
        assert exc.value.code == 2
        assert "--no-such-flag" in capsys.readouterr().err
        code = main(["check", "g"])
        captured = capsys.readouterr()
        assert (code, captured.out, captured.err) == self.fresh(["check", "g"], bundle)
        assert code == 0


class TestReduce:
    def test_3sat_sets_its_own_budget(self, tmp_path, capsys):
        (tmp_path / "f.cnf").write_text("p cnf 3 2\n1 -2 3 0\n-1 2 3 0\n")
        runs = []
        for budget in ([], ["99"]):
            out = tmp_path / f"out{len(runs)}"
            argv = ["reduce", "3sat", str(tmp_path / "f.cnf"), *budget, "--out", str(out)]
            assert main(argv) == 0
            captured = capsys.readouterr()
            bundle = {f.name: f.read_bytes() for f in out.iterdir()}
            runs.append((captured.out, bundle, captured.err))
        assert runs[0][:2] == runs[1][:2]
        assert b'"budget":6' in runs[0][1]["manifest.json"]
        assert [err for _, _, err in runs] == [
            "",
            "note: 3sat sets its own budget; ignoring the given one\n",
        ]

    @pytest.mark.parametrize("kind", ["ds", "hs", "dsc"])
    def test_other_gadgets_need_a_budget(self, tmp_path, capsys, kind):
        (tmp_path / "src.txt").write_text("V 2\nE 0 1\n" if kind == "ds" else "U 2\nS 0: 0 1\n")
        out = tmp_path / "out"
        assert main(["reduce", kind, str(tmp_path / "src.txt"), "--out", str(out)]) == 2
        assert capsys.readouterr() == ("", f"error: reduce {kind} needs a budget\n")
        assert not out.exists()

    def test_dsc_cover_target_beyond_the_sets_is_2(self, tmp_path, capsys):
        (tmp_path / "sets.txt").write_text("U 2\nS 0: 0\nS 1: 1\n")
        out = tmp_path / "out"
        assert main(["reduce", "dsc", str(tmp_path / "sets.txt"), "5", "--out", str(out)]) == 2
        assert capsys.readouterr() == ("", "error: cover target 5 exceeds the 2 sets\n")
        assert not (out / "manifest.json").exists()


class TestSourceParsers:
    @pytest.mark.parametrize(
        "parse, text",
        [
            (lambda text: parse_static_graph(text, 1), "V x\n"),
            (lambda text: parse_static_graph(text, 1), "V -2\nE 0 1\n"),
            (lambda text: parse_set_system(text, 1), "U x\n"),
            (lambda text: parse_set_system(text, 1), "U -1\nS 0:\n"),
            (parse_dimacs, "p cnf x 1\n"),
            (parse_dimacs, "p cnf 3 x\n1 2 3 0\n"),
        ],
    )
    def test_bad_count_reports_its_line(self, parse, text):
        with pytest.raises(ParseError, match="line 1"):
            parse(text)

    @pytest.mark.parametrize(
        "text, line, message",
        [
            ("p cnf 2 1\n1 -5 2 0\n", 2, "literal -5 out of range"),
            ("p cnf 3 2\n1 2 3 0\n2 -1 -2 0\n", 3, "a clause may not contain a variable and its negation"),
            ("p cnf 3 1\n1 -3\n3 0\n", 3, "a clause may not contain a variable and its negation"),
            ("c none\np cnf 0 1\n1 0\n", 2, "need at least one variable"),
            ("p cnf 1 0\n", 1, "need at least one clause"),
        ],
    )
    def test_dimacs_literal_errors_report_their_line(self, text, line, message):
        with pytest.raises(ParseError, match=f"^line {line}: {message}$"):
            parse_dimacs(text)

    def test_dimacs_literal_error_exits_2(self, tmp_path, capsys):
        (tmp_path / "f.cnf").write_text("p cnf 2 1\n1 -5 2 0\n")
        assert main(["reduce", "3sat", str(tmp_path / "f.cnf"), "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr() == ("", "error: line 2: literal -5 out of range\n")

    def test_dimacs_takes_one_problem_line(self):
        with pytest.raises(ParseError, match="line 2: duplicate problem line"):
            parse_dimacs("p cnf 3 1\np cnf 4 1\n1 2 3 0\n-4 1 2 0\n")

    @pytest.mark.parametrize("clauses, given", [("1 2 3 0\n", 1), ("1 2 3 0\n-1 0\n2 0\n", 3)])
    def test_dimacs_clause_count_must_match(self, clauses, given):
        with pytest.raises(ParseError, match=f"line 1: 2 clauses declared, {given} given"):
            parse_dimacs("p cnf 3 2\n" + clauses)


READERS = {
    "tg": parse_tg,
    "cand": parse_candidates,
    "static": lambda text: parse_static_graph(text, 1),
    "sets": lambda text: parse_set_system(text, 1),
    "dimacs": parse_dimacs,
    "matrix": parse_matrix,
}

TOKENS = st.one_of(
    st.sampled_from(["V", "T", "E", "U", "S", "p", "c", "cnf", ":", "#", "0:", "Universe", "px"]),
    st.integers(-3, 6).map(str),
    st.sampled_from([str(-(10**30)), str(10**30), "1.5", "0x1", "x"]),
    st.text(max_size=3),
)
RECORD_TEXTS = st.lists(st.lists(TOKENS, max_size=6).map(" ".join), max_size=8).map("\n".join)


class TestRecordReaders:
    """Every text reader: only ``ValueError`` escapes, keywords and counts are exact."""

    @settings(max_examples=300, deadline=None)
    @given(RECORD_TEXTS)
    def test_only_value_errors_escape(self, text):
        for parse in READERS.values():
            try:
                parse(text)
            except ValueError:
                pass

    @pytest.mark.parametrize(
        "reader, text, line, message",
        [
            ("sets", "Universe 2\nS 0: 0 1\n", 1, "expected 'U <n>' or 'S <i>: ...'"),
            ("sets", "U 2\nSet 0: 0 1\n", 2, "expected 'U <n>' or 'S <i>: ...'"),
            ("dimacs", "px cnf 3 1\n1 2 3 0\n", 1, "clause before the problem line"),
            ("dimacs", "p cnf 3 1\npx cnf 3 1\n1 2 3 0\n", 2, "expected integer literal"),
            ("matrix", "-1 2\n", 1, "row or column count must be at least 1"),
            ("matrix", "0 0\n", 1, "row or column count must be at least 1"),
            ("matrix", "2 0\n", 1, "row or column count must be at least 1"),
        ],
    )
    def test_keywords_and_counts_are_exact(self, reader, text, line, message):
        with pytest.raises(ParseError, match=f"^line {line}: {re.escape(message)}$"):
            READERS[reader](text)

    def test_inexact_keyword_exits_2(self, tmp_path, capsys):
        (tmp_path / "sets.txt").write_text("Universe 2\nSet 0: 0 1\n")
        out = tmp_path / "out"
        assert main(["reduce", "hs", str(tmp_path / "sets.txt"), "1", "--out", str(out)]) == 2
        assert capsys.readouterr() == ("", "error: line 1: expected 'U <n>' or 'S <i>: ...'\n")
        assert not (out / "manifest.json").exists()


GOLDEN_FILES = {
    "path.tg": "V 4\nE 0 1 1\nE 1 2 2\nE 2 3 2\n",
    "g.tg": "V 4\nE 0 1 1\nE 1 2 1\nE 2 3 2\n",
    "g.cand": "E 0 3 1\nE 0 2 2\nE 1 3 2\nE 0 3 2\nE 3 1 1\n",
    "all.json": {"kind": "tca", "graph": "g.tg", "candidates": "g.cand", "semantics": "strict"},
    "pairs.json": {
        "kind": "tca",
        "graph": "g.tg",
        "candidates": "g.cand",
        "requirement": {"type": "pairs", "pairs": [[3, 0], [2, 0]]},
        "semantics": "strict",
    },
    "one.tg": "V 5\nE 0 1 1\nE 2 3 1\nE 3 4 1\n",
    "one.cand": "".join(f"E {u} {v} 2\n" for u in range(5) for v in range(u + 1, 5)),
    "one.json": {"kind": "tca", "graph": "one.tg", "candidates": "one.cand"},
    "m.mat": "4 4\n1 1 0 0\n0 1 1 1\n0 0 1 0\n0 0 0 0\n",
    "octo.json": {"kind": "octo", "matrix": "m.mat"},
    "sets.txt": "U 2\nS 0: 0 1\nS 1: 0\nS 2: 1\nS 3: 0\n",
    "tiny.tg": "V 3\nE 0 1 1\n",
    "tiny.cand": "E 1 2 2\n",
    "tiny.json": {
        "kind": "tca",
        "graph": "tiny.tg",
        "candidates": "tiny.cand",
        "requirement": {"type": "pairs", "pairs": [[0, 2]]},
    },
    "static.txt": "V 3\nE 0 1\n",
    "f.cnf": "p cnf 3 1\n1 -2 3 0\n",
}


def write_golden_files(tmp_path, monkeypatch):
    for name, content in GOLDEN_FILES.items():
        text = content if isinstance(content, str) else json.dumps(content)
        (tmp_path / name).write_text(text)
    monkeypatch.chdir(tmp_path)

GOLDEN_EXPANSION = (
    '{"arc_count":16,"arcs":[{"dst":1,"src":0,"weight":0},{"dst":2,"src":1,"weight":0},'
    '{"dst":4,"src":3,"weight":0},{"dst":5,"src":4,"weight":0},{"dst":7,"src":6,"weight":0},'
    '{"dst":8,"src":7,"weight":0},{"dst":9,"src":0,"weight":0},{"dst":9,"src":3,"weight":0},'
    '{"dst":10,"src":9,"weight":0},{"dst":1,"src":10,"weight":0},{"dst":4,"src":10,"weight":0},'
    '{"dst":11,"src":4,"weight":0},{"dst":11,"src":7,"weight":0},{"dst":12,"src":11,"weight":1},'
    '{"dst":5,"src":12,"weight":0},{"dst":8,"src":12,"weight":0}],"lifespan":2,"n":3,'
    '"node_count":13,"nodes":[{"kind":"copy","label":"0@1"},{"kind":"copy","label":"0@2"},'
    '{"kind":"copy","label":"0@3"},{"kind":"copy","label":"1@1"},{"kind":"copy","label":"1@2"},'
    '{"kind":"copy","label":"1@3"},{"kind":"copy","label":"2@1"},{"kind":"copy","label":"2@2"},'
    '{"kind":"copy","label":"2@3"},{"kind":"gate_in","label":"0-1@1.in"},'
    '{"kind":"gate_out","label":"0-1@1.out"},{"kind":"gate_in","label":"1-2@2.in"},'
    '{"kind":"gate_out","label":"1-2@2.out"}],"schema":1,"semantics":"non-strict"}\n'
)


class TestGoldenOutput:
    """Exact stdout and exit code of each subcommand on tiny fixed inputs."""

    @pytest.fixture
    def run(self, tmp_path, capsys, monkeypatch):
        write_golden_files(tmp_path, monkeypatch)

        def run(*argv):
            code = main(list(argv))
            captured = capsys.readouterr()
            assert captured.err == ""
            return code, captured.out

        return run

    def test_check(self, run):
        assert run("check", "path.tg") == (
            1,
            '{"components_per_time":{"1":[[0,1],[2],[3]],"2":[[0],[1,2,3]]},"connected":false,'
            '"lifespan":2,"n":4,"schema":1,"semantics":"non-strict"}\n',
        )
        assert run("check", "path.tg", "--format", "text", "--semantics", "strict") == (
            1,
            "n=4 lifespan=2 semantics=strict\nt=1: {0,1} {2} {3}\nt=2: {0} {1,2,3}\nnot connected\n",
        )

    def test_solve_subset(self, run):
        assert run("solve", "all.json", "--engine", "subset") == (
            0,
            '{"cost":3,"engine":"subset","feasible":true,"model":"edge","schema":1,"selected":'
            '[{"t":1,"u":0,"v":3},{"t":1,"u":1,"v":3},{"t":2,"u":0,"v":2}],"semantics":"strict"}\n',
        )

    def test_solve_expansion(self, run):
        assert run("solve", "pairs.json", "--engine", "expansion") == (
            0,
            '{"cost":2,"engine":"expansion","feasible":true,"model":"edge","schema":1,"selected":'
            '[{"t":1,"u":0,"v":3},{"t":2,"u":0,"v":2}],"semantics":"strict"}\n',
        )

    def test_solve_one_plus_one(self, run):
        assert run("solve", "one.json") == (
            0,
            '{"cost":3,"engine":"one-plus-one","feasible":true,"model":"edge","schema":1,'
            '"selected":[{"t":2,"u":0,"v":2},{"t":2,"u":0,"v":4},{"t":2,"u":1,"v":3}],'
            '"semantics":"non-strict"}\n',
        )

    def test_solve_octo(self, run):
        assert run("solve", "octo.json") == (
            0,
            '{"feasible":true,"min_combinations":3,"schema":1,"sequence":['
            '{"axis":"rows","i":0,"j":3},{"axis":"rows","i":0,"j":1},'
            '{"axis":"rows","i":0,"j":2}],"status":"solved"}\n',
        )

    def test_reduce_dsc_then_solve(self, run):
        assert run("reduce", "dsc", "sets.txt", "2", "--out", "dsc") == (
            0,
            "matrix 10x4 budget 2\n",
        )
        assert run("solve", "dsc/manifest.json") == (
            0,
            '{"feasible":true,"min_combinations":2,"schema":1,"sequence":['
            '{"axis":"cols","i":0,"j":1},{"axis":"cols","i":2,"j":3}],"status":"solved"}\n',
        )

    def test_expand_json(self, run):
        assert run("expand", "tiny.json", "--format", "json") == (0, GOLDEN_EXPANSION)


REPLAY_RUNS = [
    [["check", "path.tg", "--semantics", "strict"]],
    [["solve", "all.json"]],
    [["solve", "all.json", "--engine", "subset"]],
    [["solve", "pairs.json", "--engine", "expansion"]],
    [["solve", "one.json"]],
    [["solve", "octo.json"]],
    [
        ["reduce", "ds", "static.txt", "2", "--out", "ds", "--mode", "unrestricted"],
        ["solve", "ds/manifest.json"],
    ],
    [["reduce", "hs", "sets.txt", "2", "--out", "hs"], ["solve", "hs/manifest.json"]],
    [["reduce", "dsc", "sets.txt", "2", "--out", "dsc"], ["solve", "dsc/manifest.json"]],
    [["reduce", "3sat", "f.cnf", "0", "--out", "sat"], ["solve", "sat/manifest.json"]],
    [["expand", "tiny.json", "--format", "dot"]],
    [["expand", "tiny.json", "--format", "json"]],
]


class TestBenchmarkReplay:
    """The benchmark's traced replay of each task kind it runs matches the CLI."""

    @pytest.fixture(scope="class")
    def replay(self):
        sys.path.insert(0, str(BENCHMARKS))
        try:
            return importlib.import_module("replay")
        finally:
            sys.path.remove(str(BENCHMARKS))

    @pytest.mark.parametrize("steps", REPLAY_RUNS, ids=lambda steps: " ".join(steps[0]))
    def test_replay_matches_the_cli(self, replay, steps, tmp_path, capsys, monkeypatch):
        write_golden_files(tmp_path, monkeypatch)
        for argv in steps:
            code = main(argv)
            out = capsys.readouterr().out
            assert code in (0, 1)
            written = {f: f.read_bytes() for f in tmp_path.rglob("*") if f.is_file()}
            assert replay.replay(argv, replay.Tracer()) == (code, out)
            assert {f: f.read_bytes() for f in tmp_path.rglob("*") if f.is_file()} == written

    def test_negative_octo_budget_is_2(self, replay, tmp_path, capsys, monkeypatch):
        write_golden_files(tmp_path, monkeypatch)
        (tmp_path / "m.mat").write_text("2 2\n1 0\n0 1\n")
        argv = ["solve", "octo.json", "--budget", "-3"]
        assert main(argv) == 2
        assert capsys.readouterr().out == ""
        assert replay.replay(argv, replay.Tracer()) == (2, "")
