import argparse
import importlib
import itertools
import json
import os
import random
import re
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tgaug import augmentation as aug_mod
from tgaug import octo as octo_mod
from tgaug import steiner_expansion as exp_mod
from tgaug.augmentation import COST_EDGE, All, Infeasible, Solution
from tgaug.cli import _detect_one_plus_one, _problem_from_manifest, main
from tgaug.octo import ROWS, MergeStep, OctoResult, parse_matrix
from tgaug.reductions import parse_dimacs, parse_set_system, parse_static_graph
from tgaug.temporal_graph import NON_STRICT, ParseError, TemporalEdge, parse_candidates, parse_tg

SRC = Path(__file__).resolve().parents[1] / "src"
BENCHMARKS = SRC.parent / "benchmarks"

GRAPH = "V 3\nE 0 1 1\n"
CANDIDATES = "E 1 2 1\n"


def write_bundle(tmp_path, manifest, candidates=CANDIDATES, graph=GRAPH):
    (tmp_path / "g.tg").write_text(graph)
    (tmp_path / "c.cand").write_text(candidates)
    (tmp_path / "outside.cand").write_text("E 1 5 1\n")  # an endpoint past the graph's 0..2
    (tmp_path / "late.cand").write_text("E 1 2 4\n")  # past a declared lifespan below 4
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

    def test_negative_candidate_endpoint_names_its_line(self, tmp_path, capsys):
        assert main(["solve", write_bundle(tmp_path, tca(), candidates="E -1 2 1\n")]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "line 1: endpoint must be non-negative" in captured.err

    @pytest.mark.parametrize(
        "graph, message",
        [
            ("V 3\nE 0 3 1\n", "line 2: endpoint out of range 0..2"),
            ("V 3\nE 0 1 1 2\nE 1 0 2\n", "line 3: duplicate temporal edge {0,1}@2"),
        ],
        ids=["range", "repeat"],
    )
    def test_check_of_a_bad_graph_is_2(self, tmp_path, capsys, graph, message):
        (tmp_path / "g.tg").write_text(graph)
        assert main(["check", str(tmp_path / "g.tg")]) == 2
        assert capsys.readouterr() == ("", f"error: {message}\n")

    @pytest.mark.parametrize("command", ["check", "solve"])
    def test_a_missing_file_is_2(self, tmp_path, capsys, command):
        manifest = write_bundle(tmp_path, tca(graph="none.tg"))
        missing = str(tmp_path / "none.tg")
        assert main([command, missing if command == "check" else manifest]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and missing in captured.err
        assert "Traceback" not in captured.err

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
            tca(requirement={}),
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
        "pairs", [[[0, True]], [[0, 1.5]], [[0, "1"]], [[0]], [[0, 1, 2]], [0, 1]]
    )
    def test_pairs_must_be_integer_pairs(self, tmp_path, capsys, pairs):
        path = write_bundle(tmp_path, tca(requirement={"type": "pairs", "pairs": pairs}))
        assert main(["solve", path]) == 2
        message = f"error: manifest field 'pairs' must hold [u, v] integer pairs, got {pairs!r}\n"
        assert capsys.readouterr() == ("", message)

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

    @pytest.mark.parametrize(
        "command, manifest, message",
        [
            ("solve", [1], "manifest must be a JSON object"),
            ("solve", {"kind": "matrix"}, "unknown manifest kind 'matrix'"),
            ("solve", tca(requirement={"type": "cycle"}), "unknown requirement type 'cycle'"),
            ("expand", {"kind": "octo", "matrix": "m.mat"}, "expansion needs a tca manifest"),
            (
                "solve",
                tca(requirement={"type": "pairs", "pairs": [[0, 1]], "demand": 2}),
                "demand must lie between 0 and the number of pairs",
            ),
            ("solve", tca(candidates="outside.cand"), "edge {1,5}@1 has endpoints outside 0..2"),
            (
                "solve",
                tca(candidates="late.cand", lifespan=2),
                "candidate {1,2}@4 exceeds the lifespan 2",
            ),
        ],
    )
    def test_bad_manifest_is_2(self, tmp_path, capsys, command, manifest, message):
        assert main([command, write_bundle(tmp_path, manifest)]) == 2
        assert capsys.readouterr() == ("", f"error: {message}\n")

    @pytest.mark.parametrize(
        "manifest, candidates, graph, flags, code, stdout",
        [
            (tca(), CANDIDATES, GRAPH, ["--format", "text"], 0, "cost 1: {1,2}@1\n"),
            (
                tca(requirement={"type": "pairs", "pairs": [[0, 1]]}),
                CANDIDATES,
                GRAPH,
                ["--format", "text"],
                0,
                "cost 0: (nothing to add)\n",
            ),
            (tca(budget=0), CANDIDATES, GRAPH, ["--format", "text"], 1, "budget_exceeded\n"),
            (
                tca(),
                CANDIDATES,
                GRAPH,
                ["--cost", "group"],
                0,
                '{"cost":1,"engine":"subset","feasible":true,"groups":[[1,2]],"model":"group",'
                '"schema":1,"selected":[{"t":1,"u":1,"v":2}],"semantics":"non-strict"}\n',
            ),
            (
                tca(budget=0),
                "E 0 1 2\nE 0 2 2\nE 1 2 2\n",
                GRAPH,
                [],
                1,
                '{"engine":"one-plus-one","feasible":false,"model":"edge",'
                '"reason":"budget_exceeded","schema":1,"semantics":"non-strict"}\n',
            ),
            # strict All needs all three units (01@1 12@2 there, 12@2 01@3 back), past budget 2
            (
                tca(semantics="strict", budget=2),
                "E 0 1 1\nE 1 2 2\nE 0 1 3\n",
                "T 3\nV 3\n",
                ["--cross-check"],
                1,
                '{"engine":"subset","feasible":false,"model":"edge","reason":"budget_exceeded",'
                '"schema":1,"semantics":"strict"}\n',
            ),
            # strict All at lifespan 2: vertex 0 misses both others, so two units, past budget 1
            (
                tca(semantics="strict", budget=1),
                "E 0 1 1\nE 0 2 1\nE 0 1 2\nE 0 2 2\n",
                "T 2\nV 3\nE 1 2 2\n",
                ["--cross-check"],
                1,
                '{"engine":"subset","feasible":false,"model":"edge","reason":"budget_exceeded",'
                '"schema":1,"semantics":"strict"}\n',
            ),
            # a one-pair chain whose paid-link floor (3) is above its budget
            (
                tca(requirement={"type": "pairs", "pairs": [[0, 3]]}, budget=2),
                "E 0 1 1\nE 1 2 2\nE 2 3 3\nE 2 3 1\n",
                "T 3\nV 4\n",
                ["--cross-check"],
                1,
                '{"engine":"subset","feasible":false,"model":"edge","reason":"budget_exceeded",'
                '"schema":1,"semantics":"non-strict"}\n',
            ),
            # two of three pairs, the third (0,3) out of reach, through both engines
            *(
                (
                    tca(
                        requirement={
                            "type": "pairs", "pairs": [[0, 1], [2, 3], [0, 3]], "demand": 2
                        }
                    ),
                    "E 0 1 1\nE 2 3 1\nE 1 2 2\n",
                    "T 2\nV 4\n",
                    ["--engine", engine, "--cross-check"],
                    0,
                    f'{{"cost":2,"engine":"{engine}","feasible":true,"model":"edge","schema":1,'
                    '"selected":[{"t":1,"u":0,"v":1},{"t":1,"u":2,"v":3}],'
                    '"semantics":"non-strict"}\n',
                )
                for engine in ("subset", "expansion")
            ),
        ],
        ids=[
            "text-cost",
            "text-nothing",
            "text-budget",
            "group-cost",
            "one-plus-one-budget",
            "strict-all-budget",
            "strict-two-time-budget",
            "floor-budget",
            "b-of-p-subset",
            "b-of-p-expansion",
        ],
    )
    def test_solve_output(self, tmp_path, capsys, manifest, candidates, graph, flags, code, stdout):
        assert main(["solve", write_bundle(tmp_path, manifest, candidates, graph), *flags]) == code
        assert capsys.readouterr() == (stdout, "")

    def test_negative_lifespan_is_2(self, tmp_path, capsys):
        assert main(["solve", write_bundle(tmp_path, tca(lifespan=-4))]) == 2
        assert capsys.readouterr() == ("", "error: lifespan must be non-negative\n")

    @pytest.mark.parametrize(
        "flags",
        [
            ["--cross-check"],
            ["--engine", "expansion"],
            ["--engine", "subset"],
            ["--semantics", "strict"],
            ["--cost", "group"],
            ["--format", "text"],
            ["--format", "text", "--cross-check", "--budget", "1"],
        ],
    )
    def test_octo_rejects_the_tca_flags(self, tmp_path, capsys, flags):
        path = write_bundle(tmp_path, {"kind": "octo", "matrix": "m.mat"})
        assert main(["solve", path, *flags]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: an octo manifest takes none of ")
        named = [flag for flag in flags if flag.startswith("--") and flag != "--budget"]
        assert all(flag in captured.err for flag in named)

    def test_octo_takes_the_budget_flag(self, tmp_path, capsys):
        path = write_bundle(tmp_path, {"kind": "octo", "matrix": "m.mat"})
        assert main(["solve", path, "--budget", "0"]) == 1
        data = json.loads(capsys.readouterr().out)
        assert (data["status"], data["feasible"]) == ("budget_exceeded", False)
        assert main(["solve", path, "--budget", "1"]) == 0
        assert json.loads(capsys.readouterr().out)["min_combinations"] == 1

    @pytest.mark.parametrize(
        "sequence, message",
        [
            ((), "octo sequence does not one-fill the matrix"),
            ((MergeStep(ROWS, 0, 5),), "octo sequence: step "),  # 5 is no row of the 2x2 matrix
        ],
        ids=["not-one-filled", "bad-step"],
    )
    def test_octo_sequence_failing_its_check_is_3(
        self, tmp_path, capsys, monkeypatch, sequence, message
    ):
        result = OctoResult("solved", len(sequence), sequence)
        monkeypatch.setattr(octo_mod, "solve_octo", lambda matrix, budget: result)
        path = write_bundle(tmp_path, {"kind": "octo", "matrix": "m.mat"})
        assert main(["solve", path]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: internal: " + message)


    @pytest.mark.parametrize("error", [TypeError, KeyError])
    def test_any_other_exception_is_3(self, tmp_path, capsys, monkeypatch, error):
        def solve_exact(problem):
            raise error("a fault of the solver")

        monkeypatch.setattr(aug_mod, "solve_exact", solve_exact)
        assert main(["solve", write_bundle(tmp_path, tca()), "--engine", "subset"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: internal: ")
        assert "a fault of the solver" in captured.err


class TestDeclaredLifespan:
    """A manifest's ``lifespan`` reaches the expansion engine and ``expand``."""

    @staticmethod
    def bundle(tmp_path, lifespan):
        manifest = tca(requirement={"type": "pairs", "pairs": [[0, 2]]}, lifespan=lifespan)
        return write_bundle(tmp_path, manifest, candidates="E 1 2 2\n")

    def test_expand_spans_the_declared_lifespan(self, tmp_path, capsys):
        assert main(["expand", self.bundle(tmp_path, 5), "--format", "json"]) == 0
        data = json.loads(capsys.readouterr().out)
        # 3 vertices in 6 layers plus two 2-node gates; 3 x 5 waiting arcs plus 2 x 5 gate arcs
        assert (data["lifespan"], data["node_count"], data["arc_count"]) == (5, 22, 25)

    @pytest.mark.parametrize("argv", [["solve"], ["expand"]])
    def test_below_the_base_lifespan_is_2(self, tmp_path, capsys, argv):
        path = write_bundle(tmp_path, tca(lifespan=1), "E 1 2 2\n", "V 3\nE 0 1 3\n")
        assert main([*argv, path]) == 2
        assert capsys.readouterr() == ("", "error: declared lifespan 1 is below the base graph's lifespan 3\n")

    def test_the_expansion_engine_answers_as_without_it(self, tmp_path, capsys):
        runs = []
        for lifespan in (None, 5):
            path = self.bundle(tmp_path, lifespan)
            code = main(["solve", path, "--engine", "expansion", "--cross-check"])
            runs.append((code, capsys.readouterr()))
        assert runs[0] == runs[1]
        assert runs[0][0] == 0 and runs[0][1].err == ""
        assert json.loads(runs[0][1].out)["selected"] == [{"u": 1, "v": 2, "t": 2}]


def one_plus_one_by_set(problem) -> bool:
    """The one-plus-one case by definition: candidates are exactly every pair at time 2."""
    n = problem.base.n
    every_pair = frozenset(TemporalEdge(u, v, 2) for u, v in itertools.combinations(range(n), 2))
    return (
        isinstance(problem.requirement, All)
        and problem.semantics == NON_STRICT
        and problem.cost_model == COST_EDGE
        and problem.base.lifespan == 1
        and problem.candidates == every_pair
    )


def near_one_plus_one(rng: random.Random) -> tuple[str, str, dict]:
    """Graph text, candidate text and manifest of a problem at or near the one-plus-one case."""
    n = rng.randrange(6)
    pairs = list(itertools.combinations(range(n), 2))
    base = [(u, v, 1) for u, v in pairs if rng.random() < 0.3]
    candidates = {(u, v, 2) for u, v in pairs}
    change = rng.choice(["none", "none", "missing", "extra", "missing and extra"])
    if "missing" in change and candidates:
        candidates.remove(rng.choice(sorted(candidates)))
    free = [(u, v, t) for u, v in pairs for t in (1, 3) if (u, v, t) not in base]
    if "extra" in change and free:
        candidates.add(rng.choice(free))
    manifest = tca()
    if rng.random() < 0.2:
        manifest["lifespan"] = 4
    if rng.random() < 0.15:
        manifest["semantics"] = "strict"
    if rng.random() < 0.15:
        manifest["cost_model"] = "group"
    if n and rng.random() < 0.15:
        manifest["requirement"] = {"type": "source", "vertex": 0}
    base_lifespan = 2 if rng.random() < 0.1 else 1
    graph = f"T {base_lifespan}\nV {n}\n" + "".join(f"E {u} {v} {t}\n" for u, v, t in base)
    return graph, "".join(f"E {u} {v} {t}\n" for u, v, t in sorted(candidates)), manifest


class TestOnePlusOneDetector:
    """``auto`` picks one-plus-one exactly when the candidates are every pair at time 2."""

    @staticmethod
    def check(tmp_path, capsys, graph, candidates, manifest) -> bool:
        path = write_bundle(tmp_path, manifest, candidates, graph)
        problem = _problem_from_manifest(manifest, path, argparse.Namespace())
        expected = one_plus_one_by_set(problem)
        assert _detect_one_plus_one(problem) == expected
        assert main(["solve", path]) in (0, 1)
        assert (json.loads(capsys.readouterr().out)["engine"] == "one-plus-one") == expected
        return expected

    @pytest.mark.parametrize(
        "graph, candidates, fields, expected",
        [
            ("T 1\nV 0\n", "", {}, True),
            ("T 1\nV 1\n", "", {}, True),
            ("V 3\nE 0 1 1\n", "E 0 1 2\nE 0 2 2\nE 1 2 2\n", {}, True),
            ("V 3\nE 0 1 1\n", "E 0 1 2\nE 0 2 2\n", {}, False),
            ("V 3\nE 0 1 1\n", "E 0 1 2\nE 0 2 2\nE 1 2 2\nE 1 2 1\n", {}, False),
            ("V 3\nE 0 1 1\n", "E 0 1 2\nE 0 2 2\nE 1 2 2\nE 1 2 3\n", {}, False),
            ("V 3\nE 0 1 1\n", "E 0 1 2\nE 0 2 2\nE 1 2 1\n", {}, False),
            ("V 3\nE 0 1 1\n", "E 0 1 2\nE 0 2 2\nE 1 2 3\n", {}, False),
            ("V 3\nE 0 1 1\n", "E 0 1 2\nE 0 2 2\nE 1 2 2\n", {"lifespan": 4}, True),
            ("V 3\nE 0 1 1\n", "E 0 1 2\nE 0 2 2\nE 1 2 2\n", {"semantics": "strict"}, False),
            ("V 3\nE 0 1 1\n", "E 0 1 2\nE 0 2 2\nE 1 2 2\n", {"cost_model": "group"}, False),
            (
                "V 3\nE 0 1 1\n",
                "E 0 1 2\nE 0 2 2\nE 1 2 2\n",
                {"requirement": {"type": "source", "vertex": 0}},
                False,
            ),
            ("T 2\nV 3\nE 0 1 1\n", "E 0 1 2\nE 0 2 2\nE 1 2 2\n", {}, False),
        ],
        ids=[
            "n0",
            "n1",
            "every-pair",
            "one-missing",
            "extra-at-1",
            "extra-at-3",
            "missing-plus-1",
            "missing-plus-3",
            "declared-lifespan",
            "strict",
            "group",
            "source",
            "base-lifespan-2",
        ],
    )
    def test_named_cases(self, tmp_path, capsys, graph, candidates, fields, expected):
        assert self.check(tmp_path, capsys, graph, candidates, tca(**fields)) == expected

    def test_seeded_problems(self, tmp_path, capsys):
        rng = random.Random(2502)
        found = [self.check(tmp_path, capsys, *near_one_plus_one(rng)) for _ in range(200)]
        assert 30 <= found.count(True) <= 170


class TestSolutionCheck:
    @pytest.mark.parametrize("engine", ["subset", "expansion"])
    def test_failed_verification_prints_no_solution_under_O(self, tmp_path, engine):
        path = write_bundle(tmp_path, tca(requirement={"type": "pairs", "pairs": [[0, 2]]}))
        script = (
            "import sys\n"
            "import tgaug.augmentation as aug\n"
            "aug.verify_solution = lambda *args: False\n"
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

    @pytest.mark.parametrize(
        "engine, module, name, answer",
        [
            ("subset", aug_mod, "solve_exact", Solution((TemporalEdge(0, 2, 1),), 1)),
            (
                "expansion",
                exp_mod,
                "min_weight_connection",
                exp_mod.ConnectionResult(1, (TemporalEdge(0, 2, 1),)),
            ),
        ],
        ids=["subset", "expansion"],
    )
    def test_an_edge_outside_the_candidates_is_an_internal_error(
        self, tmp_path, capsys, monkeypatch, engine, module, name, answer
    ):
        # the check raises ValueError on the stray edge, yet the input is fine: exit 3, not 2
        monkeypatch.setattr(module, name, lambda *args, **kwargs: answer)
        path = write_bundle(tmp_path, tca(requirement={"type": "pairs", "pairs": [[0, 2]]}))
        assert main(["solve", path, "--engine", engine]) == 3
        assert capsys.readouterr() == (
            "",
            f"error: internal: {engine} selection not in the candidate set: {{0,2}}@1\n",
        )

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

    def test_cross_check_catches_a_subset_search_fault(self, tmp_path, capsys, monkeypatch):
        # the gate search shares no bound or level loop with the subset search
        first_of_size = aug_mod._first_of_size
        monkeypatch.setattr(
            aug_mod,
            "_first_of_size",
            lambda space, size: None if size == 1 else first_of_size(space, size),
        )
        candidates = "E 0 1 1\nE 0 2 1\nE 0 1 2\nE 0 2 2\n"
        manifest = tca(requirement={"type": "pairs", "pairs": [[0, 2]]})
        path = write_bundle(tmp_path, manifest, candidates, graph="T 2\nV 3\nE 1 2 2\n")
        assert main(["solve", path, "--cross-check"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith('error: internal: engine disagreement: {"cost":2,')
        assert '!= {"cost":1,' in captured.err

    def test_cross_check_takes_any_one_plus_one_optimum(self, tmp_path, capsys, monkeypatch):
        # one-plus-one picks {0,1},{1,2}; the expansion engine's least optimum is {0,1},{0,2}
        candidates = "E 0 1 2\nE 0 2 2\nE 1 2 2\n"
        path = write_bundle(tmp_path, tca(), candidates, graph="T 1\nV 3\nE 0 2 1\n")
        assert main(["solve", path]) == 0
        plain = capsys.readouterr()
        assert main(["solve", path, "--cross-check"]) == 0
        assert capsys.readouterr() == plain
        data = json.loads(plain.out)
        assert (data["engine"], data["cost"]) == ("one-plus-one", 2)
        assert data["selected"] == [{"u": 0, "v": 1, "t": 2}, {"u": 1, "v": 2, "t": 2}]
        other = Solution(tuple(TemporalEdge(u, v, 2) for u, v in ((0, 1), (0, 2), (1, 2))), 3)
        monkeypatch.setattr(exp_mod, "solve_tpca_via_expansion", lambda problem: other)
        assert main(["solve", path, "--cross-check"]) == 3
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

    @pytest.mark.parametrize("semantics, cost", [("non-strict", 4), ("strict", 6)])
    def test_cross_check_on_a_spanner(self, tmp_path, capsys, semantics, cost):
        # an edgeless base and every edge of a connected graph as a candidate; the
        # time-1 snapshot is a 5-cycle, so non-strict takes a spanning tree of it
        graph = "T 3\nV 5\n"
        candidates = "".join(
            f"E {u} {v} {t}\n"
            for u, v, t in [(0, 1, 1), (1, 2, 1), (2, 3, 1), (3, 4, 1), (0, 4, 1), (0, 2, 2)]
            + [(1, 3, 2), (2, 4, 2), (0, 3, 3), (1, 4, 3), (0, 1, 3)]
        )
        manifest = tca(requirement={"type": "all"}, semantics=semantics)
        path = write_bundle(tmp_path, manifest, candidates, graph)
        outputs = {}
        for engine in ("subset", "expansion"):
            assert main(["solve", path, "--engine", engine, "--cross-check"]) == 0
            data = json.loads(capsys.readouterr().out)
            assert data.pop("engine") == engine
            outputs[engine] = data
        assert outputs["expansion"] == outputs["subset"]
        assert outputs["subset"]["cost"] == cost
        if semantics == "non-strict":
            tree = [(0, 1), (0, 4), (1, 2), (2, 3)]
            assert outputs["subset"]["selected"] == [{"u": u, "v": v, "t": 1} for u, v in tree]

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
    @pytest.mark.parametrize(
        "argv, ignored, note",
        [
            (["3sat", "f.cnf"], ["99"], "3sat sets its own budget; ignoring the given one"),
            (
                ["3sat", "f.cnf"],
                ["--mode", "unrestricted"],
                "3sat has no modes; ignoring --mode unrestricted",
            ),
            (
                ["dsc", "sets.txt", "1"],
                ["--mode", "unrestricted"],
                "dsc has no modes; ignoring --mode unrestricted",
            ),
        ],
        ids=["3sat-budget", "3sat-mode", "dsc-mode"],
    )
    def test_an_ignored_input_gets_a_note(self, tmp_path, capsys, monkeypatch, argv, ignored, note):
        monkeypatch.chdir(tmp_path)
        Path("f.cnf").write_text("p cnf 3 2\n1 -2 3 0\n-1 2 3 0\n")
        Path("sets.txt").write_text("U 2\nS 0: 0 1\nS 1: 0\nS 2: 1\n")
        runs = []
        for extra in ([], ignored):
            out = Path(f"out{len(runs)}")
            assert main(["reduce", *argv, *extra, "--out", str(out)]) == 0
            captured = capsys.readouterr()
            bundle = {f.name: f.read_bytes() for f in out.iterdir()}
            runs.append((captured.out, bundle, captured.err))
        assert runs[0][:2] == runs[1][:2]
        assert [err for _, _, err in runs] == ["", f"note: {note}\n"]

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
        assert not out.exists()

    @pytest.mark.parametrize(
        "kind, text, budget",
        [
            ("ds", None, "2"),  # the source cannot be read
            ("ds", "V 2\nE 0 x\n", "1"),
            ("hs", "U 2\nS 0: 0 1\nS 0: 1\n", "1"),
            ("ds", "V 2\nE 0 1\n", "-1"),
            ("hs", "U 2\nS 0: 0 1\n", "-1"),
        ],
        ids=["unreadable", "ds-parse-error", "hs-parse-error", "ds-negative", "hs-negative"],
    )
    def test_a_failed_reduce_leaves_no_out_directory(self, tmp_path, capsys, kind, text, budget):
        source = tmp_path / "src.txt"
        if text is not None:
            source.write_text(text)
        out = tmp_path / "out"
        assert main(["reduce", kind, str(source), budget, "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("error: ")
        assert not out.exists()


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
            ("matrix", "2 2\n1 2\n0 1\n", 2, "entries must be 0 or 1"),
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

GOLDEN_DS_GRAPH = "V 5\nE 0 1 2\nE 0 2 1\nE 0 4 1\nE 1 2 1\nE 1 4 1\nE 2 4 1\nE 3 4 2\n"
GOLDEN_DS_MANIFEST = (
    '{"budget":2,"candidates":"instance.cand","cost_model":"edge","graph":"instance.tg",'
    '"kind":"tca","requirement":{"type":"all"},"schema":1,"semantics":"strict"}\n'
)
GOLDEN_HS_GRAPH = (
    "V 10\nE 1 2 1\nE 1 3 1\nE 1 6 2\nE 2 3 1\nE 2 7 2\nE 3 9 2\nE 4 5 1\nE 4 6 2\nE 5 8 2\n"
)
GOLDEN_HS_MANIFEST = (
    '{"budget":2,"candidates":"instance.cand","cost_model":"edge","graph":"instance.tg",'
    '"kind":"tca","requirement":{"type":"source","vertex":0},"schema":1,'
    '"semantics":"non-strict"}\n'
)
GOLDEN_HS_UNRESTRICTED = (
    "E 0 1 1\nE 0 2 1\nE 0 3 1\nE 0 4 1\nE 0 5 1\nE 0 6 1\nE 0 7 1\nE 0 8 1\nE 0 9 1\n"
    "E 1 4 1\nE 1 5 1\nE 1 6 1\nE 1 7 1\nE 1 8 1\nE 1 9 1\nE 2 4 1\nE 2 5 1\nE 2 6 1\n"
    "E 2 7 1\nE 2 8 1\nE 2 9 1\nE 3 4 1\nE 3 5 1\nE 3 6 1\nE 3 7 1\nE 3 8 1\nE 3 9 1\n"
    "E 4 6 1\nE 4 7 1\nE 4 8 1\nE 4 9 1\nE 5 6 1\nE 5 7 1\nE 5 8 1\nE 5 9 1\nE 6 7 1\n"
    "E 6 8 1\nE 6 9 1\nE 7 8 1\nE 7 9 1\nE 8 9 1\n"
    "E 0 1 2\nE 0 2 2\nE 0 3 2\nE 0 4 2\nE 0 5 2\nE 0 6 2\nE 0 7 2\nE 0 8 2\nE 0 9 2\n"
    "E 1 2 2\nE 1 3 2\nE 1 4 2\nE 1 5 2\nE 1 7 2\nE 1 8 2\nE 1 9 2\nE 2 3 2\nE 2 4 2\n"
    "E 2 5 2\nE 2 6 2\nE 2 8 2\nE 2 9 2\nE 3 4 2\nE 3 5 2\nE 3 6 2\nE 3 7 2\nE 3 8 2\n"
    "E 4 5 2\nE 4 7 2\nE 4 8 2\nE 4 9 2\nE 5 6 2\nE 5 7 2\nE 5 9 2\nE 6 7 2\nE 6 8 2\n"
    "E 6 9 2\nE 7 8 2\nE 7 9 2\nE 8 9 2\n"
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

    @pytest.mark.parametrize(
        "argv, stdout, graph, candidates, manifest",
        [
            (
                ["ds", "static.txt", "2"],
                "5 vertices, 7 base edges, 3 candidates, budget 2\n",
                GOLDEN_DS_GRAPH,
                "E 0 3 1\nE 1 3 1\nE 2 3 1\n",
                GOLDEN_DS_MANIFEST,
            ),
            (
                ["ds", "static.txt", "2", "--mode", "unrestricted"],
                "5 vertices, 7 base edges, 13 candidates, budget 2\n",
                GOLDEN_DS_GRAPH,
                "E 0 1 1\nE 0 3 1\nE 1 3 1\nE 2 3 1\nE 3 4 1\nE 0 2 2\nE 0 3 2\nE 0 4 2\n"
                "E 1 2 2\nE 1 3 2\nE 1 4 2\nE 2 3 2\nE 2 4 2\n",
                GOLDEN_DS_MANIFEST,
            ),
            (
                ["hs", "sets.txt", "2"],
                "10 vertices, 9 base edges, 5 candidates, budget 2\n",
                GOLDEN_HS_GRAPH,
                "E 0 1 1\nE 0 2 1\nE 0 3 1\nE 0 4 1\nE 0 5 1\n",
                GOLDEN_HS_MANIFEST,
            ),
            (
                ["hs", "sets.txt", "2", "--mode", "unrestricted"],
                "10 vertices, 9 base edges, 81 candidates, budget 2\n",
                GOLDEN_HS_GRAPH,
                GOLDEN_HS_UNRESTRICTED,
                GOLDEN_HS_MANIFEST,
            ),
            (
                ["3sat", "f.cnf"],
                "20 vertices, 20 base edges, 12 candidates, budget 3\n",
                "V 20\nE 0 1 1\nE 0 3 1\nE 1 18 2\nE 2 5 1\nE 2 19 2\nE 4 5 1\nE 5 6 1\n"
                "E 6 7 1\nE 6 9 1\nE 8 11 1\nE 9 18 2\nE 10 11 1\nE 10 19 2\nE 11 12 1\n"
                "E 12 13 1\nE 12 15 1\nE 13 18 2\nE 14 17 1\nE 14 19 2\nE 16 17 1\n",
                "E 1 2 1\nE 3 4 1\nE 7 8 1\nE 9 10 1\nE 13 14 1\nE 15 16 1\n"
                "E 1 2 2\nE 3 4 2\nE 7 8 2\nE 9 10 2\nE 13 14 2\nE 15 16 2\n",
                '{"budget":3,"candidates":"instance.cand","cost_model":"group",'
                '"graph":"instance.tg","kind":"tca","requirement":{"demand":2,'
                '"pairs":[[0,17],[18,19]],"type":"pairs"},"schema":1,'
                '"semantics":"non-strict","standard_budget":true}\n',
            ),
        ],
        ids=["ds-simple", "ds-unrestricted", "hs-simple", "hs-unrestricted", "3sat"],
    )
    def test_reduce_bundle(self, run, argv, stdout, graph, candidates, manifest):
        assert run("reduce", *argv, "--out", "out") == (0, stdout)
        assert {f.name: f.read_bytes() for f in Path("out").iterdir()} == {
            "instance.tg": graph.encode(),
            "instance.cand": candidates.encode(),
            "manifest.json": manifest.encode(),
        }


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
