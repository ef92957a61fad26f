import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from tgaug.cli import main
from tgaug.reductions import parse_dimacs, parse_set_system, parse_static_graph
from tgaug.temporal_graph import ParseError

SRC = Path(__file__).resolve().parents[1] / "src"

GRAPH = "V 3\nE 0 1 1\n"
CANDIDATES = "E 1 2 1\n"


def write_bundle(tmp_path, manifest, candidates=CANDIDATES):
    (tmp_path / "g.tg").write_text(GRAPH)
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
        assert proc.returncode != 0
        assert proc.stdout == ""
        assert "does not meet the requirement" in proc.stderr


class TestSourceParsers:
    @pytest.mark.parametrize(
        "parse, text",
        [
            (lambda text: parse_static_graph(text, 1), "V x\n"),
            (lambda text: parse_set_system(text, 1), "U x\n"),
            (parse_dimacs, "p cnf x 1\n"),
        ],
    )
    def test_bad_count_reports_its_line(self, parse, text):
        with pytest.raises(ParseError, match="line 1"):
            parse(text)
