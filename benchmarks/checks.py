"""Check the CLI's outputs for one task against the reference.

Runs in the worker after the timed loop.  Each check returns a list of
problems; an empty list means the task's output is correct.  Besides the
facts the reference fixes (exit code, feasibility, cost, engine, counts), the
selected edges are re-verified with ``verify_solution`` and an OCTO merge
history is replayed on the matrix.
"""

from __future__ import annotations

import json

import tgbuild
from tgaug import augmentation as aug
from tgaug import octo as octo_mod
from tgaug.temporal_graph import TemporalEdge, sorted_edges


def _mismatches(expected: dict, found: dict) -> list[str]:
    return [
        f"{key} is {found.get(key)!r}, expected {value!r}"
        for key, value in expected.items()
        if found.get(key) != value
    ]


def _check_solve(task: dict, expected: dict, data: dict) -> list[str]:
    problems = _mismatches(expected, data)
    if problems or not expected["feasible"]:
        return problems
    selected = tuple(TemporalEdge(e["u"], e["v"], e["t"]) for e in data["selected"])
    if selected != sorted_edges(selected):
        problems.append("selected edges are not in canonical order")
    problem = tgbuild.bundle_problem(task)
    if data.get("model") != problem.cost_model or data.get("semantics") != problem.semantics:
        problems.append("model or semantics differ from the manifest")
    pairs = sorted({e.pair for e in selected})
    if problem.cost_model == aug.COST_GROUP:
        if data.get("groups") != [list(p) for p in pairs] or len(pairs) != data["cost"]:
            problems.append("groups do not match the selected edges and the cost")
    elif len(selected) != data["cost"]:
        problems.append("cost differs from the number of selected edges")
    if not frozenset(selected) <= problem.candidates:
        problems.append("selected edges outside the candidate set")
    elif not aug.verify_solution(problem, selected):
        problems.append("selected edges do not meet the requirement")
    return problems


def _check_octo(task: dict, expected: dict, data: dict) -> list[str]:
    problems = _mismatches(expected, data)
    if problems or expected["status"] != "solved":
        return problems
    steps = [octo_mod.MergeStep(s["axis"], s["i"], s["j"]) for s in data["sequence"]]
    matrix = tgbuild.matrix(task)
    if len(steps) != expected["min_combinations"]:
        problems.append("sequence length differs from min_combinations")
    elif not octo_mod.apply_sequence(matrix, steps).is_one_filled:
        problems.append("merge sequence does not one-fill the matrix")
    return problems


def _check_expand(expected: dict, text: str, fmt: str) -> list[str]:
    if fmt == "json":
        data = json.loads(text)
        found = {key: data.get(key) for key in expected}
        found["node_count"] = len(data.get("nodes", ()))
        found["arc_count"] = len(data.get("arcs", ()))
    else:
        lines = text.splitlines()
        header = (
            f"// nodes={expected['node_count']} arcs={expected['arc_count']} "
            f"n={expected['n']} lifespan={expected['lifespan']} semantics={expected['semantics']}"
        )
        if not lines or lines[0] != header:
            return ["DOT header differs from the expected counts"]
        body = lines[2:-1]
        found = dict(expected)
        found["node_count"] = sum(1 for line in body if "->" not in line)
        found["arc_count"] = sum(1 for line in body if "->" in line)
    return _mismatches(expected, found)


def check_step(task: dict, index: int, expected: dict, code, stdout: str) -> list[str]:
    """Problems with one step's exit code and output."""
    if code != expected["exit"]:
        return [f"exit code {code}, expected {expected['exit']}"]
    if "stdout" in expected:
        return [] if stdout == expected["stdout"] else ["output differs from the reference"]
    if "expand" in expected:
        fmt = task["steps"][index][task["steps"][index].index("--format") + 1]
        return _check_expand(expected["expand"], stdout, fmt)
    if "solve" not in expected and "octo" not in expected:
        return [] if stdout.strip() else ["no output"]
    try:
        data = json.loads(stdout)
    except json.JSONDecodeError:
        return ["output is not JSON"]
    if "octo" in expected:
        return _check_octo(task, expected["octo"], data)
    return _check_solve(task, expected["solve"], data)


def check_task(task: dict, expected: list[dict], results: list[tuple]) -> list[str]:
    """Problems with a task's step results ``(exit code, stdout, stderr)``."""
    problems = []
    for index, (want, (code, stdout, _)) in enumerate(zip(expected, results)):
        problems.extend(f"step {index}: {p}" for p in check_step(task, index, want, code, stdout))
    return problems
