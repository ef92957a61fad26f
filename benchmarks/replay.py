"""Traced replay of the CLI, one library call at a time.

``replay(argv, tracer)`` does what ``tgaug.cli.main(argv)`` does, calling the
public functions of each module in the order the CLI calls them, and times
each call from here, so no file under ``src/`` carries tracing code.  It
returns the exit code and the text the CLI would print; the worker checks
that both match the untraced run.  Only the flags the benchmark uses are
replayed: the default JSON output, ``--engine``, ``--semantics``, ``--cost``,
``--budget``, ``--mode`` and ``--format`` of ``expand``.

Each span adds its busy time to one ``<module>.<name>_ms`` total; file
reads, argument parsing and JSON dumps outside the named spans are left to
``cli.self_ms``, which the worker derives from the untraced time.
"""

from __future__ import annotations

import dataclasses
import json
import time
from contextlib import contextmanager
from pathlib import Path

from tgaug import augmentation as aug
from tgaug import octo as octo_mod
from tgaug import reductions as red_mod
from tgaug import steiner_expansion as exp_mod
from tgaug.cli import build_parser
from tgaug.temporal_graph import (
    NON_STRICT,
    STRICT,
    ParseError,
    TemporalEdge,
    format_candidates,
    format_tg,
    parse_candidates,
    parse_tg,
    sorted_edges,
)

TIMINGS = (
    "temporal_graph.parse_ms",
    "temporal_graph.reach_ms",
    "temporal_graph.components_ms",
    "augmentation.problem_ms",
    "augmentation.search_ms",
    "augmentation.certificate_ms",
    "augmentation.verify_ms",
    "augmentation.json_ms",
    "octo.parse_ms",
    "octo.search_ms",
    "steiner_expansion.build_ms",
    "steiner_expansion.search_ms",
    "steiner_expansion.export_ms",
    "reductions.parse_ms",
    "reductions.reduce_ms",
    "reductions.write_ms",
)
COUNTS = (
    "temporal_graph.parse_edges",
    "temporal_graph.journeys",
    "temporal_graph.journey_hops",
    "augmentation.units",
    "augmentation.cost",
    "octo.cells",
    "octo.min_combinations",
    "octo.limit_exceeded",
    "steiner_expansion.nodes",
    "steiner_expansion.arcs",
    "steiner_expansion.positive_gates",
    "reductions.gadget_vertices",
    "reductions.gadget_candidates",
)

_SEMANTICS = {"strict": STRICT, "nonstrict": NON_STRICT}


class Tracer:
    """Per-layer busy time (ms) and work counts, summed over the calls traced."""

    def __init__(self):
        self.values: dict[str, float] = dict.fromkeys(TIMINGS + COUNTS, 0)

    @contextmanager
    def span(self, name: str):
        start = time.perf_counter()
        try:
            yield
        finally:
            self.values[name] += (time.perf_counter() - start) * 1e3

    def count(self, name: str, amount: int) -> None:
        self.values[name] += amount

    def busy_ms(self) -> float:
        return sum(self.values[name] for name in TIMINGS)


def _dump(data: dict) -> str:
    return json.dumps(data, sort_keys=True, separators=(",", ":"))


def _read(path) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc


def _load_manifest(path: str) -> dict:
    try:
        data = json.loads(_read(path))
    except json.JSONDecodeError as exc:
        raise ParseError(f"manifest is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ParseError("manifest must be a JSON object")
    return data


def _requirement(spec: dict) -> aug.Requirement:
    kind = spec.get("type")
    if kind == "all":
        return aug.All()
    if kind == "source":
        return aug.Source(int(spec["vertex"]))
    if kind == "pairs":
        pairs = tuple((int(u), int(v)) for u, v in spec["pairs"])
        demand = spec.get("demand")
        return aug.Pairs(pairs, None if demand is None else int(demand))
    raise ParseError(f"unknown requirement type {kind!r}")


def _requirement_manifest(req: aug.Requirement) -> dict:
    if isinstance(req, aug.All):
        return {"type": "all"}
    if isinstance(req, aug.Source):
        return {"type": "source", "vertex": req.vertex}
    return {"type": "pairs", "pairs": [[u, v] for u, v in req.pairs], "demand": req.effective_demand}


def _problem(manifest: dict, args, tr: Tracer) -> aug.AugmentationProblem:
    root = Path(args.manifest).parent
    text = _read(root / manifest["graph"])
    with tr.span("temporal_graph.parse_ms"):
        base = parse_tg(text)
    candidates = ()
    if manifest.get("candidates"):
        text = _read(root / manifest["candidates"])
        with tr.span("temporal_graph.parse_ms"):
            candidates = parse_candidates(text)
    tr.count("temporal_graph.parse_edges", len(base.edges) + len(candidates))
    semantics = manifest.get("semantics", NON_STRICT)
    if getattr(args, "semantics", None):
        semantics = _SEMANTICS[args.semantics]
    cost = manifest.get("cost_model", aug.COST_EDGE)
    if getattr(args, "cost", None):
        cost = {"edge": aug.COST_EDGE, "group": aug.COST_GROUP}[args.cost]
    budget = manifest.get("budget")
    if getattr(args, "budget", None) is not None:
        budget = args.budget
    with tr.span("augmentation.problem_ms"):
        requirement = _requirement(manifest.get("requirement", {"type": "all"}))
        return aug.AugmentationProblem(
            base,
            frozenset(candidates),
            requirement,
            semantics,
            cost,
            budget,
            manifest.get("lifespan"),
        )


def _count_certificate(tr: Tracer, certificate) -> None:
    tr.count("temporal_graph.journeys", len(certificate))
    tr.count("temporal_graph.journey_hops", sum(len(j) for _, _, j in certificate))


def _is_one_plus_one(problem: aug.AugmentationProblem) -> bool:
    if not isinstance(problem.requirement, aug.All):
        return False
    if problem.semantics != NON_STRICT or problem.cost_model != aug.COST_EDGE:
        return False
    base = problem.base
    if base.lifespan != 1:
        return False
    wanted = {TemporalEdge(u, v, 2) for u in range(base.n) for v in range(u + 1, base.n)}
    return problem.candidates == frozenset(wanted)


def _expansion_instance(problem: aug.AugmentationProblem, budget=None):
    full = problem.base.augment(problem.candidates)
    weights = {e: (1 if e in problem.candidates else 0) for e in full.edges}
    req = problem.requirement
    return exp_mod.TGSteinerInstance.from_weights(
        full, weights, req.pairs, req.effective_demand, budget
    )


def _solve_expansion(problem: aug.AugmentationProblem, tr: Tracer) -> aug.SolveOutcome:
    """``solve_tpca_via_expansion`` split into its phases."""
    if not isinstance(problem.requirement, aug.Pairs):
        raise ValueError("expansion solving requires a Pairs requirement")
    if problem.cost_model != aug.COST_EDGE:
        raise ValueError("expansion solving supports the per-edge cost model only")
    with tr.span("steiner_expansion.build_ms"):
        inst = _expansion_instance(problem, problem.budget)
        exp, pair_map = exp_mod.build_expansion(inst, problem.semantics)
    with tr.span("steiner_expansion.search_ms"):
        found = exp_mod.min_weight_connection(exp, pair_map, inst.demand, budget=problem.budget)
    tr.count("steiner_expansion.nodes", len(exp.nodes))
    tr.count("steiner_expansion.arcs", len(exp.arcs))
    tr.count("steiner_expansion.positive_gates", len(exp.positive_gate_edges))
    if isinstance(found, aug.Infeasible):
        return found
    selected = sorted_edges(found.selected)
    with tr.span("augmentation.verify_ms"):
        if not aug.verify_solution(problem, selected):
            raise AssertionError("expansion selection does not verify")
    with tr.span("augmentation.certificate_ms"):
        certificate = aug.build_certificate(problem, selected)
    _count_certificate(tr, certificate)
    return aug.Solution(selected, found.weight, None, certificate)


def _solve_tca(problem: aug.AugmentationProblem, args, tr: Tracer) -> tuple[str, int]:
    if args.cross_check:
        raise ValueError("the replay covers default flags only, not --cross-check")
    if args.engine == "auto" and _is_one_plus_one(problem):
        with tr.span("augmentation.search_ms"):
            selected = aug.solve_one_plus_one(problem.base)
        if problem.budget is not None and len(selected) > problem.budget:
            outcome: aug.SolveOutcome = aug.Infeasible("budget_exceeded")
        else:
            outcome = aug.Solution(tuple(sorted(selected, key=lambda e: e.key)), len(selected))
        engine = "one-plus-one"
    elif args.engine == "expansion":
        outcome = _solve_expansion(problem, tr)
        engine = "expansion"
    else:
        group = problem.cost_model == aug.COST_GROUP
        tr.count("augmentation.units", len(problem.candidate_groups if group else problem.candidates))
        with tr.span("augmentation.search_ms"):
            outcome = aug.solve_exact(problem, with_certificate=False)
        if isinstance(outcome, aug.Solution):
            with tr.span("augmentation.certificate_ms"):
                certificate = aug.build_certificate(problem, outcome.selected)
            _count_certificate(tr, certificate)
            outcome = dataclasses.replace(outcome, certificate=certificate)
        engine = "subset"
    if isinstance(outcome, aug.Solution):
        with tr.span("augmentation.verify_ms"):
            if not aug.verify_solution(problem, outcome.selected):
                raise AssertionError("selection does not verify")
        tr.count("augmentation.cost", outcome.cost)
    with tr.span("augmentation.json_ms"):
        data = aug.solution_to_json(outcome, problem)
        data["engine"] = engine
        text = _dump(data) + "\n"
    return text, 0 if outcome.feasible else 1


def _check(args, tr: Tracer) -> tuple[str, int]:
    text = _read(args.graph)
    with tr.span("temporal_graph.parse_ms"):
        g = parse_tg(text)
    tr.count("temporal_graph.parse_edges", len(g.edges))
    semantics = _SEMANTICS[args.semantics]
    with tr.span("temporal_graph.reach_ms"):
        connected = g.is_temporally_connected(semantics)
    with tr.span("temporal_graph.components_ms"):
        components = {
            str(t): [list(block) for block in g.snapshot_components(t).blocks]
            for t in range(1, g.lifespan + 1)
        }
    report = {
        "schema": 1,
        "connected": connected,
        "semantics": semantics,
        "n": g.n,
        "lifespan": g.lifespan,
        "components_per_time": components,
    }
    return _dump(report) + "\n", 0 if connected else 1


def _solve(args, tr: Tracer) -> tuple[str, int]:
    manifest = _load_manifest(args.manifest)
    kind = manifest.get("kind", "tca")
    if kind == "octo":
        text = _read(Path(args.manifest).parent / manifest["matrix"])
        with tr.span("octo.parse_ms"):
            matrix = octo_mod.parse_matrix(text)
        tr.count("octo.cells", matrix.n_rows * matrix.n_cols)
        budget = manifest.get("budget")
        if args.budget is not None:
            budget = args.budget
        with tr.span("octo.search_ms"):
            result = octo_mod.solve_octo(matrix, budget)
        if result.solved:
            tr.count("octo.min_combinations", result.min_combinations)
        tr.count("octo.limit_exceeded", int(result.status == "limit_exceeded"))
        return _dump(octo_mod.octo_result_to_json(result)) + "\n", 0 if result.solved else 1
    if kind != "tca":
        raise ParseError(f"unknown manifest kind {kind!r}")
    return _solve_tca(_problem(manifest, args, tr), args, tr)


def _reduce(args, tr: Tracer) -> tuple[str, int]:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    text = _read(args.source)
    if args.kind == "dsc":
        with tr.span("reductions.parse_ms"):
            inst = red_mod.parse_set_system(text, args.budget)
        with tr.span("reductions.reduce_ms"):
            reduction = red_mod.reduce_dsc(inst)
        matrix = reduction.matrix
        tr.count("reductions.gadget_vertices", matrix.n_rows + matrix.n_cols)
        with tr.span("reductions.write_ms"):
            (out / "instance.mat").write_text(octo_mod.format_matrix(matrix))
            manifest = {
                "schema": 1,
                "kind": "octo",
                "matrix": "instance.mat",
                "budget": reduction.budget,
            }
            (out / "manifest.json").write_text(_dump(manifest) + "\n")
        return f"matrix {matrix.n_rows}x{matrix.n_cols} budget {reduction.budget}\n", 0

    notes = {}
    if args.kind == "ds":
        with tr.span("reductions.parse_ms"):
            inst = red_mod.parse_static_graph(text, args.budget)
        with tr.span("reductions.reduce_ms"):
            problem = red_mod.reduce_dominating_set(inst, args.mode).problem
    elif args.kind == "hs":
        with tr.span("reductions.parse_ms"):
            system = red_mod.parse_set_system(text, args.budget)
        with tr.span("reductions.reduce_ms"):
            problem = red_mod.reduce_hitting_set(system, args.mode).problem
    else:
        with tr.span("reductions.parse_ms"):
            cnf = red_mod.parse_dimacs(text)
        with tr.span("reductions.reduce_ms"):
            reduction = red_mod.reduce_3sat(cnf)
        problem = reduction.problem
        notes = {"standard_budget": reduction.standard_budget}
    tr.count("reductions.gadget_vertices", problem.base.n)
    tr.count("reductions.gadget_candidates", len(problem.candidates))
    with tr.span("reductions.write_ms"):
        (out / "instance.tg").write_text(format_tg(problem.base))
        (out / "instance.cand").write_text(format_candidates(problem.candidates))
        manifest = {
            "schema": 1,
            "kind": "tca",
            "graph": "instance.tg",
            "candidates": "instance.cand",
            "requirement": _requirement_manifest(problem.requirement),
            "semantics": problem.semantics,
            "cost_model": problem.cost_model,
            "budget": problem.budget,
            **notes,
        }
        (out / "manifest.json").write_text(_dump(manifest) + "\n")
    summary = (
        f"{problem.base.n} vertices, {len(problem.base.edges)} base edges, "
        f"{len(problem.candidates)} candidates, budget {problem.budget}\n"
    )
    return summary, 0


def _expand(args, tr: Tracer) -> tuple[str, int]:
    manifest = _load_manifest(args.manifest)
    if manifest.get("kind", "tca") != "tca":
        raise ParseError("expansion needs a tca manifest")
    problem = _problem(manifest, args, tr)
    if not isinstance(problem.requirement, aug.Pairs):
        raise ParseError("expansion needs a pairs requirement")
    with tr.span("steiner_expansion.build_ms"):
        exp, _ = exp_mod.build_expansion(_expansion_instance(problem), problem.semantics)
    tr.count("steiner_expansion.nodes", len(exp.nodes))
    tr.count("steiner_expansion.arcs", len(exp.arcs))
    with tr.span("steiner_expansion.export_ms"):
        if args.format == "dot":
            return exp_mod.expansion_to_dot(exp), 0
        return _dump(exp_mod.expansion_to_json(exp)) + "\n", 0


_COMMANDS = {"check": _check, "solve": _solve, "reduce": _reduce, "expand": _expand}


def replay(argv: list[str], tr: Tracer) -> tuple[int, str]:
    """Exit code and standard output of ``tgaug <argv>``, traced into ``tr``."""
    args = build_parser().parse_args(argv)
    if getattr(args, "format", "json") == "text":
        raise ValueError("the replay covers the default JSON output only")
    try:
        text, code = _COMMANDS[args.command](args, tr)
    except (ValueError, KeyError, OSError):
        return 2, ""
    return code, text
