"""Command-line interface.

Subcommands: ``check`` (connectivity report for a .tg file), ``solve``
(run a solver on a problem manifest), ``reduce`` (generate gadget
instances from classic problems), and ``expand`` (emit the temporal
expansion of a problem manifest's demand pairs).  All output is deterministic;
exit codes are 0 for success/feasible, 1 for infeasible/not connected,
2 for input errors (``ValueError``, ``OSError``), and 3 for an internal
failure: an engine's answer failing the CLI's check (whatever it raises), a
``--cross-check`` disagreement, an exhausted search, or any other exception.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from pathlib import Path

from . import augmentation as aug
from . import octo as octo_mod
from . import reductions as red_mod
from . import steiner_expansion as exp_mod
from .temporal_graph import (
    NON_STRICT,
    STRICT,
    ParseError,
    TemporalGraph,
    format_candidates,
    format_tg,
    parse_candidates,
    parse_tg,
    sorted_edges,
    _is_int,
)

_SEMANTICS_FLAG = {"strict": STRICT, "nonstrict": NON_STRICT}
# the solve flags that shape a tca problem or its output, at their unset values
_TCA_ONLY = dict(engine="auto", semantics=None, cost=None, format="json", cross_check=False)


def _dump(data: dict) -> str:
    return json.dumps(data, sort_keys=True, separators=(",", ":"))


def _read(path: str | Path) -> str:
    return Path(path).read_text(encoding="utf-8")


_JSON_TYPES = {str: "a string", int: "an integer", dict: "an object", list: "a list"}


def _field(data: dict, key: str, kind: type, default=None, required: bool = False):
    """``data[key]`` of JSON type ``kind``; absent or null gives ``default`` unless ``required``."""
    value = data.get(key)
    if value is None:
        if required:
            raise ParseError(f"manifest field {key!r} is required")
        return default
    if not (_is_int(value) if kind is int else isinstance(value, kind)):
        raise ParseError(f"manifest field {key!r} must be {_JSON_TYPES[kind]}, got {value!r}")
    return value


def _load_manifest(path: str) -> tuple[dict, str]:
    """The manifest at ``path`` and its kind; each other field is checked where it is read."""
    try:
        data = json.loads(_read(path))
    except (json.JSONDecodeError, RecursionError) as exc:
        raise ParseError(f"manifest is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ParseError("manifest must be a JSON object")
    kind = _field(data, "kind", str, "tca")
    if kind not in ("tca", "octo"):
        raise ParseError(f"unknown manifest kind {kind!r}")
    return data, kind


def _requirement_from_manifest(manifest: dict) -> aug.Requirement:
    spec = _field(manifest, "requirement", dict, {"type": "all"})
    kind = _field(spec, "type", str, required=True)
    if kind == "all":
        return aug.All()
    if kind == "source":
        return aug.Source(_field(spec, "vertex", int, required=True))
    if kind != "pairs":
        raise ParseError(f"unknown requirement type {kind!r}")
    pairs = _field(spec, "pairs", list, required=True)
    if not all(type(p) is list and len(p) == 2 and type(p[0]) is type(p[1]) is int for p in pairs):
        raise ParseError(f"manifest field 'pairs' must hold [u, v] integer pairs, got {pairs!r}")
    return aug.Pairs(tuple(map(tuple, pairs)), _field(spec, "demand", int))


def _requirement_to_manifest(req: aug.Requirement) -> dict:
    if isinstance(req, aug.All):
        return {"type": "all"}
    if isinstance(req, aug.Source):
        return {"type": "source", "vertex": req.vertex}
    return {
        "type": "pairs",
        "pairs": [[u, v] for u, v in req.pairs],
        "demand": req.effective_demand,
    }


def _budget(manifest: dict, args) -> int | None:
    """The ``--budget`` flag when given, else the manifest's budget; the solvers check its sign."""
    budget = _field(manifest, "budget", int)
    if getattr(args, "budget", None) is not None:
        budget = args.budget
    return budget


def _problem_from_manifest(manifest: dict, manifest_path: str, args) -> aug.AugmentationProblem:
    root = Path(manifest_path).parent
    base = parse_tg(_read(root / _field(manifest, "graph", str, required=True)))
    cand_path = _field(manifest, "candidates", str)
    candidates = parse_candidates(_read(root / cand_path)) if cand_path else ()
    semantics = _field(manifest, "semantics", str, NON_STRICT)
    if getattr(args, "semantics", None):
        semantics = _SEMANTICS_FLAG[args.semantics]
    cost = _field(manifest, "cost_model", str, aug.COST_EDGE)
    if getattr(args, "cost", None):
        cost = args.cost
    return aug.AugmentationProblem(
        base,
        frozenset(candidates),
        _requirement_from_manifest(manifest),
        semantics,
        cost,
        _budget(manifest, args),
        _field(manifest, "lifespan", int),
    )


def cmd_check(args) -> int:
    g = parse_tg(_read(args.graph))
    semantics = _SEMANTICS_FLAG[args.semantics]
    connected = g.is_temporally_connected(semantics)
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
    if args.format == "json":
        print(_dump(report))
    else:
        print(f"n={g.n} lifespan={g.lifespan} semantics={semantics}")
        for t, blocks in components.items():
            print(f"t={t}: " + " ".join("{" + ",".join(map(str, b)) + "}" for b in blocks))
        print("connected" if connected else "not connected")
    return 0 if connected else 1


def _detect_one_plus_one(problem: aug.AugmentationProblem) -> bool:
    """True iff ``problem`` is non-strict edge-cost All, lifespan 1 plus every pair at time 2."""
    if not isinstance(problem.requirement, aug.All):
        return False
    if problem.semantics != NON_STRICT or problem.cost_model != aug.COST_EDGE:
        return False
    n = problem.base.n
    if problem.base.lifespan != 1 or len(problem.candidates) != n * (n - 1) // 2:
        return False
    return all(e.t == 2 for e in problem.candidates)  # distinct pairs: the count fixes the set


def _solve_tca(problem: aug.AugmentationProblem, args) -> tuple[dict, int]:
    if args.engine == "auto" and _detect_one_plus_one(problem):
        selected = aug.solve_one_plus_one(problem.base)
        if problem.budget is not None and len(selected) > problem.budget:
            outcome: aug.SolveOutcome = aug.Infeasible("budget_exceeded")
        else:
            outcome = aug.Solution(sorted_edges(selected), len(selected))
        engine_used = "one-plus-one"
    elif args.engine == "expansion":
        outcome = exp_mod.solve_tpca_via_expansion(problem)
        engine_used = "expansion"
    else:
        outcome = aug.solve_exact(problem)
        engine_used = "subset"

    if args.cross_check:
        other = (
            aug.solve_exact(problem)
            if engine_used == "expansion"
            else exp_mod.solve_tpca_via_expansion(problem)
        )
        mine = aug.solution_to_json(outcome, problem)
        theirs = aug.solution_to_json(other, problem)
        if engine_used == "one-plus-one":  # an optimum, not the least one: compare the cost
            mine.pop("selected", None)
            theirs.pop("selected", None)
        if mine != theirs:
            raise RuntimeError(f"engine disagreement: {_dump(mine)} != {_dump(theirs)}")

    if isinstance(outcome, aug.Solution):
        try:  # an edge outside the candidates is the engine's fault too, not bad input
            if not aug.verify_solution(problem, outcome.selected):
                raise ValueError("does not meet the requirement")
        except ValueError as exc:
            raise RuntimeError(f"{engine_used} selection {exc}") from exc
    data = aug.solution_to_json(outcome, problem)
    data["engine"] = engine_used
    return data, 0 if outcome.feasible else 1


def cmd_solve(args) -> int:
    manifest, kind = _load_manifest(args.manifest)
    if kind == "octo":
        given = [key for key, unset in _TCA_ONLY.items() if getattr(args, key) != unset]
        if given:
            flags = ", ".join("--" + key.replace("_", "-") for key in given)
            raise ParseError(f"an octo manifest takes none of {flags}")
        matrix_path = Path(args.manifest).parent / _field(manifest, "matrix", str, required=True)
        matrix = octo_mod.parse_matrix(_read(matrix_path))
        result = octo_mod.solve_octo(matrix, _budget(manifest, args))
        if result.solved:
            try:
                filled = octo_mod.apply_sequence(matrix, result.sequence).is_one_filled
            except ValueError as exc:  # a step the solver wrote wrong, not bad input
                raise RuntimeError(f"octo sequence: {exc}") from exc
            if not filled:
                raise RuntimeError("octo sequence does not one-fill the matrix")
        data = octo_mod.octo_result_to_json(result)
        print(_dump(data))
        return 0 if result.solved else 1
    problem = _problem_from_manifest(manifest, args.manifest, args)
    data, code = _solve_tca(problem, args)
    if args.format == "json":
        print(_dump(data))
    else:
        if data["feasible"]:
            edges = " ".join(f"{{{e['u']},{e['v']}}}@{e['t']}" for e in data["selected"])
            print(f"cost {data['cost']}: {edges or '(nothing to add)'}")
        else:
            print(data["reason"])
    return code


def cmd_reduce(args) -> int:
    if args.kind == "3sat":
        if args.budget is not None:
            print("note: 3sat sets its own budget; ignoring the given one", file=sys.stderr)
    elif args.budget is None:
        raise ParseError(f"reduce {args.kind} needs a budget")
    if args.kind in ("dsc", "3sat") and args.mode != red_mod.MODE_SIMPLE:
        print(f"note: {args.kind} has no modes; ignoring --mode {args.mode}", file=sys.stderr)
    text = _read(args.source)
    if args.kind == "dsc":
        reduction = red_mod.reduce_dsc(red_mod.parse_set_system(text, args.budget))
        files = {"instance.mat": octo_mod.format_matrix(reduction.matrix)}
        manifest = {"kind": "octo", "matrix": "instance.mat", "budget": reduction.budget}
        summary = (
            f"matrix {reduction.matrix.n_rows}x{reduction.matrix.n_cols} "
            f"budget {reduction.budget}"
        )
    else:
        notes = {}
        if args.kind == "ds":
            inst = red_mod.parse_static_graph(text, args.budget)
            problem = red_mod.reduce_dominating_set(inst, args.mode).problem
        elif args.kind == "hs":
            system = red_mod.parse_set_system(text, args.budget)
            problem = red_mod.reduce_hitting_set(system, args.mode).problem
        else:  # 3sat
            reduction = red_mod.reduce_3sat(red_mod.parse_dimacs(text))
            problem = reduction.problem
            notes = {"standard_budget": reduction.standard_budget}
        files = {
            "instance.tg": format_tg(problem.base),
            "instance.cand": format_candidates(problem.candidates),
        }
        manifest = {
            "kind": "tca",
            "graph": "instance.tg",
            "candidates": "instance.cand",
            "requirement": _requirement_to_manifest(problem.requirement),
            "semantics": problem.semantics,
            "cost_model": problem.cost_model,
            "budget": problem.budget,
            **notes,
        }
        summary = (
            f"{problem.base.n} vertices, {len(problem.base.edges)} base edges, "
            f"{len(problem.candidates)} candidates, budget {problem.budget}"
        )
    out = Path(args.out)  # made only now, so a failed reduce leaves none
    out.mkdir(parents=True, exist_ok=True)
    for name, content in files.items():
        (out / name).write_text(content)
    (out / "manifest.json").write_text(_dump({"schema": 1, **manifest}) + "\n")
    print(summary)
    return 0


def cmd_expand(args) -> int:
    manifest, kind = _load_manifest(args.manifest)
    if kind != "tca":
        raise ParseError("expansion needs a tca manifest")
    problem = _problem_from_manifest(manifest, args.manifest, args)
    exp, _ = exp_mod.build_expansion(exp_mod.problem_instance(problem), problem.semantics)
    if args.format == "dot":
        sys.stdout.write(exp_mod.expansion_to_dot(exp))
    else:
        print(_dump(exp_mod.expansion_to_json(exp)))
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(prog="tgaug", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_check = sub.add_parser("check", help="connectivity report for a .tg file")
    p_check.add_argument("graph")
    p_check.add_argument("--semantics", choices=sorted(_SEMANTICS_FLAG), default="nonstrict")
    p_check.add_argument("--format", choices=["json", "text"], default="json")
    p_check.set_defaults(func=cmd_check)

    p_solve = sub.add_parser("solve", help="solve a problem manifest")
    p_solve.add_argument("manifest")
    p_solve.add_argument("--engine", choices=["subset", "expansion", "auto"], default="auto")
    p_solve.add_argument("--semantics", choices=sorted(_SEMANTICS_FLAG))
    p_solve.add_argument("--cost", choices=aug.COST_MODELS)
    p_solve.add_argument("--budget", type=int)
    p_solve.add_argument("--format", choices=["json", "text"], default="json")
    p_solve.add_argument(
        "--cross-check",
        action="store_true",
        help="also solve with the other of the subset and expansion engines and exit 3 if the "
        "outcomes differ (after one-plus-one, only in cost or feasibility); the expansion "
        "engine needs the edge cost model",
    )
    p_solve.set_defaults(func=cmd_solve)

    p_reduce = sub.add_parser("reduce", help="generate a gadget instance bundle")
    p_reduce.add_argument("kind", choices=["ds", "hs", "dsc", "3sat"])
    p_reduce.add_argument("source")
    p_reduce.add_argument("budget", type=int, nargs="?", help="required except for 3sat")
    p_reduce.add_argument("--out", required=True)
    p_reduce.add_argument("--mode", choices=list(red_mod.MODES), default=red_mod.MODE_SIMPLE)
    p_reduce.set_defaults(func=cmd_reduce)

    p_expand = sub.add_parser("expand", help="emit the temporal expansion")
    p_expand.add_argument("manifest")
    p_expand.add_argument("--semantics", choices=sorted(_SEMANTICS_FLAG))
    p_expand.add_argument("--format", choices=["dot", "json"], default="dot")
    p_expand.set_defaults(func=cmd_expand)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        print(f"error: internal: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
