"""Reference answers for every task, computed without the solver under test.

Each step of a task gets an expectation dict (exit code plus the facts its
output must state).  The routes are independent of the code being timed:

- ``tests/oracles.py`` brute force: ``journey_connected`` and
  ``union_find_components`` for ``check``, ``brute_min_cost`` for the
  wide-certify and expansion instances, ``brute_octo_min`` for matrices;
- the source-problem oracles for gadgets: ``brute_dominating_min``,
  ``brute_hitting_min``, ``brute_max_disjoint_covers`` and ``brute_sat``;
- a second engine (``solve_exact``) for the Pairs instances solved with
  ``--engine expansion``;
- for narrow-search, a monotone brute force on the benchmark's own
  reachability sweep (``workloads.meets``).  Adding edges never breaks a
  requirement, so a level with no feasible subset proves every smaller level
  infeasible too; ``brute_min_cost`` would instead enumerate every level
  from 0 and take minutes per seed on this workload.

Results are cached per workload and seed, keyed by the digest of the pool.
"""

from __future__ import annotations

import hashlib
import itertools
import json
from pathlib import Path

import workloads

# the library imports live in compute(): this module is imported by the
# parent process too, which must not import tgaug


def pool_digest(pool_dir: Path) -> str:
    return hashlib.sha256((pool_dir / "tasks.json").read_bytes()).hexdigest()


def load_cached(path: Path, digest: str) -> dict | None:
    try:
        data = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError):
        return None
    return data if data.get("digest") == digest else None


def _units(data: dict) -> list[list[tuple[int, int, int]]]:
    """Candidate units in canonical order: single edges, or endpoint-pair groups."""
    edges = sorted((tuple(e) for e in data["candidates"]), key=lambda e: (e[2], e[0], e[1]))
    if data["cost_model"] != "group":
        return [[e] for e in edges]
    groups: dict[tuple[int, int], list] = {}
    for e in edges:
        groups.setdefault((e[0], e[1]), []).append(e)
    return [groups[pair] for pair in sorted(groups)]


def _feasible_at(data: dict, units, size: int) -> bool:
    base = [tuple(e) for e in data["edges"]]
    for combo in itertools.combinations(units, size):
        chosen = base + [e for unit in combo for e in unit]
        if workloads.meets(data["n"], chosen, data["requirement"], data["semantics"]):
            return True
    return False


def monotone_min_cost(data: dict, upper: int | None = None, lower: int = 0) -> int:
    """Minimum feasible unit count, searching down from ``upper`` or up from ``lower``."""
    units = _units(data)
    if upper is not None:
        cost = upper
        while cost > 0 and _feasible_at(data, units, cost - 1):
            cost -= 1
        return cost
    cost = lower
    while not _feasible_at(data, units, cost):
        cost += 1
    return cost


def _solve_expectation(data: dict, cost: int | None, engine: str = "subset") -> dict:
    budget = data.get("budget")
    if cost is not None and (budget is None or cost <= budget):
        return {"exit": 0, "solve": {"feasible": True, "cost": cost, "engine": engine}}
    reason = "infeasible" if cost is None else "budget_exceeded"
    return {"exit": 1, "solve": {"feasible": False, "reason": reason, "engine": engine}}


def _check_text(tg, oracles, data: dict) -> tuple[int, str]:
    """The exact ``tgaug check`` JSON, from union-find and journey enumeration."""
    base = tg.graph(data)
    connected = oracles.journey_connected(base, data["semantics"])
    by_time: dict[int, list[tuple[int, int]]] = {}
    for u, v, t in data["edges"]:
        by_time.setdefault(t, []).append((u, v))
    components = {
        str(t): [list(b) for b in oracles.union_find_components(data["n"], by_time.get(t, []))]
        for t in range(1, data["lifespan"] + 1)
    }
    report = {
        "schema": 1,
        "connected": connected,
        "semantics": data["semantics"],
        "n": data["n"],
        "lifespan": data["lifespan"],
        "components_per_time": components,
    }
    return (0 if connected else 1), workloads.dump(report)


def _expansion_counts(data: dict) -> dict:
    """Node and arc counts of the temporal expansion, from its definition."""
    edges = [tuple(e) for e in data["edges"]] + [tuple(e) for e in data["candidates"]]
    n, lifespan = data["n"], data["lifespan"]
    arcs = n * lifespan + 5 * len(edges)
    if data["semantics"] == workloads.NON_STRICT:
        for e1, e2 in itertools.combinations(edges, 2):
            if e1[2] == e2[2] and {e1[0], e1[1]} & {e2[0], e2[1]}:
                arcs += 2
    return {
        "semantics": data["semantics"],
        "n": n,
        "lifespan": lifespan,
        "node_count": n * (lifespan + 1) + 2 * len(edges),
        "arc_count": arcs,
    }


def expectations(task: dict, tg, oracles) -> list[dict]:
    """One expectation per step of ``task``."""
    kind, data = task["kind"], task["data"]
    if kind == "certify":
        code, text = _check_text(tg, oracles, data)
        cost = oracles.brute_min_cost(tg.problem(data))
        return [{"exit": code, "stdout": text}, _solve_expectation(data, cost)]
    if kind == "spanner":
        # a temporally connected graph has a connected footprint: >= n-1 edges
        return [_solve_expectation(data, monotone_min_cost(data, lower=data["n"] - 1))]
    if kind == "search":
        # the planted edges have distinct endpoint pairs: one unit each
        return [_solve_expectation(data, monotone_min_cost(data, upper=len(data["planted"])))]
    if kind == "pairs-expansion":
        problem = tg.problem(data)
        cost = oracles.brute_min_cost(problem)
        second = tg.aug.solve_exact(problem, with_certificate=False)
        if (second.cost if second.feasible else None) != cost:
            raise RuntimeError(f"{task['id']}: brute force {cost} != subset engine {second}")
        return [_solve_expectation(data, cost, engine="expansion")]
    if kind == "expand":
        counts = _expansion_counts(data)
        return [{"exit": 0, "expand": counts}, {"exit": 0, "expand": counts}]
    if kind == "one-plus-one":
        pairs = [(u, v) for u, v, _ in data["edges"]]
        blocks = oracles.union_find_components(data["n"], pairs)
        cost = data["n"] - min(len(b) for b in blocks)
        return [_solve_expectation(data, cost, engine="one-plus-one")]
    if kind == "octo":
        rows = tuple(tuple(r) for r in data["rows"])
        best = oracles.brute_octo_min(rows)
        return [{"exit": 0, "octo": {"status": "solved", "min_combinations": best}}]
    if kind == "reduce-dsc":
        subsets = [frozenset(s) for s in data["sets"]]
        covers = oracles.brute_max_disjoint_covers(subsets, data["universe"])
        if covers >= data["covers"]:
            octo = {"status": "solved", "min_combinations": len(subsets) - covers}
            return [{"exit": 0}, {"exit": 0, "octo": octo}]
        return [{"exit": 0}, {"exit": 1, "octo": {"status": "budget_exceeded"}}]
    if kind == "reduce-ds":
        edges = frozenset(tuple(e) for e in data["edges"])
        cost = oracles.brute_dominating_min(data["n"], edges)
        return [{"exit": 0}, _solve_expectation(data, cost)]
    if kind == "reduce-hs":
        subsets = [frozenset(s) for s in data["sets"]]
        cost = oracles.brute_hitting_min(subsets, data["universe"])
        return [{"exit": 0}, _solve_expectation(data, cost)]
    if kind == "reduce-3sat":
        # every variable chain needs the links of one branch (3 per clause);
        # they reach the clause chain within that budget iff the CNF is
        # satisfiable
        budget = 3 * len(data["clauses"])
        sat = oracles.brute_sat(data["n_vars"], data["clauses"]) is not None
        return [{"exit": 0}, _solve_expectation({"budget": budget}, budget + (not sat))]
    raise ValueError(f"unknown task kind {kind!r}")


def compute(tasks: list[dict]) -> dict:
    """Expectations of every task, keyed by task id."""
    import oracles
    import tgbuild

    return {task["id"]: expectations(task, tgbuild, oracles) for task in tasks}
