"""Seeded input generators for the benchmark workloads.

``generate(workload, seed)`` returns the task pool of one workload as plain
JSON-ready dicts; ``write_pool`` writes the files each task reads.  This
module does not import ``tgaug``: the inputs are written in the ``.tg``,
``.cand``, matrix, set-list and DIMACS formats by the benchmark's own code,
so a change to the library's formatters or reachability code cannot change
the inputs or the set-up time.

A task is one input plus the CLI calls a user makes for it.  Each task has:

- ``id``: directory name of its files inside the pool;
- ``kind``: which generator made it (decides how the reference is computed);
- ``semantics``: ``strict`` or ``non-strict``, for the per-semantics medians;
- ``steps``: argv lists for ``tgaug.cli.main``; ``{dir}`` stands for the
  task directory;
- ``data``: the generated instance, from which the files and the reference
  are built.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

STRICT = "strict"
NON_STRICT = "non-strict"
_FLAG = {STRICT: "strict", NON_STRICT: "nonstrict"}

WORKLOADS = ("wide-certify", "narrow-search", "gadget-engines")


# -- temporal-graph helpers ---------------------------------------------------


def _slots(n: int, lifespan: int) -> list[tuple[int, int, int]]:
    return [(u, v, t) for t in range(1, lifespan + 1) for u in range(n) for v in range(u + 1, n)]


def _reach(n: int, edges, source: int, semantics: str) -> int:
    """Bitmask of the vertices a journey from ``source`` reaches."""
    by_time: dict[int, list[tuple[int, int]]] = {}
    for u, v, t in edges:
        by_time.setdefault(t, []).append((u, v))
    reach = 1 << source
    for t in sorted(by_time):
        if semantics == STRICT:
            new = 0
            for u, v in by_time[t]:
                if reach >> u & 1:
                    new |= 1 << v
                if reach >> v & 1:
                    new |= 1 << u
            reach |= new
        else:
            grown = True
            while grown:
                grown = False
                for u, v in by_time[t]:
                    if (reach >> u & 1) != (reach >> v & 1):
                        reach |= (1 << u) | (1 << v)
                        grown = True
    return reach


def meets(n: int, edges, requirement: dict, semantics: str) -> bool:
    """Whether the temporal graph on ``edges`` meets the requirement spec."""
    full = (1 << n) - 1
    kind = requirement["type"]
    if kind == "all":
        return all(_reach(n, edges, s, semantics) == full for s in range(n))
    if kind == "source":
        return _reach(n, edges, requirement["vertex"], semantics) == full
    hits = sum(_reach(n, edges, u, semantics) >> v & 1 for u, v in requirement["pairs"])
    demand = requirement.get("demand")
    return hits >= (len(requirement["pairs"]) if demand is None else demand)


def _connected_graph(rng: random.Random, n: int, lifespan: int, m: int, semantics: str):
    """``m`` distinct temporal edges drawn uniformly, redrawn until connected."""
    slots = _slots(n, lifespan)
    while True:
        edges = sorted(rng.sample(slots, m), key=lambda e: (e[2], e[0], e[1]))
        if meets(n, edges, {"type": "all"}, semantics):
            return edges


def _first_meeting(rng: random.Random, n: int, slots, requirement: dict, semantics: str):
    """Shortest prefix of a random slot order that meets the requirement.

    Every requirement holds on the complete temporal graph and feasibility
    only grows with the prefix, so a binary search finds the cut.
    """
    order = rng.sample(slots, len(slots))
    lo, hi = 0, len(order)
    while lo < hi:
        mid = (lo + hi) // 2
        if meets(n, order[:mid], requirement, semantics):
            hi = mid
        else:
            lo = mid + 1
    return order[:lo]


def _minimal(rng: random.Random, n: int, edges, requirement: dict, semantics: str):
    """Drop edges in random order while the requirement still holds."""
    kept = list(edges)
    for e in rng.sample(kept, len(kept)):
        trial = [x for x in kept if x != e]
        if meets(n, trial, requirement, semantics):
            kept = trial
    return kept


def _pairs(rng: random.Random, n: int, count: int) -> list[list[int]]:
    out = []
    while len(out) < count:
        u, v = rng.randrange(n), rng.randrange(n)
        if u != v:
            out.append([u, v])
    return out


def _requirement(rng: random.Random, kind: str, n: int, pair_count: int) -> dict:
    if kind == "all":
        return {"type": "all"}
    if kind == "source":
        return {"type": "source", "vertex": rng.randrange(n)}
    return {"type": "pairs", "pairs": _pairs(rng, n, pair_count), "demand": None}


def _problem(n, lifespan, edges, candidates, requirement, semantics, cost_model="edge", budget=None):
    return {
        "n": n,
        "lifespan": lifespan,
        "edges": [list(e) for e in edges],
        "candidates": sorted((list(e) for e in candidates), key=lambda e: (e[2], e[0], e[1])),
        "requirement": requirement,
        "semantics": semantics,
        "cost_model": cost_model,
        "budget": budget,
    }


def _task(index: int, kind: str, semantics: str, steps: list[list[str]], data: dict) -> dict:
    return {
        "id": f"t{index:03d}",
        "kind": kind,
        "semantics": semantics,
        "steps": steps,
        "data": data,
    }


# -- wide-certify ---------------------------------------------------------------

# requirement per task, cycled; All dominates so the median task builds a
# full n(n-1)-journey certificate
WIDE_REQUIREMENTS = ("all", "all", "all", "source", "pairs")
# each (semantics, requirement) class gets every n in 30..40 once
WIDE_TASKS = 2 * len(WIDE_REQUIREMENTS) * 11


def _weak_edges(rng: random.Random, n: int, edges, count: int) -> list:
    """``count`` edges at a vertex of least degree, so removing them likely disconnects."""
    degree = [0] * n
    for u, v, _ in edges:
        degree[u] += 1
        degree[v] += 1
    order = rng.sample(range(n), n)
    weak = min(range(n), key=lambda x: (degree[x], order[x]))
    incident = [e for e in edges if weak in e[:2]]
    removed = rng.sample(incident, min(count, len(incident)))
    rest = [e for e in edges if e not in removed]
    return removed + rng.sample(rest, count - len(removed))


def _wide_certify(rng: random.Random) -> list[dict]:
    tasks = []
    for i in range(WIDE_TASKS):
        semantics = STRICT if i % 2 else NON_STRICT
        kind = WIDE_REQUIREMENTS[(i // 2) % len(WIDE_REQUIREMENTS)]
        stratum = i // (2 * len(WIDE_REQUIREMENTS))
        n = 30 + (3 * stratum) % 11
        lifespan = 10 + stratum % 3
        m = round(n * (7.0 if semantics == STRICT else 5.5))
        full = _connected_graph(rng, n, lifespan, m, semantics)
        removed = _weak_edges(rng, n, full, 3)
        base = [e for e in full if e not in removed]
        data = _problem(
            n, lifespan, base, removed, _requirement(rng, kind, n, n * (n - 1) // 2), semantics
        )
        steps = [
            ["check", "{dir}/g.tg", "--semantics", _FLAG[semantics]],
            ["solve", "{dir}/manifest.json"],
        ]
        tasks.append(_task(i, "certify", semantics, steps, data))
    return tasks


# -- narrow-search ---------------------------------------------------------------

NARROW_SPANNERS = 128
NARROW_RANDOM = 512
NARROW_REQUIREMENTS = ("all", "source", "pairs")
# edges removed from a minimal graph; the budget is one less
NARROW_PLANTED = 4
# extra decoy candidates per class, so that every (semantics, cost model)
# class costs about the same and no percentile falls in a gap between them:
# groups merge candidates into fewer search units, and a strict subset test
# skips the component merging of a non-strict one
NARROW_EXTRA = {
    (NON_STRICT, "edge"): 0,
    (NON_STRICT, "group"): 6,
    (STRICT, "edge"): 0,
    (STRICT, "group"): 18,
}


def _narrow_search(rng: random.Random) -> list[dict]:
    tasks = []
    for i in range(NARROW_SPANNERS):
        # spanner_via_tca: edgeless base, every edge of g a candidate, All
        lifespan = 2 + i % 2
        m = (13, 14, 15, 16)[(i // 2) % 4] + (2 if lifespan == 3 else 0)
        g = _connected_graph(rng, 6, lifespan, m, NON_STRICT)
        data = _problem(6, lifespan, [], g, {"type": "all"}, NON_STRICT)
        tasks.append(_task(i, "spanner", NON_STRICT, [["solve", "{dir}/manifest.json"]], data))
    for j in range(NARROW_RANDOM):
        semantics = STRICT if j % 2 else NON_STRICT
        cost_model = "group" if (j // 2) % 2 else "edge"
        kind = NARROW_REQUIREMENTS[(j // 4) % len(NARROW_REQUIREMENTS)]
        n = 7 + (j // 12) % 3
        lifespan = 2 + (j // 4) % 3
        total = (24, 28, 32)[(j // 3) % 3] + NARROW_EXTRA[semantics, cost_model]
        slots = _slots(n, lifespan)
        while True:
            requirement = _requirement(rng, kind, n, 4)
            full = _first_meeting(rng, n, slots, requirement, semantics)
            full = _minimal(rng, n, full, requirement, semantics)
            by_pair = {(u, v): (u, v, t) for u, v, t in full}
            if len(by_pair) >= NARROW_PLANTED:
                break
        # every edge of a minimal graph is needed, so the base falls short;
        # distinct endpoint pairs give both cost models the same budget
        removed = rng.sample(sorted(by_pair.values()), NARROW_PLANTED)
        base = [e for e in full if e not in removed]
        absent = [e for e in slots if e not in full]
        candidates = removed + rng.sample(absent, min(len(absent), total - NARROW_PLANTED))
        # the removed edges are a solution, so the optimum is at most their
        # unit count; a budget one below it makes the solver scan every level
        data = _problem(
            n, lifespan, base, candidates, requirement, semantics, cost_model, NARROW_PLANTED - 1
        )
        data["planted"] = sorted(list(e) for e in removed)
        index = NARROW_SPANNERS + j
        tasks.append(_task(index, "search", semantics, [["solve", "{dir}/manifest.json"]], data))
    return tasks


# -- gadget-engines ---------------------------------------------------------------

GADGET_TASKS = 400
GADGET_KINDS = (
    "reduce-ds",
    "octo",
    "reduce-hs",
    "pairs-expansion",
    "reduce-dsc",
    "expand",
    "reduce-3sat",
    "octo",
    "one-plus-one",
    "reduce-3sat",
)

OCTO_SHAPES = ((4, 4), (4, 5), (5, 4), (5, 5), (6, 4), (6, 5))


def _static_graph(rng: random.Random, n: int) -> dict:
    edges = [[u, v] for u in range(n) for v in range(u + 1, n) if rng.random() < 0.5]
    return {"n": n, "edges": edges}


def _set_system(rng: random.Random, universe: int, count: int) -> list[list[int]]:
    """``count`` random subsets that together cover the universe."""
    sets = [set(rng.sample(range(universe), rng.randint(1, min(3, universe)))) for _ in range(count)]
    for e in range(universe):
        if not any(e in s for s in sets):
            rng.choice(sets).add(e)
    return [sorted(s) for s in sets]


def _planted_cnf(rng: random.Random, n_vars: int, n_clauses: int) -> list[list[int]]:
    """Clauses over distinct variables, each satisfied by a hidden assignment."""
    truth = [rng.random() < 0.5 for _ in range(n_vars)]
    clauses = []
    while len(clauses) < n_clauses:
        variables = rng.sample(range(1, n_vars + 1), 3)
        clause = [v if rng.random() < 0.5 else -v for v in variables]
        if any((lit > 0) == truth[abs(lit) - 1] for lit in clause):
            clauses.append(clause)
    return clauses


def _sparse_pairs_problem(rng: random.Random, semantics: str, cycle: int) -> dict:
    """Pairs instance with at most 14 candidates, feasible only with some of them."""
    n = 5 + (cycle // 2) % 2
    lifespan = 2 + (cycle // 4) % 2
    slots = _slots(n, lifespan)
    while True:
        base = rng.sample(slots, rng.randint(n, n + 4))
        absent = [e for e in slots if e not in base]
        candidates = rng.sample(absent, min(len(absent), rng.randint(10, 14)))
        pairs = _pairs(rng, n, rng.randint(2, 3))
        requirement = {"type": "pairs", "pairs": pairs, "demand": rng.randint(1, len(pairs))}
        if meets(n, base + candidates, requirement, semantics) and not meets(
            n, base, requirement, semantics
        ):
            return _problem(n, lifespan, base, candidates, requirement, semantics)


def _gadget(rng: random.Random, index: int, kind: str, cycle: int) -> dict:
    mode = "unrestricted" if cycle % 2 else "simple"
    if kind == "reduce-ds":
        # sparser or larger sources reach the unrestricted-mode wall (NOTES.md)
        data = _static_graph(rng, 5 + (cycle // 2) % 2)
        data["mode"] = mode
        data["budget"] = data["n"]
        steps = [
            ["reduce", "ds", "{dir}/src.txt", str(data["n"]), "--out", "{dir}/bundle", "--mode", mode],
            ["solve", "{dir}/bundle/manifest.json"],
        ]
        return _task(index, kind, STRICT, steps, data)
    if kind == "reduce-hs":
        universe = 4 + cycle % 3
        data = {"universe": universe, "sets": _set_system(rng, universe, 3 + (cycle // 3) % 2)}
        data["mode"] = mode
        data["budget"] = universe
        steps = [
            ["reduce", "hs", "{dir}/src.txt", str(universe), "--out", "{dir}/bundle", "--mode", mode],
            ["solve", "{dir}/bundle/manifest.json"],
        ]
        return _task(index, kind, NON_STRICT, steps, data)
    if kind == "reduce-dsc":
        universe = 2 + cycle % 2
        data = {"universe": universe, "sets": _set_system(rng, universe, 3 + (cycle // 2) % 2)}
        data["covers"] = 1 + (cycle // 4) % 2
        steps = [
            ["reduce", "dsc", "{dir}/src.txt", str(data["covers"]), "--out", "{dir}/bundle"],
            ["solve", "{dir}/bundle/manifest.json"],
        ]
        return _task(index, kind, NON_STRICT, steps, data)
    if kind == "reduce-3sat":
        n_vars = 3 + index % 2
        data = {"n_vars": n_vars, "clauses": _planted_cnf(rng, n_vars, 2)}
        steps = [
            ["reduce", "3sat", "{dir}/src.cnf", "0", "--out", "{dir}/bundle"],
            ["solve", "{dir}/bundle/manifest.json"],
        ]
        return _task(index, kind, NON_STRICT, steps, data)
    if kind == "octo":
        rows, cols = OCTO_SHAPES[(index // 5) % len(OCTO_SHAPES)]
        while True:
            matrix = [[int(rng.random() < 0.4) for _ in range(cols)] for _ in range(rows)]
            if any(map(any, matrix)):
                break
        return _task(index, kind, NON_STRICT, [["solve", "{dir}/manifest.json"]], {"rows": matrix})
    if kind == "pairs-expansion":
        semantics = STRICT if cycle % 2 else NON_STRICT
        data = _sparse_pairs_problem(rng, semantics, cycle)
        steps = [["solve", "{dir}/manifest.json", "--engine", "expansion"]]
        return _task(index, kind, semantics, steps, data)
    if kind == "expand":
        semantics = NON_STRICT if cycle % 2 else STRICT
        data = _sparse_pairs_problem(rng, semantics, cycle)
        steps = [
            ["expand", "{dir}/manifest.json", "--format", "dot"],
            ["expand", "{dir}/manifest.json", "--format", "json"],
        ]
        return _task(index, kind, semantics, steps, data)
    # one-plus-one: a lifespan-1 graph plus every time-2 edge as a candidate
    n = 6 + cycle % 5
    base = [(u, v, 1) for u, v, _ in _slots(n, 1) if rng.random() < 0.25] or [(0, 1, 1)]
    candidates = [(u, v, 2) for u, v, _ in _slots(n, 1)]
    data = _problem(n, 1, base, candidates, {"type": "all"}, NON_STRICT)
    return _task(index, kind, NON_STRICT, [["solve", "{dir}/manifest.json"]], data)


def _gadget_engines(rng: random.Random) -> list[dict]:
    return [
        _gadget(rng, i, GADGET_KINDS[i % len(GADGET_KINDS)], i // len(GADGET_KINDS))
        for i in range(GADGET_TASKS)
    ]


_GENERATORS = {
    "wide-certify": _wide_certify,
    "narrow-search": _narrow_search,
    "gadget-engines": _gadget_engines,
}


def generate(workload: str, seed: int) -> list[dict]:
    """The task pool of ``workload`` in run order; equal seeds give equal pools."""
    rng = random.Random(f"{workload}/{seed}")
    tasks = _GENERATORS[workload](rng)
    # a run that stops inside a pass then measures a random sample of the pool
    rng.shuffle(tasks)
    return tasks


# -- file writers -----------------------------------------------------------------


def _format_tg(n: int, lifespan: int, edges) -> str:
    lines = [f"T {lifespan}", f"V {n}"]
    lines.extend(f"E {u} {v} {t}" for u, v, t in edges)
    return "\n".join(lines) + "\n"


def _format_candidates(edges) -> str:
    return "".join(f"E {u} {v} {t}\n" for u, v, t in edges)


def dump(data) -> str:
    """Compact sorted JSON plus a newline, as the CLI prints it."""
    return json.dumps(data, sort_keys=True, separators=(",", ":")) + "\n"


def _problem_files(data: dict) -> dict[str, str]:
    manifest = {
        "schema": 1,
        "kind": "tca",
        "graph": "g.tg",
        "candidates": "c.cand",
        "requirement": data["requirement"],
        "semantics": data["semantics"],
        "cost_model": data["cost_model"],
        "budget": data["budget"],
    }
    return {
        "g.tg": _format_tg(data["n"], data["lifespan"], data["edges"]),
        "c.cand": _format_candidates(data["candidates"]),
        "manifest.json": dump(manifest),
    }


def _set_list(universe: int, sets) -> str:
    lines = [f"U {universe}"]
    lines.extend(f"S {i}: " + " ".join(map(str, s)) for i, s in enumerate(sets))
    return "\n".join(lines) + "\n"


def task_files(task: dict) -> dict[str, str]:
    """File name -> content for one task's directory."""
    kind, data = task["kind"], task["data"]
    if kind == "reduce-ds":
        lines = [f"V {data['n']}"] + [f"E {u} {v}" for u, v in data["edges"]]
        return {"src.txt": "\n".join(lines) + "\n"}
    if kind in ("reduce-hs", "reduce-dsc"):
        return {"src.txt": _set_list(data["universe"], data["sets"])}
    if kind == "reduce-3sat":
        lines = [f"p cnf {data['n_vars']} {len(data['clauses'])}"]
        lines.extend(" ".join(map(str, c)) + " 0" for c in data["clauses"])
        return {"src.cnf": "\n".join(lines) + "\n"}
    if kind == "octo":
        rows = data["rows"]
        text = f"{len(rows)} {len(rows[0])}\n" + "".join(" ".join(map(str, r)) + "\n" for r in rows)
        manifest = {"schema": 1, "kind": "octo", "matrix": "m.mat", "budget": None}
        return {"m.mat": text, "manifest.json": dump(manifest)}
    return _problem_files(data)


def pool_files(tasks: list[dict]) -> dict[str, dict[str, str]]:
    """Directory -> file name -> content: every task's files under ``<id>/``
    and the pool itself in ``tasks.json`` at the top."""
    files = {task["id"]: task_files(task) for task in tasks}
    files[""] = {"tasks.json": dump(tasks)}
    return files


def write_files(files: dict[str, dict[str, str]], root: Path) -> None:
    """Write what ``pool_files`` returned under ``root``."""
    root.mkdir(parents=True, exist_ok=True)
    for directory, contents in files.items():
        target = root / directory
        target.mkdir(exist_ok=True)
        for name, text in contents.items():
            (target / name).write_text(text, encoding="utf-8")


def write_pool(tasks: list[dict], root: Path) -> None:
    """Write every task's files under ``root/<id>/`` and the pool to ``root/tasks.json``."""
    write_files(pool_files(tasks), root)


def argv(step: list[str], task_dir: Path) -> list[str]:
    """One step's argv with the task directory filled in."""
    return [arg.replace("{dir}", str(task_dir)) for arg in step]
