"""Build ``tgaug`` objects from the JSON data of a task.

Only the worker processes import this module, after ``src/`` is on the path.
"""

from __future__ import annotations

from tgaug import augmentation as aug
from tgaug import octo
from tgaug import reductions as red
from tgaug.temporal_graph import TemporalEdge, TemporalGraph


def graph(data: dict) -> TemporalGraph:
    edges = (TemporalEdge(*e) for e in data["edges"])
    return TemporalGraph.build(data["n"], edges, lifespan=data["lifespan"])


def requirement(spec: dict) -> aug.Requirement:
    if spec["type"] == "all":
        return aug.All()
    if spec["type"] == "source":
        return aug.Source(spec["vertex"])
    return aug.Pairs(tuple((u, v) for u, v in spec["pairs"]), spec.get("demand"))


def problem(data: dict) -> aug.AugmentationProblem:
    return aug.AugmentationProblem(
        graph(data),
        frozenset(TemporalEdge(*e) for e in data["candidates"]),
        requirement(data["requirement"]),
        data["semantics"],
        data["cost_model"],
        data["budget"],
    )


def bundle_problem(task: dict) -> aug.AugmentationProblem:
    """The augmentation instance a ``tgaug reduce`` task writes."""
    kind, data = task["kind"], task["data"]
    if kind == "reduce-ds":
        edges = frozenset(tuple(e) for e in data["edges"])
        inst = red.StaticGraphInstance(data["n"], edges, data["budget"])
        return red.reduce_dominating_set(inst, data["mode"]).problem
    if kind == "reduce-hs":
        subsets = tuple(frozenset(s) for s in data["sets"])
        inst = red.SetSystemInstance(data["universe"], subsets, data["budget"])
        return red.reduce_hitting_set(inst, data["mode"]).problem
    if kind == "reduce-3sat":
        cnf = red.CnfInstance(data["n_vars"], tuple(tuple(c) for c in data["clauses"]))
        return red.reduce_3sat(cnf).problem
    return problem(data)


def matrix(task: dict) -> octo.BinaryMatrix:
    """The matrix an OCTO task solves: generated, or written by ``reduce dsc``."""
    data = task["data"]
    if task["kind"] == "octo":
        return octo.BinaryMatrix.from_rows(data["rows"])
    subsets = tuple(frozenset(s) for s in data["sets"])
    inst = red.SetSystemInstance(data["universe"], subsets, data["covers"])
    return red.reduce_dsc(inst).matrix
