"""Seeded inputs for the benchmark workloads.

The base instances are fixed in ``corpus.json``, which ``build_corpus.py``
writes together with their reference answers.  A run's seed draws one
vertex relabeling per base instance.  Cover numbers, optimum sizes and
feasibility verdicts do not change under relabeling, so the stored
references hold for every seed, while the solvers' lowest-id tie-breaks
meet a different graph each time.  Keeping the graphs themselves fixed is
what lets runs with different seeds agree on the timing metrics: fresh
random graphs of these sizes differ in solve time by two orders of
magnitude.

Set-up goes through the library's own generators and gadget builders and
then through ``parse_dimacs``, as instances read from files would.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass
from typing import Any

import numpy as np

from pauvc import (
    Cnf1in3,
    Graph,
    PreAssignment,
    VertexSet,
    build_bipartite_gadget,
    build_gc,
    gnp_graph,
    parse_dimacs,
    random_tree,
)

CORPUS_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "corpus.json")


class CorpusError(Exception):
    """The library no longer regenerates a stored base instance."""


@dataclass(frozen=True)
class Instance:
    """One call of a workload: a parsed graph, a model and its reference."""

    ident: str
    graph: Graph
    model: str
    ref: dict[str, Any]
    pre: PreAssignment | None = None
    cover: VertexSet | None = None


class _Untraced:
    def call(self, name, fn, *args, **kwargs):
        return fn(*args, **kwargs)


def load_corpus(path: str = CORPUS_PATH) -> dict[str, Any]:
    with open(path, encoding="ascii") as fh:
        return json.load(fh)


def edges_digest(g: Graph) -> str:
    text = ";".join(f"{u},{v}" for u, v in g.edges())
    return hashlib.sha1(f"{g.n}:{text}".encode("ascii")).hexdigest()


def bipartite_part(g: Graph) -> Graph:
    """The edges of g that join an even-numbered to an odd-numbered vertex."""
    return Graph(g.n, [(u, v) for u, v in g.edges() if (u - v) % 2])


def generate(spec: dict[str, Any], tr=None) -> Graph:
    """Build one base instance from its parameters."""
    tr = tr or _Untraced()
    family = spec["family"]
    if family == "gnp":
        g = tr.call("random_graphs.gen", gnp_graph, spec["n"], spec["p"], spec["seed"])
    elif family == "tree":
        g = tr.call("random_graphs.gen", random_tree, spec["n"], spec["seed"])
    elif family == "gc":
        cnf = Cnf1in3(spec["num_vars"], tuple(tuple(c) for c in spec["clauses"]))
        g, _ = tr.call("reductions.build", build_gc, cnf)
    elif family == "bipartite":
        sample = tr.call(
            "random_graphs.gen", gnp_graph, spec["n"], spec["p"], spec["seed"]
        )
        g = tr.call("reductions.build", build_bipartite_gadget, bipartite_part(sample))
    else:
        raise CorpusError(f"unknown family {family!r}")
    return g


def base_graph(spec: dict[str, Any], tr=None) -> Graph:
    """Regenerate one stored base instance, checking that it is unchanged."""
    g = generate(spec, tr)
    if edges_digest(g) != spec["edges_sha1"]:
        raise CorpusError(f"{spec['id']}: regenerated graph differs from the corpus")
    return g


def relabeled_dimacs(g: Graph, perm: np.ndarray) -> str:
    edges = sorted(
        (min(a, b), max(a, b))
        for a, b in ((int(perm[u]), int(perm[v])) for u, v in g.edges())
    )
    lines = [f"p edge {g.n} {len(edges)}"]
    lines += [f"e {u + 1} {v + 1}" for u, v in edges]
    return "\n".join(lines) + "\n"


def _mapped(n: int, perm: np.ndarray, vertices: list[int]) -> VertexSet:
    return VertexSet(n, [int(perm[v]) for v in vertices])


def build_instances(
    workload: str, seed: int, corpus: dict[str, Any], tr=None
) -> list[Instance]:
    """Generate, relabel and parse the instances of one workload."""
    tr = tr or _Untraced()
    out: list[Instance] = []
    for index, spec in enumerate(corpus[workload]):
        g = base_graph(spec, tr)
        perm = np.random.default_rng([seed, index]).permutation(g.n)
        parsed = tr.call("graph.parse", parse_dimacs, relabeled_dimacs(g, perm))
        if workload == "dense_check":
            cover = _mapped(g.n, perm, spec["cover"])
            for j, check in enumerate(spec["checks"]):
                chosen = _mapped(g.n, perm, check["vertices"])
                if check["model"] == "include":
                    pre = PreAssignment.including(chosen)
                else:
                    pre = PreAssignment.excluding(chosen)
                out.append(
                    Instance(
                        f"{spec['id']}/{j}", parsed, check["model"], check, pre, cover
                    )
                )
        else:
            for model in ("include", "exclude"):
                out.append(Instance(f"{spec['id']}/{model}", parsed, model, spec))
    return out
