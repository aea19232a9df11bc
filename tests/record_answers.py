"""Write tests/answers.json, the answer ledger that test_answers.py checks.

Run from the repository root:

    PYTHONPATH=src python tests/record_answers.py

Each record is one seeded input, its graph written out in full, and the
outputs whose contract fixes them (:func:`answers`):

- ``leaves``: ``branch_to_matchings``' leaves in order, each as its forced
  vertices and its matching edges;
- ``tau`` and ``lex_cover``: ``min_vertex_cover``'s size and cover, the
  lexicographic minimum;
- ``unique``: ``has_unique_min_vc``'s verdict, and ``unique_cover`` its
  cover when the verdict is True (any minimum cover may come otherwise);
- ``feasible/<model>``: ``is_feasible``'s verdict, reason and witness on
  pins drawn from the lexicographic cover and its complement;
- ``min_covers``: ``enumerate_min_vertex_covers``, for n <= 16;
- ``solve/<model>/<algo>``: ``solve``'s optimum, include set, exclude set
  and unique cover, in every model with algo ``auto`` and ``fpt`` for
  n <= 22 and for the inputs of :func:`pinned_inputs`, and ``enum`` for
  n <= 12;
- ``solve_enum/<model>``: ``solve_enum``'s optimum, include set, exclude
  set and unique cover on the whole graph, for n <= 12;
- ``pau_tree/<model>``: ``pau_tree``'s tau, optimum, include set and
  exclude set, for the inputs that are connected trees.

The node and decision counters are not recorded: speed work moves them.
A change that re-records the file says which records moved, and why.
"""

from __future__ import annotations

import json
import random
import sys
from pathlib import Path

from oracles import random_union
from pauvc import (
    Cnf1in3,
    Graph,
    GraphKind,
    Model,
    PreAssignment,
    VertexSet,
    branch_to_matchings,
    build_bipartite_gadget,
    build_gc,
    classify,
    enumerate_min_vertex_covers,
    gnp_graph,
    has_unique_min_vc,
    is_feasible,
    min_vertex_cover,
    pau_tree,
    random_tree,
    solve,
    solve_enum,
)

LEDGER = Path(__file__).with_name("answers.json")

MODELS = ("include", "exclude", "mixed")
SOLVE_MAX_N = 22
ENUM_MAX_N = 12
COVERS_MAX_N = 16


def bipartite_part(g: Graph) -> Graph:
    """The edges of g that join an even id to an odd one."""
    return Graph(g.n, [(u, v) for u, v in g.edges() if (u - v) % 2])


def random_1in3(num_vars: int, num_clauses: int, rng: random.Random) -> Cnf1in3:
    """A formula of distinct-variable clauses with random signs."""
    clauses = []
    for _ in range(num_clauses):
        chosen = rng.sample(range(1, num_vars + 1), 3)
        clauses.append(tuple(v if rng.random() < 0.5 else -v for v in chosen))
    return Cnf1in3(num_vars, tuple(clauses))


def inputs() -> list[tuple[str, Graph]]:
    """The seeded inputs, each under a name that says how to rebuild it."""
    out = []
    for n in range(2, 41):
        for p in (0.1, 0.2, 0.35):
            out.append((f"gnp({n}, {p}, {n})", gnp_graph(n, p, n)))
    for n in range(8, 41, 2):
        out.append((f"bipartite_part(gnp({n}, 0.3, {n}))",
                    bipartite_part(gnp_graph(n, 0.3, n))))
    rng = random.Random(2)
    for i in range(24):
        n, edges = random_union(30 if i % 3 == 2 else 22, 8, rng)
        out.append((f"random_union(Random(2), #{i})", Graph(n, edges)))
    rng = random.Random(3)
    for num_vars, num_clauses in ((3, 1), (3, 2), (3, 2), (4, 1), (4, 2), (5, 2)):
        cnf = random_1in3(num_vars, num_clauses, rng)
        out.append((f"build_gc({cnf.num_vars}, {list(cnf.clauses)})", build_gc(cnf)[0]))
    for n in range(4, 17):
        base = bipartite_part(gnp_graph(n, 0.4, n))
        out.append((f"build_bipartite_gadget(bipartite_part(gnp({n}, 0.4, {n})))",
                    build_bipartite_gadget(base)))
    for n in (2, 5, 9, 14, 18, 22, 30, 40):
        out.append((f"random_tree({n}, {n})", random_tree(n, n)))
    return out


def pinned_inputs() -> list[tuple[str, Graph]]:
    """Larger inputs whose solves are recorded at every n.

    Sparse gnp graphs and gadgets, on which the pins each target cover
    forces (a forced vertex with one neighbour off the cover) drop most
    candidates of the fixed-parameter stream.
    """
    out = []
    for n, p, seed in ((30, 0.12, 0), (38, 0.08, 0), (40, 0.12, 0), (50, 0.07, 50),
                       (52, 0.06, 52), (60, 0.05, 60), (60, 0.06, 60)):
        out.append((f"gnp({n}, {p}, {seed})", gnp_graph(n, p, seed)))
    for n in (12, 14, 16, 17, 18):
        base = bipartite_part(gnp_graph(n, 0.3, n))
        out.append((f"build_bipartite_gadget(bipartite_part(gnp({n}, 0.3, {n})))",
                    build_bipartite_gadget(base)))
    return out


def cases() -> list[tuple[str, Graph, bool]]:
    """Every recorded input, in ledger order, and whether its solves are recorded."""
    return [
        *((name, g, g.n <= SOLVE_MAX_N) for name, g in inputs()),
        *((name, g, True) for name, g in pinned_inputs()),
    ]


def answers(g: Graph, solved: bool) -> dict:
    """Each recorded field of g, as JSON values, with ``solve`` if solved."""
    out: dict = {
        "leaves": [
            [list(leaf.forced), [list(e) for e in leaf.matching]]
            for leaf in branch_to_matchings(g)
        ]
    }
    least = min_vertex_cover(g)
    out["tau"] = least.tau
    out["lex_cover"] = list(least.cover)
    unique, cover = has_unique_min_vc(g)
    out["unique"] = unique
    if unique:
        out["unique_cover"] = list(cover.cover)
    inside, outside = list(least.cover), list(least.cover.complement())
    for model, inc, exc in (
        (Model.INCLUDE, inside[::2], []),
        (Model.EXCLUDE, [], outside[::2]),
        (Model.MIXED, inside[1::2], outside[1::2]),
    ):
        pre = PreAssignment(model, VertexSet(g.n, inc), VertexSet(g.n, exc))
        report = is_feasible(g, pre)
        out[f"feasible/{model.value}"] = [
            report.feasible,
            None if report.reason is None else report.reason.value,
            None if report.witness is None else list(report.witness),
        ]
    if g.n <= COVERS_MAX_N:
        out["min_covers"] = [list(c) for c in enumerate_min_vertex_covers(g)]
    if solved:
        algos = ("auto", "fpt", "enum") if g.n <= ENUM_MAX_N else ("auto", "fpt")
        for model in MODELS:
            for algo in algos:
                r = solve(g, model, algo)
                out[f"solve/{model}/{algo}"] = [
                    r.opt_size, list(r.pre.include), list(r.pre.exclude),
                    list(r.unique_cover),
                ]
        if g.n <= ENUM_MAX_N:
            for model in MODELS:
                r = solve_enum(g, model)
                out[f"solve_enum/{model}"] = [
                    r.opt_size, list(r.pre.include), list(r.pre.exclude),
                    list(r.unique_cover),
                ]
    if classify(g).kind is GraphKind.TREE:
        for model in MODELS:
            t = pau_tree(g, model)
            out[f"pau_tree/{model}"] = [
                t.tau, t.opt, list(t.witness.include), list(t.witness.exclude),
            ]
    return out


def main() -> None:
    lines = []
    for name, g, solved in cases():
        record = {"input": name, "n": g.n, "edges": [list(e) for e in g.edges()]}
        record.update(answers(g, solved))
        lines.append(json.dumps(record, separators=(",", ":")))
    # One record per line, so a diff names the inputs that moved.
    LEDGER.write_text("[\n" + ",\n".join(lines) + "\n]\n")
    print(f"wrote {len(lines)} records to {LEDGER}", file=sys.stderr)


if __name__ == "__main__":
    main()
