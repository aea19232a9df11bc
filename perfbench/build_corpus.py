"""Build ``corpus.json``: the base instances and their reference answers.

Run from the repository root (it takes under a minute):

    python3 perfbench/build_corpus.py

Base instances are drawn from BUILD_SEED.  gnp graphs are kept when they
fit their slot, so the corpus covers a spread of sizes without instances
that blow up.  Slots are set by the size of the include candidate space
(log2 of the sum over branching leaves of 2^(pairs + |forced|)) for gnp
graphs and by tau for the dense graphs.  Trees are the first TREE_SLOTS
draws, slow tail included: that tail is what a faster tree solver removes.

A run relabels every instance from its seed, so a gnp graph or gadget is
kept only when its include and exclude candidate spaces stay within a
factor of MAX_WORK_RATIO over a few relabelings; otherwise the metrics
would depend on which seed a run drew.  Tree solver work does not depend
on the labeling.  These filters run once here; the stored corpus does not
change when the solvers do.  Every answer is stored as the reference, and
every instance with at most 24 vertices is cross-checked against the
enumeration oracle.
"""

from __future__ import annotations

import json
import math
import os
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, ROOT)

import numpy as np  # noqa: E402

from pauvc import (  # noqa: E402
    PreAssignment,
    VertexSet,
    branch_to_matchings,
    classify,
    delete,
    gnp_graph,
    is_feasible,
    min_vertex_cover,
    parse_dimacs,
    random_tree,
    solve,
    solve_enum,
)
from perfbench.calls import candidate_spaces  # noqa: E402
from perfbench.corpus import (  # noqa: E402
    CORPUS_PATH,
    edges_digest,
    generate,
    relabeled_dimacs,
)

BUILD_SEED = 0
ENUM_LIMIT = 24
# Bands of log2(include candidate space) for the gnp slots of gnp_generate.
GNP_BANDS = [(16, 17), (17, 18), (18, 19), (18, 19), (19, 20), (19, 20), (20, 21), (21, 22)]
TREE_SLOTS = 18
DENSE_SLOTS = 16
DENSE_CHECKS = (("include", 2), ("exclude", 2))
LABELINGS = 6
MAX_WORK_RATIO = 1.15


def candidate_space(g) -> tuple[int, int]:
    """Sizes of the include and exclude candidate spaces of solve(g)."""
    include = exclude = 0
    for comp in classify(g).components:
        sub, _ = delete(g, comp.complement())
        if classify(sub).kind.value == "tree":
            continue
        inc, exc = candidate_spaces(branch_to_matchings(sub))
        include += inc
        exclude += exc
    return include, exclude


def label_stable(g) -> bool:
    """Whether the candidate spaces vary by at most MAX_WORK_RATIO."""
    rows = []
    for k in range(LABELINGS):
        perm = np.random.default_rng([1 << 20, k]).permutation(g.n)
        rows.append(candidate_space(parse_dimacs(relabeled_dimacs(g, perm))))
    return all(max(col) <= MAX_WORK_RATIO * min(col) for col in zip(*rows))


def answers(spec: dict, g) -> dict:
    """Attach tau, optimum sizes and the digest; cross-check small graphs."""
    spec["edges_sha1"] = edges_digest(g)
    spec["tau"] = min_vertex_cover(g).tau
    spec["opt"] = {}
    for model in ("include", "exclude"):
        started = time.perf_counter()
        result = solve(g, model)
        seconds = time.perf_counter() - started
        if g.n <= ENUM_LIMIT:
            oracle = solve_enum(g, model)
            if oracle.opt_size != result.opt_size:
                raise AssertionError(f"{spec['id']} {model}: solve disagrees with enum")
        spec["opt"][model] = result.opt_size
        print(f"  {spec['id']} {model}: opt {result.opt_size} in {seconds:.3f} s",
              flush=True)
    return spec


def gnp_generate(rng: np.random.Generator) -> list[dict]:
    out = []
    for i, (lo, hi) in enumerate(GNP_BANDS):
        while True:
            n = int(rng.integers(30, 41))
            p = round(float(rng.uniform(0.08, 0.16)), 4)
            seed = int(rng.integers(1 << 31))
            g = gnp_graph(n, p, seed)
            if not 15 <= min_vertex_cover(g).tau <= 20:
                continue
            include, _ = candidate_space(g)
            lc = math.log2(include) if include else 0.0
            if lo <= lc < hi and label_stable(g):
                break
        spec = {"id": f"gnp{i:02d}", "family": "gnp", "n": n, "p": p, "seed": seed,
                "log2_candidates": round(lc, 3)}
        out.append(answers(spec, g))
    for i, (num_vars, num_clauses) in enumerate(((3, 2), (4, 1))):
        while True:
            clauses = []
            for _ in range(num_clauses):
                picked = rng.choice(num_vars, size=3, replace=False) + 1
                signs = rng.choice((-1, 1), size=3)
                clauses.append([int(v * s) for v, s in zip(picked, signs)])
            spec = {"id": f"gc{i:02d}", "family": "gc", "num_vars": num_vars,
                    "clauses": clauses}
            g = generate(spec)
            if label_stable(g):
                break
        out.append(answers(spec, g))
    for i in range(2):
        while True:
            spec = {"id": f"bip{i:02d}", "family": "bipartite",
                    "n": int(rng.integers(9, 13)), "p": 0.4,
                    "seed": int(rng.integers(1 << 31))}
            g = generate(spec)
            if label_stable(g):
                break
        out.append(answers(spec, g))
    return out


def tree_solve(rng: np.random.Generator) -> list[dict]:
    out = []
    for i in range(TREE_SLOTS):
        n = int(rng.integers(20, 36))
        seed = int(rng.integers(1 << 31))
        spec = {"id": f"tree{i:02d}", "family": "tree", "n": n, "seed": seed}
        out.append(answers(spec, random_tree(n, seed)))
    return out


def dense_check(rng: np.random.Generator) -> list[dict]:
    out = []
    while len(out) < DENSE_SLOTS:
        n = int(rng.integers(50, 71))
        p = round(float(rng.uniform(0.15, 0.3)), 4)
        seed = int(rng.integers(1 << 31))
        g = gnp_graph(n, p, seed)
        solution = min_vertex_cover(g)
        if not 35 <= solution.tau <= 50:
            continue
        cover = list(solution.cover)
        outside = [v for v in range(n) if v not in solution.cover]
        checks = []
        for model, count in DENSE_CHECKS:
            pool = cover if model == "include" else outside
            for _ in range(count):
                size = int(rng.integers(1, min(10, len(pool)) + 1))
                chosen = sorted(int(v) for v in rng.choice(pool, size=size, replace=False))
                vs = VertexSet(n, chosen)
                pre = (PreAssignment.including(vs) if model == "include"
                       else PreAssignment.excluding(vs))
                report = is_feasible(g, pre)
                checks.append({
                    "model": model,
                    "vertices": chosen,
                    "feasible": report.feasible,
                    "reason": None if report.reason is None else report.reason.value,
                })
        spec = {"id": f"dense{len(out):02d}", "family": "gnp", "n": n, "p": p,
                "seed": seed, "edges_sha1": edges_digest(g), "tau": solution.tau,
                "cover": cover, "checks": checks}
        print(f"  {spec['id']}: tau {solution.tau}, verdicts "
              f"{[c['reason'] or 'feasible' for c in checks]}", flush=True)
        out.append(spec)
    return out


def main() -> None:
    corpus = {"build_seed": BUILD_SEED}
    for index, (name, build) in enumerate(
        (("gnp_generate", gnp_generate), ("tree_solve", tree_solve),
         ("dense_check", dense_check))
    ):
        print(name, flush=True)
        corpus[name] = build(np.random.default_rng([BUILD_SEED, index]))
    with open(CORPUS_PATH, "w", encoding="ascii") as fh:
        json.dump(corpus, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
