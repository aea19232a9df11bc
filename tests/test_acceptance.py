"""Release acceptance gate.

Every test here checks one shipped guarantee end to end and prints a
single PASS/FAIL line, so running this module alone produces a release
checklist.  The checks are ordered from solver correctness (agreement
with the enumeration oracle on exhaustive and random corpora) through
structural fixed points of the instance translators to scale smoke tests
and the generator contract.
"""

import json
import random
import time

import networkx as nx
import numpy as np
import pytest

from pauvc import (
    Cnf1in3,
    Graph,
    GraphKind,
    Model,
    assignment_to_cover,
    build_bipartite_gadget,
    build_gc,
    classify,
    cover_to_assignment,
    enumerate_1in3,
    enumerate_min_vertex_covers,
    has_unique_min_vc,
    is_vertex_cover,
    min_independent_dominating_set,
    min_vertex_cover,
    parse_dimacs,
    pau_tree,
    solve,
    solve_enum,
    solve_fpt_exclude,
    solve_fpt_include,
    verify_cover_structure,
)
from pauvc.cli import main as cli_main
from pauvc.random_graphs import gnp_graph, random_tree

from oracles import all_graphs, count_rooted_i_subtrees


def _report(num: int, name: str, ok: bool, detail: str = "") -> None:
    print(f"ACCEPTANCE {num:02d} {name}: {'PASS' if ok else 'FAIL'}")
    assert ok, f"acceptance {num:02d} {name}: {detail or 'failed'}"


def _complete_graph(n: int) -> Graph:
    return Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)])


@pytest.fixture(scope="module")
def corpus():
    """Shared solver-agreement corpus with every opt_size precomputed.

    Three blocks: all connected graphs with n <= 7 (one per isomorphism
    class via the atlas, plus every labeled graph for n <= 5), 1000
    random graphs with n <= 12, and 1000 random trees with n <= 14.
    """
    graphs = []
    atlas = 0
    for G in nx.graph_atlas_g()[1:]:
        if G.number_of_nodes() >= 1 and nx.is_connected(G):
            H = nx.convert_node_labels_to_integers(G)
            graphs.append(Graph(H.number_of_nodes(), list(H.edges())))
            atlas += 1
    labeled = 0
    for n in range(1, 6):
        for nn, edges in all_graphs(n):
            g = Graph(nn, list(edges))
            if len(classify(g).components) == 1:
                graphs.append(g)
                labeled += 1
    rng = np.random.default_rng(20260823)
    for _ in range(1000):
        graphs.append(
            gnp_graph(int(rng.integers(1, 13)), float(rng.uniform(0.25, 0.7)), rng)
        )
    for _ in range(1000):
        graphs.append(random_tree(int(rng.integers(2, 15)), rng))

    records = []
    for g in graphs:
        rec = {
            "g": g,
            "enum": {m: solve_enum(g, m).opt_size for m in Model},
            "fpt": {
                Model.INCLUDE: solve_fpt_include(g).opt_size,
                Model.EXCLUDE: solve_fpt_exclude(g).opt_size,
                Model.MIXED: solve(g, Model.MIXED, algo="fpt").opt_size,
            },
        }
        if classify(g).kind is GraphKind.TREE:
            rec["tree"] = {m: pau_tree(g, m).opt for m in Model}
        records.append(rec)
    return {"records": records, "atlas": atlas, "labeled": labeled}


def test_criterion_01_solvers_agree_with_enumeration(corpus):
    # 996 = connected graphs on 1..7 vertices, one per isomorphism class
    assert corpus["atlas"] == 996
    assert len(corpus["records"]) == corpus["atlas"] + corpus["labeled"] + 2000
    bad = []
    trees = 0
    for rec in corpus["records"]:
        for model in Model:
            if rec["fpt"][model] != rec["enum"][model]:
                bad.append((rec["g"].edges(), model, "fpt"))
            if "tree" in rec and rec["tree"][model] != rec["enum"][model]:
                bad.append((rec["g"].edges(), model, "tree"))
        trees += "tree" in rec
    assert trees >= 1000
    _report(
        1,
        "fpt and tree solvers match enumeration on all corpora",
        not bad,
        f"{len(bad)} mismatches, first: {bad[:3]}",
    )


def test_criterion_02_model_laws(corpus):
    bad = []
    for rec in corpus["records"]:
        exc, inc, mix = (
            rec["enum"][Model.EXCLUDE],
            rec["enum"][Model.INCLUDE],
            rec["enum"][Model.MIXED],
        )
        if not (exc <= inc and exc == mix):
            bad.append((rec["g"].edges(), exc, inc, mix))
    _report(
        2,
        "exclude opt <= include opt and exclude opt == mixed opt",
        not bad,
        f"{len(bad)} violations, first: {bad[:3]}",
    )


def test_criterion_03_complete_graph_fixed_points():
    bad = []
    for n in range(3, 9):
        g = _complete_graph(n)
        got = (
            solve_fpt_exclude(g).opt_size,
            solve_fpt_include(g).opt_size,
            solve_enum(g, Model.EXCLUDE).opt_size,
            solve_enum(g, Model.INCLUDE).opt_size,
        )
        if got != (1, n - 1, 1, n - 1):
            bad.append((n, got))
    _report(
        3,
        "complete graphs need 1 exclusion or n-1 inclusions",
        not bad,
        str(bad),
    )


def test_criterion_04_disjoint_edges_cover_count():
    bad = []
    for k in range(1, 11):
        g = Graph(2 * k, [(2 * i, 2 * i + 1) for i in range(k)])
        covers = enumerate_min_vertex_covers(g)
        if len(covers) != 2**k or any(len(c) != k for c in covers):
            bad.append((k, len(covers)))
    _report(
        4,
        "k disjoint edges have exactly 2^k minimum covers",
        not bad,
        str(bad),
    )


def test_criterion_05_reference_formula_gadget():
    cnf = Cnf1in3(4, ((1, 2, 3), (-2, 3, 4)))
    g, _ = build_gc(cnf)
    cover = assignment_to_cover(cnf, (1, 0, 0, 0))
    ok = (
        g.n == 27
        and min_vertex_cover(g).tau == 16
        and len(cover) == 16
        and is_vertex_cover(g, cover)
        and cover_to_assignment(cnf, cover) == (1, 0, 0, 0)
    )
    _report(
        5,
        "reference formula: 27 vertices, tau 16, assignment round-trip",
        ok,
        f"n={g.n} tau={min_vertex_cover(g).tau} |cover|={len(cover)}",
    )


def _random_cnf(rng: random.Random, max_vars: int, max_clauses: int) -> Cnf1in3:
    n = rng.randint(3, max_vars)
    m = rng.randint(1, max_clauses)
    clauses = []
    while len(clauses) < m:
        vs = rng.sample(range(1, n + 1), 3)
        clauses.append(tuple(v if rng.random() < 0.5 else -v for v in vs))
    return Cnf1in3(n, tuple(clauses))


def test_criterion_06_formula_cover_bijection():
    rng = random.Random(60623)
    bad = []
    for _ in range(50):
        cnf = _random_cnf(rng, 5, 4)
        g, _ = build_gc(cnf)
        target = 3 * cnf.num_vars + 2 * cnf.num_clauses
        assignments = enumerate_1in3(cnf)
        # tau >= 3n + 2m always (per-gadget and per-triangle bounds), so
        # the target-size covers are exactly the minimum covers when tau
        # meets the bound, and there are none otherwise.
        sol = min_vertex_cover(g)
        if sol.tau < target:
            bad.append((cnf, "tau below structural bound"))
            continue
        covers = enumerate_min_vertex_covers(g) if sol.tau == target else []
        if len(covers) != len(assignments):
            bad.append((cnf, f"{len(covers)} covers vs {len(assignments)}"))
            continue
        cover_set = {tuple(c) for c in covers}
        for a in assignments:
            c = assignment_to_cover(cnf, a)
            if tuple(c) not in cover_set or cover_to_assignment(cnf, c) != tuple(a):
                bad.append((cnf, f"assignment {a} does not round-trip"))
        for c in covers:
            structural, violated = verify_cover_structure(cnf, c)
            if not structural:
                bad.append((cnf, f"cover violates condition {violated}"))
            if assignment_to_cover(cnf, cover_to_assignment(cnf, c)) != c:
                bad.append((cnf, "cover does not round-trip"))
    _report(
        6,
        "1-in-3 assignments biject with gadget minimum covers",
        not bad,
        f"{len(bad)} failures, first: {bad[:2]}",
    )


def test_criterion_07_domination_gadget_equivalence():
    rng = np.random.default_rng(70823)
    bad = []
    seen = 0
    enum_checked = 0
    while seen < 500:
        n = int(rng.integers(2, 9))
        g = gnp_graph(n, float(rng.uniform(0.25, 0.75)), rng)
        parts = classify(g)
        if len(parts.components) != 1 or parts.parts is None:
            continue
        seen += 1
        gp = build_bipartite_gadget(g)
        ids = len(min_independent_dominating_set(g))
        inc = solve(gp, Model.INCLUDE, algo="fpt").opt_size
        mix = solve(gp, Model.MIXED, algo="fpt").opt_size
        if not (ids == inc == mix):
            bad.append((g.edges(), ids, inc, mix))
        for cover in enumerate_min_vertex_covers(gp):
            if any((v in cover) == (g.n + v in cover) for v in range(g.n)):
                bad.append((g.edges(), "pendant edge not hit exactly once"))
                break
        if seen % 9 == 0:
            # periodic cross-check against the enumeration oracle; the
            # gadgets are twice the size of the inputs in the shared corpus
            enum_checked += 1
            if (
                solve_enum(gp, Model.INCLUDE).opt_size != inc
                or solve_enum(gp, Model.MIXED).opt_size != mix
            ):
                bad.append((g.edges(), "enumeration disagrees"))
    assert enum_checked >= 50
    _report(
        7,
        "pendant gadget opt equals minimum independent dominating set",
        not bad,
        f"{len(bad)} failures on {seen} graphs, first: {bad[:3]}",
    )


def test_criterion_08_rooted_subtree_count_bound():
    bad = []
    # the four rooted trees on 4 vertices, counted deterministically
    p4 = [(0, 1), (1, 2), (2, 3)]
    star = [(0, 1), (0, 2), (0, 3)]
    fixed = [
        count_rooted_i_subtrees(4, p4, 0),
        count_rooted_i_subtrees(4, p4, 1),
        count_rooted_i_subtrees(4, star, 1),
        count_rooted_i_subtrees(4, star, 0),
    ]
    if fixed != [3, 2, 2, 1]:
        bad.append(("4-vertex counts", fixed))
    for n in range(4, 11):
        for T in nx.nonisomorphic_trees(n):
            H = nx.convert_node_labels_to_integers(T)
            t = Graph(n, list(H.edges()))
            for root in range(n):
                c = count_rooted_i_subtrees(n, t.edges(), root)
                if c > 2 ** (n / 2) - 1:
                    bad.append((t.edges(), root, c))
    rng = np.random.default_rng(80823)
    for n in (11, 12):
        for _ in range(60):
            t = random_tree(n, rng)
            for root in range(n):
                c = count_rooted_i_subtrees(n, t.edges(), root)
                if c > 2 ** (n / 2) - 1:
                    bad.append((t.edges(), root, c))
    _report(
        8,
        "rooted subtree counts stay under 2^(n/2)-1, fixed points 3,2,2,1",
        not bad,
        f"first: {bad[:3]}",
    )


def test_criterion_09_scale_smoke():
    bad = []
    rng = np.random.default_rng(90923)
    done = 0
    while done < 10:
        g = gnp_graph(60, 0.008, rng)
        sol = min_vertex_cover(g, 12)
        if sol is None:
            continue
        done += 1
        t = time.perf_counter()
        r = solve_fpt_exclude(g)
        dt = time.perf_counter() - t
        if dt >= 60.0 or r.opt_size > sol.tau:
            bad.append(("n=60", done, dt, r.opt_size))
    for seed in (9040, 9042):
        t40 = random_tree(40, seed)
        for model in (Model.INCLUDE, Model.EXCLUDE):
            t = time.perf_counter()
            pau_tree(t40, model)
            dt = time.perf_counter() - t
            if dt >= 60.0:
                bad.append(("tree n=40", seed, model.value, dt))
    g20 = gnp_graph(20, 0.3, rng)
    for model in (Model.EXCLUDE, Model.INCLUDE):
        t = time.perf_counter()
        solve_enum(g20, model)
        dt = time.perf_counter() - t
        if dt >= 120.0:
            bad.append(("enum n=20", model.value, dt))
    _report(
        9,
        "n=60 fpt, n=40 tree, and n=20 enumeration finish in budget",
        not bad,
        str(bad),
    )


def test_criterion_10_generator_contract(tmp_path, capsys):
    bad = []
    def run(i: int, name: str) -> str:
        fam = "tree" if i % 2 else "gnp"
        out = str(tmp_path / name)
        rc = cli_main([
            "generate", "--family", fam, "--n", str(8 + i % 7), "--p", "0.3",
            "--seed", str(1000 + i), "--model", "exclude", "--output", out,
        ])
        capsys.readouterr()
        if rc != 0:
            bad.append((i, f"exit {rc}"))
        return out

    for i in range(100):
        out = run(i, f"inst{i}.col")
        g = parse_dimacs(open(out).read())
        meta = json.load(open(out + ".json"))
        unique, sol = has_unique_min_vc(g)
        if not unique or sol.tau != meta["expected_tau"]:
            bad.append((i, "verification failed"))
    for i in (0, 1, 37, 50, 99):
        out = run(i, f"again{i}.col")
        orig = str(tmp_path / f"inst{i}.col")
        if open(orig, "rb").read() != open(out, "rb").read() or open(
            orig + ".json", "rb"
        ).read() != open(out + ".json", "rb").read():
            bad.append((i, "same seed produced different bytes"))
    _report(
        10,
        "generated instances verify unique and seeds reproduce bytes",
        not bad,
        f"first: {bad[:3]}",
    )
