import random
import time
import tracemalloc

import pytest

from oracles import brute_pau_opt, random_edges, random_union
from pinned import check_pre_assignment
from record_answers import bipartite_part
import pauvc.solvers
from pauvc import (
    Cnf1in3,
    Graph,
    GraphKind,
    LimitExceeded,
    Model,
    PreAssignment,
    SolveStats,
    VertexSet,
    branch_to_matchings,
    build_bipartite_gadget,
    classify,
    delete,
    enumerate_1in3,
    enumerate_min_vertex_covers,
    gnp_graph,
    has_unique_min_vc,
    include_to_exclude,
    is_feasible,
    min_independent_dominating_set,
    min_vertex_cover,
    mixed_to_exclude,
    pau_tree,
    random_tree,
    reduce_instance,
    solve,
    solve_enum,
    solve_fpt_exclude,
    solve_fpt_include,
)

MODELS = ("include", "exclude", "mixed")


def check_result(g, model, result, expected_opt):
    """A solver answer must have the right size and a working witness."""
    assert result.opt_size == expected_opt
    assert result.pre.size() == expected_opt
    assert result.model is Model(model)
    report = is_feasible(g, result.pre)
    assert report.feasible
    assert report.witness.mask == result.unique_cover.mask


def composed(g, model, algo):
    """solve's answer rebuilt from the public routes on deleted components.

    Returns the include, exclude and cover masks, the size and the merged
    counters, for comparison with :func:`solve` on all of g.
    """
    model = Model(model)
    stats = SolveStats()
    masks = [0, 0, 0]
    for comp in classify(g).components:
        sub, old_to_new = delete(g, comp.complement())
        back = sorted(old_to_new)  # new id -> old id: delete keeps the order
        if algo == "enum":
            r = solve_enum(sub, model)
            pre, cover, sub_stats = r.pre, r.unique_cover, r.stats
        elif algo == "auto" and classify(sub).kind is GraphKind.TREE:
            sub_stats = SolveStats()
            pre = pau_tree(sub, model, stats=sub_stats).witness
            cover = is_feasible(sub, pre, stats=sub_stats).witness
        else:
            fpt = solve_fpt_include if model is Model.INCLUDE else solve_fpt_exclude
            r = fpt(sub)
            pre, cover, sub_stats = r.pre, r.unique_cover, r.stats
        for i, part in enumerate((pre.include, pre.exclude, cover)):
            masks[i] |= sum(1 << back[v] for v in part)
        stats.merge(sub_stats)
    size = masks[0].bit_count() + masks[1].bit_count()
    return (*masks, size, stats.nodes_explored, stats.uvc_calls)


class TestSolveEnum:
    def test_against_brute_oracle(self):
        rng = random.Random(301)
        for _ in range(150):
            n = rng.randint(0, 7)
            edges = random_edges(n, rng.uniform(0.15, 0.75), rng)
            g = Graph(n, edges)
            for model in MODELS:
                want = brute_pau_opt(n, edges, model)
                result = solve_enum(g, model)
                check_result(g, model, result, want)

    def test_lexicographic_witness(self):
        # two disjoint edges: include optima of size 2 start with vertex 0
        g = Graph(4, [(0, 1), (2, 3)])
        r = solve_enum(g, "include")
        assert r.opt_size == 2
        assert list(r.pre.include) == [0, 2]
        # exclude model: excluding 0 forces 1, etc.
        r = solve_enum(g, "exclude")
        assert r.opt_size == 2
        assert list(r.pre.exclude) == [0, 2]

    def test_mixed_prefers_small_include_side(self):
        # an all-exclude optimum always exists, and the empty include
        # tuple sorts first, so mixed witnesses are pure exclusions
        rng = random.Random(307)
        for _ in range(60):
            n = rng.randint(1, 6)
            edges = random_edges(n, rng.uniform(0.2, 0.7), rng)
            r = solve_enum(Graph(n, edges), "mixed")
            assert not r.pre.include

    def test_empty_graph(self):
        for model in MODELS:
            r = solve_enum(Graph(0, []), model)
            assert r.opt_size == 0

    def test_vertex_limit(self):
        g = Graph(30, [(0, 1)])
        with pytest.raises(LimitExceeded):
            solve_enum(g, "include")


class TestFptSolvers:
    def test_against_enum(self):
        rng = random.Random(311)
        graphs = []
        for _ in range(200):
            n = rng.randint(1, 9)
            graphs.append(Graph(n, random_edges(n, rng.uniform(0.15, 0.75), rng)))
        # Disjoint unions of 2-3 parts: the wrappers solve each component on
        # its own, and the oracle enumerates the whole graph at once.
        for seed in range(60):
            n, edges = 0, []
            for part in range(rng.randint(2, 3)):
                h = gnp_graph(rng.randint(2, 6), rng.uniform(0.2, 0.8), 3 * seed + part)
                edges += [(n + u, n + v) for u, v in h.edges()]
                n += h.n
            graphs.append(Graph(n, edges))
        for g in graphs:
            for model, solver in (
                ("include", solve_fpt_include),
                ("exclude", solve_fpt_exclude),
            ):
                want = solve_enum(g, model)
                got = solver(g)
                check_result(g, model, got, want.opt_size)
                # both streams reach the lexicographically smallest optimum
                assert got.pre == want.pre, (g.n, g.edges(), model)
                assert got.unique_cover == want.unique_cover

    def test_components_are_solved_apart(self):
        # Searched as one graph, the branching leaves of separate components
        # multiply, and so do the candidates of the stream; solved apart,
        # these five cycles take 140 (include) and 105 (exclude) nodes.
        starts = range(0, 25, 5)
        g = Graph(25, [(b + j, b + (j + 1) % 5) for b in starts for j in range(5)])
        for solver, pins in ((solve_fpt_include, (0, 1)), (solve_fpt_exclude, (0, 2))):
            r = solver(g, deadline=time.perf_counter() + 5)
            pinned = r.pre.include | r.pre.exclude
            assert list(pinned) == [b + v for b in starts for v in pins]
            assert r.stats.nodes_explored < 1_000

    def test_vertex_limit_caps_each_component(self):
        p4s = Graph(8, [(0, 1), (1, 2), (2, 3), (4, 5), (5, 6), (6, 7)])
        assert solve_fpt_exclude(p4s, vertex_limit=5).opt_size == 2
        with pytest.raises(LimitExceeded):
            solve_fpt_exclude(p4s, vertex_limit=3)

    def test_complete_graphs(self):
        for n in range(3, 9):
            g = Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)])
            assert solve_fpt_exclude(g).opt_size == 1
            assert solve_fpt_include(g).opt_size == n - 1

    def test_deterministic_witness(self):
        rng = random.Random(317)
        for _ in range(50):
            n = rng.randint(2, 8)
            edges = random_edges(n, rng.uniform(0.2, 0.7), rng)
            g = Graph(n, edges)
            a = solve_fpt_exclude(g)
            b = solve_fpt_exclude(g)
            assert a.pre == b.pre and a.unique_cover == b.unique_cover

    def test_large_tau_streams_in_both_models(self):
        # tau 30: building every candidate up front ran out of memory here.
        # A residual search per candidate explored 29,011 (include) and
        # 45,829 (exclude) nodes; counting covers over the leaves needs
        # about 18,800 and 17,400.
        g = gnp_graph(60, 0.05, 0)
        results = [
            solver(g, deadline=time.perf_counter() + 60)
            for solver in (solve_fpt_include, solve_fpt_exclude)
        ]
        assert [r.opt_size for r in results] == [4, 4]
        assert list(results[0].pre.include) == [2, 4, 17, 39]
        assert list(results[1].pre.exclude) == [12, 15, 27, 39]
        for r in results:
            assert len(r.unique_cover) == 30
            assert is_feasible(g, r.pre).witness == r.unique_cover
            assert r.stats.nodes_explored <= 25_000

    def test_sparse_branching_visits_only_leaf_nodes(self):
        # tau 61 on 120 sparse vertices.  A walk that expands every node the
        # clique bound allows took 152,542 nodes for the leaves, and solve
        # took 181,691 (include) and 153,371 (exclude); searching each
        # branch not taken once takes about 3,100, 32,300 and 3,900.
        g = gnp_graph(120, 0.03, 0)
        stats = SolveStats()
        assert len(branch_to_matchings(g, stats=stats)) == 146
        assert stats.nodes_explored < 10_000
        include, exclude = solve(g, "include"), solve(g, "exclude")
        assert list(include.pre.include) == [0, 64, 74]
        assert list(exclude.pre.exclude) == [74, 111]
        for result in (include, exclude):
            assert result.stats.nodes_explored < 60_000

    def test_leaf_count_matches_probe(self):
        # Every candidate of both streams, feasible or not, gets the same
        # verdict and witness from the leaf count as from the search.  A
        # candidate's own leaf always counts exactly one cover, so random
        # masks are decided too, to reach leaves with untouched edges.
        solvers = pauvc.solvers
        rng = random.Random(331)
        verdicts = {True: 0, False: 0}
        for _ in range(60):
            n = rng.randint(1, 10)
            edges = random_edges(n, rng.uniform(0.15, 0.75), rng)
            g = Graph(n, edges)
            stats = SolveStats()
            # The table and the reference search each get their own record.
            walked = pauvc.vertex_cover._Component(g.adj, g.full_mask, stats, None)
            table = list(solvers._branch_leaves(walked, stats))
            comp = pauvc.vertex_cover._Component(g.adj, g.full_mask, stats, None)
            for model in (Model.INCLUDE, Model.EXCLUDE):
                stream = solvers._candidate_stream(
                    g.adj, g.full_mask, model, table, stats
                )
                masks = [rng.getrandbits(n) for _ in range(20)]
                for cand in [*stream, *masks]:
                    inc, exc = (cand, 0) if model is Model.INCLUDE else (0, cand)
                    ok, cover, _ = check_pre_assignment(
                        comp, comp.to_labels(inc), comp.to_labels(exc), stats
                    )
                    got = solvers._decide(table, model, cand)
                    want = comp.to_ids(cover) if ok else None
                    assert got == want, (n, edges, model, cand)
                    verdicts[ok] += 1
        assert min(verdicts.values()) >= 100


class TestConversions:
    def test_include_to_exclude_feasibility(self):
        rng = random.Random(337)
        tested = 0
        while tested < 100:
            n = rng.randint(2, 8)
            edges = random_edges(n, rng.uniform(0.25, 0.7), rng)
            g = Graph(n, edges)
            r = solve_enum(g, "include")
            if not r.pre.include:
                continue
            tested += 1
            exc = include_to_exclude(g, r.pre.include, r.unique_cover)
            assert len(exc) <= r.opt_size
            report = is_feasible(g, PreAssignment.excluding(exc))
            assert report.feasible
            assert report.witness.mask == r.unique_cover.mask

    def test_mixed_to_exclude_feasibility(self):
        rng = random.Random(347)
        tested = 0
        while tested < 100:
            n = rng.randint(2, 8)
            edges = random_edges(n, rng.uniform(0.25, 0.7), rng)
            g = Graph(n, edges)
            base = solve_enum(g, "include")
            if not base.pre.include:
                continue
            outside = [
                v
                for v in range(n)
                if v not in base.unique_cover and v not in base.pre.include
            ]
            pa = PreAssignment.mixed(base.pre.include, VertexSet(n, outside[:1]))
            if not is_feasible(g, pa).feasible:
                continue
            tested += 1
            folded = mixed_to_exclude(g, pa, base.unique_cover)
            assert len(folded) <= pa.size()
            report = is_feasible(g, PreAssignment.excluding(folded))
            assert report.feasible
            assert report.witness.mask == base.unique_cover.mask

    def test_rejects_vertex_without_outside_neighbor(self):
        # in a star, the center's cover {center} is minimum; every leaf
        # neighbor is outside, fine; but a non-minimum cover breaks it
        g = Graph(3, [(0, 1), (0, 2)])
        cover = VertexSet(3, [0, 1])  # not minimum: 1 has no outside neighbor
        with pytest.raises(ValueError):
            include_to_exclude(g, VertexSet(3, [1]), cover)

    def test_rejects_include_outside_cover(self):
        g = Graph(3, [(0, 1), (0, 2)])
        with pytest.raises(ValueError):
            include_to_exclude(g, VertexSet(3, [1]), VertexSet(3, [0]))


class TestDispatcher:
    def test_algo_routing_agrees(self):
        rng = random.Random(353)
        for _ in range(80):
            n = rng.randint(1, 8)
            edges = random_edges(n, rng.uniform(0.2, 0.7), rng)
            g = Graph(n, edges)
            for model in MODELS:
                want = solve(g, model, "enum").opt_size
                assert solve(g, model, "fpt").opt_size == want
                assert solve(g, model, "auto").opt_size == want

    def test_tree_routing(self):
        g = Graph(4, [(0, 1), (1, 2), (2, 3)])
        r = solve(g, "include", "tree")
        assert r.opt_size == 1
        with pytest.raises(ValueError):
            solve(Graph(3, [(0, 1), (1, 2), (0, 2)]), "include", "tree")

    def test_unknown_algo(self):
        with pytest.raises(ValueError):
            solve(Graph(1, []), "include", "magic")

    def test_malformed_vertex_limit_env_refused_on_entry(self, monkeypatch):
        # P3 is a tree and takes no search, so solve read the override only
        # for K3; every call that takes vertex_limit now reads it on entry.
        monkeypatch.setenv("PAUVC_VERTEX_LIMIT", "abc")
        calls = [
            lambda g: solve(g, "include"),
            lambda g: solve(g, "exclude", "enum"),
            lambda g: is_feasible(g, PreAssignment.including(VertexSet(3, [1]))),
            lambda g: reduce_instance(g, PreAssignment.including(VertexSet(3, [1]))),
            has_unique_min_vc,
            min_vertex_cover,
            branch_to_matchings,
            enumerate_min_vertex_covers,
        ]
        for g in (Graph(3, [(0, 1), (1, 2)]), Graph(3, [(0, 1), (1, 2), (0, 2)])):
            for call in calls:
                with pytest.raises(ValueError, match="PAUVC_VERTEX_LIMIT"):
                    call(g)

    def test_negative_limits_refused(self):
        # A negative cap was a cap every searched component exceeds, so a
        # triangle hit it while a path, routed to the uncapped tree solver
        # or never searched, was answered.  Every call now refuses it.
        pins = PreAssignment.including(VertexSet(3, [1]))
        calls = [
            lambda g: solve(g, "include", vertex_limit=-1),
            lambda g: solve(g, "include", enum_vertex_limit=-1),
            lambda g: solve(g, "exclude", "enum", enum_vertex_limit=-1),
            lambda g: solve_fpt_include(g, vertex_limit=-1),
            lambda g: solve_fpt_exclude(g, vertex_limit=-1),
            lambda g: solve_enum(g, "mixed", vertex_limit=-1),
            lambda g: is_feasible(g, pins, vertex_limit=-1),
            lambda g: reduce_instance(g, pins, vertex_limit=-1),
            lambda g: has_unique_min_vc(g, vertex_limit=-1),
            lambda g: min_vertex_cover(g, vertex_limit=-1),
            lambda g: branch_to_matchings(g, vertex_limit=-1),
            lambda g: enumerate_min_vertex_covers(g, vertex_limit=-1),
            lambda g: min_independent_dominating_set(g, vertex_limit=-1),
            lambda g: enumerate_1in3(Cnf1in3(g.n, ((1, 2, 3),)), var_limit=-1),
        ]
        for g in (Graph(3, [(0, 1), (1, 2)]), Graph(3, [(0, 1), (1, 2), (0, 2)])):
            for call in calls:
                with pytest.raises(ValueError, match="must not be negative"):
                    call(g)

    def test_tree_refusal_and_caps_follow_the_route(self):
        # A 600-vertex path plus a disjoint K4.  "tree" refuses K4 before
        # building its record, whose cap of 0 would fire first otherwise;
        # the path is over the default cap of 512 only on a searched route.
        path = [(v, v + 1) for v in range(599)]
        k4 = [(u, v) for u in range(4) for v in range(u + 1, 4)]
        g = Graph(604, path + [(u + 600, v + 600) for u, v in k4])
        for model in MODELS:
            with pytest.raises(ValueError, match="component of vertex 600 "):
                solve(g, model, "tree", vertex_limit=0)
            with pytest.raises(LimitExceeded):
                solve(g, model, "fpt")
            parts = solve(Graph(600, path), model).opt_size
            parts += solve(Graph(4, k4), model).opt_size
            assert solve(g, model, "auto").opt_size == parts

    def test_disconnected_composition(self):
        rng = random.Random(359)
        for _ in range(60):
            # two components glued into one instance
            n1, n2 = rng.randint(1, 5), rng.randint(1, 5)
            e1 = random_edges(n1, 0.5, rng)
            e2 = random_edges(n2, 0.5, rng)
            n = n1 + n2
            edges = list(e1) + [(u + n1, v + n1) for u, v in e2]
            g = Graph(n, edges)
            for model in MODELS:
                want = brute_pau_opt(n1, e1, model) + brute_pau_opt(n2, e2, model)
                result = solve(g, model, "fpt")
                check_result(g, model, result, want)

    def test_in_place_matches_composition(self):
        # Solving each component in place gives the same witnesses, covers
        # and counters as solving relabelled copies of the components.
        rng = random.Random(373)
        for _ in range(100):
            n, edges = random_union(40, 10, rng)
            g = Graph(n, edges)
            for algo in ("auto", "fpt", "enum") if n <= 16 else ("auto", "fpt"):
                for model in MODELS:
                    r = solve(g, model, algo)
                    got = (
                        r.pre.include.mask,
                        r.pre.exclude.mask,
                        r.unique_cover.mask,
                        r.opt_size,
                        r.stats.nodes_explored,
                        r.stats.uvc_calls,
                    )
                    assert got == composed(g, model, algo), (n, edges, model, algo)
                    assert r.pre.model is Model(model)

    def test_forest_components_take_tree_route(self, monkeypatch):
        calls = []
        real_tree_pass = pauvc.solvers._tree_pass

        def counting_tree_pass(rooted, include, stats):
            calls.append(len(rooted[0]))
            return real_tree_pass(rooted, include, stats)

        monkeypatch.setattr(pauvc.solvers, "_tree_pass", counting_tree_pass)
        rng = random.Random(367)
        for _ in range(40):
            parts = rng.randint(2, 4)
            sizes = [rng.randint(1, 14 // parts) for _ in range(parts)]
            perm = list(range(sum(sizes)))
            rng.shuffle(perm)
            edges = []
            offset = 0
            for size in sizes:
                part = random_tree(size, rng.randint(0, 2 ** 32 - 1))
                for u, v in part.edges():
                    edges.append((perm[u + offset], perm[v + offset]))
                offset += size
            g = Graph(offset, edges)
            for model in MODELS:
                calls.clear()
                result = solve(g, model, "auto")
                assert sorted(calls) == sorted(sizes)
                check_result(g, model, result, solve_enum(g, model).opt_size)

    def test_tree_algo_takes_forests_and_names_other_components(self):
        assert solve(Graph(4, [(0, 1), (2, 3)]), "include", "tree").opt_size == 2
        triangle = [(0, 1), (1, 2), (0, 2)]
        shifted = [(u + 2, v + 2) for u, v in triangle]
        # A triangle plus an isolated vertex has m = n - 1 edges.
        for g, lowest in ((Graph(4, triangle), 0), (Graph(5, [(0, 1)] + shifted), 2)):
            for model in ("include", "exclude", "mixed"):
                with pytest.raises(ValueError, match=f"component of vertex {lowest} "):
                    solve(g, model, "tree")

    def test_mixed_reported_as_mixed(self):
        g = Graph(2, [(0, 1)])
        r = solve(g, "mixed", "fpt")
        assert r.model is Model.MIXED
        assert r.pre.model is Model.MIXED
        assert not r.pre.include

    def test_empty_graph(self):
        r = solve(Graph(0, []), "exclude")
        assert r.opt_size == 0 and r.unique_cover.n == 0

    def test_isolated_vertices_only(self):
        r = solve(Graph(5, []), "include")
        assert r.opt_size == 0
        assert len(r.unique_cover) == 0


class TestResultPayloads:
    def test_json_schema(self):
        g = Graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
        r = solve(g, "exclude", "fpt")
        data = r.to_json_dict()
        assert set(data) == {
            "model",
            "include",
            "exclude",
            "opt_size",
            "unique_cover",
            "stats",
        }
        assert data["model"] == "exclude"
        assert isinstance(data["include"], list)
        assert isinstance(data["exclude"], list)
        assert set(data["stats"]) == {"nodes_explored", "uvc_calls", "elapsed"}

    def test_stats_populated(self):
        g = Graph(6, [(u, v) for u in range(6) for v in range(u + 1, 6)])
        r = solve(g, "exclude", "fpt")
        assert r.stats.nodes_explored > 0
        assert r.stats.uvc_calls >= 1
        assert r.stats.elapsed >= 0.0

    def test_deadline_propagates(self):
        # About 3,200 nodes; the deadline is read every 1,024.
        g = gnp_graph(120, 0.03, 0)
        with pytest.raises(LimitExceeded):
            solve_fpt_exclude(g, deadline=time.perf_counter() - 1.0)

    def test_deadline_holds_between_decisions(self):
        # The include solve of this 80-vertex gadget walks for under 1 s,
        # then spends about 20 s expanding the selections of its leaves and
        # deciding their candidates.
        g = build_bipartite_gadget(bipartite_part(gnp_graph(40, 0.15, 0)))
        started = time.perf_counter()
        with pytest.raises(LimitExceeded, match="time cap exceeded"):
            solve(g, "include", deadline=started + 1.0)
        assert time.perf_counter() - started < 2.0

    def test_wide_leaf_reads_the_deadline_as_it_expands(self):
        # A leaf of 20 disjoint edges has 1,048,576 selections, about 60 MB
        # when all are built before the first deadline check.
        g = Graph(40, [(2 * i, 2 * i + 1) for i in range(20)])
        leaf = (0, g.full_mask, tuple(3 << 2 * i for i in range(20)))
        for model in (Model.INCLUDE, Model.EXCLUDE):
            stats = SolveStats(time.perf_counter() - 1.0)
            tracemalloc.start()
            try:
                with pytest.raises(LimitExceeded, match="time cap exceeded"):
                    pauvc.solvers._pinned_selections(
                        g.adj, g.full_mask, model, leaf, stats
                    )
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 1 << 20, (model, peak)

    def test_sparse_and_gadget_solves_end_in_time(self):
        # The pins each target cover forces leave these solves few
        # candidates to decide: 11 per gnp model and 4 for the gadget.
        g = gnp_graph(150, 0.02, 0)
        for model, witness in (
            ("include", [13, 53, 58, 64, 78, 85, 97]),
            ("exclude", [3, 19, 58, 61, 85, 97, 100]),
        ):
            r = solve(g, model, deadline=time.perf_counter() + 2.0)
            assert list(r.pre.include if model == "include" else r.pre.exclude) == witness
        g = build_bipartite_gadget(bipartite_part(gnp_graph(32, 0.15, 0)))
        started = time.perf_counter()
        try:
            opt = solve(g, "include", deadline=started + 5.0).opt_size
        except LimitExceeded:
            opt = None
        assert time.perf_counter() - started < 7.5
        assert opt in (None, 14)
