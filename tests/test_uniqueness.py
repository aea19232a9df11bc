import random
import time
from itertools import combinations

import pytest

from oracles import (
    all_graphs,
    brute_feasible,
    brute_min_covers,
    brute_tau,
    consistent,
    random_edges,
    random_union,
)
from pauvc import (
    Graph,
    LimitExceeded,
    Model,
    PreAssignment,
    Reason,
    SolveStats,
    VertexSet,
    classify,
    gnp_graph,
    has_unique_min_vc,
    is_feasible,
    is_vertex_cover,
    min_vertex_cover,
    min_vertex_cover_bipartite,
    pau_tree,
    random_tree,
    reduce_instance,
    solve,
    vertex_cover,
)
from pauvc.vertex_cover import _consistent
from pinned import check_pre_assignment


def all_pre_assignments(n):
    """Every pre-assignment over n vertices, all three models."""
    vertices = range(n)
    for k in range(n + 1):
        for combo in combinations(vertices, k):
            yield PreAssignment.including(VertexSet(n, combo))
            yield PreAssignment.excluding(VertexSet(n, combo))
    for code in range(3 ** n):
        inc, exc = [], []
        c = code
        for v in vertices:
            c, r = divmod(c, 3)
            if r == 1:
                inc.append(v)
            elif r == 2:
                exc.append(v)
        yield PreAssignment.mixed(VertexSet(n, inc), VertexSet(n, exc))


class TestHasUniqueMinVc:
    def test_exhaustive_small(self):
        for n in range(5):
            for _, edges in all_graphs(n):
                unique, sol = has_unique_min_vc(Graph(n, edges))
                covers = brute_min_covers(n, edges)
                assert unique == (len(covers) == 1), (n, edges)
                assert sol.tau == len(covers[0])

    def test_unique_examples(self):
        star = Graph(5, [(0, v) for v in range(1, 5)])
        unique, sol = has_unique_min_vc(star)
        assert unique and list(sol.cover) == [0]
        edge = Graph(2, [(0, 1)])
        assert has_unique_min_vc(edge)[0] is False
        empty = Graph(0, [])
        unique, sol = has_unique_min_vc(empty)
        assert unique and sol.tau == 0


    def test_disconnected_against_brute_force(self):
        rng = random.Random(461)
        verdicts = {True: 0, False: 0}
        for _ in range(150):
            n, edges = random_union(14, 7, rng)
            unique, sol = has_unique_min_vc(Graph(n, edges))
            covers = brute_min_covers(n, edges)
            assert unique == (len(covers) == 1), (n, edges)
            assert sol.tau == len(covers[0])
            assert frozenset(sol.cover) in covers
            verdicts[unique] += 1
        assert min(verdicts.values()) >= 20

    def test_large_forest_with_default_limits(self):
        # Small random trees, relabelled into one forest of 2,000 vertices,
        # over the default vertex cap; each tree is checked by brute force.
        rng = random.Random(463)
        for want_unique in (False, True):
            n, edges, unique_parts = 0, [], True
            while n < 2_000:
                size = rng.randint(1, min(10, 2_000 - n))
                part = random_tree(size, rng.randrange(1 << 32)).edges()
                part_unique = len(brute_min_covers(size, part)) == 1
                if want_unique and not part_unique:
                    continue
                edges += [(u + n, v + n) for u, v in part]
                n += size
                unique_parts = unique_parts and part_unique
            perm = list(range(n))
            rng.shuffle(perm)
            g = Graph(n, [(perm[u], perm[v]) for u, v in edges])
            unique, sol = has_unique_min_vc(g)
            assert unique is unique_parts is want_unique
            assert sol.tau == min_vertex_cover_bipartite(g, classify(g).parts).tau
            assert is_vertex_cover(g, sol.cover) and len(sol.cover) == sol.tau


class TestAgainstBruteForce:
    """The downward tau search and the second-cover search on mid-size graphs.

    Pre-assignments are drawn as the dense benchmark draws them: a subset of
    one minimum cover (include) or of its complement (exclude), so every
    check is minimum-consistent and reaches the uniqueness test.
    """

    def test_random_graphs(self):
        rng = random.Random(307)
        for _ in range(150):
            n = rng.randint(9, 14)
            edges = random_edges(n, rng.uniform(0.2, 0.6), rng)
            g = Graph(n, edges)
            covers = brute_min_covers(n, edges)
            tau = len(covers[0])
            unique, sol = has_unique_min_vc(g)
            assert unique == (len(covers) == 1) and sol.tau == tau, (n, edges)
            assert frozenset(sol.cover) in covers
            assert min_vertex_cover(g, bound=tau - 1) is None
            assert min_vertex_cover(g, bound=tau).tau == tau
            for _ in range(6):
                chosen = rng.choice(covers)
                if rng.random() < 0.5:
                    pool, make = sorted(chosen), PreAssignment.including
                else:
                    pool = [v for v in range(n) if v not in chosen]
                    make = PreAssignment.excluding
                if not pool:
                    continue
                picked = rng.sample(pool, rng.randint(1, min(4, len(pool))))
                pa = make(VertexSet(n, picked))
                inc, exc = set(pa.include), set(pa.exclude)
                hits = [c for c in covers if consistent(c, inc, exc)]
                report = is_feasible(g, pa)
                assert report.feasible == (len(hits) == 1), (n, edges, pa)
                if report.feasible:
                    assert frozenset(report.witness) == hits[0]
                else:
                    assert report.reason is Reason.NOT_UNIQUE

    def test_pins_from_every_minimum_cover(self):
        # The probe starts from the minimum cover C its tau search found:
        # pins drawn from C skip the residual search, pins drawn from any
        # other minimum cover break C and take it.  Connected graphs that
        # are not trees all reach the probe, so both paths are counted.
        rng = random.Random(1201)
        paths = {"fits": 0, "breaks": 0}
        graphs = 0
        while graphs < 200:
            n = rng.randint(6, 14)
            edges = random_edges(n, rng.uniform(0.25, 0.6), rng)
            g = Graph(n, edges)
            if len(classify(g).components) != 1 or g.m < n:
                continue
            graphs += 1
            least = vertex_cover._min_cover(g.adj, g.full_mask, SolveStats())
            covers = brute_min_covers(n, edges)
            for chosen in covers:
                outside = [v for v in range(n) if v not in chosen]
                inc = {v for v in chosen if rng.random() < 0.4}
                exc = {v for v in outside if rng.random() < 0.4}
                for pins in ((inc, set()), (set(), exc), (inc, exc)):
                    inc_set, exc_set = (VertexSet(n, p) for p in pins)
                    pa = PreAssignment.mixed(inc_set, exc_set)
                    fits = not (inc_set.mask & ~least or exc_set.mask & least)
                    paths["fits" if fits else "breaks"] += 1
                    hits = [c for c in covers if consistent(c, *pins)]
                    report = is_feasible(g, pa)
                    want = brute_feasible(covers, *pins)
                    assert report.feasible == want, (n, edges, pins)
                    if want:
                        assert report.reason is None
                        assert frozenset(report.witness) == hits[0]
                    else:
                        assert report.witness is None
                        assert report.reason is Reason.NOT_UNIQUE
        assert min(paths.values()) >= 1000, paths


class TestIsFeasible:
    def test_exhaustive_tiny(self):
        for n in range(1, 5):
            for _, edges in all_graphs(n):
                g = Graph(n, edges)
                covers = brute_min_covers(n, edges)
                for pa in all_pre_assignments(n):
                    want = brute_feasible(covers, set(pa.include), set(pa.exclude))
                    report = is_feasible(g, pa)
                    assert report.feasible == want, (n, edges, pa)
                    if want:
                        cover = set(report.witness)
                        assert frozenset(cover) in set(covers)
                        assert set(pa.include) <= cover
                        assert not (set(pa.exclude) & cover)

    def test_exhaustive_n5(self):
        # every graph on 5 vertices against every pre-assignment of every
        # model (314k checks, a few seconds)
        pas = list(all_pre_assignments(5))
        for _, edges in all_graphs(5):
            g = Graph(5, edges)
            covers = brute_min_covers(5, edges)
            for pa in pas:
                want = brute_feasible(covers, set(pa.include), set(pa.exclude))
                assert is_feasible(g, pa).feasible == want, (edges, pa)

    def test_sampled_medium(self):
        rng = random.Random(211)
        for _ in range(300):
            n = rng.randint(5, 8)
            edges = random_edges(n, rng.uniform(0.2, 0.7), rng)
            g = Graph(n, edges)
            covers = brute_min_covers(n, edges)
            for _ in range(10):
                pool = [v for v in range(n) if rng.random() < 0.3]
                cut = rng.randint(0, len(pool))
                inc, exc = pool[:cut], pool[cut:]
                pa = PreAssignment.mixed(VertexSet(n, inc), VertexSet(n, exc))
                want = brute_feasible(covers, set(inc), set(exc))
                assert is_feasible(g, pa).feasible == want, (n, edges, inc, exc)

    def test_overlap_rejected_at_construction(self):
        # Overlapping include/exclude sets never reach the checker; the
        # pre-assignment type rejects them, and the report enum keeps an
        # Overlap value only for defensive completeness.
        with pytest.raises(ValueError):
            PreAssignment.mixed(VertexSet(3, [1]), VertexSet(3, [1]))
        assert {r.value for r in Reason} == {
            "NotUnique",
            "NotMinimumConsistent",
            "ExcludeNotIndependent",
            "Overlap",
        }

    def test_reason_exclude_not_independent(self):
        g = Graph(3, [(0, 1), (1, 2), (0, 2)])
        pa = PreAssignment.excluding(VertexSet(3, [0, 1]))
        report = is_feasible(g, pa)
        assert not report.feasible
        assert report.reason is Reason.EXCLUDE_NOT_INDEPENDENT

    def test_reason_not_minimum(self):
        # forcing both endpoints of the only edge exceeds tau
        g = Graph(2, [(0, 1)])
        pa = PreAssignment.including(VertexSet(2, [0, 1]))
        report = is_feasible(g, pa)
        assert not report.feasible
        assert report.reason is Reason.NOT_MINIMUM_CONSISTENT

    def test_reason_not_unique(self):
        g = Graph(4, [(0, 1), (2, 3)])
        pa = PreAssignment.including(VertexSet(4, [0]))
        report = is_feasible(g, pa)
        assert not report.feasible
        assert report.reason is Reason.NOT_UNIQUE

    def test_empty_pre_assignment_on_unique_graph(self):
        star = Graph(4, [(0, 1), (0, 2), (0, 3)])
        report = is_feasible(star, PreAssignment.including(VertexSet(4)))
        assert report.feasible and list(report.witness) == [0]

    def test_universe_mismatch(self):
        g = Graph(3, [(0, 1)])
        with pytest.raises(ValueError):
            is_feasible(g, PreAssignment.including(VertexSet(4, [0])))

    def test_dense_feasible_probe_work(self):
        # tau 36; the upward tau search plus one bounded search per cover
        # vertex explored 1,041 nodes here, the downward search and the
        # single walk 285, and 23 before the label-order first cover, 55
        # with it.
        g = gnp_graph(50, 0.25, 0)
        pa = PreAssignment.including(VertexSet(50, [22, 27, 34, 41, 42]))
        stats = SolveStats()
        assert is_feasible(g, pa, stats=stats).feasible
        assert stats.nodes_explored <= 1041 // 2

    def test_dense_probe_node_budget(self):
        # Searched in id order with a tail of at most 3 vertices, this took
        # 6,041 nodes; relabeled in ascending degree, 3,176; with the greedy
        # first cover no longer counted and one fold-and-partition pass per
        # node, 3,308, and 839 before the label-order first cover, 963 with
        # it.
        stats = SolveStats()
        has_unique_min_vc(gnp_graph(100, 0.1, 0), stats=stats)
        assert stats.nodes_explored < 4_500

    def test_long_triangle_chain_no_recursion_limit(self, monkeypatch):
        # Triangle i is joined to triangle i + 1 by the edge (3i+2, 3i+3);
        # the tau search branches about once per triangle along the chain.
        monkeypatch.setenv("PAUVC_VERTEX_LIMIT", "5000")
        k = 1000
        edges = []
        for i in range(k):
            b = 3 * i
            edges += [(b, b + 1), (b + 1, b + 2), (b, b + 2)]
            if i + 1 < k:
                edges.append((b + 2, b + 3))
        g = Graph(3 * k, edges)
        inc = VertexSet(3 * k, [3 * i + j for i in range(k) for j in (0, 1)])
        report = is_feasible(g, PreAssignment.including(inc))
        assert report.feasible and report.witness == inc


class TestRelabeling:
    """Each component is searched relabeled; no answer may depend on the labels."""

    def test_answers_do_not_depend_on_labels(self):
        rng = random.Random(1201)
        seen = set()
        for seed in range(200):
            n = rng.randint(1, 30)
            g = gnp_graph(n, rng.uniform(0.05, 0.6), seed)
            sol = min_vertex_cover(g)
            unique, _ = has_unique_min_vc(g)
            # The rows equal their definition, each row relabeled, also on
            # a subgraph.
            for active in (g.full_mask, g.full_mask & ~random.Random(seed).getrandbits(n)):
                comp = vertex_cover._Component(g.adj, active, SolveStats(), None)
                adj, ids = comp.adj, comp.ids
                label = {v: r for r, v in enumerate(ids)}
                rows = tuple(
                    sum(1 << label[w] for w in vertex_cover._bits(g.adj[v] & active))
                    for v in ids
                )
                assert adj == rows, (seed, active)
            inside = list(sol.cover)
            outside = [v for v in range(n) if v not in sol.cover]
            pins = []
            for q in (0.3, 0.6):
                pins.append(PreAssignment.including(
                    VertexSet(n, [v for v in inside if rng.random() < q])))
                pins.append(PreAssignment.excluding(
                    VertexSet(n, [v for v in outside if rng.random() < q])))
            reports = [is_feasible(g, pa) for pa in pins]
            seen.update(report.reason for report in reports)
            for _ in range(2):
                perm = list(range(n))
                rng.shuffle(perm)
                h = Graph(n, [(perm[u], perm[v]) for u, v in g.edges()])

                def moved(vs):
                    return VertexSet(n, [perm[v] for v in vs])

                assert min_vertex_cover(h).tau == sol.tau, (seed, perm)
                assert has_unique_min_vc(h)[0] == unique, (seed, perm)
                for pa, want in zip(pins, reports):
                    got = is_feasible(
                        h, PreAssignment(pa.model, moved(pa.include), moved(pa.exclude))
                    )
                    assert (got.feasible, got.reason) == (want.feasible, want.reason)
                    if want.witness is None:
                        assert got.witness is None, (seed, perm, pa)
                    else:
                        assert got.witness == moved(want.witness), (seed, perm, pa)
        assert {None, Reason.NOT_UNIQUE} <= seen


class TestPerComponentProbe:
    """is_feasible decides each connected component on its own pins."""

    def test_one_tau_search_per_component(self):
        # The uniqueness test starts from the cover the tau search found,
        # with no second search for one: the probe costs exactly the tau
        # search on the relabeled component and one _consistent call.  The
        # greedy first cover counts no nodes.  207 nodes before the first
        # cover was polished by swaps, 185 after; 148 once one search per
        # out-vertex of the cover replaced the leaf walk; 86 once unit
        # propagation over the clique partition dropped children of the
        # bounded search, and 74 once the dropped vertices of one tail
        # clique shared one conflict group.  86 again once the tau search
        # became one pass and no search shared a table of refuted
        # subproblems any more; 97 once the greedy first cover became the
        # complement of the independent set taken in label order, and every
        # bounded search the clique bound refutes counted one node; 95 once
        # an out-vertex with no neighbour left in the rest took no search.
        g = gnp_graph(60, 0.3, 1)
        assert len(classify(g).components) == 1
        probed = SolveStats()
        unique, sol = has_unique_min_vc(g, stats=probed)
        steps = SolveStats()
        comp = vertex_cover._Component(g.adj, g.full_mask, steps, None)
        ids, least = comp.ids, comp.least
        count, cover = _consistent(comp, 0, 0, steps)
        assert unique == (count == 1) and least == cover
        assert sol.tau == least.bit_count()
        assert sol.cover.mask == sum(1 << ids[v] for v in vertex_cover._bits(least))
        assert probed.uvc_calls == steps.uvc_calls == 1
        assert probed.nodes_explored == steps.nodes_explored == 95

    def test_agrees_with_whole_graph_search(self):
        rng = random.Random(1009)
        seen = set()
        for _ in range(300):
            n, edges = random_union(40, 12, rng)
            g = Graph(n, edges)
            sol = min_vertex_cover(g)
            # The reference starts from the lexicographic cover, not the
            # probe's tau search.
            comp = vertex_cover._Component(g.adj, g.full_mask, SolveStats(), None)
            comp.least = comp.to_labels(sol.cover.mask)
            inside = list(sol.cover)
            outside = [v for v in range(n) if v not in sol.cover]
            pin_sets = []
            for _ in range(2):  # mixed random pins
                inc = {v for v in range(n) if rng.random() < 0.15}
                exc = {v for v in range(n) if rng.random() < 0.15} - inc
                pin_sets.append((inc, exc))
            for _ in range(2):  # include subsets of a minimum cover
                pin_sets.append(({v for v in inside if rng.random() < 0.5}, set()))
            for _ in range(2):  # mixed pins consistent with a minimum cover
                inc = {v for v in inside if rng.random() < 0.3}
                exc = {v for v in outside if rng.random() < 0.3}
                pin_sets.append((inc, exc))
            for inc, exc in pin_sets:
                pa = PreAssignment.mixed(VertexSet(n, inc), VertexSet(n, exc))
                report = is_feasible(g, pa)
                ok, cover, reason = check_pre_assignment(
                    comp, comp.to_labels(pa.include.mask),
                    comp.to_labels(pa.exclude.mask), SolveStats(),
                )
                want = (ok, None if cover is None else
                        VertexSet.from_mask(n, comp.to_ids(cover)))
                assert (report.feasible, report.witness) == want, (n, edges, inc, exc)
                assert report.reason is reason, (n, edges, inc, exc)
                seen.add(reason)
        assert seen == {
            None,
            Reason.NOT_UNIQUE,
            Reason.NOT_MINIMUM_CONSISTENT,
            Reason.EXCLUDE_NOT_INDEPENDENT,
        }

    def test_reduced_forest_is_not_vertex_capped(self):
        # The reduced forest has 2,191 vertices in tree components only.
        t = random_tree(3000, 0)
        reduced, expected_tau, _ = reduce_instance(t, pau_tree(t, "exclude").witness)
        assert reduced.n == 2191
        report = is_feasible(reduced, PreAssignment.excluding(VertexSet(reduced.n)))
        unique, sol = has_unique_min_vc(reduced)
        assert report.feasible and unique and sol.tau == expected_tau
        assert report.witness == sol.cover

    def test_disjoint_triangles_are_capped_one_by_one(self):
        k = 200
        edges = []
        for b in range(0, 3 * k, 3):
            edges += [(b, b + 1), (b + 1, b + 2), (b, b + 2)]
        g = Graph(3 * k, edges)
        report = is_feasible(g, PreAssignment.excluding(VertexSet(g.n)))
        assert report.reason is Reason.NOT_UNIQUE
        apexes = VertexSet(g.n, range(0, g.n, 3))
        report = is_feasible(g, PreAssignment.excluding(apexes))
        assert report.feasible and report.witness == apexes.complement()

    def test_pins_are_mapped_per_component(self):
        # 3,000 triangles with every apex excluded: 0.2 s when each
        # component maps only its own pins to labels, about 19 s when each
        # maps all 3,000 of them.
        k = 3000
        edges = []
        for b in range(0, 3 * k, 3):
            edges += [(b, b + 1), (b + 1, b + 2), (b, b + 2)]
        g = Graph(3 * k, edges)
        apexes = VertexSet(g.n, range(0, g.n, 3))
        started = time.perf_counter()
        assert is_feasible(g, PreAssignment.excluding(apexes)).feasible
        assert time.perf_counter() - started < 5.0


def _walk_count(comp, inc, exc):
    """(count, cover) of _consistent from the leaf walk alone."""
    adj, least = comp.adj, comp.least
    forced = inc
    for v in range(len(comp.ids)):
        if exc >> v & 1:
            forced |= adj[v]
    active = comp.full & ~forced & ~exc
    cover = least & active
    if inc & ~least or exc & least:
        target = least.bit_count() - forced.bit_count()
        cover = vertex_cover._bounded_cover(adj, active, target, SolveStats())
        if cover is None:
            return 0, None
    residual = vertex_cover._Component(adj, active, SolveStats(), None)
    leaves = list(vertex_cover._branch_leaves(residual, SolveStats()))
    return 1 if len(leaves) == 1 and not leaves[0][2] else 2, cover | forced


class TestSwapCertificate:
    """A cover vertex with one neighbour outside the cover proves a second cover."""

    def test_same_answers_as_the_leaf_walk(self):
        # Two algorithms: the certificate plus one search per out-vertex,
        # against the leaf walk.  Pins drawn from the lexicographic minimum
        # cover are conflict-free and minimum-consistent; when they break the
        # tau search's cover, one pinned search finds the residual cover
        # first.  On sparse graphs the pins are a solve witness, whole
        # (count 1) or less one vertex (count 2, the witness being minimum).
        rng = random.Random(1013)
        counts = {1: 0, 2: 0}
        certified = searched = 0
        for seed in range(400):
            if seed % 2:
                n = rng.randint(2, 16)
                g = gnp_graph(n, rng.uniform(0.1, 0.7), seed)
                lex = min_vertex_cover(g).cover.mask
                inc = lex & rng.getrandbits(n) & rng.getrandbits(n)
                exc = g.full_mask & ~lex & rng.getrandbits(n) & rng.getrandbits(n)
            else:
                n = rng.randint(2, 30)
                g = gnp_graph(n, rng.uniform(0.05, 0.2), seed)
                pre = solve(g, rng.choice(("include", "exclude"))).pre
                inc, exc = pre.include.mask, pre.exclude.mask
                if rng.random() < 0.5 and inc | exc:
                    drop = rng.choice(list(vertex_cover._bits(inc | exc)))
                    inc &= ~(1 << drop)
                    exc &= ~(1 << drop)
            comp = vertex_cover._Component(g.adj, g.full_mask, SolveStats(), None)
            least = comp.least
            pins = [comp.to_labels(p) for p in (inc, exc)]
            stats = SolveStats()
            got = _consistent(comp, *pins, stats)
            fresh = vertex_cover._Component(g.adj, g.full_mask, SolveStats(), None)
            assert got == _walk_count(fresh, *pins), (seed, inc, exc)
            counts[got[0]] += 1
            fits = not pins[0] & ~least and not pins[1] & least
            if got[0] == 2 and fits:
                # The certificate takes no search; otherwise one finds it.
                certified += stats.nodes_explored == 0
                searched += stats.nodes_explored > 0
        assert min(counts.values()) > 50 and certified > 0 and searched > 0

    def test_graphs_without_edges(self):
        # No out-vertex has a neighbour, so nothing is searched: count 1.
        for n in (0, 1, 5):
            comp = vertex_cover._Component(Graph(n).adj, (1 << n) - 1, SolveStats(), None)
            stats = SolveStats()
            assert _consistent(comp, 0, 0, stats) == (1, 0)
            assert stats.nodes_explored == 0
            unique, sol = has_unique_min_vc(Graph(n))
            assert unique and sol.tau == 0

    def test_dense_not_unique_needs_no_walk(self):
        # The pins fit the tau search's cover and a cover vertex has one
        # neighbour outside it, so the probe costs the tau search alone:
        # 105 nodes, against 252 when the leaf walk found the second cover,
        # 45 once unit propagation dropped children of the tau search, and
        # 32 once the dropped vertices of one tail clique shared one
        # conflict group.
        g = gnp_graph(60, 0.3, 2)
        assert len(classify(g).components) == 1
        tau_search = SolveStats()
        vertex_cover._Component(g.adj, g.full_mask, tau_search, None)
        pa = PreAssignment.including(VertexSet(60, [1, 2, 3, 4]))
        stats = SolveStats()
        assert is_feasible(g, pa, stats=stats).reason is Reason.NOT_UNIQUE
        assert stats.nodes_explored == tau_search.nodes_explored == 32


class TestReduceInstance:
    def test_complete_graph_exclude_collapses(self):
        k4 = Graph(4, [(u, v) for u in range(4) for v in range(u + 1, 4)])
        pa = PreAssignment.excluding(VertexSet(4, [0]))
        reduced, expected_tau, mapping = reduce_instance(k4, pa)
        assert reduced.n == 0 and expected_tau == 0
        assert mapping == {}

    def test_include_deletion(self):
        p4 = Graph(4, [(0, 1), (1, 2), (2, 3)])
        pa = PreAssignment.including(VertexSet(4, [0]))
        reduced, expected_tau, mapping = reduce_instance(p4, pa)
        # deleting 0 leaves the path 1-2-3 whose unique cover is {2}
        assert reduced.n == 3
        assert expected_tau == 1
        assert reduced.edges() == [(mapping[1], mapping[2]), (mapping[2], mapping[3])]
        unique, sol = has_unique_min_vc(reduced)
        assert unique and list(sol.cover) == [mapping[2]]

    def test_single_edge_include(self):
        g = Graph(2, [(0, 1)])
        pa = PreAssignment.including(VertexSet(2, [0]))
        reduced, expected_tau, _ = reduce_instance(g, pa)
        assert reduced.n == 1 and reduced.m == 0 and expected_tau == 0

    def test_reduced_graph_has_unique_minimum_cover(self):
        rng = random.Random(223)
        checked = 0
        while checked < 150:
            n = rng.randint(2, 8)
            edges = random_edges(n, rng.uniform(0.2, 0.7), rng)
            g = Graph(n, edges)
            covers = brute_min_covers(n, edges)
            pool = [v for v in range(n) if rng.random() < 0.4]
            cut = rng.randint(0, len(pool))
            pa = PreAssignment.mixed(
                VertexSet(n, pool[:cut]), VertexSet(n, pool[cut:])
            )
            if not brute_feasible(covers, set(pa.include), set(pa.exclude)):
                continue
            checked += 1
            reduced, expected_tau, _ = reduce_instance(g, pa)
            unique, sol = has_unique_min_vc(reduced)
            assert unique and sol.tau == expected_tau, (n, edges, pa)

    def test_one_probe_worth_of_work(self):
        # reduce_instance finds tau once, as is_feasible does
        p4 = Graph(4, [(0, 1), (1, 2), (2, 3)])
        pa = PreAssignment.including(VertexSet(4, [0]))
        checked, reduced = SolveStats(), SolveStats()
        is_feasible(p4, pa, stats=checked)
        reduce_instance(p4, pa, stats=reduced)
        assert reduced.nodes_explored == checked.nodes_explored
        assert reduced.uvc_calls == checked.uvc_calls == 1

    def test_checks_universe_and_vertex_limit(self):
        # a triangle plus an isolated vertex: the triangle is searched
        g = Graph(4, [(0, 1), (1, 2), (0, 2)])
        with pytest.raises(ValueError):
            reduce_instance(g, PreAssignment.including(VertexSet(5, [0])))
        with pytest.raises(LimitExceeded):
            reduce_instance(
                g, PreAssignment.including(VertexSet(4, [0])), vertex_limit=2
            )

    def test_infeasible_rejected(self):
        g = Graph(2, [(0, 1)])
        with pytest.raises(ValueError):
            reduce_instance(g, PreAssignment.including(VertexSet(2)))
