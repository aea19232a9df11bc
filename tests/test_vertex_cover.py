import itertools
import random
import time
import tracemalloc

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from networkx.algorithms import bipartite

import oracles
from oracles import (
    all_graphs,
    brute_min_covers,
    brute_tau,
    pruned_branch_leaves,
    random_edges,
    subset_tau,
    unfiltered_bounded_cover,
    unswapped_lex_min_cover,
)
from pauvc import (
    Graph,
    LimitExceeded,
    SolveStats,
    VertexSet,
    branch_to_matchings,
    build_bipartite_gadget,
    classify,
    enumerate_min_vertex_covers,
    gnp_graph,
    has_unique_min_vc,
    is_vertex_cover,
    min_vertex_cover,
    min_vertex_cover_bipartite,
    random_tree,
    vertex_cover,
)
from pauvc.graph import _components


def triangle(b):
    return [(b, b + 1), (b + 1, b + 2), (b, b + 2)]


def triangle_chain(k):
    """k triangles, triangle i joined to triangle i + 1 by the edge (3i+2, 3i+3)."""
    edges = [e for b in range(0, 3 * k, 3) for e in triangle(b)]
    return Graph(3 * k, edges + [(3 * i + 2, 3 * i + 3) for i in range(k - 1)])


def lex_min_cover(n, edges):
    return min(tuple(sorted(c)) for c in brute_min_covers(n, edges))


class TestMinVertexCover:
    def test_exhaustive_small(self):
        for n in range(5):
            for _, edges in all_graphs(n):
                g = Graph(n, edges)
                sol = min_vertex_cover(g)
                assert sol.tau == brute_tau(n, edges)
                assert tuple(sorted(sol.cover)) == lex_min_cover(n, edges)
                assert is_vertex_cover(g, sol.cover)

    def test_random_medium(self):
        rng = random.Random(101)
        for _ in range(400):
            n = rng.randint(1, 9)
            edges = random_edges(n, rng.uniform(0.1, 0.8), rng)
            g = Graph(n, edges)
            sol = min_vertex_cover(g)
            assert sol.tau == brute_tau(n, edges), (n, edges)
            assert tuple(sorted(sol.cover)) == lex_min_cover(n, edges)

    def test_bound_respected(self):
        g = Graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
        assert min_vertex_cover(g, bound=1) is None
        assert min_vertex_cover(g, bound=2).tau == 2

    def test_complete_graphs(self):
        for n in range(2, 9):
            g = Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)])
            sol = min_vertex_cover(g)
            assert sol.tau == n - 1
            # lex-min cover of K_n drops the highest vertex
            assert list(sol.cover) == list(range(n - 1))

    def test_isolated_vertices_never_used(self):
        g = Graph(5, [(1, 2)])
        sol = min_vertex_cover(g)
        assert sol.tau == 1 and list(sol.cover) == [1]

    def test_hub_on_a_matching_is_quadratic(self):
        # The hub is the only branching vertex; below it only isolated
        # edges remain, which _bounded_cover must take in one scan.
        k = 200
        hub_edges = [(2 * k, v) for v in range(2 * k)]
        g = Graph(2 * k + 1, [(2 * i, 2 * i + 1) for i in range(k)] + hub_edges)
        start = time.perf_counter()
        assert min_vertex_cover(g).tau == k + 1
        assert time.perf_counter() - start < 1.0

    def test_near_tree_folds_pendants_in_one_scan(self):
        # One cycle through a 500-vertex tree: the search folds nearly all
        # of it as degree-1 vertices.  Rescanning after each fold made one
        # search quadratic in n, 1.7 s for min_vertex_cover.
        t = random_tree(500, 0)
        g = Graph(500, t.edges() + [(0, 499)])
        start = time.perf_counter()
        tau = min_vertex_cover(g).tau
        assert time.perf_counter() - start < 0.5
        assert has_unique_min_vc(g)[1].tau == tau

    def test_triangle_chain_lex_walk(self):
        # The lexicographic walk searches only for vertices outside the
        # minimum cover it holds; one search per vertex took (2k+1)^2 =
        # 10,201 nodes, one per vertex outside it 5,052, and 99 once a
        # vertex with a swap partner in the cover joins it with no search.
        # The cover is the one the walk without swaps finds: the lowest two
        # vertices of each triangle.
        g = triangle_chain(100)
        stats = SolveStats()
        sol = min_vertex_cover(g, stats=stats)
        assert sol.tau == 200
        assert stats.nodes_explored <= 500
        comp = vertex_cover._Component(g.adj, g.full_mask, SolveStats(), None)
        want = comp.to_ids(unswapped_lex_min_cover(comp, SolveStats()))
        assert sol.cover.mask == want
        assert want == sum(1 << v for v in range(300) if v % 3 != 2)

    def test_swaps_keep_the_lexicographic_cover(self, monkeypatch):
        # A vertex outside the cover held joins it in place of a cover
        # vertex whose one neighbour outside the cover it is; the walk that
        # searches for every such vertex returns the same cover, with more
        # bounded searches.  Node totals do not compare: the reference walk's
        # search keeps a table of refuted subproblems, and the package's
        # does not.
        searches = {"unswapped": 0, "swapped": 0}

        def counted(walk, search):
            def run(*args):
                searches[walk] += 1
                return search(*args)
            return run

        monkeypatch.setattr(
            oracles, "unfiltered_bounded_cover",
            counted("unswapped", oracles.unfiltered_bounded_cover),
        )
        monkeypatch.setattr(
            vertex_cover, "_bounded_cover",
            counted("swapped", vertex_cover._bounded_cover),
        )
        for n, p, seed in itertools.product(
            range(2, 31), (0.05, 0.1, 0.2, 0.35, 0.5, 0.7), (0, 1, 2)
        ):
            g = gnp_graph(n, p, seed)
            old, new = SolveStats(), SolveStats()
            want = 0
            for mask, _ in _components(g.adj):
                if mask & (mask - 1):
                    comp = vertex_cover._Component(g.adj, mask, old, None)
                    want |= comp.to_ids(unswapped_lex_min_cover(comp, old))
            assert min_vertex_cover(g, stats=new).cover.mask == want, (n, p, seed)
        assert searches["swapped"] < searches["unswapped"]

    def test_long_triangle_chain_is_fast(self):
        # 400 triangles took 80,202 nodes and 12 s with one search per
        # vertex outside the cover held; the cover keeps the pattern of the
        # 100-triangle chain's, which the walk without swaps confirms.
        g = triangle_chain(400)
        start = time.perf_counter()
        stats = SolveStats(deadline=start + 2.0)
        sol = min_vertex_cover(g, vertex_limit=g.n, stats=stats)
        assert time.perf_counter() - start < 2.0
        assert sol.cover.mask == sum(1 << v for v in range(1200) if v % 3 != 2)

    def test_vertex_limit(self):
        g = Graph(4, [(0, 1), (1, 2), (2, 3)])
        with pytest.raises(LimitExceeded):
            min_vertex_cover(g, vertex_limit=3)

    def test_vertex_limit_caps_each_searched_component(self):
        # 60 disjoint 10-cycles: 600 vertices, over the default cap of 512,
        # but no component the search takes is.
        g = Graph(600, [(b + i, b + (i + 1) % 10) for b in range(0, 600, 10)
                        for i in range(10)])
        assert min_vertex_cover(g).tau == 300
        assert min_vertex_cover(Graph(4, [(0, 1)]), vertex_limit=3).tau == 1
        with pytest.raises(LimitExceeded, match="10 vertices, limit is 9"):
            min_vertex_cover(g, vertex_limit=9)

    def test_stats_counted(self):
        # Four chained 5-cycles still take a search (14 nodes).  K6 took 1
        # node, and none once the lexicographic walk swapped in each vertex
        # the cover it held left out.
        edges = [(b + j, b + (j + 1) % 5) for b in range(0, 20, 5) for j in range(5)]
        g = Graph(20, edges + [(b - 5, b) for b in range(5, 20, 5)])
        stats = SolveStats()
        min_vertex_cover(g, stats=stats)
        assert stats.nodes_explored > 0

    def test_deadline_enforced(self):
        # Deadline checks run every 1024 nodes, so the instance must burn
        # well past that: 5-cycles defeat the clique bound, and chaining
        # them keeps the graph one component, which is searched whole.
        # 24 of them took about 8,200 nodes (7,893 later) and 16 only about
        # 1,100; once unit propagation dropped children, 24 took 271 and
        # these 96 took 3,673, and 1,415 once the lexicographic walk swapped
        # vertices into the cover it held (1,417 from the label-order first
        # cover).
        edges = []
        for i in range(96):
            b = 5 * i
            edges += [(b + j, b + (j + 1) % 5) for j in range(5)]
        chain = edges + [(5 * i - 5, 5 * i) for i in range(1, 96)]
        g = Graph(480, chain)
        stats = SolveStats(deadline=time.perf_counter() - 1.0)
        with pytest.raises(LimitExceeded):
            min_vertex_cover(g, stats=stats)
        assert stats.nodes_explored < 100_000
        # Apart, the same cycles are 96 small components.
        stats = SolveStats()
        assert min_vertex_cover(Graph(480, edges), stats=stats).tau == 288
        assert stats.nodes_explored < 1_000

    def test_many_components_no_recursion_limit(self, monkeypatch):
        monkeypatch.setenv("PAUVC_VERTEX_LIMIT", "5000")
        k = 1000
        g = Graph(3 * k, [e for i in range(k) for e in triangle(3 * i)])
        sol = min_vertex_cover(g)
        assert sol.tau == 2 * k
        assert set(sol.cover) == {3 * i + j for i in range(k) for j in (0, 1)}

    def test_label_map_spans_the_component(self):
        # The id -> label list runs from the component's lowest id to its
        # highest, so a small component of a large graph gets a short one:
        # one len(adj) long per component made many triangles quadratic.
        g = Graph(60_000, triangle(30_000))
        tri = 0b111 << 30_000
        comp = vertex_cover._Component(g.adj, tri, SolveStats(), None)
        assert len(comp._label_bit) == 3
        assert comp.to_ids(comp.to_labels(tri)) == tri
        assert comp.to_ids(comp.least).bit_count() == 2

    def test_bound_below_tau_refuted_by_whole_graph(self):
        # Three components: searched one at a time, a bound of tau - 1 is
        # refuted only at the last one, but the clique bound of the whole
        # graph already reaches tau.
        g = gnp_graph(17, 0.15, 334)
        tau = min_vertex_cover(g).tau
        assert len(classify(g).components) > 1
        stats = SolveStats()
        assert min_vertex_cover(g, bound=tau - 1, stats=stats) is None
        assert stats.nodes_explored == 0


def _covers(g, active, cover):
    """Whether cover is a vertex cover of g's active subgraph inside it."""
    outside = active & ~cover
    return not cover & ~active and all(
        not g.adj[v] & outside for v in range(g.n) if outside >> v & 1
    )


def _subgraph(n, edges, active):
    """The active subgraph relabelled to 0..m-1, as (m, edges)."""
    ids = {v: i for i, v in enumerate(v for v in range(n) if active >> v & 1)}
    return len(ids), [(ids[u], ids[v]) for u, v in edges if u in ids and v in ids]


@st.composite
def graphs_with_active(draw):
    """A graph on at most 14 vertices and an active mask over it."""
    n = draw(st.integers(1, 14))
    pairs = list(itertools.combinations(range(n), 2))
    edges = draw(st.sets(st.sampled_from(pairs))) if pairs else set()
    return Graph(n, sorted(edges)), draw(st.integers(0, (1 << n) - 1))


class TestFirstCover:
    @settings(derandomize=True, deadline=None, max_examples=300)
    @given(graphs_with_active())
    def test_greedy_then_swaps(self, drawn):
        # The greedy cover is a cover.  After the swaps, from it or from
        # the whole active mask, no cover vertex has no neighbour outside
        # the cover (0-tight), and no two non-adjacent ones share their one
        # outside neighbour (a (1,2)-swap).
        g, active = drawn
        greedy = vertex_cover._greedy_cover(g.adj, active)
        assert _covers(g, active, greedy)
        # Its complement is a maximal independent set, the one taken in
        # label order: a vertex is in it exactly when no lower neighbour is.
        indep = active & ~greedy
        for v in range(g.n):
            if active >> v & 1:
                assert not g.adj[v] & indep or not indep >> v & 1, v
                assert g.adj[v] & indep or indep >> v & 1, v
                lower = g.adj[v] & indep & ((1 << v) - 1)
                assert bool(indep >> v & 1) == (not lower), v
        for start in (greedy, active):
            polished = vertex_cover._improve(g.adj, active, start)
            assert _covers(g, active, polished)
            assert polished.bit_count() <= start.bit_count()
            out = active & ~polished
            inside = [v for v in range(g.n) if polished >> v & 1]
            for u in inside:
                x = g.adj[u] & out
                assert x, u
                if x & (x - 1) == 0:
                    for v in inside:
                        assert v == u or g.adj[u] >> v & 1 or g.adj[v] & out != x
        tau = subset_tau(*_subgraph(g.n, g.edges(), active))
        assert vertex_cover._min_cover(g.adj, active, SolveStats()).bit_count() == tau


class TestSearchKernel:
    def test_clique_bound_below_cover_number(self):
        rng = random.Random(211)
        for seed in range(200):
            n = rng.randint(1, 14)
            g = gnp_graph(n, rng.uniform(0.1, 0.9), seed)
            edges = g.edges()
            for _ in range(3):
                active = rng.getrandbits(n) | rng.getrandbits(n)
                lb = vertex_cover._clique_lb(g.adj, active)
                assert lb <= brute_tau(*_subgraph(n, edges, active)), (seed, active)

    def test_differential_against_subset_table(self):
        # The tau search finds a minimum cover, and bounded searches at
        # every budget, in shuffled order, refute exactly the budgets below
        # tau.  Near-trees, searched in their own labels, fold vertices the
        # partition pass has already placed, so their folds cascade
        # backwards.
        rng = random.Random(229)

        def check(g, active, seed):
            tau = subset_tau(*_subgraph(g.n, g.edges(), active))
            least = vertex_cover._min_cover(g.adj, active, SolveStats())
            assert least.bit_count() == tau, (seed, active)
            assert _covers(g, active, least), (seed, active)
            budgets = list(range(-1, tau + 2))
            rng.shuffle(budgets)
            for k in budgets:
                got = vertex_cover._bounded_cover(g.adj, active, k, SolveStats())
                if k < tau:
                    assert got is None, (seed, active, k)
                else:
                    assert got is not None and got.bit_count() <= k, (seed, active, k)
                    assert _covers(g, active, got), (seed, active, k)

        for seed in range(600):
            n = rng.randint(1, 16)
            g = gnp_graph(n, rng.uniform(0.1, 0.9), seed)
            for active in (g.full_mask, rng.getrandbits(n), rng.getrandbits(n)):
                check(g, active, seed)
        for seed in range(300):
            n = rng.randint(2, 16)
            chords = [rng.sample(range(n), 2) for _ in range(rng.randint(0, 3))]
            g = Graph(n, random_tree(n, seed).edges() + chords)
            for active in (g.full_mask, rng.getrandbits(n)):
                check(g, active, seed)

    def test_filter_keeps_the_first_cover(self):
        # Unit propagation drops only children that hold no cover within
        # budget and keeps the rest in order, so the search returns the
        # unfiltered search's first cover, or None, on every input.
        rng = random.Random(233)
        nodes = {"unfiltered": 0, "filtered": 0}
        for seed in range(1000):
            n = rng.randint(2, 26)
            g = gnp_graph(n, rng.uniform(0.1, 0.7), seed)
            for active in (g.full_mask, rng.getrandbits(n), rng.getrandbits(n)):
                tau = vertex_cover._min_cover(g.adj, active, SolveStats()).bit_count()
                for k in range(tau - 2, tau + 2):
                    old, new = SolveStats(), SolveStats()
                    want = unfiltered_bounded_cover(g.adj, active, k, old, {})
                    got = vertex_cover._bounded_cover(g.adj, active, k, new)
                    assert got == want, (seed, active, k)
                    nodes["unfiltered"] += old.nodes_explored
                    nodes["filtered"] += new.nodes_explored
        assert nodes["filtered"] < nodes["unfiltered"]

    def test_clique_bound_gate_keeps_the_first_cover(self):
        # A budget below the clique bound is refuted with no search, and
        # counts one node; every other call is the search's first cover,
        # with the search's nodes.
        rng = random.Random(241)
        gated = searched = 0
        for seed in range(400):
            n = rng.randint(2, 24)
            g = gnp_graph(n, rng.uniform(0.1, 0.8), seed)
            for active in (g.full_mask, rng.getrandbits(n), rng.getrandbits(n)):
                tau = vertex_cover._min_cover(g.adj, active, SolveStats()).bit_count()
                lb = vertex_cover._clique_lb(g.adj, active)
                for k in range(tau - 2, tau + 3):
                    got, want = SolveStats(), SolveStats()
                    first = next(vertex_cover._covers(g.adj, active, k, want), None)
                    assert vertex_cover._bounded_cover(g.adj, active, k, got) == first
                    if lb > k:
                        gated += 1
                        assert got.nodes_explored == 1, (seed, active, k)
                    else:
                        searched += 1
                        assert got.nodes_explored == want.nodes_explored
        assert gated > 1_000 and searched > 3_000, (gated, searched)

    def test_trees_fold_whole_in_one_node(self):
        # A forest folds to nothing, so at tau the search returns from its
        # root, and at tau - 1 its folds overrun the budget there.  Without
        # testing again the vertices that lost a neighbour to a fold, 59 of
        # these 120 searches took 2-5 nodes.
        for s in range(60):
            t = random_tree(5 + 3 * s, s)
            adj = vertex_cover._Component(t.adj, t.full_mask, SolveStats(), None).adj
            tau = min_vertex_cover(t).tau
            for k in (tau, tau - 1):
                stats = SolveStats()
                got = vertex_cover._bounded_cover(adj, t.full_mask, k, stats)
                assert (got is None) == (k < tau), (s, k)
                assert stats.nodes_explored == 1, (s, k)

    def test_sparse_tau_search_stays_small(self):
        # 146 nodes once the dropped vertices of one tail clique shared a
        # conflict group, 163 before, 269 before unit propagation dropped
        # children; 695 when the vertices that lost a neighbour to a fold
        # are not tested again after the partition pass.  155 in one pass
        # with no table of refuted subproblems; 263 from the label-order
        # first cover, which starts further above tau here than the
        # max-degree greedy cover did.
        stats = SolveStats()
        assert min_vertex_cover(gnp_graph(200, 0.015, 0), stats=stats).tau == 95
        assert stats.nodes_explored < 400

    def test_dense_tau_search_branches_on_the_tail(self):
        # The max-degree split alone takes 27,222 nodes here, branching on
        # a tail of at most 3 vertices in id order about 14,900, and on the
        # whole tail in ascending-degree order 11,261; with one
        # fold-and-partition pass per node, 11,334; with unit propagation
        # dropping children, 4,582; with one conflict group per tail clique
        # and swaps in the lexicographic walk, 3,731; in one pass with no
        # table of refuted subproblems, 3,778; from the label-order first
        # cover, with the clique bound before every bounded search, 3,617.
        stats = SolveStats()
        assert min_vertex_cover(gnp_graph(100, 0.2, 1), stats=stats).tau == 81
        assert stats.nodes_explored < 4_500

    def test_tau_search_node_count(self):
        # gnp(80, 0.25): tau 65, where a triangle-plus-edge packing stays
        # near 2n/3 and prunes only deep in the tree.  1,302 nodes with the
        # greedy first cover counted, 1,261 without it, 544 once unit
        # propagation dropped children, 465 with one conflict group per
        # tail clique, 482 in one pass with no table of refuted subproblems.
        g = gnp_graph(80, 0.25, 2)
        stats = SolveStats()
        cover = vertex_cover._min_cover(g.adj, g.full_mask, stats)
        assert cover.bit_count() == 65
        assert stats.nodes_explored < 4_500

    def test_covers_shrink_to_tau(self):
        # One pass yields covers within the budget, each smaller than the
        # last: the first is the unfiltered search's, and the last has tau
        # vertices, or none comes when the budget is below tau.  The tau
        # search from an upper bound fails exactly when tau exceeds it.
        rng = random.Random(239)
        for seed in range(150):
            n = rng.randint(2, 22)
            g = gnp_graph(n, rng.uniform(0.1, 0.7), seed)
            for active in (g.full_mask, rng.getrandbits(n), rng.getrandbits(n)):
                tau = subset_tau(*_subgraph(g.n, g.edges(), active))
                for k in range(tau - 2, tau + 3):
                    got = list(vertex_cover._covers(g.adj, active, k, SolveStats()))
                    sizes = [c.bit_count() for c in got]
                    case = (seed, active, k, sizes)
                    assert all(_covers(g, active, c) for c in got), case
                    assert all(a > b for a, b in zip([k + 1] + sizes, sizes)), case
                    first = unfiltered_bounded_cover(g.adj, active, k, SolveStats(), {})
                    assert got[:1] == ([] if first is None else [first]), case
                    assert sizes[-1:] == ([tau] if k >= tau else []), case
                    least = vertex_cover._min_cover(g.adj, active, SolveStats(), k)
                    if k < tau:
                        assert least is None, case
                    else:
                        assert least.bit_count() == tau, case
                        assert _covers(g, active, least), case

    def test_tau_search_memory(self):
        # The pass keeps only its stack: 25 KB at the peak here, where the
        # searches down from the first cover, with a table of the
        # subproblems they refuted, peaked at 185 KB.
        g = gnp_graph(100, 0.1, 0)
        tracemalloc.start()
        try:
            sol = min_vertex_cover(g)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert sol.tau == 71
        assert peak < 64 * 2**10


class TestBipartite:
    def test_matches_general_solver(self):
        rng = random.Random(103)
        checked = 0
        while checked < 200:
            n = rng.randint(1, 9)
            edges = random_edges(n, rng.uniform(0.1, 0.6), rng)
            g = Graph(n, edges)
            c = classify(g)
            if c.parts is None:
                continue
            checked += 1
            sol = min_vertex_cover_bipartite(g, c.parts)
            assert sol.tau == brute_tau(n, edges), (n, edges)
            assert is_vertex_cover(g, sol.cover)

    def test_rejects_bad_bipartition(self):
        g = Graph(3, [(0, 1), (1, 2)])
        bad = (g.vertex_set([0, 1]), g.vertex_set([2]))
        with pytest.raises(ValueError):
            min_vertex_cover_bipartite(g, bad)

    def test_even_cycle(self):
        g = Graph(6, [(i, (i + 1) % 6) for i in range(6)])
        sol = min_vertex_cover_bipartite(g, classify(g).parts)
        assert sol.tau == 3

    def test_koenig_cover_matches_networkx(self):
        # The cover is the Koenig cover of the unmatched-left alternating
        # reach, which does not depend on the maximum matching found; pin
        # it against networkx's cover of a Hopcroft-Karp matching.
        rng = random.Random(109)
        for _ in range(500):
            n = rng.randint(2, 40)
            side = [rng.random() < 0.5 for _ in range(n)]
            p = rng.uniform(0.1, 0.6)
            edges = [
                (u, v)
                for u in range(n)
                for v in range(u + 1, n)
                if side[u] != side[v] and rng.random() < p
            ]
            g = Graph(n, edges)
            left = [v for v in range(n) if side[v]]
            right = [v for v in range(n) if not side[v]]
            parts = (g.vertex_set(left), g.vertex_set(right))
            nxg = nx.Graph()
            nxg.add_nodes_from(range(n))
            nxg.add_edges_from(edges)
            matching = bipartite.hopcroft_karp_matching(nxg, top_nodes=left)
            want = bipartite.to_vertex_cover(nxg, matching, top_nodes=left)
            sol = min_vertex_cover_bipartite(g, parts)
            assert set(sol.cover) == want, (n, edges, left)

    def test_long_path_split_by_parity(self):
        # Either way round, every left vertex has a free neighbour when its
        # search starts, so no search goes deep.
        n = 3000
        g = Graph(n, [(i, i + 1) for i in range(n - 1)])
        even = g.vertex_set(range(0, n, 2))
        odd = g.vertex_set(range(1, n, 2))
        for parts in ((even, odd), (odd, even)):
            sol = min_vertex_cover_bipartite(g, parts)
            assert sol.tau == 1500
            assert is_vertex_cover(g, sol.cover)

    def test_long_augmenting_path(self):
        # The path L_0 R_0 L_1 R_1 ... with L_i = 2(k-1-i) and R_i = 2i+1:
        # searches start at L_{k-1}, ..., L_1, each taking the free R_{i-1},
        # so the last root L_0 must augment through every earlier match.
        k = 10_000
        left = [2 * (k - 1 - i) for i in range(k)]
        right = [2 * i + 1 for i in range(k)]
        edges = [(left[i], right[i]) for i in range(k)]
        edges += [(right[i], left[i + 1]) for i in range(k - 1)]
        g = Graph(2 * k, edges)
        sol = min_vertex_cover_bipartite(g, (g.vertex_set(left), g.vertex_set(right)))
        assert sol.tau == k
        assert is_vertex_cover(g, sol.cover)


class TestEnumerate:
    def test_exhaustive_small(self):
        for n in range(5):
            for _, edges in all_graphs(n):
                g = Graph(n, edges)
                got = [tuple(sorted(c)) for c in enumerate_min_vertex_covers(g)]
                want = sorted(tuple(sorted(c)) for c in brute_min_covers(n, edges))
                assert got == want, (n, edges)

    def test_random_medium(self):
        # Random graphs with n <= 8, then seeded gnp graphs with n <= 14:
        # the covers are the brute-force list and also exactly the
        # expanded leaves of branch_to_matchings.
        rng = random.Random(107)
        graphs = []
        for _ in range(300):
            n = rng.randint(1, 8)
            graphs.append(Graph(n, random_edges(n, rng.uniform(0.1, 0.8), rng)))
        for seed in range(60):
            graphs.append(gnp_graph(9 + seed % 6, 0.15 + 0.1 * (seed % 5), seed))
        for g in graphs:
            n, edges = g.n, g.edges()
            got = [tuple(sorted(c)) for c in enumerate_min_vertex_covers(g)]
            want = sorted(tuple(sorted(c)) for c in brute_min_covers(n, edges))
            assert got == want, (n, edges)
            expanded = sorted(
                tuple(sorted([*leaf.forced, *pick]))
                for leaf in branch_to_matchings(g)
                for pick in itertools.product(*leaf.matching)
            )
            assert got == expanded, (n, edges)

    def test_disjoint_edges_count(self):
        # k disjoint edges: every choice of one endpoint per edge is minimum.
        for k in (1, 3, 6):
            g = Graph(2 * k, [(2 * i, 2 * i + 1) for i in range(k)])
            assert len(enumerate_min_vertex_covers(g)) == 2 ** k

    def test_result_cap(self):
        g = Graph(20, [(2 * i, 2 * i + 1) for i in range(10)])
        with pytest.raises(LimitExceeded):
            enumerate_min_vertex_covers(g, max_results=100)

    def test_result_cap_checked_before_expanding(self):
        # The first leaf of 22 disjoint triangles already holds 2^22 covers,
        # past the default cap; the cap must fire before they are built.
        g = Graph(66, [e for i in range(22) for e in triangle(3 * i)])
        tracemalloc.start()
        try:
            with pytest.raises(LimitExceeded):
                enumerate_min_vertex_covers(g)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 50 * 2**20


def leaf_masks(g):
    return [(leaf.forced.mask, leaf.matching) for leaf in branch_to_matchings(g)]


class TestBranchToMatchings:
    def test_same_leaves_as_the_pruned_reference(self):
        # The walk visits only nodes that hold a leaf, so it lists exactly
        # the reference's leaves in the same depth-first order.
        rng = random.Random(131)
        for seed in range(200):
            n = rng.randint(2, 30)
            g = gnp_graph(n, rng.uniform(0.05, 0.35), seed)
            tau = min_vertex_cover(g).tau
            expected = pruned_branch_leaves(n, list(g.edges()), tau)
            assert leaf_masks(g) == expected, (n, seed)

    def test_same_leaves_on_a_gadget(self):
        src = gnp_graph(32, 0.15, 0)
        even_odd = [(u, v) for u, v in src.edges() if (u + v) % 2]
        g = build_bipartite_gadget(Graph(32, even_odd))
        expected = pruned_branch_leaves(g.n, list(g.edges()), 32)
        assert len(expected) > 1
        assert leaf_masks(g) == expected

    def test_leaves_partition_min_covers(self):
        rng = random.Random(109)
        for _ in range(300):
            n = rng.randint(1, 8)
            edges = random_edges(n, rng.uniform(0.15, 0.8), rng)
            g = Graph(n, edges)
            leaves = branch_to_matchings(g)
            tau = brute_tau(n, edges)
            for cover in brute_min_covers(n, edges):
                hits = 0
                for leaf in leaves:
                    forced = set(leaf.forced)
                    if not forced <= cover:
                        continue
                    matched = set()
                    ok = True
                    for a, b in leaf.matching:
                        matched |= {a, b}
                        if len({a, b} & cover) != 1:
                            ok = False
                    if ok and cover - forced <= matched:
                        hits += 1
                assert hits == 1, (n, edges, sorted(cover))
                assert tau == len(cover)

    def test_graphs_without_edges(self):
        # One leaf, with nothing forced and no edges, also with no vertex.
        for n in (0, 1, 5):
            assert leaf_masks(Graph(n)) == [(0, ())]
            assert enumerate_min_vertex_covers(Graph(n)) == [VertexSet(n)]

    def test_leaf_sizes_add_up(self):
        g = Graph(6, [(0, 1), (1, 2), (0, 2), (3, 4)])
        for leaf in branch_to_matchings(g):
            assert len(leaf.forced) + len(leaf.matching) == 3

    def test_matching_edges_isolated_in_leaf(self):
        # Endpoints of leaf matching edges have all other neighbors forced.
        rng = random.Random(113)
        for _ in range(200):
            n = rng.randint(2, 8)
            edges = random_edges(n, rng.uniform(0.2, 0.7), rng)
            g = Graph(n, edges)
            for leaf in branch_to_matchings(g):
                forced = set(leaf.forced)
                for a, b in leaf.matching:
                    assert set(g.neighbors(a)) - {b} <= forced
                    assert set(g.neighbors(b)) - {a} <= forced
