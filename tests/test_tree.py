import hashlib
import itertools
import random
import time
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    branching_tree_pau,
    brute_min_covers,
    brute_pau_opt,
    brute_tau,
    consistent,
    count_rooted_i_subtrees,
    tuple_tree_pass,
)
import pauvc.solvers
from pauvc import (
    Graph,
    LimitExceeded,
    Model,
    PreAssignment,
    Reason,
    SolveStats,
    VertexSet,
    has_unique_min_vc,
    is_feasible,
    is_vertex_cover,
    min_vertex_cover,
    pau_tree,
    random_tree,
    reduce_instance,
    solve,
    solve_enum,
)
from pauvc.graph import _components
from pauvc.tree import _tree_pass, count_tree_covers
from pauvc.uniqueness import _REASON_BY_COUNT, _pin_conflict

MODELS = ("include", "exclude", "mixed")


def random_tree_edges(n, rng):
    return random_tree(n, rng.randint(0, 2 ** 32 - 1))


def prufer_tree(n, code):
    """The labelled tree on n >= 2 vertices with the given Pruefer code."""
    degree = [1] * n
    for v in code:
        degree[v] += 1
    edges = []
    for v in code:
        leaf = degree.index(1)
        edges.append((leaf, v))
        degree[leaf] -= 1
        degree[v] -= 1
    edges.append(tuple(u for u in range(n) if degree[u] == 1))
    return Graph(n, edges)


# Shapes that meet the tree tables' shortcuts, rooted at vertex 0 as the
# component walk does: on the path every internal vertex adopts its one
# child's table, the stars merge many leaves into their centre (rooted
# there, or at a leaf), the caterpillar hangs leaves off a path and the
# spider has long legs.
SHAPED_TREES = [
    Graph(13, [(v, v + 1) for v in range(12)]),
    Graph(12, [(0, v) for v in range(1, 12)]),
    Graph(12, [(v, 11) for v in range(11)]),
    Graph(13, [(v, v + 1) for v in range(4)] + [(v % 5, v) for v in range(5, 13)]),
    Graph(13, [(0, 1), (0, 5), (0, 9)] + [(v, v + 1) for v in range(1, 12) if v % 4]),
]


@st.composite
def pinned_trees(draw):
    """A tree on at most 12 vertices, relabelled, with include and exclude pins."""
    n = draw(st.integers(1, 12))
    label = draw(st.permutations(range(n)))
    edges = [(label[v], label[draw(st.integers(0, v - 1))]) for v in range(1, n)]
    include = draw(st.integers(0, (1 << n) - 1))
    exclude = draw(st.integers(0, (1 << n) - 1))
    return Graph(n, edges), include, exclude


class TestPauTree:
    def test_against_brute_oracle(self):
        rng = random.Random(401)
        for _ in range(250):
            n = rng.randint(1, 9)
            t = random_tree_edges(n, rng)
            edges = tuple(t.edges())
            for model in MODELS:
                want = brute_pau_opt(n, edges, model)
                answer = pau_tree(t, model)
                assert answer.opt == want, (edges, model)
                assert answer.tau == brute_tau(n, edges)
                report = is_feasible(t, answer.witness)
                assert report.feasible
                assert answer.witness.size() == want

    def test_against_enum_larger(self):
        rng = random.Random(409)
        randoms = [random_tree_edges(rng.randint(10, 13), rng) for _ in range(40)]
        for t in randoms + SHAPED_TREES:
            for model in MODELS:
                answer = pau_tree(t, model)
                want = solve_enum(t, model)
                assert (answer.opt, answer.witness) == (want.opt_size, want.pre)
                got = solve(t, model)
                assert (got.pre, got.unique_cover) == (want.pre, want.unique_cover)

    def test_every_labelled_tree_up_to_six_vertices(self):
        checked = 0
        for n in range(2, 7):
            for code in itertools.product(range(n), repeat=n - 2):
                t = prufer_tree(n, code)
                for model in ("include", "exclude"):
                    want = solve_enum(t, model)
                    answer = pau_tree(t, model)
                    assert (answer.opt, answer.witness) == (want.opt_size, want.pre)
                    got = solve(t, model)
                    assert (got.opt_size, got.pre, got.unique_cover) == (
                        want.opt_size,
                        want.pre,
                        want.unique_cover,
                    ), (t.edges(), model)
                checked += 1
        assert checked == 1 + 3 + 16 + 125 + 1296

    def test_base_cases(self):
        single = Graph(1, [])
        for model in MODELS:
            a = pau_tree(single, model)
            assert (a.tau, a.opt) == (0, 0)
        edge = Graph(2, [(0, 1)])
        for model in MODELS:
            a = pau_tree(edge, model)
            assert (a.tau, a.opt) == (1, 1)
            assert a.witness.size() == 1

    def test_path4_include_needs_one_leaf(self):
        # the include optimum of the 4-path is a single leaf vertex, so
        # restricting first commitments to internal vertices would be wrong
        p4 = Graph(4, [(0, 1), (1, 2), (2, 3)])
        a = pau_tree(p4, "include")
        assert a.opt == 1
        assert list(a.witness.include) in ([0], [3])

    def test_star_already_unique(self):
        star = Graph(6, [(0, v) for v in range(1, 6)])
        for model in MODELS:
            a = pau_tree(star, model)
            assert a.opt == 0 and a.witness.size() == 0

    def test_mixed_equals_exclude(self):
        rng = random.Random(419)
        for _ in range(80):
            n = rng.randint(1, 10)
            t = random_tree_edges(n, rng)
            assert pau_tree(t, "mixed").opt == pau_tree(t, "exclude").opt

    def test_mixed_witness_model(self):
        t = Graph(2, [(0, 1)])
        a = pau_tree(t, "mixed")
        assert a.witness.model is Model.MIXED
        assert not a.witness.include

    def test_against_branching_oracle(self):
        rng = random.Random(421)
        for _ in range(40):
            n = rng.randint(15, 20)
            t = random_tree_edges(n, rng)
            for model in ("include", "exclude"):
                tau, opt, witness = branching_tree_pau(n, t.edges(), model)
                answer = pau_tree(t, model)
                got = (answer.tau, answer.opt, answer.witness.size())
                assert got == (tau, opt, opt), (t.edges(), model)
                assert is_feasible(t, answer.witness).feasible
                members = answer.witness.include | answer.witness.exclude
                assert members.mask == witness

    def test_rejects_non_trees(self):
        with pytest.raises(ValueError):
            pau_tree(Graph(3, [(0, 1), (1, 2), (0, 2)]), "include")
        with pytest.raises(ValueError):
            pau_tree(Graph(4, [(0, 1), (2, 3)]), "include")  # forest
        with pytest.raises(ValueError):
            pau_tree(Graph(0, []), "include")

    def test_rejects_cycles_with_tree_edge_counts(self):
        triangle = [(0, 1), (1, 2), (0, 2)]
        plus_isolated = Graph(4, triangle)  # m = n - 1, but disconnected
        plus_pendant = Graph(4, triangle + [(2, 3)])
        for g in (plus_isolated, plus_pendant):
            for model in MODELS:
                with pytest.raises(ValueError):
                    pau_tree(g, model)
            assert next(_components(g.adj))[1] is None  # the triangle


def _rooting(t):
    """The (order, parent) the component walk gives a connected tree."""
    [(comp, rooted)] = _components(t.adj)
    assert comp == t.full_mask and rooted is not None
    return rooted


def _pins(n, rng, p):
    return sum(1 << v for v in range(n) if rng.random() < p)


def _members(mask):
    return {v for v in range(mask.bit_length()) if mask >> v & 1}


def _searched(t, least, include, exclude):
    """The cover-search verdict that graphs other than trees get.

    The search starts from the minimum cover least, by id.  Past the pin
    conflicts, the record's count must answer as the tree's count does:
    the same tau and ways, and the same cover when it is unique.
    """
    conflict = _pin_conflict(t.adj, include, exclude)
    if conflict is not None:
        return None, conflict
    comp = pauvc.vertex_cover._Component(t.adj, t.full_mask, SolveStats(), None)
    comp.least = comp.to_labels(least)
    tau, ways, cover = comp.count(include, exclude, SolveStats())
    counted = count_tree_covers(_rooting(t), include, exclude, SolveStats())
    assert (tau, ways) == counted[:2], (t.edges(), include, exclude)
    if ways == 1:
        assert cover == counted[2], (t.edges(), include, exclude)
    return (cover if ways == 1 else None), _REASON_BY_COUNT[ways]


def _counted(t, include, exclude):
    """is_feasible's verdict, which on a tree is the linear count."""
    pa = PreAssignment.mixed(
        VertexSet.from_mask(t.n, include), VertexSet.from_mask(t.n, exclude)
    )
    report = is_feasible(t, pa)
    return (report.witness.mask if report.feasible else None), report.reason


class TestTreeFeasibility:
    def test_agrees_with_cover_search(self):
        rng = random.Random(433)
        checked = 0
        for i in range(60):
            n = rng.randint(280, 300) if i % 20 == 0 else rng.randint(1, 60)
            t = random_tree_edges(n, rng)
            cover = min_vertex_cover(t).cover.mask
            for model in ("include", "exclude"):
                witness = pau_tree(t, model).witness
                inside = cover if model == "include" else t.full_mask & ~cover
                pin_sets = [
                    witness.include.mask | witness.exclude.mask,
                    inside & _pins(n, rng, 0.3),
                    inside & _pins(n, rng, 0.7),
                    _pins(n, rng, 0.1),
                    _pins(n, rng, 0.4),
                ]
                for pins in pin_sets:
                    include, exclude = (pins, 0) if model == "include" else (0, pins)
                    got = _counted(t, include, exclude)
                    want = _searched(t, cover, include, exclude)
                    assert got == want, (t.edges(), pins)
                    checked += 1
            include = _pins(n, rng, 0.15)
            exclude = _pins(n, rng, 0.15) & ~include
            want = _searched(t, cover, include, exclude)
            assert _counted(t, include, exclude) == want
            # a vertex pinned both ways admits no cover
            counted = count_tree_covers(_rooting(t), 1, 1, SolveStats())
            assert counted[1:] == (0, None)
        assert checked == 600

    def test_counts_against_brute_force(self):
        rng = random.Random(443)
        for _ in range(150):
            n = rng.randint(1, 9)
            t = random_tree_edges(n, rng)
            covers = brute_min_covers(n, t.edges())
            include = _pins(n, rng, 0.2)
            exclude = _pins(n, rng, 0.2) & ~include
            tau, count, cover = count_tree_covers(
                _rooting(t), include, exclude, SolveStats()
            )
            inc, exc = _members(include), _members(exclude)
            hits = [sum(1 << v for v in c) for c in covers if consistent(c, inc, exc)]
            assert (tau, count) == (len(covers[0]), min(2, len(hits)))
            # any consistent minimum cover is rebuilt once one exists
            assert cover in hits if hits else cover is None

    @settings(derandomize=True, deadline=None)
    @given(pinned_trees())
    def test_counts_match_every_subset(self, drawn):
        t, include, exclude = drawn
        covers = brute_min_covers(t.n, t.edges())
        inc, exc = _members(include), _members(exclude)
        hits = [sum(1 << v for v in c) for c in covers if consistent(c, inc, exc)]
        tau, count, cover = count_tree_covers(
            _rooting(t), include, exclude, SolveStats()
        )
        assert (tau, count) == (len(covers[0]), min(2, len(hits)))
        assert cover in hits if hits else cover is None

    def test_one_decision_per_call(self):
        t = random_tree(50, 7)
        stats = SolveStats()
        count_tree_covers(_rooting(t), 0, 0, stats)
        assert (stats.uvc_calls, stats.nodes_explored) == (1, 0)
        stats = SolveStats()
        is_feasible(t, PreAssignment.including(VertexSet(t.n)), stats=stats)
        assert (stats.uvc_calls, stats.nodes_explored) == (1, 0)

    def test_trees_are_not_vertex_capped(self):
        t = random_tree(600, 0)
        witness = pau_tree(t, "exclude").witness
        assert is_feasible(t, witness, vertex_limit=2).feasible
        reduced, expected_tau, _ = reduce_instance(t, witness, vertex_limit=2)
        assert expected_tau == min_vertex_cover(reduced, vertex_limit=t.n).tau
        # each component of a forest is a tree, so the forest is not capped
        forest = Graph(t.n, t.edges()[1:])
        report = is_feasible(forest, PreAssignment.including(VertexSet(t.n)))
        unique, solution = has_unique_min_vc(forest)
        assert report.feasible == unique
        assert report.witness == (solution.cover if unique else None)
        cycle = Graph(t.n, [(v, (v + 1) % t.n) for v in range(t.n)])
        with pytest.raises(LimitExceeded):
            is_feasible(cycle, PreAssignment.including(VertexSet(t.n)))

    def test_dropping_a_pin_from_a_witness_is_rejected(self):
        rng = random.Random(439)
        for _ in range(40):
            n = rng.randint(2, 80)
            t = random_tree_edges(n, rng)
            for model in ("include", "exclude"):
                answer = pau_tree(t, model)
                pins = answer.witness.include.mask | answer.witness.exclude.mask
                if answer.opt == 0:
                    continue
                for v in answer.witness.include | answer.witness.exclude:
                    fewer = pins & ~(1 << v)
                    include, exclude = (fewer, 0) if model == "include" else (0, fewer)
                    assert _counted(t, include, exclude) == (None, Reason.NOT_UNIQUE)

    def test_solve_rejects_a_wrong_witness(self, monkeypatch):
        real_tree_pass = pauvc.solvers._tree_pass

        def wrong_tree_pass(rooted, include, stats):
            tau, _ = real_tree_pass(rooted, include, stats)
            return tau, 0  # no pins at all

        monkeypatch.setattr(pauvc.solvers, "_tree_pass", wrong_tree_pass)
        p4 = Graph(4, [(0, 1), (1, 2), (2, 3)])  # two minimum covers
        for model in MODELS:
            with pytest.raises(AssertionError):
                solve(p4, model)


# sha1 of (include, exclude, unique cover) masks of solve on random_tree(10_000, seed).
TEN_THOUSAND_DIGESTS = {
    3: {
        "include": "8d0990db195159986cd2a073760a89477aa43717",
        "exclude": "779212c97b0ce6d07996ceb172c629daa2c01378",
        "mixed": "779212c97b0ce6d07996ceb172c629daa2c01378",
    },
    4: {
        "include": "04821c4bb412be3df92607f6aba8b8379882cef5",
        "exclude": "f8061730e8ceab7938a9045ccf67dad1e5637220",
        "mixed": "f8061730e8ceab7938a9045ccf67dad1e5637220",
    },
}


class TestTreeScale:
    def test_ten_thousand_vertices_without_recursion(self):
        n = 10_000
        path = Graph(n, [(v, v + 1) for v in range(n - 1)])
        for t in (path, random_tree(n, 3), random_tree(n, 4)):
            answers = [pau_tree(t, model) for model in MODELS]
            assert len({(a.tau, a.opt) for a in answers}) == 1
            assert all(a.witness.size() == a.opt for a in answers)
        # an even path has n/2 + 1 minimum covers; pinning an end fixes one
        path_answer = pau_tree(path, "include")
        assert (path_answer.tau, path_answer.opt) == (n // 2, 1)

    @pytest.mark.parametrize("seed", [3, 4])
    def test_solve_ten_thousand_vertices(self, seed):
        t = random_tree(10_000, seed)
        for model in MODELS:
            answer = pau_tree(t, model)
            started = time.perf_counter()
            result = solve(t, model)
            assert time.perf_counter() - started < 5.0
            assert result.opt_size == answer.opt
            assert len(result.unique_cover) == answer.tau
            assert is_vertex_cover(t, result.unique_cover)
            assert result.stats.uvc_calls == 1
            # No oracle reaches this size, so the answers are pinned by digest.
            pre = result.pre
            key = (pre.include.mask, pre.exclude.mask, result.unique_cover.mask)
            digest = hashlib.sha1(repr(key).encode()).hexdigest()
            assert digest == TEN_THOUSAND_DIGESTS[seed][model], model

    @pytest.mark.parametrize("seed", [0, 1])
    def test_tables_take_constant_memory_per_vertex(self, seed):
        # Each table is released once merged; keeping them costs over 800
        # bytes a vertex at this size.
        t = random_tree(5_000, seed)
        rooted = _rooting(t)
        for include in (True, False):
            tracemalloc.start()
            try:
                _tree_pass(rooted, include, SolveStats())
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 100 * t.n, (include, peak)

    def test_solve_is_not_vertex_capped(self):
        # 600 vertices is over the 512 default that caps the exponential routes
        t = random_tree(600, 0)
        for model in MODELS:
            result = solve(t, model)
            assert result.opt_size == pau_tree(t, model).opt
            assert result.stats.nodes_explored == t.n

    def test_expired_deadline_raises(self):
        t = random_tree(2048, 5)
        for model in ("include", "exclude"):
            with pytest.raises(LimitExceeded):
                pau_tree(t, model, stats=SolveStats(time.perf_counter() - 1))


class TestIntegerEntries:
    """One integer per table entry gives the (pins, mask) tuples' answer."""

    @staticmethod
    def _agree(t):
        rooted = _rooting(t)
        for include in (True, False):
            want = tuple_tree_pass(rooted, include, SolveStats())
            stats = SolveStats()
            assert _tree_pass(rooted, include, stats) == want, (t.n, include)
            assert stats.nodes_explored == t.n

    def test_random_trees(self):
        for s in range(400):
            self._agree(random_tree(1 + s % 300, s))

    def test_paths_stars_and_caterpillars(self):
        shapes = []
        for n in (1, 2, 3, 4, 5, 8, 13, 64, 65, 200):
            shapes.append([(v, v + 1) for v in range(n - 1)])
            shapes.append([(0, v) for v in range(1, n)])
        for spine in (1, 2, 5, 30):
            for legs in (1, 2, 3):
                edges = [(v, v + 1) for v in range(spine - 1)]
                edges += [(v, spine + legs * v + k) for v in range(spine) for k in range(legs)]
                shapes.append(edges)
        # The tie-break reads labels, so each shape is also solved relabeled.
        rng = random.Random(31)
        for edges in shapes:
            n = len(edges) + 1
            perm = list(range(n))
            for _ in range(2):
                self._agree(Graph(n, [(perm[u], perm[v]) for u, v in edges]))
                rng.shuffle(perm)


class TestRootedISubtrees:
    def test_four_vertex_fixed_points(self):
        p4 = [(0, 1), (1, 2), (2, 3)]
        star = [(0, 1), (0, 2), (0, 3)]
        assert count_rooted_i_subtrees(4, p4, 0) == 3
        assert count_rooted_i_subtrees(4, p4, 1) == 2
        assert count_rooted_i_subtrees(4, star, 1) == 2
        assert count_rooted_i_subtrees(4, star, 0) == 1

    def test_tiny_trees(self):
        assert count_rooted_i_subtrees(1, [], 0) == 1
        assert count_rooted_i_subtrees(2, [(0, 1)], 0) == 1
        assert count_rooted_i_subtrees(2, [(0, 1)], 1) == 1

    def test_bound_on_random_trees(self):
        rng = random.Random(431)
        for _ in range(150):
            n = rng.randint(4, 12)
            t = random_tree_edges(n, rng)
            for root in range(n):
                assert count_rooted_i_subtrees(n, t.edges(), root) <= 2 ** (n / 2) - 1

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            count_rooted_i_subtrees(3, [(0, 1), (1, 2), (0, 2)], 0)
        with pytest.raises(ValueError):
            count_rooted_i_subtrees(2, [(0, 1)], 5)
