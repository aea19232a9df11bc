import random
import time

import pytest

from oracles import (
    branching_tree_pau,
    brute_pau_opt,
    brute_tau,
    count_rooted_i_subtrees,
)
from pauvc import (
    Graph,
    LimitExceeded,
    Model,
    SolveStats,
    is_feasible,
    pau_tree,
    random_tree,
    solve_enum,
)

MODELS = ("include", "exclude", "mixed")


def random_tree_edges(n, rng):
    return random_tree(n, rng.randint(0, 2 ** 32 - 1))


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
        for _ in range(40):
            n = rng.randint(10, 13)
            t = random_tree_edges(n, rng)
            for model in MODELS:
                answer = pau_tree(t, model)
                want = solve_enum(t, model)
                assert (answer.opt, answer.witness) == (want.opt_size, want.pre)

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

    def test_expired_deadline_raises(self):
        t = random_tree(2048, 5)
        for model in ("include", "exclude"):
            with pytest.raises(LimitExceeded):
                pau_tree(t, model, stats=SolveStats(time.perf_counter() - 1))


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
