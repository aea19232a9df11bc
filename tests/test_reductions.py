import random

import pytest

from oracles import brute_ids, brute_min_covers, random_edges
from pauvc import (
    Cnf1in3,
    Graph,
    LimitExceeded,
    ParseError,
    VertexSet,
    assignment_to_cover,
    build_bipartite_gadget,
    build_gc,
    classify,
    cover_to_assignment,
    enumerate_1in3,
    enumerate_min_vertex_covers,
    is_vertex_cover,
    min_independent_dominating_set,
    min_vertex_cover,
    parse_dimacs_cnf,
    solve_enum,
    verify_cover_structure,
)


def random_cnf(rng, max_vars=5, max_clauses=4):
    nv = rng.randint(3, max_vars)
    clauses = []
    for _ in range(rng.randint(1, max_clauses)):
        chosen = rng.sample(range(1, nv + 1), 3)
        clauses.append(tuple(v if rng.random() < 0.5 else -v for v in chosen))
    return Cnf1in3(nv, tuple(clauses))


def brute_1in3(cnf):
    out = []
    for code in range(1 << cnf.num_vars):
        assignment = tuple((code >> i) & 1 for i in range(cnf.num_vars))
        ok = True
        for clause in cnf.clauses:
            hits = sum(
                1
                for lit in clause
                if (assignment[abs(lit) - 1] == 1) == (lit > 0)
            )
            if hits != 1:
                ok = False
                break
        if ok:
            out.append(assignment)
    return out


class TestCnf1in3:
    def test_valid(self):
        cnf = Cnf1in3(3, ((1, -2, 3),))
        assert cnf.num_vars == 3 and cnf.num_clauses == 1

    def test_rejects_wrong_arity(self):
        with pytest.raises(ValueError):
            Cnf1in3(3, ((1, 2),))

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            Cnf1in3(2, ((1, 2, 3),))

    def test_rejects_zero_literal(self):
        with pytest.raises(ValueError):
            Cnf1in3(3, ((1, 0, 2),))

    def test_rejects_repeated_literal(self):
        # a repeated literal would give the translation a self loop
        with pytest.raises(ValueError):
            Cnf1in3(3, ((1, 1, 2),))
        # complementary literals of one variable are fine
        Cnf1in3(2, ((1, -1, 2),))


class TestParseCnf:
    def test_parse(self):
        cnf = parse_dimacs_cnf("c demo\np cnf 4 2\n1 2 3 0\n-2 3 4 0\n")
        assert cnf.num_vars == 4
        assert cnf.clauses == ((1, 2, 3), (-2, 3, 4))

    @pytest.mark.parametrize(
        "text",
        [
            "1 2 3 0\n",                       # clause before p line
            "p cnf 3 1\n1 2 3\n",              # missing terminator
            "p cnf 3 1\n1 2 3 4 0\n",          # four literals
            "p cnf 3 1\n1 2 0\n",              # two literals
            "p cnf 3 2\n1 2 3 0\n",            # declared count mismatch
            "p cnf 3 1\n1 1 2 0\n",            # repeated literal
            "p cnf 3 1\n1 2 4 0\n",            # variable out of range
            "p sat 3 1\n1 2 3 0\n",            # wrong format tag
            "",                                # empty
            b"p cnf 1 1\n1 -1 \xff 0\n",        # a byte that is not ASCII
        ],
    )
    def test_malformed(self, text):
        with pytest.raises(ParseError):
            parse_dimacs_cnf(text)


class TestBuildGc:
    def test_reference_instance_shape(self):
        cnf = Cnf1in3(4, ((1, 2, 3), (-2, 3, 4)))
        g, lab = build_gc(cnf)
        assert g.n == 27  # 5 per variable + root + 3 per clause
        assert min_vertex_cover(g).tau == 16  # 3n + 2m
        # houses: each variable contributes 7 edges, plus root spokes
        assert lab.root == 20
        assert lab.triangles == ((21, 22, 23), (24, 25, 26))

    def test_labeling_json_layout(self):
        cnf = Cnf1in3(3, ((1, 2, 3),))
        _, lab = build_gc(cnf)
        data = lab.to_json_dict()
        assert set(data) == {"r", "v", "vp", "u", "clause"}
        assert data["r"] == 15
        assert data["v"]["1"] == 0 and data["v"]["-1"] == 1
        assert data["vp"]["1"] == 2 and data["vp"]["-1"] == 3
        assert data["u"]["1"] == 4
        assert data["clause"] == [[16, 17, 18]]

    def test_cover_count_equals_assignment_count(self):
        rng = random.Random(501)
        for _ in range(25):
            cnf = random_cnf(rng, max_vars=4, max_clauses=3)
            g, _ = build_gc(cnf)
            target = 3 * cnf.num_vars + 2 * cnf.num_clauses
            assignments = brute_1in3(cnf)
            sol = min_vertex_cover(g)
            assert sol.tau >= target
            covers = (
                enumerate_min_vertex_covers(g) if sol.tau == target else []
            )
            assert len(covers) == len(assignments), cnf

    def test_mappings_are_mutually_inverse(self):
        rng = random.Random(503)
        for _ in range(25):
            cnf = random_cnf(rng, max_vars=4, max_clauses=3)
            g, _ = build_gc(cnf)
            for assignment in brute_1in3(cnf):
                cover = assignment_to_cover(cnf, assignment)
                assert is_vertex_cover(g, cover)
                assert len(cover) == 3 * cnf.num_vars + 2 * cnf.num_clauses
                assert cover_to_assignment(cnf, cover) == assignment
                ok, violated = verify_cover_structure(cnf, cover)
                assert ok and violated is None


class TestAssignmentToCover:
    def test_rejects_non_1in3_assignment(self):
        cnf = Cnf1in3(3, ((1, 2, 3),))
        with pytest.raises(ValueError):
            assignment_to_cover(cnf, (1, 1, 0))  # two true literals
        with pytest.raises(ValueError):
            assignment_to_cover(cnf, (0, 0, 0))  # zero true literals

    def test_rejects_bad_shape(self):
        cnf = Cnf1in3(3, ((1, 2, 3),))
        with pytest.raises(ValueError):
            assignment_to_cover(cnf, (1, 0))
        with pytest.raises(ValueError):
            assignment_to_cover(cnf, (2, 0, 0))


class TestCoverToAssignment:
    def test_rejects_non_cover(self):
        cnf = Cnf1in3(3, ((1, 2, 3),))
        g, _ = build_gc(cnf)
        with pytest.raises(ValueError):
            cover_to_assignment(cnf, VertexSet(g.n, []))

    def test_rejects_wrong_size(self):
        cnf = Cnf1in3(3, ((1, 2, 3),))
        g, _ = build_gc(cnf)
        everything = VertexSet(g.n, range(g.n))
        with pytest.raises(ValueError):
            cover_to_assignment(cnf, everything)


class TestVerifyCoverStructure:
    def test_violations_detected(self):
        cnf = Cnf1in3(3, ((1, 2, 3),))
        cover = assignment_to_cover(cnf, (1, 0, 0))
        lab_g, lab = build_gc(cnf)
        members = set(cover)
        # drop one triangle vertex: condition 1
        tri = set(lab.triangles[0])
        broken = VertexSet(cover.n, members - (members & tri))
        assert verify_cover_structure(cnf, broken) == (False, 1)
        # add the root: condition 2
        broken = VertexSet(cover.n, members | {lab.root})
        assert verify_cover_structure(cnf, broken) == (False, 2)
        # put both literal vertices of variable 1 in: condition 3
        broken = VertexSet(cover.n, members | {lab.literal[-1]})
        assert verify_cover_structure(cnf, broken) == (False, 3)

    def test_condition4_detected(self):
        cnf = Cnf1in3(3, ((1, 2, 3),))
        cover = assignment_to_cover(cnf, (1, 0, 0))
        _, lab = build_gc(cnf)
        members = set(cover)
        # clause vertex for the true literal is outside; swap it with one
        # of its in-cover triangle mates whose literal vertex is in U
        t_true = lab.triangles[0][0]
        t_other = lab.triangles[0][1]
        assert t_true not in members and t_other in members
        members.discard(t_other)
        members.add(t_true)
        broken = VertexSet(cover.n, members)
        assert verify_cover_structure(cnf, broken) == (False, 4)


class TestEnumerate1in3:
    def test_matches_brute(self):
        rng = random.Random(509)
        for _ in range(40):
            cnf = random_cnf(rng, max_vars=6, max_clauses=4)
            assert enumerate_1in3(cnf) == brute_1in3(cnf)

    def test_no_clauses(self):
        cnf = Cnf1in3(2, ())
        assert len(enumerate_1in3(cnf)) == 4

    def test_var_limit(self):
        cnf = Cnf1in3(30, ())
        with pytest.raises(LimitExceeded):
            enumerate_1in3(cnf)


class TestBipartiteGadget:
    def test_shape(self):
        c4 = Graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
        gp = build_bipartite_gadget(c4)
        assert gp.n == 8 and gp.m == 8
        assert min_vertex_cover(gp).tau == 4  # pendant matching forces |V|

    def test_warns_on_non_bipartite(self):
        with pytest.warns(UserWarning):
            build_bipartite_gadget(Graph(3, [(0, 1), (1, 2), (0, 2)]))

    def test_ids_equals_gadget_opt(self):
        rng = random.Random(521)
        checked = 0
        while checked < 60:
            n = rng.randint(1, 6)
            edges = random_edges(n, rng.uniform(0.2, 0.6), rng)
            g = Graph(n, edges)
            if classify(g).parts is None:
                continue
            checked += 1
            gp = build_bipartite_gadget(g)
            ids = len(min_independent_dominating_set(g))
            assert ids == brute_ids(n, edges)
            assert solve_enum(gp, "mixed").opt_size == ids
            assert solve_enum(gp, "include").opt_size == ids

    def test_pendant_edges_hit_exactly_once(self):
        # the one-endpoint-per-pendant property holds for any input graph,
        # so non-bipartite samples are fine; silence the advisory warning
        import warnings

        rng = random.Random(523)
        for _ in range(40):
            n = rng.randint(1, 5)
            g = Graph(n, random_edges(n, 0.4, rng))
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                gp = build_bipartite_gadget(g)
            for cover in enumerate_min_vertex_covers(gp):
                members = set(cover)
                for v in range(n):
                    assert len(members & {v, n + v}) == 1


class TestMinIds:
    def test_against_brute(self):
        rng = random.Random(541)
        for _ in range(150):
            n = rng.randint(0, 7)
            edges = random_edges(n, rng.uniform(0.1, 0.7), rng)
            g = Graph(n, edges)
            d = min_independent_dominating_set(g)
            assert len(d) == brute_ids(n, edges)
            if n:
                members = set(d)
                assert all(
                    v in members or set(g.neighbors(v)) & members
                    for v in range(n)
                )

    def test_limit(self):
        with pytest.raises(LimitExceeded):
            min_independent_dominating_set(Graph(30, []))
