import random

import networkx as nx
import pytest

from oracles import random_union, vertex_walk_components

from pauvc import (
    Classification,
    Graph,
    GraphKind,
    Model,
    ParseError,
    PreAssignment,
    VertexSet,
    classify,
    delete,
    gnp_graph,
    is_independent_dominating_set,
    is_independent_set,
    is_vertex_cover,
    parse_dimacs,
    random_tree,
    render_dimacs,
)
from pauvc.graph import _bits, _components, _list_order


class TestVertexSet:
    def test_construction_and_membership(self):
        s = VertexSet(5, [3, 1])
        assert list(s) == [1, 3]
        assert len(s) == 2
        assert 1 in s and 0 not in s
        assert bool(s)
        assert not bool(VertexSet(5))

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            VertexSet(3, [3])
        with pytest.raises(ValueError):
            VertexSet(3, [-1])

    def test_set_algebra(self):
        a = VertexSet(6, [0, 1, 2])
        b = VertexSet(6, [2, 3])
        assert list(a | b) == [0, 1, 2, 3]
        assert list(a & b) == [2]
        assert list(a - b) == [0, 1]
        assert list(a ^ b) == [0, 1, 3]
        assert list(a.complement()) == [3, 4, 5]

    def test_universe_mismatch_rejected(self):
        with pytest.raises(ValueError):
            VertexSet(4, [0]) | VertexSet(5, [0])

    def test_subset_order(self):
        a = VertexSet(4, [1])
        b = VertexSet(4, [1, 2])
        assert a <= b and a < b and b >= a and b > a
        assert not b <= a

    def test_immutable_and_hashable(self):
        s = VertexSet(3, [0])
        with pytest.raises(AttributeError):
            s.mask = 7
        assert len({s, VertexSet(3, [0]), VertexSet(3, [1])}) == 2

    def test_from_mask_roundtrip(self):
        s = VertexSet.from_mask(6, 0b101010)
        assert list(s) == [1, 3, 5]
        assert VertexSet(6, [1, 3, 5]) == s


class TestListOrder:
    def test_matches_the_vertex_list_key(self):
        # Equal-size masks sort by their sorted vertex lists, also when n
        # is not a multiple of 8 and the masks span several bytes.
        rng = random.Random(1213)
        for _ in range(300):
            n = rng.choice([1, 7, 8, 9, 16, 17, 40, 64, 65, 130])
            k = rng.randint(0, n)
            batch = set()
            for _ in range(rng.randint(1, 60)):
                batch.add(sum(1 << v for v in rng.sample(range(n), k)))
            want = sorted(batch, key=lambda m: tuple(_bits(m)))
            assert sorted(batch, key=_list_order(n)) == want, (n, k)


class TestGraph:
    def test_basic_accessors(self):
        g = Graph(4, [(0, 1), (1, 2), (2, 3)])
        assert g.n == 4 and g.m == 3
        assert g.degree(1) == 2
        assert list(g.neighbors(1)) == [0, 2]
        assert g.has_edge(2, 3) and g.has_edge(3, 2)
        assert not g.has_edge(0, 3)
        assert g.edges() == [(0, 1), (1, 2), (2, 3)]

    def test_duplicate_edges_collapse(self):
        g = Graph(3, [(0, 1), (1, 0), (0, 1)])
        assert g.m == 1

    def test_self_loop_rejected(self):
        with pytest.raises(ValueError):
            Graph(3, [(1, 1)])

    def test_out_of_range_edge_rejected(self):
        with pytest.raises(ValueError):
            Graph(3, [(0, 3)])

    def test_equality_and_hash(self):
        a = Graph(3, [(0, 1)])
        b = Graph(3, [(1, 0)])
        assert a == b and hash(a) == hash(b)
        assert a != Graph(3, [(0, 2)])

    def test_json_roundtrip(self):
        g = Graph(4, [(0, 2), (1, 3)])
        assert Graph.from_json_dict(g.to_json_dict()) == g
        with pytest.raises(ParseError):
            Graph.from_json_dict({"n": 2})
        for bad in (
            {"n": 2, "edges": ["01"]},
            {"n": 2, "edges": "01"},
            {"n": 2, "edges": [[0, 1.0]]},
            {"n": 2, "edges": [[False, True]]},
            {"n": 2, "edges": [[0, 1, 1]]},
            {"n": True, "edges": []},
            {"n": 2.0, "edges": []},
        ):
            with pytest.raises(ParseError):
                Graph.from_json_dict(bad)


class TestDimacs:
    def test_parse_and_render_roundtrip(self):
        text = "c a comment\np edge 4 3\ne 1 2\ne 2 3\ne 3 4\n"
        g = parse_dimacs(text)
        assert g.n == 4 and g.edges() == [(0, 1), (1, 2), (2, 3)]
        assert parse_dimacs(render_dimacs(g)) == g

    def test_parse_bytes(self):
        assert parse_dimacs(b"p edge 2 1\ne 1 2\n").m == 1

    @pytest.mark.parametrize(
        "text",
        [
            "e 1 2\n",                       # edge before p line
            "p edge 2 1\np edge 2 1\ne 1 2", # duplicate p line
            "p edge 2 2\ne 1 2\n",           # declared count mismatch
            "p edge 2 1\ne 1 3\n",           # endpoint out of range
            "p edge 2 1\ne 1 1\n",           # self loop
            "p edge 2 1\nq 1 2\n",           # unknown line type
            "p edge two 1\ne 1 2\n",         # non-integer
            "",                              # missing p line
        ],
    )
    def test_malformed_rejected(self, text):
        with pytest.raises(ParseError):
            parse_dimacs(text)

    def test_duplicate_dimacs_edges_warn(self):
        with pytest.warns(UserWarning):
            g = parse_dimacs("p edge 3 2\ne 1 2\ne 2 1\ne 2 3\n")
        assert g.m == 2


class TestPredicates:
    def test_vertex_cover_predicate(self):
        g = Graph(3, [(0, 1), (1, 2)])
        assert is_vertex_cover(g, g.vertex_set([1]))
        assert not is_vertex_cover(g, g.vertex_set([0]))

    def test_independent_set_predicate(self):
        g = Graph(3, [(0, 1), (1, 2)])
        assert is_independent_set(g, g.vertex_set([0, 2]))
        assert not is_independent_set(g, g.vertex_set([0, 1]))

    def test_independent_dominating_predicate(self):
        g = Graph(4, [(0, 1), (1, 2), (2, 3)])
        assert is_independent_dominating_set(g, g.vertex_set([1, 3]))
        assert not is_independent_dominating_set(g, g.vertex_set([0]))
        assert not is_independent_dominating_set(g, g.vertex_set([0, 1]))

    def test_universe_checked(self):
        g = Graph(3, [(0, 1)])
        with pytest.raises(ValueError):
            is_vertex_cover(g, VertexSet(4, [0]))


class TestClassify:
    def test_tree(self):
        c = classify(Graph(3, [(0, 1), (1, 2)]))
        assert c.kind is GraphKind.TREE
        assert len(c.components) == 1
        assert c.parts is not None

    def test_forest(self):
        c = classify(Graph(4, [(0, 1), (2, 3)]))
        assert c.kind is GraphKind.FOREST
        assert len(c.components) == 2

    def test_bipartite_cycle(self):
        c = classify(Graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)]))
        assert c.kind is GraphKind.BIPARTITE
        part_sets = {tuple(p) for p in c.parts}
        assert part_sets == {(0, 2), (1, 3)}

    def test_general(self):
        c = classify(Graph(3, [(0, 1), (1, 2), (0, 2)]))
        assert c.kind is GraphKind.GENERAL
        assert c.parts is None

    def test_single_vertex_is_tree(self):
        assert classify(Graph(1, [])).kind is GraphKind.TREE

    def test_parts_cover_all_vertices_when_bipartite(self):
        rng = random.Random(3)
        for _ in range(100):
            n = rng.randint(1, 8)
            left = [v for v in range(n) if rng.random() < 0.5]
            edges = [
                (u, v)
                for u in left
                for v in range(n)
                if v not in left and rng.random() < 0.5
            ]
            c = classify(Graph(n, edges))
            assert c.parts is not None
            merged = c.parts[0] | c.parts[1]
            assert len(merged) == n
            assert not (c.parts[0] & c.parts[1])


    def test_agrees_with_networkx(self):
        rng = random.Random(7)
        for _ in range(300):
            n = rng.randint(1, 30)
            p = rng.choice((0.03, 0.06, 0.1, 0.2, 0.4))
            edges = [
                (u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p
            ]
            g = Graph(n, edges)
            ref = nx.Graph(edges)
            ref.add_nodes_from(range(n))
            c = classify(g)
            want = sorted(sorted(comp) for comp in nx.connected_components(ref))
            assert [list(comp) for comp in c.components] == want
            if nx.is_forest(ref):
                kind = GraphKind.TREE if len(want) == 1 else GraphKind.FOREST
            elif nx.is_bipartite(ref):
                kind = GraphKind.BIPARTITE
            else:
                kind = GraphKind.GENERAL
            assert c.kind is kind
            assert (c.parts is None) == (kind is GraphKind.GENERAL)
            if c.parts is not None:
                left, right = c.parts
                assert left.mask | right.mask == g.full_mask
                assert not left.mask & right.mask
                assert all((u in left) != (v in left) for u, v in edges)


def _walk_inputs():
    """Seeded inputs for the walk: gnp, disjoint unions, corner cases."""
    triangle = [(0, 1), (1, 2), (0, 2)]
    yield Graph(0)
    yield Graph(5)
    yield Graph(4, triangle + [(2, 3)])  # plus a pendant
    yield Graph(4, triangle)  # plus an isolated vertex: m = n - 1, not a forest
    rng = random.Random(463)
    for n in range(41):
        yield gnp_graph(n, rng.choice((0.03, 0.06, 0.1, 0.15)), n)
    for _ in range(40):
        sizes = [rng.randint(1, 12) for _ in range(rng.randint(1, 4))]
        label = list(range(sum(sizes)))
        rng.shuffle(label)
        edges, offset = [], 0
        for size in sizes:
            part = random_tree(size, rng.randint(0, 2 ** 32 - 1))
            edges += [(label[u + offset], label[v + offset]) for u, v in part.edges()]
            offset += size
        yield Graph(offset, edges)
        yield Graph(*random_union(30, 10, rng))  # trees, cycles, gnp, isolated
    for n in range(2, 120, 3):
        yield gnp_graph(n, rng.choice((0.2, 0.4, 0.7)), n)


def _reference_bfs(ref, root):
    """BFS order and parent positions, taking neighbours in ascending order."""
    order, parent, seen = [root], [-1], {root}
    for i, v in enumerate(order):
        for w in sorted(ref[v]):
            if w not in seen:
                seen.add(w)
                order.append(w)
                parent.append(i)
    return order, parent


class TestComponents:
    def test_agrees_with_networkx(self):
        # Also the same pairs as the walk that takes each cyclic component
        # vertex by vertex, not by layers once it meets a cycle.
        trees = cyclic = 0
        for g in _walk_inputs():
            ref = nx.Graph(g.edges())
            ref.add_nodes_from(range(g.n))
            walked = list(_components(g.adj))
            assert walked == list(vertex_walk_components(g.adj))
            want = sorted(sorted(comp) for comp in nx.connected_components(ref))
            assert [list(_bits(comp)) for comp, _ in walked] == want
            for (_, rooted), members in zip(walked, want):
                assert (rooted is not None) == nx.is_tree(ref.subgraph(members))
                if rooted is None:
                    cyclic += 1
                    continue
                trees += 1
                order, parent = rooted
                assert (order, parent) == _reference_bfs(ref, members[0])
                pairs = zip(parent[1:], order[1:])
                assert all(g.has_edge(order[p], v) for p, v in pairs)
        assert trees > 300 and cyclic > 40, (trees, cyclic)


class TestDelete:
    def test_delete_keeps_induced_edges(self):
        g = Graph(5, [(0, 1), (1, 2), (2, 3), (3, 4)])
        sub, mapping = delete(g, g.vertex_set([1]))
        assert sub.n == 4
        assert mapping == {0: 0, 2: 1, 3: 2, 4: 3}
        assert sub.edges() == [(1, 2), (2, 3)]

    def test_delete_nothing(self):
        g = Graph(3, [(0, 2)])
        sub, mapping = delete(g, g.vertex_set([]))
        assert sub == g and mapping == {0: 0, 1: 1, 2: 2}


class TestPreAssignment:
    def test_include_model(self):
        pa = PreAssignment.including(VertexSet(4, [0, 2]))
        assert pa.model is Model.INCLUDE
        assert pa.size() == 2 and pa.n == 4

    def test_exclude_cannot_carry_include(self):
        with pytest.raises(ValueError):
            PreAssignment(Model.EXCLUDE, VertexSet(3, [0]), VertexSet(3, [1]))

    def test_include_cannot_carry_exclude(self):
        with pytest.raises(ValueError):
            PreAssignment(Model.INCLUDE, VertexSet(3, [0]), VertexSet(3, [1]))

    def test_mixed_disjointness(self):
        with pytest.raises(ValueError):
            PreAssignment.mixed(VertexSet(3, [0]), VertexSet(3, [0]))

    def test_universe_mismatch(self):
        with pytest.raises(ValueError):
            PreAssignment.mixed(VertexSet(3, [0]), VertexSet(4, [1]))

    def test_json_roundtrip(self):
        pa = PreAssignment.mixed(VertexSet(5, [1]), VertexSet(5, [2, 4]))
        data = pa.to_json_dict()
        assert data == {"model": "mixed", "include": [1], "exclude": [2, 4]}
        assert PreAssignment.from_json_dict(data, 5) == pa

    def test_json_malformed(self):
        with pytest.raises(ParseError):
            PreAssignment.from_json_dict({"model": "nope", "include": [], "exclude": []}, 3)
        with pytest.raises(ParseError):
            PreAssignment.from_json_dict({"model": "include", "include": [9], "exclude": []}, 3)
        for bad in (
            {"model": "include", "include": [1.5]},
            {"model": "include", "include": [True]},
            {"model": "exclude", "exclude": "12"},
            {"model": "mixed", "include": [0], "exclude": ["2"]},
            {"model": "exclude", "exclude": {"1": 1}},
        ):
            with pytest.raises(ParseError):
                PreAssignment.from_json_dict(bad, 3)
