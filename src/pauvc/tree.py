"""Linear-time solver for pre-assignments on trees.

Root the tree at vertex 0 and write T_v for the subtree of v.  For a status
b of v (0: out of the cover, 1: in it), m_b(v) is the size of a smallest
cover of T_v in which v has status b:

    m_0(v) = sum over children w of m_1(w)
    m_1(v) = 1 + sum over children w of min(m_0(w), m_1(w))

Restriction argument: a minimum cover C of the whole tree, restricted to
T_v, is a smallest cover of T_v for v's status in C.  Otherwise a smaller
one with the same status of v could replace it: the only edge leaving T_v
is v's edge to its parent, whose coverage depends on v alone, so the
result would be a smaller cover of the tree.  Hence the minimum covers of
the tree are assembled from smallest subtree covers, and counting them
composes.  Let c_b(v) be the number of covers of T_v of size m_b(v) with v
of status b that agree with the pins inside T_v, capped at 2 (the solver
only asks "exactly one or not", and capped products and sums stay exact
under that question):

    c_0(v) = product over children w of c_1(w)
    c_1(v) = product over children w of s(w),
             s(w) = sum of c_b(w) over the b with m_b(w) = min(m_0(w), m_1(w))

Pinning v comes after its children are merged: in the include model it
sets c_0(v) = 0, in the exclude model c_1(v) = 0.  The table of T_v maps
each reachable pair (c_0, c_1) to the fewest pins inside T_v that reach it,
with one witness.  A child enters its parent only through the pair
(c_1(w), s(w)), so its table is projected onto that pair first.  The pair
(0, 0) is dropped, since it stays (0, 0) up to the root.  At the root,
tau = min(m_0, m_1), and a pin set is feasible exactly when the sum of c_b
over the b with m_b = tau is 1; the cheapest such entry is the optimum.

A table has at most eight entries, so merging a child takes O(1) table
steps and the pass is linear in table steps; a witness is a bit mask, so
each union also costs O(n/64) machine words.  Among entries with equal pin
counts the table keeps the lexicographically smaller sorted vertex list:
the lowest vertex two masks do not share lies in the smaller one.  Two
candidates for one entry that agree outside a subtree compare as their
parts inside it do, so keeping the smaller part is exact, and the answer
is the lexicographically smallest optimum.  Mixed-model instances are
answered in the exclude model, which has the same optimum.
:func:`count_tree_covers` counts the covers of one pin set with no tables;
``is_feasible`` uses it on trees, so it checks the table code's witnesses.
"""

from __future__ import annotations

from dataclasses import dataclass

from .graph import Graph, Model, PreAssignment, VertexSet
from .vertex_cover import SolveStats, _bits, _node

__all__ = ["TreeAnswer", "count_tree_covers", "pau_tree"]


@dataclass(frozen=True)
class TreeAnswer:
    """Cover number of the tree, optimum pre-assignment size, one witness."""

    tau: int
    opt: int
    witness: PreAssignment


def _offer(table: dict, key: tuple[int, int], cost: int, mask: int) -> None:
    """Store (cost, mask) at key unless the entry there is at least as good.

    Fewer pins win; with as many pins, the smaller sorted vertex list wins,
    which is the mask holding the lowest vertex the two do not share.
    """
    old = table.get(key)
    if old is not None:
        if cost > old[0]:
            return
        diff = mask ^ old[1]
        if cost == old[0] and not mask & diff & -diff:
            return
    table[key] = (cost, mask)


def _root(t: Graph) -> tuple[list[int], list[int], list[list[int]]] | None:
    """BFS order from 0, parents, children; None unless t is a connected tree."""
    n, adj = t.n, t.adj
    if n == 0 or t.m != n - 1:
        return None
    order, parent, children, seen = [0], [-1] * n, [[] for _ in range(n)], 1
    for v in order:
        fresh = adj[v] & ~seen
        seen |= fresh
        children[v] = list(_bits(fresh))
        for w in children[v]:
            parent[w] = v
        order += children[v]
    return (order, parent, children) if len(order) == n else None


def count_tree_covers(
    t: Graph, include: int, exclude: int, stats: SolveStats
) -> tuple[int, int, int | None] | None:
    """Count the minimum covers of t consistent with the pin masks.

    Returns None unless t is a connected tree, else tau(t), the count
    capped at 2, and the cover when the count is 1.  Counts c_0, c_1 bottom
    up, then rebuilds the cover top down: a child of an out-vertex is in
    it, any other vertex takes the one status b with m_b = min(m_0, m_1)
    and c_b >= 1.  Counts one ``stats.uvc_calls`` and no search nodes.
    """
    rooted = _root(t)
    if rooted is None:
        return None
    order, parent, _ = rooted
    stats.uvc_calls += 1
    m0, m1, c0, c1 = [0] * t.n, [1] * t.n, [1] * t.n, [1] * t.n
    for v in _bits(include):
        c0[v] = 0
    for v in _bits(exclude):
        c1[v] = 0  # pinning before the merge: the capped products keep a 0
    for v in reversed(order[1:]):
        p, lo = parent[v], min(m0[v], m1[v])
        m0[p] += m1[v]
        m1[p] += lo
        c0[p] = min(2, c0[p] * c1[v])
        s = (c0[v] if m0[v] == lo else 0) + (c1[v] if m1[v] == lo else 0)
        c1[p] = min(2, c1[p] * s)
    tau = min(m0[0], m1[0])
    count = min(2, (c0[0] if m0[0] == tau else 0) + (c1[0] if m1[0] == tau else 0))
    cover = 0
    for v in order:  # the root is vertex 0
        if (v and not cover >> parent[v] & 1) or not (c0[v] and m0[v] <= m1[v]):
            cover |= 1 << v
    return tau, count, cover if count == 1 else None


def pau_tree(
    t: Graph,
    model: Model | str,
    *,
    stats: SolveStats | None = None,
) -> TreeAnswer:
    """Optimum pre-assignment for a connected tree under the given model.

    Raises ValueError when the graph is not a connected tree.  The witness
    is the optimum pre-assignment with the lexicographically smallest
    sorted vertex list, the one :func:`solve_enum` returns.  Mixed-model
    instances are answered in the exclude model, which has the same
    optimum.  Each vertex counts as one search node, so a deadline in
    ``stats`` is honoured.
    """
    model = Model(model)
    if model is Model.MIXED:
        sub = pau_tree(t, Model.EXCLUDE, stats=stats)
        wrapped = PreAssignment.mixed(VertexSet(t.n), sub.witness.exclude)
        return TreeAnswer(sub.tau, sub.opt, wrapped)
    if stats is None:
        stats = SolveStats()
    include = model is Model.INCLUDE
    rooted = _root(t)
    if rooted is None:
        raise ValueError("input graph is not a connected tree")
    order, _, children = rooted
    n = t.n
    m0 = [0] * n
    m1 = [0] * n
    tables: list[dict | None] = [None] * n
    for v in reversed(order):
        _node(stats)
        out_size, in_size = 0, 1
        table = {(1, 1): (0, 0)}
        for w in children[v]:
            w0, w1 = m0[w], m1[w]
            lo = min(w0, w1)
            out_size += w1
            in_size += lo
            projected: dict = {}
            for (b0, b1), (cost, mask) in tables[w].items():
                s = min(2, (b0 if w0 == lo else 0) + (b1 if w1 == lo else 0))
                if b1 or s:
                    _offer(projected, (b1, s), cost, mask)
            tables[w] = None
            merged: dict = {}
            for (a0, a1), (cost, mask) in table.items():
                for (b1, s), (wcost, wmask) in projected.items():
                    key = (min(2, a0 * b1), min(2, a1 * s))
                    if key != (0, 0):
                        _offer(merged, key, cost + wcost, mask | wmask)
            table = merged
        pinned = dict(table)
        for (c0, c1), (cost, mask) in table.items():
            key = (0, c1) if include else (c0, 0)
            if key != (0, 0):
                _offer(pinned, key, cost + 1, mask | 1 << v)
        tables[v] = pinned
        m0[v], m1[v] = out_size, in_size
    tau = min(m0[0], m1[0])
    final: dict = {}
    for (c0, c1), (cost, mask) in tables[0].items():
        if (c0 if m0[0] == tau else 0) + (c1 if m1[0] == tau else 0) == 1:
            _offer(final, (1, 1), cost, mask)
    # Pinning a minimum cover (include) or its complement (exclude) is
    # always feasible, so some entry counts exactly one cover.
    opt, witness = final[1, 1]
    members = VertexSet.from_mask(n, witness)
    if include:
        pre = PreAssignment.including(members)
    else:
        pre = PreAssignment.excluding(members)
    return TreeAnswer(tau, opt, pre)
