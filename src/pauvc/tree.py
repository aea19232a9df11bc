"""Linear-time solver for pre-assignments on trees.

Root the tree at its lowest vertex and write T_v for the subtree of v.  For
a status b of v (0: out of the cover, 1: in it), m_b(v) is the size of a
smallest cover of T_v in which v has status b:

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
each reachable state s = 3 c_0 + c_1 to the fewest pins inside T_v that
reach it, with one witness.  State 0, the pair (0, 0), is dropped, since it
stays (0, 0) up to the root.  A child enters its parent only through the
pair (c_1(w), s(w)), so its table is projected onto that pair first.  Four
tables built at import time hold the transitions: the pin per model, the
projection for each of the four cases of (m_0(w) = lo, m_1(w) = lo) with
lo = min(m_0(w), m_1(w)), the 9 x 9 merge of capped products, and the pin
followed by the projection, so a pinned table is never built.  At the
root, tau = min(m_0, m_1), and a pin set is feasible exactly when the sum of
c_b over the b with m_b = tau is 1; the cheapest such entry is the optimum.

A table has at most eight entries, so merging a child takes O(1) table
steps and the pass is linear in table steps; a witness is a bit mask, so
each union also costs O(n/64) machine words.  A leaf's projected table is
always {4: (0, 0)} plus its pinned entry, so it is written directly.  The
fresh table {4: (0, 0)} merges as the identity, so a vertex adopts its
first child's projected table in place of a merge.  A table is released
once merged: only vertices with a merged child, not yet merged themselves,
hold one.  Among entries with equal pin counts the table keeps the
lexicographically smaller sorted vertex list: the lowest vertex two masks
do not share lies in the smaller one.  Two candidates for one entry that
agree outside a subtree compare as their parts inside it do, so keeping
the smaller part is exact in whatever order children merge, and the
answer is the lexicographically smallest optimum.
Mixed-model instances are answered in the exclude model, which has the
same optimum.
:func:`count_tree_covers` counts the covers of one pin set with no tables,
so ``solve`` checks the tables' witnesses with it, on the rooting the
tables used.  Both passes read only that rooting, the (order, parent) that
``graph._components`` yields for a tree component, and no adjacency.
"""

from __future__ import annotations

from dataclasses import dataclass

from .graph import Graph, Model, PreAssignment, Rooting, VertexSet, _components
from .vertex_cover import SolveStats, _node

__all__ = ["TreeAnswer", "count_tree_covers", "pau_tree"]


@dataclass(frozen=True)
class TreeAnswer:
    """Cover number of the tree, optimum pre-assignment size, one witness."""

    tau: int
    opt: int
    witness: PreAssignment


def _offer(table: dict, key: int, cost: int, mask: int) -> None:
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


# Transitions of the state s = 3 c_0 + c_1: _PIN[include][s] pins the vertex,
# _PROJECT[2 (m_0 = lo) + (m_1 = lo)][s] is 3 c_1 + s(w), _MERGE[parent][child],
# and _PINNED[include][case][s] is _PROJECT[case][_PIN[include][s]].
_PIN = ([s - s % 3 for s in range(9)], [s % 3 for s in range(9)])
_PROJECT = [
    [3 * (s % 3) + min(2, e0 * (s // 3) + e1 * (s % 3)) for s in range(9)]
    for e0 in (0, 1) for e1 in (0, 1)
]
_MERGE = [
    [3 * min(2, a // 3 * (b // 3)) + min(2, a % 3 * (b % 3)) for b in range(9)]
    for a in range(9)
]
_PINNED = [[[row[s] for s in pin] for row in _PROJECT] for pin in _PIN]


def count_tree_covers(
    rooted: Rooting, include: int, exclude: int, stats: SolveStats
) -> tuple[int, int, int | None]:
    """Count the minimum covers of a rooted tree consistent with the pins.

    rooted is a tree component's (order, parent) from ``graph._components``.
    Returns the tree's tau, the count capped at 2, and one such cover when
    the count is at least 1.  Counts c_0, c_1 bottom up, then rebuilds the
    cover top down: a child of an out-vertex is in it, any other vertex
    takes the one status b with m_b = min(m_0, m_1) and c_b >= 1 (the out
    status when both qualify).  Counts one ``stats.uvc_calls`` and no
    search nodes.
    """
    order, parent = rooted
    stats.uvc_calls += 1
    n = len(order)
    m0, m1 = [0] * n, [1] * n
    c0 = [0 if include >> v & 1 else 1 for v in order]
    # Pinning before the merge: the capped products keep a 0.
    c1 = [0 if exclude >> v & 1 else 1 for v in order]
    for i in range(n - 1, 0, -1):
        p, b0, b1 = parent[i], m0[i], m1[i]
        m0[p] += b1
        c = c0[p] * c1[i]
        c0[p] = c if c < 2 else 2
        if b0 < b1:
            m1[p] += b0
            c = c1[p] * c0[i]
        elif b1 < b0:
            m1[p] += b1
            c = c1[p] * c1[i]
        else:
            m1[p] += b0
            c = c1[p] * (c0[i] + c1[i])
        c1[p] = c if c < 2 else 2
    tau = min(m0[0], m1[0])
    count = min(2, (c0[0] if m0[0] == tau else 0) + (c1[0] if m1[0] == tau else 0))
    cover = 0
    for i, v in enumerate(order):
        if (i and not cover >> order[parent[i]] & 1) or not (c0[i] and m0[i] <= m1[i]):
            cover |= 1 << v
    return tau, count, cover if count else None


def _tree_pass(rooted: Rooting, include: bool, stats: SolveStats) -> tuple[int, int]:
    """tau and the optimum pin mask of a rooted tree, by the tables.

    rooted is a tree component's (order, parent), as for
    :func:`count_tree_covers`.  Each table maps a state index to (pins,
    mask); the pins are include vertices when include is set, else exclude
    vertices.  A slot holds None until the vertex's first child adopts it,
    so a slot still None is a leaf's, with m_0 = 0 < m_1 = 1 and the table
    {4: (0, 0)}.
    """
    order, parent = rooted
    n = len(order)
    pinned = _PINNED[include]
    leaf_key = pinned[2][4]
    m0, m1 = [0] * (n + 1), [1] * (n + 1)
    # Slot n, which the root's parent -1 reaches, is a parent in state
    # (0, 1): merging the root into it keeps s(root), so its entry 1 holds
    # the cheapest pin set counting exactly one minimum cover.
    tables: list[dict | None] = [None] * n + [{1: (0, 0)}]
    for i in range(n - 1, -1, -1):
        _node(stats)
        p, bit, table, tables[i] = parent[i], 1 << order[i], tables[i], None
        if table is None:
            m0[p] += 1
            projected = {4: (0, 0), leaf_key: (1, bit)}
        else:
            b0, b1 = m0[i], m1[i]
            m0[p] += b1
            m1[p] += b0 if b0 < b1 else b1
            case = 2 * (b0 <= b1) + (b1 <= b0)
            project, pin = _PROJECT[case], pinned[case]
            projected = {}
            for s, (cost, mask) in table.items():
                if project[s]:
                    _offer(projected, project[s], cost, mask)
                if pin[s]:
                    _offer(projected, pin[s], cost + 1, mask | bit)
        if tables[p] is None:
            tables[p] = projected
            continue
        merged: dict = {}
        for a, (cost, mask) in tables[p].items():
            row = _MERGE[a]
            for b, (wcost, wmask) in projected.items():
                if row[b]:
                    _offer(merged, row[b], cost + wcost, mask | wmask)
        tables[p] = merged
    # Pinning a minimum cover (include) or its complement (exclude) is
    # always feasible, so some entry counts exactly one cover.
    return min(m0[0], m1[0]), tables[n][1][1]


def pau_tree(
    t: Graph,
    model: Model | str,
    *,
    stats: SolveStats | None = None,
) -> TreeAnswer:
    """Optimum pre-assignment for a connected tree under the given model.

    The tree is rooted by the component walk, whose first component must
    be the whole graph and a tree; otherwise ValueError.  The witness
    is the optimum pre-assignment with the lexicographically smallest
    sorted vertex list, the one :func:`solve_enum` returns.  Mixed-model
    instances are answered in the exclude model, which has the same
    optimum.  Each vertex counts as one search node, so a deadline in
    ``stats`` is honoured.
    """
    model = Model(model)
    st = stats if stats is not None else SolveStats()
    comp, rooted = next(_components(t.adj), (0, None))
    if rooted is None or comp != t.full_mask:
        raise ValueError("input graph is not a connected tree")
    tau, pins = _tree_pass(rooted, model is Model.INCLUDE, st)
    members, empty = VertexSet.from_mask(t.n, pins), VertexSet(t.n)
    if model is Model.INCLUDE:
        return TreeAnswer(tau, len(members), PreAssignment(model, members, empty))
    return TreeAnswer(tau, len(members), PreAssignment(model, empty, members))
