"""Exact minimum vertex cover: search, enumeration, and branching skeletons.

Every search runs on bit masks, so a subproblem is just an active mask,
and keeps its open subproblems on an explicit stack, so no graph is too
deep for it.  Callers split a graph with ``graph._components`` and search
each component through one record, :class:`_Component`, which checks the
vertex cap, relabels the component in ascending degree, finds its minimum
cover and maps masks between ids and labels.  :func:`_covers` yields
ever smaller covers within a budget, and :func:`_bounded_cover` takes its
first, unless the clique bound refutes the budget with no search.  In one
pass per node the search grows a greedy clique partition
(:func:`_clique_lb` is its bound) and folds isolated and degree-1
vertices on the way; it prunes by the partition and branches over every
vertex of its last cliques, one of which every cover within budget leaves
out, less those unit propagation (Li and Quan's MaxSAT reasoning)
refutes.  The conflicts of one tail clique share one group of cliques,
used up once that clique is done: an independent set holds at most one
vertex of the clique, and the groups of different cliques are disjoint.
Grown from the lowest degrees, the partition leaves the high degrees in
that tail, as in the colouring order of Tomita and Seki's MCQ.
:func:`_min_cover` runs it once, from below a greedy cover
(:func:`_greedy_cover`, the complement of the independent set taken in
label order) polished by (1,2)-swaps (:func:`_improve`) when above the
bound.
:func:`_branch_leaves` is the one walker of the take-v / take-N(v) tree
down to isolated edges: it hands a minimum cover down the branch the
cover takes and searches each other branch once, when it is popped, so it
visits only nodes that hold a leaf.  Every minimum cover extends one
leaf, so it folds no degree-1 vertex.  A leaf is the row the
fixed-parameter solver decides on: its forced set, its edges as two-bit
masks and their union, all in ids.  :func:`_selections` lists a leaf's
2^p choices of one endpoint per edge, for that solver and
:func:`enumerate_min_vertex_covers`.
:func:`branch_to_matchings` returns the leaves as vertex pairs.  The
uniqueness test needs no leaves and runs :func:`_bounded_cover` directly.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from itertools import product
from typing import Iterator

from .errors import LimitExceeded
from .graph import (
    Graph, VertexSet, _bits, _components, _list_order, is_independent_set
)
from .limits import DEFAULT_RESULT_LIMIT, check_vertex_limit, general_vertex_limit

__all__ = [
    "VcSolution",
    "BranchLeaf",
    "SolveStats",
    "min_vertex_cover",
    "min_vertex_cover_bipartite",
    "enumerate_min_vertex_covers",
    "branch_to_matchings",
]


class SolveStats:
    """Counters threaded through a solver run.

    nodes_explored counts branching nodes, generated candidates and
    expanded leaf selections.  uvc_calls counts feasibility decisions: one
    per probe search, and on the fixed-parameter route one per stream
    candidate, each decided by counting its covers over the branching
    leaves.  When a deadline (``time.perf_counter`` value) is set, the
    search checks it cooperatively every 1024 nodes, and that route every
    1024 decisions, and raises :class:`LimitExceeded` once it passes.
    """

    __slots__ = ("nodes_explored", "uvc_calls", "elapsed", "deadline")

    def __init__(self, deadline: float | None = None) -> None:
        self.nodes_explored = 0
        self.uvc_calls = 0
        self.elapsed = 0.0
        self.deadline = deadline

    def to_json_dict(self) -> dict:
        return {
            "nodes_explored": self.nodes_explored,
            "uvc_calls": self.uvc_calls,
            "elapsed": self.elapsed,
        }

    def merge(self, other: "SolveStats") -> None:
        self.nodes_explored += other.nodes_explored
        self.uvc_calls += other.uvc_calls


@dataclass(frozen=True)
class VcSolution:
    """An optimal cover size together with one witness cover."""

    tau: int
    cover: VertexSet


@dataclass(frozen=True)
class BranchLeaf:
    """A leaf of the branching tree: forced vertices plus isolated edges.

    Every minimum cover extending this leaf consists of ``forced`` plus
    exactly one endpoint of each matching edge.
    """

    forced: VertexSet
    matching: tuple[tuple[int, int], ...]


def _node(stats: SolveStats) -> None:
    stats.nodes_explored += 1
    if stats.deadline is not None and stats.nodes_explored & 1023 == 0:
        _check_deadline(stats)


def _check_deadline(stats: SolveStats) -> None:
    if stats.deadline is not None and time.perf_counter() > stats.deadline:
        raise LimitExceeded("time cap exceeded")


def _clique_lb(adj: tuple[int, ...], active: int) -> int:
    """Lower bound on the cover size: |active| minus the cliques of a greedy partition.

    Each clique is grown from the lowest free vertex through its lowest free
    common neighbours, and a cover misses at most one vertex of each.  On
    triangle-free graphs the cliques are a greedy matching plus singletons,
    so the bound equals the greedy matching bound.
    """
    cliques = 0
    free = active
    while free:
        clique = free & -free
        common = adj[clique.bit_length() - 1] & free
        while common:
            u_bit = common & -common
            clique |= u_bit
            common &= adj[u_bit.bit_length() - 1]
        free &= ~clique
        cliques += 1
    return active.bit_count() - cliques


def _covers(
    adj: tuple[int, ...], active: int, k: int, stats: SolveStats
) -> Iterator[int]:
    """Masks of covers of the active subgraph, each within k and smaller than the last.

    Depth-first on an explicit stack; a stack entry holds a subproblem and
    the cover its path has taken so far.  A cover within budget leaves out
    an independent set of need vertices, need = |active| - k, so a frame
    with need <= 0 yields its cover plus every active vertex.  The search
    then goes on, on the same stack, with k one below that cover's size, so
    the last cover yielded is minimum when k was at least tau, and none is
    yielded when k is below it.  An entry stores its budget plus ``cut``,
    how far k has fallen since the search started, and a frame subtracts
    the current cut when popped; a frame that yields goes on with need 1.
    Lowering k is sound: the frames chose their tails, and the children
    they dropped, for a larger budget, and every cover within a smaller one
    also fits the larger one, so the children kept still hold every such
    cover.

    Otherwise one pass grows the greedy clique partition of
    :func:`_clique_lb`, each clique from the lowest free vertex, its seed,
    and folds on the way: a seed of degree <= 1 is dropped and its
    neighbour taken, leaving any clique already built.  Then the vertices
    that lost a neighbour to a fold are tested again, each fold queueing
    its own, until nothing folds.  A second member whose only neighbour is
    its seed stays unless it lost a neighbour here; testing each second
    member cost more time on dense graphs than the nodes it saved.  The
    independent set holds at most one vertex per clique, so fewer than need
    cliques prune the frame, as when k < 0, and else it holds a vertex of
    the tail, the cliques need..c.  The frame branches over every tail
    vertex in reverse partition order: the i-th child leaves the i-th tail
    vertex out, taking its neighbours, and takes the tail vertices before it.

    Unit propagation over the partition (Li and Quan's MaxSAT reasoning,
    2010) drops children first.  From the last child back, it chooses the
    vertex v a child leaves out, takes v's neighbours and propagates over
    the first need - 1 cliques that no earlier tail clique's group used: a
    clique all taken is a conflict, one with a single vertex left chooses
    it.  A conflict drops v's child; the first v with none ends the filter.
    The cliques that the conflicts of one tail clique read form its group,
    used up once that clique is done.  A dropped child takes the tail
    before it, so its independent set lies in the first need - 1 cliques
    and the tail cliques up to v's, at most one vertex in each.  Of each
    such tail clique and its group it misses a clique: a vertex w it holds
    in that tail clique is a dropped one, and w's conflict lies in the
    group.  The groups are disjoint, each taken from the cliques the
    earlier ones left, so the set has at most need - 1 vertices.  The kept
    children keep their order, so the same cover comes first.
    """
    cut = 0
    stack = [(active, k, 0)]
    while stack:
        active, k, cover = stack.pop()
        k -= cut
        _node(stats)
        if active.bit_count() <= k:
            yield cover | active
            cut += k - active.bit_count() + 1
            k = active.bit_count() - 1  # need 1
        cliques = []
        free = active
        lost = 0  # vertices that lost a neighbour to a fold
        trimmed = 0  # placed vertices a fold removed
        while free:
            low = free & -free
            nb = adj[low.bit_length() - 1] & active
            if nb & (nb - 1):
                common = nb & free
                clique = low
                while common:
                    u_bit = common & -common
                    clique |= u_bit
                    common &= adj[u_bit.bit_length() - 1]
                free &= ~clique
                cliques.append(clique)
                continue
            if nb:
                cover |= nb
                k -= 1
                lost |= adj[nb.bit_length() - 1]
            trimmed |= nb & ~free
            active &= ~(nb | low)
            free &= active
        lost &= active
        while lost:
            low = lost & -lost
            nb = adj[low.bit_length() - 1] & active
            if nb & (nb - 1) == 0:
                if nb:
                    cover |= nb
                    k -= 1
                    lost |= adj[nb.bit_length() - 1]
                trimmed |= nb | low
                active &= ~(nb | low)
            lost &= active & ~low
        need = active.bit_count() - k
        if need <= 0:
            yield cover | active
            cut += 1 - need
            k, need = k + need - 1, 1
        if trimmed:
            cliques = [c & active for c in cliques if c & active]
        tail = cliques[need - 1 :]
        if not tail:
            continue  # fewer than need cliques
        dropped = _dropped_tail(adj, cliques, need) if need > 1 else 0
        children = []
        k += cut  # as stored
        for clique in reversed(tail):
            clique &= ~dropped
            while clique:
                v = clique.bit_length() - 1
                bit = 1 << v
                clique ^= bit
                nb = adj[v] & active
                children.append((active & ~(nb | bit), k - nb.bit_count(), cover | nb))
                # The later children take this vertex.
                active ^= bit
                cover |= bit
                k -= 1
        stack.extend(reversed(children))


def _bounded_cover(
    adj: tuple[int, ...], active: int, k: int, stats: SolveStats
) -> int | None:
    """The first cover of :func:`_covers`: one of size <= k, or None.

    A budget below :func:`_clique_lb` is refuted before any search: the
    call counts one node, as the search's root would, and returns None.
    """
    if _clique_lb(adj, active) > k:
        _node(stats)
        return None
    return next(_covers(adj, active, k, stats), None)


def _conflict(adj: tuple[int, ...], taken: int, cliques: list[int]) -> int:
    """The cliques unit propagation reads until one is all ``taken``, as a mask; or 0."""
    used = 0
    while True:
        left = []
        for c in cliques:
            free = c & ~taken
            if free & (free - 1):
                left.append(c)
            elif not free:
                return used | c
            else:
                taken |= adj[free.bit_length() - 1]
                used |= c
        if len(left) == len(cliques):
            return 0
        cliques = left


def _dropped_tail(adj: tuple[int, ...], cliques: list[int], need: int) -> int:
    """Mask of the tail vertices whose children :func:`_bounded_cover` drops."""
    prefix, dropped = cliques[: need - 1], 0
    for clique in cliques[need - 1 :]:
        group = 0  # the cliques this tail clique's conflicts used
        while clique:
            bit = clique & -clique
            clique ^= bit
            used = _conflict(adj, adj[bit.bit_length() - 1], prefix)
            if not used:
                return dropped
            dropped |= bit
            group |= used
        prefix = [c for c in prefix if not c & group]
    return dropped


def _greedy_cover(adj: tuple[int, ...], active: int) -> int:
    """A cover of the active subgraph, taken greedily with no search.

    The complement of the independent set taken in label order: the
    lowest free vertex joins the set and its free neighbours the cover.
    On a component's labels, in ascending degree, low degrees join the set
    first, as in the colouring order of Tomita and Seki's MCQ.
    """
    cover = 0
    free = active
    while free:
        low = free & -free
        nb = adj[low.bit_length() - 1] & free
        cover |= nb
        free &= ~(low | nb)
    return cover


def _improve(adj: tuple[int, ...], active: int, cover: int) -> int:
    """The cover after moves that shrink it, until none applies.

    Read on the independent set ``active & ~cover``, these are the (1,2)-swaps
    of Andrade, Resende and Werneck (2012): a cover vertex with no neighbour
    outside the cover leaves it, and so do two non-adjacent ones whose one
    such neighbour is the same x, which joins.  Each pass scans the cover
    in label order and makes the first move it meets.
    """
    move = -1
    while move:
        move = 0
        out = active & ~cover
        mates: dict[int, int] = {}  # x -> cover vertices whose one out-neighbour is x
        scan = cover
        while scan and not move:
            bit = scan & -scan
            scan ^= bit
            v = bit.bit_length() - 1
            x = adj[v] & out
            if not x:
                move = bit
            elif not x & (x - 1):
                pair = mates.get(x, 0)
                mates[x] = pair | bit
                pair &= ~adj[v]
                if pair:
                    move = bit | (pair & -pair) | x
        cover ^= move
    return cover


def _min_cover(
    adj: tuple[int, ...], active: int, stats: SolveStats, upper: int | None = None
) -> int | None:
    """A minimum cover of the active subgraph, whose size is tau; None if tau > upper.

    Starts from the cover of :func:`_greedy_cover`, one sweep over the
    labels, polished by :func:`_improve` when it is above the
    clique-partition bound, and takes the last cover of one :func:`_covers`
    pass from one below its size, or from ``upper`` when that is smaller.
    A cover at the bound ends the pass, since no smaller one exists.
    """
    best = _greedy_cover(adj, active)
    floor = _clique_lb(adj, active)
    if best.bit_count() > floor:
        best = _improve(adj, active, best)
    k = best.bit_count() - 1
    if upper is not None and upper <= k:
        best, k = None, upper
    if k < floor:
        return best
    for best in _covers(adj, active, k, stats):
        if best.bit_count() == floor:
            break
    return best


class _Component:
    """One searched component: capped, relabeled and tau-searched.

    ``adj`` is the component relabeled 0..m-1 in ascending degree, ties by
    id, ``ids`` gives each label's id, ``order`` lists the labels in
    ascending id order and ``full`` is the mask of all of them.  ``least``
    is a minimum cover in labels, found by :func:`_min_cover` (None when
    tau exceeds ``upper``).  ``mask`` and ``graph_adj`` are the component
    and the graph's neighbour masks by id.  The cap is checked first.
    """

    __slots__ = ("adj", "ids", "order", "full", "least", "mask", "graph_adj", "_label_bit")

    def __init__(
        self,
        adj: tuple[int, ...],
        comp: int,
        stats: SolveStats,
        vertex_limit: int | None,
        upper: int | None = None,
    ) -> None:
        check_vertex_limit(comp.bit_count(), vertex_limit)
        ids = sorted(_bits(comp), key=lambda v: ((adj[v] & comp).bit_count(), v))
        label_bit = {v: 1 << r for r, v in enumerate(ids)}  # id -> label bit
        lo = max((comp & -comp).bit_length() - 1, 0)  # lowest id: keeps masks short
        rows = []
        for v in ids:
            row = 0
            nb = (adj[v] & comp) >> lo
            while nb:
                top = nb.bit_length() - 1
                nb ^= 1 << top
                row |= label_bit[lo + top]
            rows.append(row)
        self.adj = tuple(rows)
        self.ids = ids
        self.order = sorted(range(len(ids)), key=ids.__getitem__)
        self.full = (1 << len(ids)) - 1
        self.least = _min_cover(self.adj, self.full, stats, upper)
        self.mask, self.graph_adj = comp, adj
        self._label_bit = label_bit

    def to_labels(self, mask: int) -> int:
        """The id mask, a part of the component, in labels."""
        return sum(self._label_bit[v] for v in _bits(mask))

    def to_ids(self, mask: int) -> int:
        """The label mask in ids."""
        return sum(1 << self.ids[v] for v in _bits(mask))

    def count(self, inc: int, exc: int, stats: SolveStats) -> tuple[int, int, int | None]:
        """``tree.count_tree_covers``'s answer, by id, from :func:`_consistent`."""
        ways, cover = _consistent(self, self.to_labels(inc), self.to_labels(exc), stats)
        return self.least.bit_count(), ways, cover and self.to_ids(cover)


def _lex_min_cover(comp: _Component, stats: SolveStats) -> int:
    """The lexicographically smallest minimum cover of a component, by id, in labels.

    Walks the labels in ascending id order, keeping v whenever some
    minimum cover extends the decisions so far with v included.  The
    cover held, C, at first the component's minimum cover, is kept
    agreeing with the decisions, so a vertex in it is kept with no search.
    So is a v outside C that is the one neighbour outside C of an
    undecided u in C: C - u + v covers every edge, is as small, and agrees
    with the decisions (no vertex decided out is u's neighbour, since
    those lie outside C), so it becomes the cover held.  Any other v takes
    one bounded search, and the minimum cover it finds, if any, becomes
    the cover held.
    """
    adj, cover = comp.adj, comp.least
    tau = cover.bit_count()
    out_nb = decided = 0  # neighbours of the vertices decided out; all decided
    for v in comp.order:
        decided |= 1 << v
        if cover >> v & 1:
            continue
        for u in _bits(adj[v] & cover & ~decided):
            if adj[u] & ~cover == 1 << v:
                cover ^= 1 << u | 1 << v
                break
        else:
            forced = (cover & decided) | (1 << v) | out_nb
            rest = comp.full & ~decided & ~forced
            budget = tau - forced.bit_count()
            found = _bounded_cover(adj, rest, budget, stats)
            if found is None:
                out_nb |= adj[v]
            else:
                cover = found | forced
    return cover


def _consistent(
    comp: _Component, inc_mask: int, exc_mask: int, stats: SolveStats
) -> tuple[int, int | None]:
    """Count (capped at 2) and one of the minimum covers fitting conflict-free pins.

    Pins and cover are in the component's labels.  The residual cover is
    the part of its minimum cover off the forced vertices when that fits
    the pins, else one search finds one.  A vertex u of it with exactly
    one residual neighbour w outside it (never none, in a minimum cover)
    proves a second cover, it minus u plus w, with no search.
    Otherwise each out-vertex w with a residual neighbour, by descending
    degree and then label, takes one search for a cover of the rest minus
    w within the cover's size less one, where the rest and that budget
    have lost the earlier out-vertices and their neighbours.  A hit, plus w
    and those neighbours, is a second cover; a w with no neighbour left in
    the rest takes no search, since a hit plus those neighbours would be a
    cover below the minimum.
    """
    stats.uvc_calls += 1
    adj, least = comp.adj, comp.least
    forced = inc_mask
    for v in _bits(exc_mask):
        forced |= adj[v]
    active = comp.full & ~forced & ~exc_mask
    cover = least & active
    if inc_mask & ~least or exc_mask & least:
        target = least.bit_count() - forced.bit_count()
        cover = _bounded_cover(adj, active, target, stats)
        if cover is None:
            return 0, None
    out = active & ~cover
    scan = cover
    while scan:
        bit = scan & -scan
        scan ^= bit
        nb = adj[bit.bit_length() - 1] & out
        if nb and not nb & (nb - 1):
            return 2, cover | forced  # bit swapped for nb: a second cover
    rest = active
    budget = cover.bit_count() - 1
    order = sorted((-(adj[w] & active).bit_count(), w) for w in _bits(out))
    for minus_degree, w in order:
        if budget < 0 or not minus_degree:
            break
        bit, nb = 1 << w, adj[w] & rest
        if nb and _bounded_cover(adj, rest & ~bit, budget, stats) is not None:
            return 2, cover | forced
        rest &= ~(nb | bit)
        budget -= nb.bit_count()
    return 1, cover | forced


def min_vertex_cover(
    g: Graph,
    bound: int | None = None,
    *,
    vertex_limit: int | None = None,
    stats: SolveStats | None = None,
) -> VcSolution | None:
    """Compute tau(g) and the lexicographically smallest minimum cover.

    Solves per connected component (:class:`_Component`), from the cover
    its tau search finds.  With a bound, returns None as soon as
    tau(g) exceeds it (the decision variant).  Ties among equal-size
    covers go to the smallest sorted vertex list, so runs are reproducible;
    that minimum composes over components, since the lowest vertex where
    two unions differ lies in one component.  vertex_limit caps each
    component that is searched, not the whole graph.
    """
    vertex_limit = general_vertex_limit(vertex_limit)
    if bound is not None and _clique_lb(g.adj, g.full_mask) > bound:
        return None
    st = stats if stats is not None else SolveStats()
    cover = 0
    for mask, _ in _components(g.adj):
        if mask & (mask - 1) == 0:
            continue  # an isolated vertex
        upper = None if bound is None else bound - cover.bit_count()
        comp = _Component(g.adj, mask, st, vertex_limit, upper)
        if comp.least is None:
            return None
        cover |= comp.to_ids(_lex_min_cover(comp, st))
    return VcSolution(cover.bit_count(), VertexSet.from_mask(g.n, cover))


def _max_matching(adj: tuple[int, ...], left: int) -> list[int]:
    """Mate of each vertex in a maximum matching, -1 when free.

    Kuhn's algorithm: one augmenting-path search from each vertex of the
    ``left`` mask in ascending order; ``left`` must be one side of a
    bipartite subgraph.  A search stacks the left vertices of its path, so
    no path is too long for it, marks the right vertices it tries in a
    ``seen`` mask, and tries a free neighbour first, else the lowest one.
    """
    mate = [-1] * len(adj)
    free = (1 << len(adj)) - 1
    for root in _bits(left):
        seen = 0
        stack = [root]
        while stack:
            untried = adj[stack[-1]] & ~seen
            if not untried:
                stack.pop()
                continue
            pick = untried & free or untried
            low = pick & -pick
            seen |= low
            w = low.bit_length() - 1
            if mate[w] < 0:
                free ^= low
                # Flip the path: each stacked vertex hands its old mate down.
                for u in reversed(stack):
                    mate[u], mate[w], w = w, u, mate[u]
                break
            stack.append(mate[w])
    return mate


def min_vertex_cover_bipartite(
    g: Graph,
    parts: tuple[VertexSet, VertexSet],
    *,
    stats: SolveStats | None = None,
) -> VcSolution:
    """Minimum vertex cover of a bipartite graph via maximum matching.

    Finds a maximum matching (:func:`_max_matching`, from the left part)
    and extracts the Koenig cover from the set Z of vertices that
    alternating paths reach from the free left vertices: the left vertices
    outside Z and the right vertices inside it, so tau equals the matching
    size.  That cover is the same for every maximum matching, so it is
    deterministic, but it is not the lexicographic minimum; sizes always
    agree with :func:`min_vertex_cover`.
    """
    left, right = parts
    if left.n != g.n or right.n != g.n:
        raise ValueError("parts universe does not match graph")
    if left.mask & right.mask or left.mask | right.mask != g.full_mask:
        raise ValueError("parts do not partition the vertices")
    if not (is_independent_set(g, left) and is_independent_set(g, right)):
        raise ValueError("parts are not a valid bipartition")

    mate = _max_matching(g.adj, left.mask)
    nu = (g.n - mate.count(-1)) // 2
    z = frontier = sum(1 << u for u in _bits(left.mask) if mate[u] < 0)
    while frontier:
        new_right = 0
        for u in _bits(frontier):
            new_right |= g.adj[u] & ~z
        frontier = sum(1 << mate[w] for w in _bits(new_right))
        z |= new_right | frontier
    cover_mask = (left.mask & ~z) | (right.mask & z)
    if cover_mask.bit_count() != nu:
        raise AssertionError("cover extraction disagrees with matching size")
    if stats is not None:
        stats.nodes_explored += g.n
    return VcSolution(nu, VertexSet.from_mask(g.n, cover_mask))


def _branch_leaves(
    comp: _Component, stats: SolveStats
) -> Iterator[tuple[int, int, tuple[int, ...]]]:
    """Leaves (forced, matched, edges) of the take-v / take-N(v) tree, by id.

    Walks the component's labels from its minimum cover ``least``, of size
    k, depth-first, and branches on a maximum-degree vertex v of lowest id
    (so relabeling keeps the tree), the take-v child first, until only
    isolated edges remain.  Each stack entry carries a cover of its
    residual within budget k - |forced|, or -1: the child the cover takes
    inherits it, and the other gets one :func:`_bounded_cover` search when
    popped, and is dropped if that finds none.  So every node visited holds
    a leaf, and each leaf's forced set plus one endpoint per edge is a
    minimum cover.  A leaf yields its forced set in ids, its edges as
    two-bit id masks by ascending lower endpoint, and ``matched``, their
    union.

    v is ``keys.index(max(keys))`` over a key per label, degree * m plus
    its id's rank from the top (-1 once it leaves), so a node whose top key
    is below 2m is a leaf.  Each entry carries its parent's keys and the
    vertices it removed, applied to a copy once it survives its search.
    """
    adj, ids = comp.adj, comp.ids
    k = comp.least.bit_count()
    m = len(ids)
    keys = [-1] * m
    for rank, v in enumerate(reversed(comp.order)):
        keys[v] = adj[v].bit_count() * m + rank
    stack = [(comp.full, 0, comp.least, keys, 0)]
    while stack:
        active, forced, cover, keys, removed = stack.pop()
        if cover < 0:
            found = _bounded_cover(adj, active, k - forced.bit_count(), stats)
            if found is None:
                continue
            cover = found
        _node(stats)
        if removed:
            keys = keys[:]
            while removed:
                low = removed & -removed
                removed ^= low
                v = low.bit_length() - 1
                keys[v] = -1
                nb = adj[v] & active
                while nb:
                    low = nb & -nb
                    nb ^= low
                    keys[low.bit_length() - 1] -= m
        top = max(keys, default=-1)
        if top < 2 * m:
            edges = []
            for v in _bits(active):
                nb = adj[v] & active
                if nb > 1 << v:  # the edge, once, from its lower label
                    edges.append(1 << ids[v] | 1 << ids[nb.bit_length() - 1])
            edges.sort(key=lambda e: e & -e)
            yield comp.to_ids(forced), sum(edges), tuple(edges)
            continue
        v = keys.index(top)
        bit = 1 << v
        nb = adj[v] & active
        if cover & bit:
            nb_cover, v_cover = -1, cover ^ bit
        else:
            nb_cover, v_cover = cover & ~nb, -1
        stack.append((active & ~(nb | bit), forced | nb, nb_cover, keys, nb | bit))
        stack.append((active ^ bit, forced | bit, v_cover, keys, bit))


def _selections(base: int, edges: tuple[int, ...]) -> Iterator[int]:
    """base plus one endpoint of each two-bit edge mask, all 2^p ways, one at a time.

    The first edge varies slowest, each giving its lower endpoint first.
    The last ten edges' 1,024 choices are listed once, each built from the
    one before, and the first edges' picks vary over them: O(1) each.
    """
    tails = [0]
    for e in edges[-10:]:
        low = e & -e
        tails = [t | pick for t in tails for pick in (low, e ^ low)]
    for picks in product(*((e & -e, e & (e - 1)) for e in edges[:-10])):
        head = base | sum(picks)  # distinct bits: the sum is their union
        for t in tails:
            yield head | t


def enumerate_min_vertex_covers(
    g: Graph,
    *,
    vertex_limit: int | None = None,
    max_results: int = DEFAULT_RESULT_LIMIT,
    stats: SolveStats | None = None,
) -> list[VertexSet]:
    """All minimum vertex covers, sorted by their vertex lists.

    Expands the branching leaves: each leaf's covers are its forced set
    plus one endpoint of each matched edge, and the leaves partition the
    minimum covers, so each cover appears exactly once.  Raises
    LimitExceeded when more than max_results covers exist, before
    expanding the leaf that passes the cap.  The walk searches all of g
    as one instance, so vertex_limit caps the whole graph.
    """
    st = stats if stats is not None else SolveStats()
    comp = _Component(g.adj, g.full_mask, st, vertex_limit)
    masks: list[int] = []
    for forced, _, edges in _branch_leaves(comp, st):
        if len(masks) + (1 << len(edges)) > max_results:
            raise LimitExceeded(f"more than {max_results} minimum covers")
        masks.extend(_selections(forced, edges))
    masks.sort(key=_list_order(g.n))
    return [VertexSet.from_mask(g.n, m) for m in masks]


def branch_to_matchings(
    g: Graph,
    *,
    vertex_limit: int | None = None,
    stats: SolveStats | None = None,
) -> list[BranchLeaf]:
    """Branch on degree >= 2 vertices until only isolated edges remain.

    Returns the leaves whose minimum covers are exactly the minimum covers
    of g extending them: forced vertices plus one endpoint per matching
    edge.  Branches that hold no minimum cover are never walked, so the
    leaf families partition all minimum covers of g.  The walk searches all
    of g as one instance, so vertex_limit caps the whole graph.
    """
    st = stats if stats is not None else SolveStats()
    comp = _Component(g.adj, g.full_mask, st, vertex_limit)
    return [
        BranchLeaf(
            VertexSet.from_mask(g.n, forced), tuple(tuple(_bits(e)) for e in edges)
        )
        for forced, _, edges in _branch_leaves(comp, st)
    ]
