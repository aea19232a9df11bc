"""Exact minimum vertex cover: search, enumeration, and branching skeletons.

Every search runs on bit masks, so a subproblem is just an active mask,
and keeps its open subproblems on an explicit stack, so no graph is too
deep for it.  Callers split a graph with ``graph._components`` and search
each component on a copy relabeled in ascending degree (:func:`_relabel`),
mapping covers and leaves back.  :func:`_bounded_cover` needs only one
cover within a budget.  In one pass per node it grows a greedy clique
partition (:func:`_clique_lb` is its bound) and folds isolated and
degree-1 vertices on the way; it prunes by the partition and branches over
every vertex of its last cliques, one of which every cover within budget
leaves out.  Grown from the lowest degrees, the partition leaves the high
degrees in that tail, as in the colouring order of Tomita and Seki's MCQ.
:func:`_min_cover` starts it from a greedy cover (:func:`_greedy_cover`),
polished by (1,2)-swaps (:func:`_improve`) when above the bound.  The
searches on one component share a table of the subproblems they refute,
which only skips subtrees that hold no cover within budget.
:func:`_cover_leaves` is the one walker of the take-v / take-N(v) tree
down to isolated edges: it hands a minimum cover down the branch the
cover takes and searches each other branch once, when it is popped, so it
visits only nodes that hold a leaf.  Every minimum cover extends one
leaf, so it folds no degree-1 vertex.  Its leaves drive the
fixed-parameter solvers, :func:`branch_to_matchings`,
:func:`enumerate_min_vertex_covers` and the uniqueness test.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Iterator

from .errors import LimitExceeded
from .graph import Graph, VertexSet, _bits, _components, _list_order
from .limits import DEFAULT_RESULT_LIMIT, check_vertex_limit

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

    nodes_explored counts branching nodes and generated pre-assignment
    candidates.  uvc_calls counts feasibility decisions: one per probe
    search, and on the fixed-parameter route one per stream candidate,
    each decided by counting its covers over the branching leaves.  When a
    deadline (``time.perf_counter`` value) is set, the search checks it
    cooperatively every 1024 nodes and raises :class:`LimitExceeded` once
    it passes.
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


# Entries one table of refuted subproblems may hold; past it the table is
# only read.  An entry took about 90 bytes on a 120-vertex graph, so a full
# table holds about 24 MB there.
_REFUTED_CAP = 1 << 18


def _node(stats: SolveStats) -> None:
    stats.nodes_explored += 1
    if stats.deadline is not None and stats.nodes_explored & 1023 == 0:
        if time.perf_counter() > stats.deadline:
            raise LimitExceeded("time cap exceeded")


def _remap(mask: int, to: list[int] | dict[int, int]) -> int:
    """The mask with each bit v moved to bit to[v]."""
    return sum(1 << to[v] for v in _bits(mask))


def _relabel(adj: tuple[int, ...], active: int) -> tuple[tuple[int, ...], list[int]]:
    """The active subgraph relabeled 0..m-1 in ascending degree, ties by id.

    Returns its adjacency and the id of each label.
    """
    ids = sorted(_bits(active), key=lambda v: ((adj[v] & active).bit_count(), v))
    label_bit = [0] * len(adj)
    for r, v in enumerate(ids):
        label_bit[v] = 1 << r
    rows = []
    for v in ids:
        row = 0
        nb = adj[v] & active
        while nb:
            low = nb & -nb
            nb ^= low
            row |= label_bit[low.bit_length() - 1]
        rows.append(row)
    return tuple(rows), ids


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


def _bounded_cover(
    adj: tuple[int, ...],
    active: int,
    k: int,
    stats: SolveStats,
    refuted: dict[int, int],
) -> int | None:
    """Mask of a vertex cover of size <= k of the active subgraph, or None.

    Depth-first on an explicit stack, returning the first cover found, and
    None at once for a negative k; a stack entry holds a subproblem and the
    cover its path has taken so far.  A cover within budget leaves out an
    independent set of need vertices, need = |active| - k, so a frame with
    need <= 0 returns its cover plus every active vertex.

    Otherwise one pass grows the greedy clique partition of
    :func:`_clique_lb`, each clique from the lowest free vertex, its seed,
    and folds on the way: a seed of degree <= 1 is dropped and its
    neighbour taken, leaving any clique already built.  Then the vertices
    that lost a neighbour to a fold are tested again, each fold queueing
    its own, until nothing folds.  A second member whose only neighbour is
    its seed stays unless it lost a neighbour here; testing each second
    member cost more time on dense graphs than the nodes it saved.  The
    independent set holds at most one vertex per clique, so fewer than need
    cliques prune the frame, and else it holds a vertex of the tail, the
    cliques need..c.  The frame branches over every tail vertex in reverse
    partition order: the i-th child leaves the i-th tail vertex out, taking
    its neighbours, and takes the tail vertices before it.

    Under the children of each branching frame lies a marker (cover -1):
    popping it means no child held a cover, so the frame's active mask and
    budget as popped, before its folds, go into ``refuted``, which maps an
    active mask to the largest budget known to admit no cover.  Subproblems
    it already refutes are skipped when popped, which never changes the
    cover returned, only the nodes visited.  It may serve every search on
    one adjacency, and stops growing at _REFUTED_CAP entries.
    """
    stack = [(active, k, 0)]
    while stack:
        active, k, cover = stack.pop()
        if cover < 0:
            if len(refuted) < _REFUTED_CAP and refuted.get(active, -1) < k:
                refuted[active] = k
            continue
        if refuted.get(active, -1) >= k:
            continue
        _node(stats)
        if active.bit_count() <= k:
            return cover | active
        key = (active, k)
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
            return cover | active
        if trimmed:
            cliques = [c & active for c in cliques if c & active]
        tail = cliques[need - 1 :]
        if not tail:
            continue  # fewer than need cliques, as when k < 0
        stack.append((*key, -1))
        children = []
        for clique in reversed(tail):
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
    return None


def _greedy_cover(adj: tuple[int, ...], active: int) -> int:
    """A cover of the active subgraph, taken greedily with no search.

    Folds the lowest isolated or degree-1 vertex while one is left, taking
    its neighbour, and otherwise takes a lowest maximum-degree vertex, until
    no vertex is left.  A degree list (-1 once a vertex leaves) and the mask
    of degrees below 2 are kept current as vertices leave, so each step
    costs only the leaving vertex's neighbours and one ``max``.
    """
    deg = [-1] * len(adj)
    low = 0  # active vertices of degree < 2
    scan = active
    while scan:
        bit = scan & -scan
        scan ^= bit
        v = bit.bit_length() - 1
        deg[v] = (adj[v] & active).bit_count()
        if deg[v] < 2:
            low |= bit
    cover = 0
    while active:
        if low:
            bit = low & -low
            v = bit.bit_length() - 1
            deg[v] = -1
            active ^= bit
            low ^= bit
            bit = adj[v] & active  # its neighbour, if any, covers at least as much
            if not bit:
                continue
            v = bit.bit_length() - 1
        else:
            v = deg.index(max(deg))
            bit = 1 << v
        cover |= bit
        deg[v] = -1
        active ^= bit
        low &= active
        nb = adj[v] & active
        while nb:
            bit = nb & -nb
            nb ^= bit
            u = bit.bit_length() - 1
            deg[u] -= 1
            if deg[u] < 2:
                low |= bit
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
    adj: tuple[int, ...],
    active: int,
    stats: SolveStats,
    refuted: dict[int, int],
    upper: int | None = None,
) -> int | None:
    """A minimum cover of the active subgraph, whose size is tau; None if tau > upper.

    Searches downward from the cover of :func:`_greedy_cover`, polished by
    :func:`_improve` when it is above the clique-partition bound, or from
    one bounded search at ``upper`` when that is smaller, and each further
    search asks for a cover one smaller than the best so far.  Searches
    above tau stop at their first leaf, so only the last one, which fails at
    tau - 1, has to refute.  When the best cover reaches the clique-partition
    bound no smaller cover exists, and that refutation is skipped too.  All
    the searches share ``refuted``.
    """
    best = _greedy_cover(adj, active)
    floor = _clique_lb(adj, active)
    if best.bit_count() > floor:
        best = _improve(adj, active, best)
    if upper is not None and upper < best.bit_count():
        best = _bounded_cover(adj, active, upper, stats, refuted)
        if best is None:
            return None
    while best.bit_count() > floor:
        smaller = _bounded_cover(adj, active, best.bit_count() - 1, stats, refuted)
        if smaller is None:
            break
        best = smaller
    return best


def _component_cover(
    adj: tuple[int, ...], comp: int, stats: SolveStats, upper: int | None = None
) -> tuple[tuple[int, ...], list[int], int | None, dict[int, int]]:
    """Relabel comp (:func:`_relabel`) and find its minimum cover on a new table."""
    adj, ids = _relabel(adj, comp)
    refuted: dict[int, int] = {}
    least = _min_cover(adj, (1 << len(ids)) - 1, stats, refuted, upper=upper)
    assert least is not None or upper is not None
    return adj, ids, least, refuted


def _lex_min_cover(
    adj: tuple[int, ...],
    ids: list[int],
    cover: int,
    stats: SolveStats,
    refuted: dict[int, int],
) -> int:
    """The lexicographically smallest minimum cover of a relabeled component, by id.

    Walks the labels in ascending id order, keeping v whenever some
    minimum cover extends the decisions so far with v included.  ``cover``,
    a minimum cover, is kept agreeing with the decisions, so a vertex in it
    is kept with no search; any other takes one bounded search, and the
    minimum cover it finds, if any, becomes ``cover``.
    """
    tau = cover.bit_count()
    out_nb = decided = 0  # neighbours of the vertices decided out; all decided
    for v in sorted(range(len(ids)), key=ids.__getitem__):
        decided |= 1 << v
        if cover >> v & 1:
            continue
        forced = (cover & decided) | (1 << v) | out_nb
        rest = ((1 << len(ids)) - 1) & ~decided & ~forced
        found = _bounded_cover(adj, rest, tau - forced.bit_count(), stats, refuted)
        if found is None:
            out_nb |= adj[v]
        else:
            cover = found | forced
    return cover


def min_vertex_cover(
    g: Graph,
    bound: int | None = None,
    *,
    vertex_limit: int | None = None,
    stats: SolveStats | None = None,
) -> VcSolution | None:
    """Compute tau(g) and the lexicographically smallest minimum cover.

    Solves per connected component, relabeled (:func:`_relabel`), from the
    cover its tau search finds.  With a bound, returns None as soon as
    tau(g) exceeds it (the decision variant).  Ties among equal-size
    covers go to the smallest sorted vertex list, so runs are reproducible;
    that minimum composes over components, since the lowest vertex where
    two unions differ lies in one component.
    """
    check_vertex_limit(g.n, vertex_limit)
    if bound is not None and _clique_lb(g.adj, g.full_mask) > bound:
        return None
    st = stats if stats is not None else SolveStats()
    cover = 0
    for comp in _components(g.adj, g.full_mask):
        if comp & (comp - 1) == 0:
            continue  # an isolated vertex
        upper = None if bound is None else bound - cover.bit_count()
        adj, ids, part, refuted = _component_cover(g.adj, comp, st, upper)
        if part is None:
            return None
        cover |= _remap(_lex_min_cover(adj, ids, part, st, refuted), ids)
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
    for side in (left.mask, right.mask):
        if any(g.adj[v] & side for v in _bits(side)):
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


def _cover_leaves(
    adj: tuple[int, ...],
    ids: list[int],
    active: int,
    cover: int,
    stats: SolveStats,
    refuted: dict[int, int],
) -> Iterator[tuple[int, tuple[tuple[int, int], ...]]]:
    """Leaves (forced mask, isolated edges) of the take-v / take-N(v) tree.

    ``cover`` is a minimum cover of the active subgraph, of size k.  The
    walk is depth-first and branches on a maximum-degree vertex v of lowest
    id (``ids`` gives each label's id, so relabeling keeps the tree), the
    take-v child first, until only isolated edges remain.  Each
    stack entry carries a cover of its residual within budget
    k - |forced|, or -1: the child the cover takes inherits it, and the
    other gets one :func:`_bounded_cover` search when popped, and is
    dropped if that finds none.  So every node visited holds a leaf, and
    each leaf's forced set plus one endpoint per edge is a minimum cover.
    One degree scan per node finds v or, below degree 2, the leaf's edges.
    """
    k = cover.bit_count()
    stack = [(active, 0, cover)]
    while stack:
        active, forced, cover = stack.pop()
        if cover < 0:
            found = _bounded_cover(adj, active, k - forced.bit_count(), stats, refuted)
            if found is None:
                continue
            cover = found
        _node(stats)
        best_v = -1
        best_d = 1
        pairs = []
        scan = active
        while scan:
            low = scan & -scan
            scan ^= low
            v = low.bit_length() - 1
            nb = adj[v] & active
            d = nb.bit_count()
            if d > best_d or d == best_d > 1 and ids[v] < ids[best_v]:
                best_d = d
                best_v = v
            elif d == 1 and nb > low:
                pairs.append((v, nb.bit_length() - 1))
        if best_v < 0:
            yield forced, tuple(pairs)
            continue
        bit = 1 << best_v
        nb = adj[best_v] & active
        if cover & bit:
            nb_cover, v_cover = -1, cover ^ bit
        else:
            nb_cover, v_cover = cover & ~nb, -1
        stack.append((active & ~(nb | bit), forced | nb, nb_cover))
        stack.append((active ^ bit, forced | bit, v_cover))


def _branch_leaves(
    adj: tuple[int, ...], full: int, stats: SolveStats
) -> Iterator[tuple[int, tuple[tuple[int, int], ...]]]:
    """Leaves of the take-v / take-N(v) tree of the full mask's subgraph.

    Relabels the subgraph and finds a minimum cover (:func:`_component_cover`),
    walks the leaves from it (:func:`_cover_leaves`) on the same table, and
    maps each leaf back to ids, its edges in ascending order.  Nothing runs
    until the first leaf is asked for.
    """
    adj, ids, least, refuted = _component_cover(adj, full, stats)
    full = (1 << len(ids)) - 1
    for forced, pairs in _cover_leaves(adj, ids, full, least, stats, refuted):
        edges = sorted(tuple(sorted((ids[a], ids[b]))) for a, b in pairs)
        yield _remap(forced, ids), tuple(edges)


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
    expanding the leaf that passes the cap.
    """
    check_vertex_limit(g.n, vertex_limit)
    st = stats if stats is not None else SolveStats()
    total = 0
    masks: list[int] = []
    for forced, pairs in _branch_leaves(g.adj, g.full_mask, st):
        total += 1 << len(pairs)
        if total > max_results:
            raise LimitExceeded(f"more than {max_results} minimum covers")
        combos = [forced]
        for a, b in pairs:
            combos = [c | (1 << x) for c in combos for x in (a, b)]
        masks.extend(combos)
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
    leaf families partition all minimum covers of g.
    """
    check_vertex_limit(g.n, vertex_limit)
    st = stats if stats is not None else SolveStats()
    return [
        BranchLeaf(VertexSet.from_mask(g.n, forced), pairs)
        for forced, pairs in _branch_leaves(g.adj, g.full_mask, st)
    ]
