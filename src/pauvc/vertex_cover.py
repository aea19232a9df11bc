"""Exact minimum vertex cover: search, enumeration, and branching skeletons.

Every search runs on bit masks over the original vertex ids, so a
subproblem is just an active mask, and keeps its open subproblems on an
explicit stack, so no graph is too deep for it.  A connected component is
an active mask too, so callers split a graph with ``graph._components``
and search each component in place.  There is one branching kernel: take a
lowest-id maximum-degree vertex v (:func:`_pick`) or its whole
neighborhood N(v), pruned by a greedy clique-partition bound
(:func:`_clique_lb`).  :func:`_branch_leaves` branches until only isolated
edges remain; its leaves drive the fixed-parameter solvers,
:func:`branch_to_matchings` and :func:`enumerate_min_vertex_covers`, and
every minimum cover must extend one, so it folds no degree-1 vertex.
:func:`_bounded_cover` needs only one cover and folds them, so it keeps
its own scan, which finds the branching vertex, folds pendants and drops
isolated vertices in one pass.  It also records the subproblems it refutes
in a table that one public call shares across all its searches on one
graph; the table only skips subtrees that hold no cover within budget, so
it never changes a returned cover.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Iterator

from .errors import LimitExceeded
from .graph import Graph, VertexSet, _bits, _components
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


def _clique_lb(adj: tuple[int, ...], active: int) -> int:
    """Greedy clique-partition lower bound on the cover size.

    Splits the active vertices into cliques, each grown from the lowest
    free vertex through its lowest free common neighbours.  A cover misses
    at most one vertex of each clique, so its size is at least |active|
    minus the number of cliques.  On triangle-free graphs the cliques are a
    greedy matching plus singletons, so there it equals the matching bound.
    """
    cliques = 0
    free = active
    while free:
        low = free & -free
        free ^= low
        common = adj[low.bit_length() - 1] & free
        while common:
            u_bit = common & -common
            free ^= u_bit
            common &= adj[u_bit.bit_length() - 1]
        cliques += 1
    return active.bit_count() - cliques


def _pick(adj: tuple[int, ...], active: int) -> tuple[int, int]:
    """Lowest-id maximum-degree vertex of the active subgraph, with its degree.

    Returns (-1, 0) when the active subgraph has no edge.
    """
    best_v = -1
    best_d = 0
    scan = active
    while scan:
        low = scan & -scan
        scan ^= low
        v = low.bit_length() - 1
        d = (adj[v] & active).bit_count()
        if d > best_d:
            best_d = d
            best_v = v
    return best_v, best_d


def _bounded_cover(
    adj: tuple[int, ...],
    active: int,
    k: int,
    stats: SolveStats,
    refuted: dict[int, int],
) -> int | None:
    """Mask of a vertex cover of size <= k of the active subgraph, or None.

    Depth-first over the take-v / take-N(v) tree, take-v first, returning
    the first cover found, and None at once for a negative k; a stack
    entry holds a subproblem and the cover its path has taken so far.
    Under the two children of each branching node lies a marker (cover
    -1): popping it means neither child held a cover, so that node's active
    mask and budget go into ``refuted``, which maps an active mask to the
    largest budget known to admit no cover.  Subproblems it already
    refutes are skipped when popped.  A skipped subtree holds no cover
    within budget and the order is unchanged, so the table never changes
    the cover returned, only the nodes visited.  It may serve every search
    on one adjacency, and stops growing at _REFUTED_CAP entries.
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
        while k >= 0:
            best_v = -1
            best_d = 0
            pendant = -1
            scan = active
            while scan:
                low = scan & -scan
                scan ^= low
                v = low.bit_length() - 1
                d = (adj[v] & active).bit_count()
                if d == 0:
                    active ^= low
                    continue
                if d > best_d:
                    best_d = d
                    best_v = v
                if d == 1 and pendant < 0:
                    pendant = v
            if best_d == 0:
                return cover
            if k == 0:
                break
            if best_d == 1:
                # Only isolated edges remain; take the lower endpoint of
                # each in one scan.  Folding them one pendant at a time
                # rescans the active set per edge, and _lex_min_cover may
                # search once per vertex, so a hub joined to m disjoint
                # edges would cost O(m^3) instead of O(m^2).
                picked = 0
                scan = active
                while scan:
                    low = scan & -scan
                    v = low.bit_length() - 1
                    picked |= low
                    scan &= ~(low | (adj[v] & active))
                if picked.bit_count() <= k:
                    return cover | picked
                break
            if pendant >= 0:
                # Degree-1 rule: its single neighbor covers at least as much.
                nb = adj[pendant] & active
                cover |= nb
                k -= 1
                active &= ~(nb | (1 << pendant))
                continue
            if k >= _clique_lb(adj, active):
                bit = 1 << best_v
                nb = adj[best_v] & active
                stack.append((active, k, -1))
                stack.append((active & ~(nb | bit), k - nb.bit_count(), cover | nb))
                stack.append((active ^ bit, k - 1, cover | bit))
            break
    return None


def _min_cover(
    adj: tuple[int, ...],
    active: int,
    stats: SolveStats,
    refuted: dict[int, int],
    upper: int | None = None,
) -> int | None:
    """A minimum cover of the active subgraph, whose size is tau; None if tau > upper.

    Searches downward: a greedy dive with the whole budget finds a first
    cover, and each further search asks for a cover one smaller than the
    best so far.  Searches above tau stop at their first leaf, so only the
    last one, which fails at tau - 1, has to refute.  When the best cover
    reaches the clique-partition bound no smaller cover exists, and that
    refutation is skipped too.  All the searches share ``refuted``.
    """
    cap = active.bit_count() if upper is None else min(upper, active.bit_count())
    best = _bounded_cover(adj, active, cap, stats, refuted)
    if best is None:
        return None
    floor = _clique_lb(adj, active)
    while best.bit_count() > floor:
        smaller = _bounded_cover(adj, active, best.bit_count() - 1, stats, refuted)
        if smaller is None:
            break
        best = smaller
    return best


def _lex_min_cover(
    adj: tuple[int, ...],
    active: int,
    cover: int,
    stats: SolveStats,
    refuted: dict[int, int],
) -> int:
    """The lexicographically smallest minimum cover of the active subgraph.

    Walks the active vertices in ascending order, keeping v whenever some
    minimum cover extends the decisions so far with v included.  ``cover``,
    a minimum cover, is kept agreeing with the decisions, so a vertex in it
    is kept with no search; any other takes one bounded search, and the
    minimum cover it finds, if any, becomes ``cover``.
    """
    tau = cover.bit_count()
    out_nb = 0  # neighbours of the vertices decided out
    for v in _bits(active):
        if cover >> v & 1:
            continue
        below = (1 << v) - 1  # the vertices already decided
        forced = (cover & below) | (1 << v) | out_nb
        rest = active & ~below & ~forced
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

    Solves per connected component, in place on g's neighbor masks, from
    the cover its tau search finds.  With a bound, returns None as soon as
    tau(g) exceeds it (the decision variant).  Ties among equal-size
    covers go to the smallest sorted vertex list, so runs are reproducible;
    that minimum composes over components, since the lowest vertex where
    two unions differ lies in one component.
    """
    check_vertex_limit(g.n, vertex_limit)
    if bound is not None and _clique_lb(g.adj, g.full_mask) > bound:
        return None
    st = stats if stats is not None else SolveStats()
    refuted: dict[int, int] = {}
    cover = 0
    for comp in _components(g.adj, g.full_mask):
        if comp & (comp - 1) == 0:
            continue  # an isolated vertex
        upper = None if bound is None else bound - cover.bit_count()
        part = _min_cover(g.adj, comp, st, refuted, upper=upper)
        if part is None:
            return None
        cover |= _lex_min_cover(g.adj, comp, part, st, refuted)
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


def _branch_leaves(
    adj: tuple[int, ...], full: int, stats: SolveStats
) -> Iterator[tuple[int, tuple[tuple[int, int], ...]]]:
    """Leaves (forced mask, isolated edges) of the take-v / take-N(v) tree.

    Finds tau of the active subgraph first, then branches only on degree
    >= 2 vertices, depth-first with the take-v branch first, and yields
    exactly the leaves whose forced set plus one endpoint per isolated edge
    reaches tau.  Nothing runs until the first leaf is asked for.
    """
    least = _min_cover(adj, full, stats, {})
    assert least is not None
    tau = least.bit_count()
    stack = [(full, 0)]
    while stack:
        active, forced = stack.pop()
        _node(stats)
        best_v, best_d = _pick(adj, active)
        if best_d < 2:
            pairs = []
            scan = active
            while scan:
                low = scan & -scan
                v = low.bit_length() - 1
                partner = adj[v] & active
                if partner:
                    pairs.append((v, partner.bit_length() - 1))
                    scan &= ~(low | partner)
                else:
                    scan ^= low
            if forced.bit_count() + len(pairs) == tau:
                yield forced, tuple(pairs)
            continue
        if forced.bit_count() + _clique_lb(adj, active) > tau:
            continue
        bit = 1 << best_v
        nb = adj[best_v] & active
        stack.append((active & ~(nb | bit), forced | nb))
        stack.append((active ^ bit, forced | bit))


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
    masks.sort(key=lambda m: tuple(_bits(m)))
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
    edge.  Leaves that cannot reach tau(g) are filtered out, so the leaf
    families partition all minimum covers of g.
    """
    check_vertex_limit(g.n, vertex_limit)
    st = stats if stats is not None else SolveStats()
    return [
        BranchLeaf(VertexSet.from_mask(g.n, forced), pairs)
        for forced, pairs in _branch_leaves(g.adj, g.full_mask, st)
    ]
