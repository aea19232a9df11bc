"""Exact minimum vertex cover: search, enumeration, and branching skeletons.

All search runs on raw bit masks over the original vertex ids; a subproblem
is just the pair (neighbor masks, active mask), so recursion never copies
the graph.  The bounded search branches on a lowest-id maximum-degree
vertex (take it, or take its whole neighborhood), folds degree-1 vertices
away eagerly, and prunes with a greedy matching lower bound.

:func:`branch_to_matchings` exposes the same branching with the degree-1
rule switched off, stopping as soon as the residual graph is a disjoint
union of edges.  Those leaves drive the fixed-parameter pre-assignment
solvers; completeness requires that every minimum cover extend some leaf,
which the degree-1 shortcut would break.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from .errors import LimitExceeded
from .graph import Graph, VertexSet, _bits
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


def _node(stats: SolveStats) -> None:
    stats.nodes_explored += 1
    if stats.deadline is not None and stats.nodes_explored & 1023 == 0:
        if time.perf_counter() > stats.deadline:
            raise LimitExceeded("time cap exceeded")


def _matching_lb(adj: tuple[int, ...], active: int) -> int:
    """Greedy lower bound on the cover size.

    Packs vertex-disjoint triangles first (each needs two cover vertices)
    and then matching edges (one each).  Still a valid bound: the packed
    subgraphs are vertex disjoint.
    """
    lb = 0
    free = active
    scan = active
    while scan:
        low = scan & -scan
        scan ^= low
        if free & low == 0:
            continue
        v = low.bit_length() - 1
        nb = adj[v] & free & ~low
        if not nb:
            continue
        u_bit = nb & -nb
        u = u_bit.bit_length() - 1
        third = adj[v] & adj[u] & free & ~low & ~u_bit
        if third:
            free &= ~(low | u_bit | (third & -third))
            lb += 2
        else:
            free &= ~(low | u_bit)
            lb += 1
    return lb


def _bounded_cover(
    adj: tuple[int, ...], active: int, k: int, stats: SolveStats
) -> int | None:
    """Mask of a vertex cover of size <= k of the active subgraph, or None."""
    _node(stats)
    if k < 0:
        return None
    cover = 0
    while True:
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
            elif d > best_d:
                best_d = d
                best_v = v
                if d == 1 and pendant < 0:
                    pendant = v
            elif d == 1 and pendant < 0:
                pendant = v
        if best_d == 0:
            return cover
        if k <= 0:
            return None
        if best_d == 1:
            # Only isolated edges remain; take the lower endpoint of each.
            picked = 0
            scan = active
            while scan:
                low = scan & -scan
                v = low.bit_length() - 1
                partner = adj[v] & active
                picked |= low
                scan &= ~(low | partner)
                active &= ~(low | partner)
            if picked.bit_count() > k:
                return None
            return cover | picked
        if pendant >= 0:
            # Degree-1 rule: its single neighbor covers at least as much.
            nb = adj[pendant] & active
            cover |= nb
            k -= 1
            active &= ~(nb | (1 << pendant))
            continue
        break
    if k < _matching_lb(adj, active):
        return None
    bit = 1 << best_v
    nb = adj[best_v] & active
    rest = _bounded_cover(adj, active ^ bit, k - 1, stats)
    if rest is not None:
        return cover | bit | rest
    rest = _bounded_cover(adj, active & ~(nb | bit), k - nb.bit_count(), stats)
    if rest is not None:
        return cover | nb | rest
    return None


def _min_cover(
    adj: tuple[int, ...],
    active: int,
    stats: SolveStats,
    upper: int | None = None,
) -> tuple[int, int] | None:
    """(tau, cover mask) of the active subgraph; None when tau > upper.

    Searches downward: a greedy dive with the whole budget finds a first
    cover, and each further search asks for a cover one smaller than the
    best so far.  Searches above tau stop at their first leaf, so only the
    last one, which fails at tau - 1, has to refute.  When the best cover
    reaches the greedy packing bound no smaller cover exists, and that
    refutation is skipped too.
    """
    cap = active.bit_count() if upper is None else min(upper, active.bit_count())
    best = _bounded_cover(adj, active, cap, stats)
    if best is None:
        return None
    floor = _matching_lb(adj, active)
    while best.bit_count() > floor:
        smaller = _bounded_cover(adj, active, best.bit_count() - 1, stats)
        if smaller is None:
            break
        best = smaller
    return best.bit_count(), best


def _lex_min_cover(adj: tuple[int, ...], n: int, tau: int, stats: SolveStats) -> int:
    """The lexicographically smallest minimum cover (by sorted vertex list).

    Walks the vertices in ascending order, keeping v in the cover whenever
    some minimum cover extends the decisions so far with v included.
    """
    full = (1 << n) - 1
    in_mask = 0
    out_mask = 0
    out_nb = 0
    for v in range(n):
        if in_mask.bit_count() == tau:
            break
        forced = in_mask | (1 << v) | out_nb
        active = full & ~forced & ~out_mask
        target = tau - forced.bit_count()
        if target >= 0 and _bounded_cover(adj, active, target, stats) is not None:
            in_mask |= 1 << v
        else:
            out_mask |= 1 << v
            out_nb |= adj[v]
    return in_mask


def min_vertex_cover(
    g: Graph,
    bound: int | None = None,
    *,
    vertex_limit: int | None = None,
    stats: SolveStats | None = None,
) -> VcSolution | None:
    """Compute tau(g) and the lexicographically smallest minimum cover.

    With a bound, returns None as soon as tau(g) exceeds it (the decision
    variant).  Ties among equal-size covers are broken toward the smallest
    sorted vertex list, so repeated runs are reproducible.
    """
    check_vertex_limit(g.n, vertex_limit)
    st = stats if stats is not None else SolveStats()
    found = _min_cover(g.adj, g.full_mask, st, upper=bound)
    if found is None:
        return None
    tau, _ = found
    cover = _lex_min_cover(g.adj, g.n, tau, st)
    return VcSolution(tau, VertexSet.from_mask(g.n, cover))


def min_vertex_cover_bipartite(
    g: Graph,
    parts: tuple[VertexSet, VertexSet],
    *,
    stats: SolveStats | None = None,
) -> VcSolution:
    """Minimum vertex cover of a bipartite graph via maximum matching.

    Finds a maximum matching with single-path augmentation (Kuhn's
    algorithm: a greedy matching first, then one depth-first search per
    still-free left vertex, iterative so long paths cannot exhaust the
    call stack) and extracts the Koenig cover from the vertices that
    alternating paths reach from the free left vertices, so tau equals the
    matching size.  That cover is the same for every maximum matching, so
    it is deterministic, but it is not the lexicographic minimum; sizes
    always agree with :func:`min_vertex_cover`.
    """
    left, right = parts
    if left.n != g.n or right.n != g.n:
        raise ValueError("parts universe does not match graph")
    if left.mask & right.mask or left.mask | right.mask != g.full_mask:
        raise ValueError("parts do not partition the vertices")
    for v in _bits(left.mask):
        if g.neighbors_mask(v) & left.mask:
            raise ValueError("parts are not a valid bipartition")
    for v in _bits(right.mask):
        if g.neighbors_mask(v) & right.mask:
            raise ValueError("parts are not a valid bipartition")

    match: dict[int, int] = {}  # vertex -> matched partner, both directions

    def augment(root: int) -> None:
        # Depth-first search for an augmenting path from a free left vertex,
        # on an explicit stack: stack[i] is the left vertex at depth i and
        # path[i] the right vertex it currently tries.
        visited: set[int] = set()
        stack = [(root, _bits(g.neighbors_mask(root)))]
        path: list[int] = []
        while stack:
            for w in stack[-1][1]:
                if w in visited:
                    continue
                visited.add(w)
                path.append(w)
                if w not in match:
                    for (u, _), x in zip(stack, path):
                        match[u] = x
                        match[x] = u
                    return
                stack.append((match[w], _bits(g.neighbors_mask(match[w]))))
                break
            else:
                stack.pop()
                if path:
                    path.pop()

    # Greedy start: each left vertex takes its lowest free neighbour, so
    # augmenting searches run only for the left vertices still free.
    taken = 0
    for u in _bits(left.mask):
        free = g.neighbors_mask(u) & ~taken
        if free:
            w = (free & -free).bit_length() - 1
            match[u] = w
            match[w] = u
            taken |= 1 << w
    for u in _bits(left.mask):
        if u not in match:
            augment(u)
    nu = sum(1 for v in match if v in left)

    # Alternating reachability from the unmatched left vertices.
    reach = {u for u in _bits(left.mask) if u not in match}
    frontier = list(reach)
    while frontier:
        u = frontier.pop()
        for w in _bits(g.neighbors_mask(u)):
            if w in reach or match.get(u) == w:
                continue
            reach.add(w)
            partner = match.get(w)
            if partner is not None and partner not in reach:
                reach.add(partner)
                frontier.append(partner)
    cover_mask = 0
    for v in _bits(left.mask):
        if v not in reach:
            cover_mask |= 1 << v
    for v in _bits(right.mask):
        if v in reach:
            cover_mask |= 1 << v
    if cover_mask.bit_count() != nu:
        raise AssertionError("cover extraction disagrees with matching size")
    if stats is not None:
        stats.nodes_explored += g.n
    return VcSolution(nu, VertexSet.from_mask(g.n, cover_mask))


def _enumerate_covers(
    adj: tuple[int, ...],
    active: int,
    forced: int,
    budget: int,
    out: list[int],
    cap: int,
    stats: SolveStats,
) -> None:
    _node(stats)
    if budget < 0:
        return
    # Isolated vertices never sit in a minimum cover.
    scan = active
    best_v = -1
    best_d = 1
    while scan:
        low = scan & -scan
        scan ^= low
        v = low.bit_length() - 1
        d = (adj[v] & active).bit_count()
        if d == 0:
            active ^= low
        elif d > best_d:
            best_d = d
            best_v = v
    if not active:
        if budget == 0:
            if len(out) >= cap:
                raise LimitExceeded(f"more than {cap} minimum covers")
            out.append(forced)
        return
    if best_v < 0:
        # Max degree 1: a disjoint union of edges, each contributing either
        # endpoint.  Expand all combinations within the remaining budget.
        pairs = []
        scan = active
        while scan:
            low = scan & -scan
            v = low.bit_length() - 1
            partner = adj[v] & active
            pairs.append((low, partner))
            scan &= ~(low | partner)
        if budget != len(pairs):
            return
        combos = [forced]
        for low, partner in pairs:
            combos = [c | pick for c in combos for pick in (low, partner)]
        if len(out) + len(combos) > cap:
            raise LimitExceeded(f"more than {cap} minimum covers")
        out.extend(combos)
        return
    if budget < _matching_lb(adj, active):
        return
    bit = 1 << best_v
    nb = adj[best_v] & active
    _enumerate_covers(adj, active ^ bit, forced | bit, budget - 1, out, cap, stats)
    _enumerate_covers(
        adj,
        active & ~(nb | bit),
        forced | nb,
        budget - nb.bit_count(),
        out,
        cap,
        stats,
    )


def enumerate_min_vertex_covers(
    g: Graph,
    *,
    vertex_limit: int | None = None,
    max_results: int = DEFAULT_RESULT_LIMIT,
    stats: SolveStats | None = None,
) -> list[VertexSet]:
    """All minimum vertex covers, sorted by their vertex lists.

    Branching partitions the covers by membership of a maximum-degree
    vertex, so each cover appears exactly once.  Raises LimitExceeded when
    more than max_results covers exist.
    """
    check_vertex_limit(g.n, vertex_limit)
    st = stats if stats is not None else SolveStats()
    found = _min_cover(g.adj, g.full_mask, st)
    assert found is not None
    tau, _ = found
    masks: list[int] = []
    _enumerate_covers(g.adj, g.full_mask, 0, tau, masks, max_results, st)
    masks.sort(key=lambda m: tuple(_bits(m)))
    return [VertexSet.from_mask(g.n, m) for m in masks]


def _branch_leaves(
    adj: tuple[int, ...], full: int, tau: int, stats: SolveStats
) -> list[tuple[int, tuple[tuple[int, int], ...]]]:
    """Leaves (forced mask, isolated edges) of the take-v / take-N(v) tree.

    Branches only on degree >= 2 vertices and keeps exactly the leaves
    whose forced set plus one endpoint per isolated edge reaches tau.
    """
    leaves: list[tuple[int, tuple[tuple[int, int], ...]]] = []

    def rec(active: int, forced: int) -> None:
        _node(stats)
        best_v = -1
        best_d = 1
        scan = active
        while scan:
            low = scan & -scan
            scan ^= low
            v = low.bit_length() - 1
            d = (adj[v] & active).bit_count()
            if d > best_d:
                best_d = d
                best_v = v
        if best_v < 0:
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
                leaves.append((forced, tuple(pairs)))
            return
        if forced.bit_count() + _matching_lb(adj, active) > tau:
            return
        bit = 1 << best_v
        nb = adj[best_v] & active
        rec(active ^ bit, forced | bit)
        rec(active & ~(nb | bit), forced | nb)

    rec(full, 0)
    return leaves


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
    found = _min_cover(g.adj, g.full_mask, st)
    assert found is not None
    tau, _ = found
    leaves = _branch_leaves(g.adj, g.full_mask, tau, st)
    return [
        BranchLeaf(VertexSet.from_mask(g.n, forced), pairs)
        for forced, pairs in leaves
    ]
