"""Solvers for minimum pre-assignments that force a unique minimum cover.

Four routes are provided.  :func:`solve_enum` tries every pre-assignment by
increasing size and is the reference oracle for everything else.  The tree
route is :func:`pau_tree`.  The two fixed-parameter strategies branch the
graph down to matchings first (take v, or take N(v), for a vertex v of
degree at least 2).  Every minimum cover extends exactly one leaf of that
tree: it is the leaf's forced set F plus one endpoint of each of the
leaf's p isolated edges.  The vertices outside a leaf, neither in F nor
matched, form an independent set with no neighbour among the matched
vertices: each left the branching either as a vertex whose neighbours were
all forced, or as an isolated vertex.  So an outside vertex that is not
isolated in the graph has all its neighbours in F.

Both strategies decide one stream of candidates, ordered by size
k = 0, 1, 2, ... across all leaves and by sorted vertex list within one
size, and return the first feasible one.  A leaf's size-k candidates are a
selection of one endpoint per matching edge (all 2^p of them) together
with a (k - p)-subset of a per-leaf pool.  The stream is complete: it
contains the lexicographically smallest minimum feasible pre-assignment.

- Include model: the pool is F.  Let I be feasible with unique cover U,
  which extends leaf L.  Then I lies inside U, and I holds the endpoint in
  U of every matching edge of L; otherwise swapping that edge's endpoints
  gives a second consistent minimum cover.  So I is a selection plus a
  subset of F, and the size-k stream is exactly the set of such masks.
- Exclude model: the pool is the outside vertices with a neighbour in F,
  one per neighbourhood (the lowest id).  Let E be a minimum feasible
  exclude set with unique cover U, which extends leaf L.  E avoids U.  For
  a matching edge with endpoint a in U and b outside it, the only way to
  keep the swapped cover out is a in N(E), and a's one neighbour outside
  U is b; so E holds the selection of the endpoints outside U.  The rest of
  E is outside L.  The consistent covers depend only on N(E): they are the
  minimum covers containing it.  So E has no isolated vertex and no two
  vertices with the same neighbourhood, as dropping one keeps it
  feasible; and a vertex of E may be traded for the lowest-id vertex with
  its neighbourhood, which lies outside L too.  That trade makes the
  sorted vertex list smaller, so the lexicographically smallest E uses
  pool vertices only.

The stream drops the candidates that a swap refutes.  A selection S names
a target cover U: F plus S (include), or F plus the endpoints outside S
(exclude).  If u in U has exactly one neighbour w off U, then U - u + w is
a second minimum cover, so an include set for U needs u and an exclude
set needs w.  For a matched u, w is its partner, which S settles, so only
u in F adds a pin.  An exclude pin w is in S or the pool, as no other
outside vertex neighbours u.  So S contributes S, its pins and a subset of
the rest of the pool.  A dropped candidate lies inside U or avoids U, so U
and U - u + w are both consistent with it; the lexicographically smallest
minimum feasible set holds its target's pins, so the stream stays complete.

No candidate needs a search.  The leaves partition the minimum covers.
``vertex_cover._branch_leaves`` gives each leaf L' as the row (F', M',
edges): its p edges as two-bit masks and their union M', the matched set.
The covers extending L' are F' plus one endpoint per edge, never a vertex
outside F' | M'.  So the number of minimum covers consistent with a
candidate is a sum over leaves.  An include set I meets a cover of L' only
if I lies inside F' | M' and holds no edge whole; then each edge I touches
has its endpoint fixed and each other edge is free, so L' adds 2^(edges I
does not touch).  An exclude set E avoids a cover of L' only if E misses
F' and holds no edge whole; then each edge E touches must take its other
endpoint, and L' again adds 2^(edges E does not touch).  The candidate is
feasible iff the sum is exactly 1, and the one cover is F' plus the
endpoints in I, or F' plus the endpoints outside E.

So the first feasible candidate has the optimum size and is the witness
:func:`solve_enum` returns for the same graph.  Mixed-model questions are
answered in the exclude model; the two are equivalent instance by
instance.  Every route works on neighbour masks over an active mask, so
:func:`solve`, which both wrappers call, runs it per connected component.
The enumeration and the leaf walk search a component through its record
(``vertex_cover._Component``), which checks the vertex cap it is given
before any search.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from itertools import combinations
from typing import Iterator

from .graph import (
    Graph, Model, PreAssignment, Rooting, VertexSet, _components, _list_order
)
from .limits import DEFAULT_ENUM_VERTEX_LIMIT, general_vertex_limit
from .tree import _tree_pass, count_tree_covers
from .uniqueness import _check_pre_assignment
from .vertex_cover import (
    SolveStats,
    _bits,
    _branch_leaves,
    _check_deadline,
    _Component,
    _node,
    _selections,
)

__all__ = [
    "PauResult",
    "solve_enum",
    "solve_fpt_include",
    "solve_fpt_exclude",
    "include_to_exclude",
    "mixed_to_exclude",
    "solve",
]


@dataclass(frozen=True)
class PauResult:
    """A minimum feasible pre-assignment and the cover it pins down."""

    model: Model
    opt_size: int
    pre: PreAssignment
    unique_cover: VertexSet
    stats: SolveStats

    def to_json_dict(self) -> dict:
        out = self.pre.to_json_dict()
        out["opt_size"] = self.opt_size
        out["unique_cover"] = list(self.unique_cover)
        out["stats"] = self.stats.to_json_dict()
        return out


# ---------------------------------------------------------------------------
# Exhaustive search over pre-assignments, smallest first.


def _include_prefixes(vertices: list[int], k: int) -> Iterator[tuple[int, ...]]:
    """All tuples of at most k ascending vertices, in lexicographic order."""

    def rec(prefix: tuple[int, ...], start: int) -> Iterator[tuple[int, ...]]:
        yield prefix
        if len(prefix) < k:
            for i in range(start, len(vertices)):
                yield from rec(prefix + (vertices[i],), i + 1)

    return rec((), 0)


_Pins = tuple[int, int, int]  # include mask, exclude mask, the unique cover


def _result(
    g: Graph, model: Model, pins: _Pins, stats: SolveStats, started: float
) -> PauResult:
    inc, exc, cover = (VertexSet.from_mask(g.n, mask) for mask in pins)
    pre = PreAssignment(model, inc, exc)
    stats.elapsed = time.perf_counter() - started
    return PauResult(model, pre.size(), pre, cover, stats)


def _solve_enum(
    adj: tuple[int, ...], active: int, model: Model, stats: SolveStats, cap: int | None
) -> _Pins:
    """The first feasible pre-assignment of the active subgraph by size.

    Within a size, include sets come in lexicographic order, each followed
    by its exclude sets in lexicographic order.  The include model takes
    only include sets of the whole size, the exclude model only the empty one.
    """
    comp = _Component(adj, active, stats, cap)
    vertices = comp.order
    for k in range(len(vertices) + 1):
        if model is Model.INCLUDE:
            prefixes = combinations(vertices, k)
        elif model is Model.EXCLUDE:
            prefixes = [()]
        else:
            prefixes = _include_prefixes(vertices, k)
        for inc in prefixes:
            inc_mask = sum(1 << v for v in inc)
            rest = [v for v in vertices if not inc_mask >> v & 1]
            for exc in combinations(rest, k - len(inc)):
                exc_mask = sum(1 << v for v in exc)
                ok, cover, _ = _check_pre_assignment(comp, inc_mask, exc_mask, stats)
                if ok:
                    return tuple(comp.to_ids(m) for m in (inc_mask, exc_mask, cover))
    raise AssertionError("no feasible pre-assignment found, which cannot happen")


def solve_enum(
    g: Graph,
    model: Model | str,
    *,
    vertex_limit: int = DEFAULT_ENUM_VERTEX_LIMIT,
    deadline: float | None = None,
) -> PauResult:
    """Try every pre-assignment of all of g by increasing size; the reference oracle.

    Candidates of equal size are visited in lexicographic order (include
    set before exclude set for the mixed model), so the returned witness is
    the lexicographically smallest minimum feasible pre-assignment.
    """
    model = Model(model)
    stats = SolveStats(deadline)
    started = time.perf_counter()
    pins = _solve_enum(g.adj, g.full_mask, model, stats, vertex_limit)
    return _result(g, model, pins, stats, started)


# ---------------------------------------------------------------------------
# Fixed-parameter strategies via branching to matchings.


def _leaf_pool(
    adj: tuple[int, ...], active: int, model: Model, forced: int, matched: int
) -> list[int]:
    """The single-bit masks a leaf's candidates draw on beyond a selection."""
    if model is Model.INCLUDE:
        return [1 << v for v in _bits(forced)]
    pool = []
    seen: set[int] = set()
    for u in _bits(active & ~forced & ~matched):
        trace = adj[u] & forced
        if trace and trace not in seen:
            seen.add(trace)
            pool.append(1 << u)
    return pool


def _pinned_selections(
    adj: tuple[int, ...], active: int, model: Model, leaf: tuple, stats: SolveStats
) -> list[tuple[int, int, list[int], list[int]]]:
    """A leaf's selections as groups (base size, pins, pool less pins, selections)."""
    forced, matched, edges = leaf
    include = model is Model.INCLUDE
    pool = _leaf_pool(adj, active, model, forced, matched)
    outside = active & ~forced & ~matched
    swaps = [(1 << u, out, adj[u] & matched)
             for u in _bits(forced) if (out := adj[u] & outside).bit_count() < 2]
    groups: dict[int, list[int]] = {}
    for sel in _selections(0, edges):
        _node(stats)
        off = matched ^ sel if include else sel  # matched vertices off the target
        pins = 0
        for bit, out, nbrs in swaps:
            w = out | nbrs & off
            if w.bit_count() == 1:
                pins |= bit if include else w
        groups.setdefault(pins & ~sel, []).append(sel)
    return [(len(edges) + pins.bit_count(), pins,
             [b for b in pool if not b & pins] if pins else pool, selections)
            for pins, selections in groups.items()]


def _candidate_stream(
    adj: tuple[int, ...],
    active: int,
    model: Model,
    table: list[tuple],
    stats: SolveStats,
) -> Iterator[int]:
    """Candidate masks by size, each size sorted by vertex list.

    A leaf with p matching edges is expanded once the stream reaches size
    p: its 2^p selections are grouped by the pins their targets force, and
    a group contributes from its base size on.  Each selection expanded and
    each candidate generated counts as a node, so deadlines fire throughout.
    """
    expanded: dict[int, list[tuple[int, int, list[int], list[int]]]] = {}
    for k in range(active.bit_count() + 1):
        batch: set[int] = set()
        for i, leaf in enumerate(table):
            if len(leaf[2]) > k:
                continue
            if i not in expanded:
                expanded[i] = _pinned_selections(adj, active, model, leaf, stats)
            for size, pins, pool, selections in expanded[i]:
                if size > k:
                    continue
                for combo in combinations(pool, k - size):
                    rest = sum(combo) | pins  # distinct bits: the sum is their union
                    for sel in selections:
                        _node(stats)
                        batch.add(sel | rest)
        yield from sorted(batch, key=_list_order(active.bit_length()))


def _decide(table: list[tuple], model: Model, cand: int) -> int | None:
    """The unique minimum cover consistent with cand, or None if not unique.

    Counts the consistent minimum covers over the rows of ``_branch_leaves``,
    as the module docstring derives, and stops once the count passes 1.
    """
    found = None
    for forced, matched, edges in table:
        if model is Model.INCLUDE:
            if cand & ~(forced | matched):
                continue
        elif cand & forced:
            continue
        for e in edges:
            if cand & e == e:
                break  # cand holds an edge whole
        else:
            touched = cand & matched
            if found is not None or touched.bit_count() < len(edges):
                return None
            found = forced | (touched if model is Model.INCLUDE else matched ^ touched)
    return found


def _solve_fpt(
    adj: tuple[int, ...], active: int, model: Model, stats: SolveStats, cap: int | None
) -> _Pins:
    """The first feasible candidate of the active subgraph's stream.

    The mixed model is answered in the exclude model.
    """
    table = list(_branch_leaves(_Component(adj, active, stats, cap), stats))
    for cand in _candidate_stream(adj, active, model, table, stats):
        stats.uvc_calls += 1
        if stats.uvc_calls & 1023 == 0:
            _check_deadline(stats)
        cover = _decide(table, model, cand)
        if cover is not None:
            return (cand, 0, cover) if model is Model.INCLUDE else (0, cand, cover)
    raise AssertionError("candidate stream missed every feasible pre-assignment")


def solve_fpt_include(
    g: Graph,
    *,
    vertex_limit: int | None = None,
    deadline: float | None = None,
) -> PauResult:
    """Minimum include-model pre-assignment, parameterized by tau.

    :func:`solve`'s fixed-parameter route, one connected component at a
    time, with vertex_limit capping each component.  The module docstring
    derives its candidates: selections plus subsets of a leaf's forced set.
    """
    return solve(g, Model.INCLUDE, "fpt", vertex_limit=vertex_limit, deadline=deadline)


def solve_fpt_exclude(
    g: Graph,
    *,
    vertex_limit: int | None = None,
    deadline: float | None = None,
) -> PauResult:
    """Minimum exclude-model pre-assignment, parameterized by tau.

    :func:`solve`'s fixed-parameter route, one connected component at a
    time, with vertex_limit capping each component.  The module docstring
    derives its candidates: selections plus vertices outside a leaf, one
    per neighbourhood in its forced set.
    """
    return solve(g, Model.EXCLUDE, "fpt", vertex_limit=vertex_limit, deadline=deadline)


# ---------------------------------------------------------------------------
# Conversions between models.


def include_to_exclude(g: Graph, inc: VertexSet, ustar: VertexSet) -> VertexSet:
    """Turn a feasible include set into an exclude set of at most its size.

    ustar must be the minimum cover the include set pins down.  Each
    included vertex is traded for its lowest neighbor outside the cover;
    distinct vertices may share the replacement, so the result can shrink.
    """
    if inc.n != g.n or ustar.n != g.n:
        raise ValueError("vertex set universe does not match graph")
    if not inc <= ustar:
        raise ValueError("include set must be contained in the target cover")
    out = 0
    for v in _bits(inc.mask):
        options = g.neighbors_mask(v) & ~ustar.mask
        if not options:
            raise ValueError(
                f"vertex {v} has no neighbor outside the cover; "
                "the cover is not minimum"
            )
        out |= options & -options
    return VertexSet.from_mask(g.n, out)


def mixed_to_exclude(g: Graph, pa: PreAssignment, ustar: VertexSet) -> VertexSet:
    """Fold the include half of a mixed pre-assignment into its exclude half."""
    if pa.n != g.n:
        raise ValueError("pre-assignment universe does not match graph")
    swapped = include_to_exclude(g, pa.include, ustar)
    return pa.exclude | swapped


# ---------------------------------------------------------------------------
# The dispatcher.


def _solve_tree(rooted: Rooting, model: Model, stats: SolveStats) -> _Pins:
    """The tree pass's optimum on a rooted tree component, checked by the count."""
    _, mask = _tree_pass(rooted, model is Model.INCLUDE, stats)
    pins = (mask, 0) if model is Model.INCLUDE else (0, mask)
    _, count, cover = count_tree_covers(rooted, *pins, stats)
    if count != 1:
        raise AssertionError("tree solver produced an infeasible witness")
    return (*pins, cover)


def solve(
    g: Graph,
    model: Model | str,
    algo: str = "auto",
    *,
    vertex_limit: int | None = None,
    enum_vertex_limit: int = DEFAULT_ENUM_VERTEX_LIMIT,
    deadline: float | None = None,
) -> PauResult:
    """Solve one instance with the chosen strategy.

    One walk (``graph._components``) splits g into connected components
    and roots the trees.  Each component is solved in place, on g's own
    neighbour masks with the component as the active set, and the answers
    are united: sizes add, witnesses and covers merge, and the counters of
    one ``SolveStats`` add up.  algo "auto" routes tree components to the
    tree solver and every other component to the fixed-parameter solver
    for the model; "enum", "fpt", and "tree" force a strategy, and "tree"
    refuses a component that is not a tree, naming its lowest vertex.
    Mixed-model instances take the exclude model on those two routes and
    are reported with an empty include set.  vertex_limit caps each
    component on the fixed-parameter route and enum_vertex_limit on the
    enumeration; the linear tree route has no cap.
    """
    model = Model(model)
    if algo not in ("auto", "enum", "fpt", "tree"):
        raise ValueError(f"unknown algo {algo!r}")
    vertex_limit = general_vertex_limit(vertex_limit)
    started = time.perf_counter()
    stats = SolveStats(deadline)
    inc = exc = cover = 0
    for comp, rooted in _components(g.adj):
        if algo == "enum":
            pins = _solve_enum(g.adj, comp, model, stats, enum_vertex_limit)
        elif rooted and algo != "fpt":
            pins = _solve_tree(rooted, model, stats)
        elif algo == "tree":
            lowest = (comp & -comp).bit_length() - 1
            raise ValueError(f"component of vertex {lowest} is not a tree")
        else:
            pins = _solve_fpt(g.adj, comp, model, stats, vertex_limit)
        inc |= pins[0]
        exc |= pins[1]
        cover |= pins[2]
    return _result(g, model, (inc, exc, cover), stats, started)
