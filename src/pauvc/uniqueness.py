"""Uniqueness of minimum vertex covers and pre-assignment feasibility.

A pre-assignment is feasible when exactly one minimum vertex cover is
consistent with it.  Both checks reduce to bounded cover searches.  A
pre-assignment pins the instance down iff the graph minus the forced
vertices has a unique minimum cover of the matching residual size.  A known
minimum cover C is unique iff no search off C's path finds another: walk
the take-v / take-N(v) branching tree along the branches C takes, and at
each step search the other branch once for a cover that still reaches tau.
Every other minimum cover leaves C's path at some first step and lives in
that step's other branch, so one search per step decides uniqueness, and
each search runs on the residual graph of the path so far.  The tau search,
the residual search and the uniqueness walk of one call share one table of
refuted subproblems.  On a connected tree a linear count decides instead.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .graph import Graph, PreAssignment, VertexSet, _components, delete
from .limits import check_vertex_limit
from .tree import count_tree_covers
from .vertex_cover import (
    SolveStats,
    VcSolution,
    _bits,
    _bounded_cover,
    _min_cover,
    _pick,
)

__all__ = [
    "Reason",
    "FeasibilityReport",
    "has_unique_min_vc",
    "is_feasible",
    "reduce_instance",
]


class Reason(str, Enum):
    """Why a pre-assignment fails to be feasible."""

    NOT_UNIQUE = "NotUnique"
    NOT_MINIMUM_CONSISTENT = "NotMinimumConsistent"
    EXCLUDE_NOT_INDEPENDENT = "ExcludeNotIndependent"
    OVERLAP = "Overlap"


@dataclass(frozen=True)
class FeasibilityReport:
    """Outcome of a feasibility check.

    witness is the unique consistent minimum cover when feasible, else None;
    reason explains the failure when infeasible.
    """

    feasible: bool
    witness: VertexSet | None
    reason: Reason | None


def _unique_min_cover(
    adj: tuple[int, ...],
    active: int,
    tau: int,
    cover: int,
    stats: SolveStats,
    refuted: dict[int, int],
) -> bool:
    """True iff the given minimum cover of the active subgraph is unique.

    Walks the cover down one path of the take-v / take-N(v) branching tree,
    always on a lowest-id maximum-degree vertex v: the path follows the
    cover's branch, and the other branch gets one bounded search for a
    cover that still reaches tau.  A hit is a second minimum cover, since
    it disagrees with the given one on v.  Conversely, every other minimum
    cover disagrees with the given one on the first path vertex where their
    branches part, so that step's search finds one.  None follows the whole
    path: the vertices the path takes form a cover inside the given one,
    hence all of it, and a minimum cover containing them is the given one.
    """
    k = tau
    while True:
        best_v, _ = _pick(adj, active)
        if best_v < 0:
            return True
        bit = 1 << best_v
        nb = adj[best_v] & active
        taken = (active ^ bit, k - 1)
        skipped = (active & ~(nb | bit), k - nb.bit_count())
        (active, k), other = (taken, skipped) if cover & bit else (skipped, taken)
        if _bounded_cover(adj, *other, stats, refuted) is not None:
            return False


def _pin_conflict(adj: tuple[int, ...], inc_mask: int, exc_mask: int) -> Reason | None:
    """The reason no cover at all is consistent with the pins, if one shows."""
    if inc_mask & exc_mask:
        return Reason.OVERLAP
    for v in _bits(exc_mask):
        if adj[v] & exc_mask:
            return Reason.EXCLUDE_NOT_INDEPENDENT
    return None


def _check_pre_assignment(
    adj: tuple[int, ...],
    universe: int,
    tau: int,
    inc_mask: int,
    exc_mask: int,
    stats: SolveStats,
    refuted: dict[int, int],
) -> tuple[bool, int | None, Reason | None]:
    """Feasibility of (include, exclude) masks given tau of the universe mask."""
    stats.uvc_calls += 1
    conflict = _pin_conflict(adj, inc_mask, exc_mask)
    if conflict is not None:
        return False, None, conflict
    neighborhood = 0
    for v in _bits(exc_mask):
        neighborhood |= adj[v]
    forced = inc_mask | neighborhood
    target = tau - forced.bit_count()
    if target < 0:
        return False, None, Reason.NOT_MINIMUM_CONSISTENT
    active = universe & ~forced & ~exc_mask
    cover = _bounded_cover(adj, active, target, stats, refuted)
    if cover is None:
        return False, None, Reason.NOT_MINIMUM_CONSISTENT
    if not _unique_min_cover(adj, active, target, cover, stats, refuted):
        return False, None, Reason.NOT_UNIQUE
    return True, cover | forced, None


def has_unique_min_vc(
    g: Graph,
    *,
    vertex_limit: int | None = None,
    stats: SolveStats | None = None,
) -> tuple[bool, VcSolution]:
    """Whether g has exactly one minimum vertex cover, plus one such cover.

    When the answer is True the returned cover is the unique one.  A tree
    component takes the linear count, any other the cover search and the
    uniqueness walk; the vertex cap applies only if some component does.
    """
    st = stats if stats is not None else SolveStats()
    refuted: dict[int, int] = {}
    unique = True
    tau = cover = 0
    for comp in _components(g.adj, g.full_mask):
        if comp & (comp - 1) == 0:
            continue  # an isolated vertex
        counted = count_tree_covers(g.adj, comp, 0, 0, st)
        if counted is not None:
            part_tau, count, part = counted
            unique = unique and count == 1
        else:
            check_vertex_limit(g.n, vertex_limit)
            found = _min_cover(g.adj, comp, st, refuted)
            assert found is not None
            part_tau, part = found
            unique = unique and _unique_min_cover(
                g.adj, comp, part_tau, part, st, refuted
            )
        tau += part_tau
        cover |= part
    return unique, VcSolution(tau, VertexSet.from_mask(g.n, cover))


def _probe(
    g: Graph,
    pa: PreAssignment,
    vertex_limit: int | None,
    stats: SolveStats | None,
) -> tuple[int, bool, int | None, Reason | None]:
    """tau(g), then the feasibility verdict, witness and reason of pa."""
    if pa.n != g.n:
        raise ValueError("pre-assignment universe does not match graph")
    st = stats if stats is not None else SolveStats()
    inc, exc = pa.include.mask, pa.exclude.mask
    counted = count_tree_covers(g.adj, g.full_mask, inc, exc, st)
    if counted is not None:
        tau, count, witness = counted
        reason = _pin_conflict(g.adj, inc, exc)
        if reason is None and count != 1:
            reason = Reason.NOT_UNIQUE if count else Reason.NOT_MINIMUM_CONSISTENT
        return tau, reason is None, witness if reason is None else None, reason
    check_vertex_limit(g.n, vertex_limit)
    refuted: dict[int, int] = {}
    found = _min_cover(g.adj, g.full_mask, st, refuted)
    assert found is not None
    tau, _ = found
    ok, witness, reason = _check_pre_assignment(
        g.adj, g.full_mask, tau, inc, exc, st, refuted
    )
    return tau, ok, witness, reason


def is_feasible(
    g: Graph,
    pa: PreAssignment,
    *,
    vertex_limit: int | None = None,
    stats: SolveStats | None = None,
) -> FeasibilityReport:
    """Check whether exactly one minimum vertex cover is consistent with pa.

    Consistent means containing every include vertex and avoiding every
    exclude vertex.  Failures carry a reason: overlapping sets, a
    non-independent exclude set (no cover can avoid both endpoints of an
    edge), no minimum cover consistent at all, or more than one.  On a
    connected tree a linear count decides, and no vertex cap applies.
    """
    _, ok, witness, reason = _probe(g, pa, vertex_limit, stats)
    return FeasibilityReport(
        ok, None if witness is None else VertexSet.from_mask(g.n, witness), reason
    )


def reduce_instance(
    g: Graph,
    pa: PreAssignment,
    *,
    vertex_limit: int | None = None,
    stats: SolveStats | None = None,
) -> tuple[Graph, int, dict[int, int]]:
    """Strip a feasible pre-assignment, leaving a unique-cover instance.

    Deletes the include vertices, the exclude vertices, and the neighbors of
    the exclude vertices (all of which are decided), and returns the reduced
    graph, its expected minimum cover size, and the id map old -> new.  The
    reduced graph has a unique minimum cover of exactly that size, which
    makes this the core of the benchmark instance generator.  Raises
    ValueError when pa is not feasible for g.
    """
    tau, ok, _, reason = _probe(g, pa, vertex_limit, stats)
    if not ok:
        raise ValueError(f"pre-assignment is not feasible ({reason.value})")
    neighborhood = 0
    for v in _bits(pa.exclude.mask):
        neighborhood |= g.neighbors_mask(v)
    decided = pa.include.mask | neighborhood
    expected_tau = tau - decided.bit_count()
    removed = VertexSet.from_mask(g.n, decided | pa.exclude.mask)
    reduced, old_to_new = delete(g, removed)
    return reduced, expected_tau, old_to_new
