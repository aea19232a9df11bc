"""Uniqueness of minimum vertex covers and pre-assignment feasibility.

A pre-assignment is feasible when exactly one minimum vertex cover is
consistent with it, which holds iff it holds on every connected component.
A tree component takes a linear count; on any other, a pre-assignment pins
it down iff it minus the forced vertices has a unique minimum cover of the
residual size.  The cover the tau search found gives one when it fits the
pins, else one search finds one.  A cover vertex with exactly one residual
neighbour w outside that cover proves a second one, the cover with the
vertex swapped for w, with no search.  Otherwise every other minimum cover
holds a vertex outside the first, the out-vertices, and the first of them
it holds, w, splits the other covers: such a cover leaves the out-vertices
before w out, so it takes their neighbours, and the rest of it covers what
is left minus w within the budget left.  One bounded search per
out-vertex decides each part, taken in descending residual degree until
the budget runs out, so a unique cover costs one failed search each.  Each
component is searched through its record (``vertex_cover._Component``),
which caps and relabels it.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .graph import Graph, PreAssignment, VertexSet, _components, delete
from .limits import general_vertex_limit
from .tree import count_tree_covers
from .vertex_cover import SolveStats, VcSolution, _bits, _bounded_cover, _Component

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


def _pin_conflict(adj: tuple[int, ...], inc_mask: int, exc_mask: int) -> Reason | None:
    """The reason no cover at all is consistent with the pins, if one shows."""
    if inc_mask & exc_mask:
        return Reason.OVERLAP
    for v in _bits(exc_mask):
        if adj[v] & exc_mask:
            return Reason.EXCLUDE_NOT_INDEPENDENT
    return None


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
    and those neighbours, is a second cover.
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
        bit = 1 << w
        if _bounded_cover(adj, rest & ~bit, budget, stats) is not None:
            return 2, cover | forced
        nb = adj[w] & rest
        rest &= ~(nb | bit)
        budget -= nb.bit_count()
    return 1, cover | forced


_REASON_BY_COUNT = (Reason.NOT_MINIMUM_CONSISTENT, None, Reason.NOT_UNIQUE)


def _check_pre_assignment(
    comp: _Component, inc: int, exc: int, stats: SolveStats
) -> tuple[bool, int | None, Reason | None]:
    """Feasibility of (include, exclude) masks; the rest as in :func:`_consistent`."""
    conflict = _pin_conflict(comp.adj, inc, exc)
    if conflict is not None:
        return False, None, conflict
    count, cover = _consistent(comp, inc, exc, stats)
    return count == 1, cover if count == 1 else None, _REASON_BY_COUNT[count]


def _probe(
    g: Graph, inc: int, exc: int, vertex_limit: int | None, stats: SolveStats | None
) -> tuple[Reason | None, int | None]:
    """Why the pins fail (None when feasible) and a consistent minimum cover.

    A pin conflict is answered with no cover and no search.  Otherwise one
    walk splits g into components; a tree component takes the linear count
    on the walk's rooting, any other the search on its record, which caps
    it.  Counts multiply (capped at 2) and covers unite.
    """
    vertex_limit = general_vertex_limit(vertex_limit)
    st = stats if stats is not None else SolveStats()
    conflict = _pin_conflict(g.adj, inc, exc)
    if conflict is not None:
        return conflict, None
    cover = 0
    count = 1
    for mask, rooted in _components(g.adj):
        if rooted:
            _, ways, part = count_tree_covers(rooted, inc & mask, exc & mask, st)
        else:
            comp = _Component(g.adj, mask, st, vertex_limit)
            pins = comp.to_labels(inc & mask), comp.to_labels(exc & mask)
            ways, part = _consistent(comp, *pins, st)
            part = comp.to_ids(part or 0)
        count = min(2, count * ways)
        cover |= part or 0
    return _REASON_BY_COUNT[count], cover if count else None


def has_unique_min_vc(
    g: Graph,
    *,
    vertex_limit: int | None = None,
    stats: SolveStats | None = None,
) -> tuple[bool, VcSolution]:
    """Whether g has exactly one minimum vertex cover, plus one such cover.

    When the answer is True the returned cover is the unique one.
    vertex_limit caps each connected component that is not a tree.
    """
    reason, mask = _probe(g, 0, 0, vertex_limit, stats)
    return reason is None, VcSolution(mask.bit_count(), VertexSet.from_mask(g.n, mask))


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
    edge), no minimum cover consistent at all, or more than one.
    vertex_limit caps each connected component that is not a tree.
    """
    if pa.n != g.n:
        raise ValueError("pre-assignment universe does not match graph")
    reason, cover = _probe(g, pa.include.mask, pa.exclude.mask, vertex_limit, stats)
    witness = VertexSet.from_mask(g.n, cover) if reason is None else None
    return FeasibilityReport(reason is None, witness, reason)


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
    if pa.n != g.n:
        raise ValueError("pre-assignment universe does not match graph")
    reason, cover = _probe(g, pa.include.mask, pa.exclude.mask, vertex_limit, stats)
    if reason is not None:
        raise ValueError(f"pre-assignment is not feasible ({reason.value})")
    decided = pa.include.mask
    for v in _bits(pa.exclude.mask):
        decided |= g.neighbors_mask(v)
    expected_tau = cover.bit_count() - decided.bit_count()
    removed = VertexSet.from_mask(g.n, decided | pa.exclude.mask)
    reduced, old_to_new = delete(g, removed)
    return reduced, expected_tau, old_to_new
