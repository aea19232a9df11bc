"""Instance translators between cover problems and neighboring problems.

One direction turns a 1-in-3 satisfiability instance into a graph whose
minimum vertex covers of size 3n + 2m correspond bijectively to the 1-in-3
assignments: each variable gets a five-vertex house gadget (two literal
vertices, their two primed companions, and a hub tied to a global root),
and each clause gets a triangle wired to its literal vertices plus a
triangle on the complementary literals.  The other direction equips a
graph with one pendant per vertex, which links minimum independent
dominating sets of the original graph to minimum pre-assignments of the
pendant graph.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .errors import ParseError
from .graph import (
    Graph, VertexSet, classify, is_independent_dominating_set, is_vertex_cover
)
from .limits import DEFAULT_BRUTE_LIMIT, check_vertex_limit

__all__ = [
    "Cnf1in3",
    "parse_dimacs_cnf",
    "GcLabeling",
    "build_gc",
    "assignment_to_cover",
    "cover_to_assignment",
    "verify_cover_structure",
    "enumerate_1in3",
    "build_bipartite_gadget",
    "min_independent_dominating_set",
]


@dataclass(frozen=True)
class Cnf1in3:
    """A CNF formula with exactly three literals per clause.

    Literals are signed 1-based variable numbers, DIMACS style.  A clause
    may not repeat a literal: the clause translator would degenerate.
    """

    num_vars: int
    clauses: tuple[tuple[int, int, int], ...]

    def __post_init__(self) -> None:
        if self.num_vars < 0:
            raise ValueError("negative variable count")
        for clause in self.clauses:
            if len(clause) != 3:
                raise ValueError(f"clause {clause} does not have three literals")
            for lit in clause:
                if not isinstance(lit, int) or lit == 0:
                    raise ValueError(f"bad literal {lit!r}")
                if not 1 <= abs(lit) <= self.num_vars:
                    raise ValueError(f"literal {lit} out of range")
            if len(set(clause)) != 3:
                raise ValueError(f"clause {clause} repeats a literal")

    @property
    def num_clauses(self) -> int:
        return len(self.clauses)


def parse_dimacs_cnf(text: str | bytes) -> Cnf1in3:
    """Parse DIMACS CNF with exactly three literals per clause."""
    if isinstance(text, bytes):
        text = text.decode("ascii", errors="replace")
    num_vars: int | None = None
    declared = 0
    clauses: list[tuple[int, int, int]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        if line.startswith("p"):
            if num_vars is not None:
                raise ParseError(f"line {lineno}: duplicate problem line")
            fields = line.split()
            if len(fields) != 4 or fields[1] != "cnf":
                raise ParseError(f"line {lineno}: malformed problem line {line!r}")
            try:
                num_vars, declared = int(fields[2]), int(fields[3])
            except ValueError:
                raise ParseError(f"line {lineno}: non-integer problem line") from None
            continue
        if num_vars is None:
            raise ParseError(f"line {lineno}: clause before problem line")
        try:
            lits = [int(f) for f in line.split()]
        except ValueError:
            raise ParseError(f"line {lineno}: non-integer literal") from None
        if not lits or lits[-1] != 0:
            raise ParseError(f"line {lineno}: clause does not end with 0")
        lits = lits[:-1]
        if len(lits) != 3:
            raise ParseError(f"line {lineno}: expected three literals, got {len(lits)}")
        clauses.append((lits[0], lits[1], lits[2]))
    if num_vars is None:
        raise ParseError("missing problem line")
    if len(clauses) != declared:
        raise ParseError(f"declared {declared} clauses but found {len(clauses)}")
    try:
        return Cnf1in3(num_vars, tuple(clauses))
    except ValueError as exc:
        raise ParseError(str(exc)) from None


@dataclass(frozen=True)
class GcLabeling:
    """Vertex ids of the clause-to-cover translation, keyed by meaning.

    literal and primed map signed literals to the literal vertex and its
    primed companion; hub maps each variable to its gadget hub; root is
    the global root; triangles lists the three clause vertices per clause
    in literal order.
    """

    literal: dict[int, int]
    primed: dict[int, int]
    hub: dict[int, int]
    root: int
    triangles: tuple[tuple[int, int, int], ...]

    def to_json_dict(self) -> dict:
        return {
            "r": self.root,
            "v": {str(k): v for k, v in sorted(self.literal.items())},
            "vp": {str(k): v for k, v in sorted(self.primed.items())},
            "u": {str(k): v for k, v in sorted(self.hub.items())},
            "clause": [list(t) for t in self.triangles],
        }


def _labeling(cnf: Cnf1in3) -> GcLabeling:
    literal: dict[int, int] = {}
    primed: dict[int, int] = {}
    hub: dict[int, int] = {}
    for i in range(cnf.num_vars):
        x = i + 1
        literal[x] = 5 * i
        literal[-x] = 5 * i + 1
        primed[x] = 5 * i + 2
        primed[-x] = 5 * i + 3
        hub[x] = 5 * i + 4
    root = 5 * cnf.num_vars
    triangles = tuple(
        (root + 1 + 3 * i, root + 2 + 3 * i, root + 3 + 3 * i)
        for i in range(cnf.num_clauses)
    )
    return GcLabeling(literal, primed, hub, root, triangles)


def build_gc(cnf: Cnf1in3) -> tuple[Graph, GcLabeling]:
    """Build the graph whose (3n+2m)-covers are the 1-in-3 assignments."""
    lab = _labeling(cnf)
    edges: list[tuple[int, int]] = []
    for i in range(cnf.num_vars):
        x = i + 1
        v, nv = lab.literal[x], lab.literal[-x]
        p, np_ = lab.primed[x], lab.primed[-x]
        h = lab.hub[x]
        edges += [(v, nv), (v, np_), (nv, p)]
        edges += [(p, np_), (p, h), (np_, h), (h, lab.root)]
    for tri, clause in zip(lab.triangles, cnf.clauses):
        a, b, c = tri
        edges += [(a, b), (b, c), (c, a)]
        for t, lit in zip(tri, clause):
            edges.append((t, lab.literal[lit]))
        n1, n2, n3 = (lab.literal[-lit] for lit in clause)
        edges += [(n1, n2), (n2, n3), (n3, n1)]
    n_vertices = 5 * cnf.num_vars + 1 + 3 * cnf.num_clauses
    return Graph(n_vertices, edges), lab


def _is_one_in_three(cnf: Cnf1in3, assignment: tuple[int, ...]) -> bool:
    for clause in cnf.clauses:
        true_count = sum(
            1
            for lit in clause
            if (assignment[abs(lit) - 1] == 1) == (lit > 0)
        )
        if true_count != 1:
            return False
    return True


def assignment_to_cover(cnf: Cnf1in3, assignment: tuple[int, ...] | list[int]) -> VertexSet:
    """Map a 1-in-3 assignment to the corresponding (3n+2m)-cover."""
    assignment = tuple(int(a) for a in assignment)
    if len(assignment) != cnf.num_vars or any(a not in (0, 1) for a in assignment):
        raise ValueError("assignment must give 0 or 1 for every variable")
    if not _is_one_in_three(cnf, assignment):
        raise ValueError("assignment does not satisfy exactly one literal per clause")
    lab = _labeling(cnf)
    members = []
    for i, value in enumerate(assignment):
        x = i + 1
        members.append(lab.hub[x])
        lit = x if value == 1 else -x
        members += [lab.literal[lit], lab.primed[lit]]
    for tri, clause in zip(lab.triangles, cnf.clauses):
        for t, lit in zip(tri, clause):
            lit_true = (assignment[abs(lit) - 1] == 1) == (lit > 0)
            if not lit_true:
                members.append(t)
    n_vertices = 5 * cnf.num_vars + 1 + 3 * cnf.num_clauses
    return VertexSet(n_vertices, members)


def cover_to_assignment(cnf: Cnf1in3, cover: VertexSet) -> tuple[int, ...]:
    """Map a (3n+2m)-cover back to its 1-in-3 assignment.

    Raises ValueError when the set is not a vertex cover of the translated
    graph or has the wrong size.
    """
    g, lab = build_gc(cnf)
    if not is_vertex_cover(g, cover):
        raise ValueError("the given set is not a vertex cover")
    if len(cover) != 3 * cnf.num_vars + 2 * cnf.num_clauses:
        raise ValueError(
            f"cover has size {len(cover)}, expected "
            f"{3 * cnf.num_vars + 2 * cnf.num_clauses}"
        )
    return tuple(
        1 if lab.literal[i + 1] in cover else 0 for i in range(cnf.num_vars)
    )


def verify_cover_structure(
    cnf: Cnf1in3, cover: VertexSet
) -> tuple[bool, int | None]:
    """Check the structure every (3n+2m)-cover must have.

    Returns (True, None) or (False, index) for the first broken condition:
    1 each clause triangle contributes exactly two vertices, 2 the root is
    out and every hub is in, 3 each variable gadget contributes one
    literal vertex with its primed companion, 4 no literal vertex in the
    cover touches a clause vertex in the cover.  Coverhood itself is not
    checked here.
    """
    lab = _labeling(cnf)
    for tri in lab.triangles:
        if sum(1 for t in tri if t in cover) != 2:
            return False, 1
    if lab.root in cover:
        return False, 2
    for i in range(cnf.num_vars):
        if lab.hub[i + 1] not in cover:
            return False, 2
    for i in range(cnf.num_vars):
        x = i + 1
        got = {
            w
            for w in (lab.literal[x], lab.literal[-x], lab.primed[x], lab.primed[-x])
            if w in cover
        }
        if got not in ({lab.literal[x], lab.primed[x]},
                       {lab.literal[-x], lab.primed[-x]}):
            return False, 3
    for tri, clause in zip(lab.triangles, cnf.clauses):
        for t, lit in zip(tri, clause):
            if t in cover and lab.literal[lit] in cover:
                return False, 4
    return True, None


def enumerate_1in3(
    cnf: Cnf1in3, *, var_limit: int = DEFAULT_BRUTE_LIMIT
) -> list[tuple[int, ...]]:
    """All 1-in-3 assignments, in increasing binary order (x1 = low bit)."""
    check_vertex_limit(cnf.num_vars, var_limit)
    n = cnf.num_vars
    total = 1 << n
    hits: list[int] = []
    chunk = 1 << 20
    for start in range(0, total, chunk):
        codes = np.arange(start, min(start + chunk, total), dtype=np.int64)
        good = np.ones(codes.shape, dtype=bool)
        for clause in cnf.clauses:
            true_count = np.zeros(codes.shape, dtype=np.int8)
            for lit in clause:
                bit = (codes >> (abs(lit) - 1)) & 1
                true_count += (bit == 1) if lit > 0 else (bit == 0)
            good &= true_count == 1
        hits.extend(int(c) for c in codes[good])
    return [tuple((code >> i) & 1 for i in range(n)) for code in hits]


def build_bipartite_gadget(g: Graph) -> Graph:
    """Attach one pendant neighbor n + v to every vertex v.

    The result always has cover number |V(g)|, and its minimum
    pre-assignments mirror minimum independent dominating sets of g.  That
    correspondence is meaningful for bipartite inputs, so others trigger a
    warning.
    """
    if g.n and classify(g).parts is None:
        warnings.warn("gadget applied to a non-bipartite graph")
    edges = list(g.edges()) + [(v, g.n + v) for v in range(g.n)]
    return Graph(2 * g.n, edges)


def min_independent_dominating_set(
    g: Graph, *, vertex_limit: int = DEFAULT_BRUTE_LIMIT
) -> VertexSet:
    """Smallest independent dominating set, by exhaustive search.

    Ties break toward the lexicographically smallest vertex list.
    """
    check_vertex_limit(g.n, vertex_limit)
    for k in range(g.n + 1):
        for combo in combinations(range(g.n), k):
            d = VertexSet(g.n, combo)
            if is_independent_dominating_set(g, d):
                return d
    raise AssertionError("every graph has an independent dominating set")
