"""Graph data model, DIMACS parsing, and structural predicates.

Vertices are dense 0-based integers ``0..n-1``.  A :class:`VertexSet` wraps a
bit mask over that range, so union, intersection, difference and complement
run in O(n / machine-word).  A :class:`Graph` stores one neighbor mask per
vertex; both types are immutable after construction and safe to share
between threads.

The module also houses :class:`PreAssignment`, the common currency of the
pre-assignment solvers: a pair of disjoint vertex sets tagged with the model
(include, exclude, or mixed) under which they constrain minimum vertex
covers.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Iterable, Iterator

from .errors import ParseError

__all__ = [
    "VertexSet",
    "Graph",
    "Model",
    "PreAssignment",
    "GraphKind",
    "Classification",
    "parse_dimacs",
    "render_dimacs",
    "is_vertex_cover",
    "is_independent_set",
    "is_independent_dominating_set",
    "delete",
    "classify",
]


def _bits(mask: int) -> Iterator[int]:
    """Yield the set bit positions of mask in ascending order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _json_list(value: object, entry: type) -> list:
    """value if it is a JSON list of entries of exactly type entry (no bool for int)."""
    if type(value) is not list or any(type(v) is not entry for v in value):
        raise ValueError(f"expected a list of {entry.__name__}, got {value!r}")
    return value


_REVERSED_BYTES = bytes(int(f"{b:08b}"[::-1], 2) for b in range(256))


def _list_order(n: int) -> Callable[[int], int]:
    """Sort key putting equal-size masks over n vertices in sorted-list order.

    The lowest vertex in only one of two such sets lies in the smaller list,
    and it is the highest differing bit of their bit-reversed masks.
    """
    size, table = (n + 7) // 8, _REVERSED_BYTES
    return lambda m: -int.from_bytes(m.to_bytes(size, "little").translate(table), "big")


class VertexSet:
    """An immutable subset of the vertices ``{0, ..., n-1}``.

    Supports the usual set algebra through operators (``|``, ``&``, ``-``,
    ``^``) plus :meth:`complement`; comparison operators implement subset
    tests, mirroring built-in sets.  Iteration yields members in ascending
    order.
    """

    __slots__ = ("n", "mask")

    def __init__(self, n: int, members: Iterable[int] = ()) -> None:
        if n < 0:
            raise ValueError("universe size must be >= 0")
        mask = 0
        for v in members:
            if not 0 <= v < n:
                raise ValueError(f"vertex {v} out of range for universe of size {n}")
            mask |= 1 << v
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "mask", mask)

    @classmethod
    def from_mask(cls, n: int, mask: int) -> "VertexSet":
        if mask < 0 or mask >> n:
            raise ValueError(f"mask {mask:#x} out of range for universe of size {n}")
        out = object.__new__(cls)
        object.__setattr__(out, "n", n)
        object.__setattr__(out, "mask", mask)
        return out

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("VertexSet is immutable")

    def _same_universe(self, other: "VertexSet") -> None:
        if self.n != other.n:
            raise ValueError(f"universe mismatch: {self.n} vs {other.n}")

    def members(self) -> tuple[int, ...]:
        return tuple(_bits(self.mask))

    def __iter__(self) -> Iterator[int]:
        return _bits(self.mask)

    def __len__(self) -> int:
        return self.mask.bit_count()

    def __bool__(self) -> bool:
        return self.mask != 0

    def __contains__(self, v: object) -> bool:
        return isinstance(v, int) and 0 <= v < self.n and (self.mask >> v) & 1 == 1

    def __or__(self, other: "VertexSet") -> "VertexSet":
        self._same_universe(other)
        return VertexSet.from_mask(self.n, self.mask | other.mask)

    def __and__(self, other: "VertexSet") -> "VertexSet":
        self._same_universe(other)
        return VertexSet.from_mask(self.n, self.mask & other.mask)

    def __sub__(self, other: "VertexSet") -> "VertexSet":
        self._same_universe(other)
        return VertexSet.from_mask(self.n, self.mask & ~other.mask)

    def __xor__(self, other: "VertexSet") -> "VertexSet":
        self._same_universe(other)
        return VertexSet.from_mask(self.n, self.mask ^ other.mask)

    def complement(self) -> "VertexSet":
        return VertexSet.from_mask(self.n, ((1 << self.n) - 1) & ~self.mask)

    def __le__(self, other: "VertexSet") -> bool:
        self._same_universe(other)
        return self.mask & ~other.mask == 0

    def __lt__(self, other: "VertexSet") -> bool:
        return self.__le__(other) and self.mask != other.mask

    def __ge__(self, other: "VertexSet") -> bool:
        return other.__le__(self)

    def __gt__(self, other: "VertexSet") -> bool:
        return other.__lt__(self)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, VertexSet)
            and self.n == other.n
            and self.mask == other.mask
        )

    def __hash__(self) -> int:
        return hash((self.n, self.mask))

    def __repr__(self) -> str:
        return f"VertexSet(n={self.n}, {{{', '.join(map(str, self))}}})"


class Graph:
    """An undirected simple graph on vertices ``0..n-1``.

    Duplicate edges are collapsed silently; self loops are rejected.  The
    adjacency is stored as one bit mask per vertex.
    """

    __slots__ = ("n", "m", "_adj")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]] = ()) -> None:
        if n < 0:
            raise ValueError("vertex count must be >= 0")
        adj = [0] * n
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u}, {v}) out of range for {n} vertices")
            if u == v:
                raise ValueError(f"self loop at vertex {u}")
            adj[u] |= 1 << v
            adj[v] |= 1 << u
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "_adj", tuple(adj))
        object.__setattr__(self, "m", sum(a.bit_count() for a in adj) // 2)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("Graph is immutable")

    @property
    def adj(self) -> tuple[int, ...]:
        """Neighbor masks, one per vertex."""
        return self._adj

    @property
    def full_mask(self) -> int:
        return (1 << self.n) - 1

    def vertices(self) -> range:
        return range(self.n)

    def neighbors_mask(self, v: int) -> int:
        return self._adj[v]

    def neighbors(self, v: int) -> VertexSet:
        return VertexSet.from_mask(self.n, self._adj[v])

    def degree(self, v: int) -> int:
        return self._adj[v].bit_count()

    def has_edge(self, u: int, v: int) -> bool:
        return (self._adj[u] >> v) & 1 == 1

    def edges(self) -> list[tuple[int, int]]:
        """All edges as (u, v) pairs with u < v, sorted."""
        out = []
        for u in range(self.n):
            for v in _bits(self._adj[u] >> (u + 1)):
                out.append((u, u + 1 + v))
        return out

    def vertex_set(self, members: Iterable[int] = ()) -> VertexSet:
        return VertexSet(self.n, members)

    def to_json_dict(self) -> dict:
        return {"n": self.n, "edges": [[u, v] for u, v in self.edges()]}

    @classmethod
    def from_json_dict(cls, data: dict) -> "Graph":
        try:
            n = data["n"]
            edges = [_json_list(e, int) for e in _json_list(data["edges"], list)]
        except (KeyError, TypeError, ValueError) as exc:
            raise ParseError(f"malformed graph JSON: {exc}") from exc
        if type(n) is not int:
            raise ParseError("malformed graph JSON: n must be an integer")
        try:
            return cls(n, edges)
        except ValueError as exc:
            raise ParseError(f"malformed graph JSON: {exc}") from exc

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Graph)
            and self.n == other.n
            and self._adj == other._adj
        )

    def __hash__(self) -> int:
        return hash((self.n, self._adj))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.m})"


def parse_dimacs(text: str | bytes) -> Graph:
    """Parse a DIMACS edge-format graph.

    Accepts ``c`` comment lines, exactly one ``p edge <n> <m>`` line, and
    ``e <u> <v>`` lines with 1-indexed endpoints.  Duplicate edges are
    collapsed (a warning reports how many); the declared edge count must
    match the number of distinct edges.
    """
    if isinstance(text, bytes):
        text = text.decode("ascii", errors="replace")
    n = -1
    declared_m = -1
    edges: set[tuple[int, int]] = set()
    duplicates = 0
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        tokens = line.split()
        if tokens[0] == "p":
            if n >= 0:
                raise ParseError(f"line {lineno}: duplicate problem line")
            if len(tokens) != 4 or tokens[1] != "edge":
                raise ParseError(f"line {lineno}: expected 'p edge <n> <m>'")
            try:
                n, declared_m = int(tokens[2]), int(tokens[3])
            except ValueError:
                raise ParseError(f"line {lineno}: non-integer problem line") from None
            if n < 0 or declared_m < 0:
                raise ParseError(f"line {lineno}: negative counts")
        elif tokens[0] == "e":
            if n < 0:
                raise ParseError(f"line {lineno}: edge before problem line")
            if len(tokens) != 3:
                raise ParseError(f"line {lineno}: expected 'e <u> <v>'")
            try:
                u, v = int(tokens[1]), int(tokens[2])
            except ValueError:
                raise ParseError(f"line {lineno}: non-integer endpoint") from None
            if not (1 <= u <= n and 1 <= v <= n):
                raise ParseError(f"line {lineno}: endpoint out of range 1..{n}")
            if u == v:
                raise ParseError(f"line {lineno}: self loop at {u}")
            edge = (min(u, v) - 1, max(u, v) - 1)
            if edge in edges:
                duplicates += 1
            else:
                edges.add(edge)
        else:
            raise ParseError(f"line {lineno}: unknown line type {tokens[0]!r}")
    if n < 0:
        raise ParseError("missing problem line")
    if duplicates:
        warnings.warn(f"collapsed {duplicates} duplicate DIMACS edge(s)", stacklevel=2)
    if len(edges) != declared_m:
        raise ParseError(
            f"problem line declares {declared_m} edges, found {len(edges)} distinct"
        )
    return Graph(n, sorted(edges))


def render_dimacs(g: Graph) -> str:
    """Render a graph in DIMACS edge format (1-indexed, sorted edges)."""
    lines = [f"p edge {g.n} {g.m}"]
    lines.extend(f"e {u + 1} {v + 1}" for u, v in g.edges())
    return "\n".join(lines) + "\n"


def is_vertex_cover(g: Graph, c: VertexSet) -> bool:
    """True iff every edge of g has at least one endpoint in c."""
    if c.n != g.n:
        raise ValueError("vertex set universe does not match graph")
    outside = g.full_mask & ~c.mask
    for v in _bits(outside):
        if g.neighbors_mask(v) & outside:
            return False
    return True


def is_independent_set(g: Graph, s: VertexSet) -> bool:
    """True iff no edge of g has both endpoints in s."""
    if s.n != g.n:
        raise ValueError("vertex set universe does not match graph")
    for v in _bits(s.mask):
        if g.neighbors_mask(v) & s.mask:
            return False
    return True


def is_independent_dominating_set(g: Graph, d: VertexSet) -> bool:
    """True iff d is independent and every vertex is in d or adjacent to it."""
    if not is_independent_set(g, d):
        return False
    dominated = d.mask
    for v in _bits(d.mask):
        dominated |= g.neighbors_mask(v)
    return dominated == g.full_mask


def delete(g: Graph, x: VertexSet) -> tuple[Graph, dict[int, int]]:
    """Remove the vertices in x and their incident edges.

    Returns the reduced graph together with the id map old -> new for the
    surviving vertices (invert it to translate back).
    """
    if x.n != g.n:
        raise ValueError("vertex set universe does not match graph")
    keep = [v for v in range(g.n) if v not in x]
    old_to_new = {v: i for i, v in enumerate(keep)}
    edges = [
        (old_to_new[u], old_to_new[v])
        for u, v in g.edges()
        if u in old_to_new and v in old_to_new
    ]
    return Graph(len(keep), edges), old_to_new


class GraphKind(str, Enum):
    TREE = "tree"
    FOREST = "forest"
    BIPARTITE = "bipartite"
    GENERAL = "general"


@dataclass(frozen=True)
class Classification:
    """Structural summary of a graph.

    parts is a 2-coloring when one exists (always for trees and forests),
    else None.  Components are listed by their smallest vertex.
    """

    kind: GraphKind
    components: tuple[VertexSet, ...]
    parts: tuple[VertexSet, VertexSet] | None


Rooting = tuple[list[int], list[int]]


def _components(adj: tuple[int, ...]) -> Iterator[tuple[int, Rooting | None]]:
    """Connected components as (mask, rooting), lowest vertex first.

    One breadth-first walk per component, from its lowest vertex, taking
    each vertex's new neighbours in ascending order.  The rooting is that
    walk's (order, parent), parent[i] being the position of order[i]'s
    parent (-1 at the root), when the component is a tree, else None: in a
    tree the walk meets no reached neighbour but the parent.  Once it meets
    another, the rest of the component is taken by layers, with no order,
    until a layer adds nothing or every vertex left is reached.
    """
    rest = (1 << len(adj)) - 1
    while rest:
        comp = rest & -rest
        order, parent = [comp.bit_length() - 1], [-1]
        for i, v in enumerate(order):
            known = adj[v] & comp
            if known & (known - 1):
                layer = sum(1 << u for u in order[i:])
                while layer:
                    reach = comp
                    for u in _bits(layer):
                        reach |= adj[u]
                        if reach == rest:
                            break  # every vertex left is reached
                    layer = reach & ~comp
                    comp = reach
                rooted = None
                break
            fresh = adj[v] ^ known
            if fresh:
                comp |= fresh
                while fresh:
                    low = fresh & -fresh
                    order.append(low.bit_length() - 1)
                    parent.append(i)
                    fresh ^= low
        else:
            rooted = (order, parent)
        rest ^= comp
        yield comp, rooted


def classify(g: Graph) -> Classification:
    """Classify g as a tree, forest, bipartite graph, or general graph.

    The 2-coloring puts each component's lowest vertex in parts[0] and
    colors by the parity of the distance from it.
    """
    adj = g.adj
    components: list[VertexSet] = []
    part0 = 0
    bipartite = True
    for comp, _ in _components(adj):
        components.append(VertexSet.from_mask(g.n, comp))
        layer = seen = comp & -comp
        even = True
        while layer:
            if even:
                part0 |= layer
            reach = 0
            for v in _bits(layer):
                bipartite = bipartite and not adj[v] & layer
                reach |= adj[v]
            layer = reach & ~seen
            seen |= layer
            even = not even
    if g.m == g.n - len(components):  # every component is a tree
        kind = GraphKind.TREE if len(components) == 1 else GraphKind.FOREST
    elif bipartite:
        kind = GraphKind.BIPARTITE
    else:
        kind = GraphKind.GENERAL
    parts = None
    if bipartite:
        parts = (
            VertexSet.from_mask(g.n, part0),
            VertexSet.from_mask(g.n, g.full_mask & ~part0),
        )
    return Classification(kind, tuple(components), parts)


class Model(str, Enum):
    """Which side of a minimum vertex cover a pre-assignment constrains."""

    INCLUDE = "include"
    EXCLUDE = "exclude"
    MIXED = "mixed"


@dataclass(frozen=True)
class PreAssignment:
    """A model-tagged pair of disjoint vertex sets.

    Include-model pre-assignments force vertices into every consistent
    minimum vertex cover, exclude-model ones keep them out, and the mixed
    model does both at once.
    """

    model: Model
    include: VertexSet
    exclude: VertexSet

    def __post_init__(self) -> None:
        if self.include.n != self.exclude.n:
            raise ValueError("include and exclude universes differ")
        if self.include.mask & self.exclude.mask:
            raise ValueError("include and exclude sets overlap")
        if self.model is Model.INCLUDE and self.exclude:
            raise ValueError("include-model pre-assignment with exclude set")
        if self.model is Model.EXCLUDE and self.include:
            raise ValueError("exclude-model pre-assignment with include set")

    @property
    def n(self) -> int:
        return self.include.n

    def size(self) -> int:
        return len(self.include) + len(self.exclude)

    @classmethod
    def including(cls, vs: VertexSet) -> "PreAssignment":
        return cls(Model.INCLUDE, vs, VertexSet(vs.n))

    @classmethod
    def excluding(cls, vs: VertexSet) -> "PreAssignment":
        return cls(Model.EXCLUDE, VertexSet(vs.n), vs)

    @classmethod
    def mixed(cls, include: VertexSet, exclude: VertexSet) -> "PreAssignment":
        return cls(Model.MIXED, include, exclude)

    def to_json_dict(self) -> dict:
        return {
            "model": self.model.value,
            "include": list(self.include),
            "exclude": list(self.exclude),
        }

    @classmethod
    def from_json_dict(cls, data: dict, n: int) -> "PreAssignment":
        try:
            model = Model(data["model"])
            include = VertexSet(n, _json_list(data.get("include", []), int))
            exclude = VertexSet(n, _json_list(data.get("exclude", []), int))
        except (KeyError, TypeError, ValueError) as exc:
            raise ParseError(f"malformed pre-assignment JSON: {exc}") from exc
        try:
            return cls(model, include, exclude)
        except ValueError as exc:
            raise ParseError(f"malformed pre-assignment JSON: {exc}") from exc
