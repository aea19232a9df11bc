"""Slow, independent reference implementations for cross-checking.

Everything here works on plain (n, edges) pairs with sets and itertools,
deliberately sharing no code with the package under test.
"""

from __future__ import annotations

from itertools import combinations


def is_cover(edges, subset) -> bool:
    return all(u in subset or v in subset for u, v in edges)


def brute_min_covers(n, edges) -> list[frozenset]:
    """All minimum vertex covers, exhaustively."""
    for k in range(n + 1):
        found = [
            frozenset(combo)
            for combo in combinations(range(n), k)
            if is_cover(edges, set(combo))
        ]
        if found:
            return found
    return [frozenset()]


def brute_tau(n, edges) -> int:
    return len(brute_min_covers(n, edges)[0])


def consistent(cover, include, exclude) -> bool:
    return include <= cover and not (exclude & cover)


def brute_feasible(min_covers, include, exclude) -> bool:
    """Feasible means exactly one minimum cover respects the pre-assignment."""
    hits = [c for c in min_covers if consistent(c, include, exclude)]
    return len(hits) == 1


def brute_pau_opt(n, edges, model) -> int:
    """Minimum feasible pre-assignment size by exhaustive search."""
    min_covers = brute_min_covers(n, edges)
    vertices = range(n)
    for k in range(n + 1):
        if model == "include":
            for combo in combinations(vertices, k):
                if brute_feasible(min_covers, frozenset(combo), frozenset()):
                    return k
        elif model == "exclude":
            for combo in combinations(vertices, k):
                if brute_feasible(min_covers, frozenset(), frozenset(combo)):
                    return k
        else:
            for combo in combinations(vertices, k):
                pool = frozenset(combo)
                for r in range(k + 1):
                    for inc in combinations(sorted(pool), r):
                        include = frozenset(inc)
                        if brute_feasible(min_covers, include, pool - include):
                            return k
    raise AssertionError("include-everything is always feasible")


def brute_ids(n, edges) -> int:
    """Size of a smallest independent dominating set."""
    adj = {v: set() for v in range(n)}
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    for k in range(n + 1):
        for combo in combinations(range(n), k):
            chosen = set(combo)
            if any(adj[u] & chosen for u in chosen):
                continue
            if all(v in chosen or adj[v] & chosen for v in range(n)):
                return k
    raise AssertionError("a maximal independent set always dominates")


def all_graphs(n):
    """Every labeled graph on n vertices, as (n, edge-tuple) pairs."""
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    for code in range(1 << len(pairs)):
        yield n, tuple(p for i, p in enumerate(pairs) if (code >> i) & 1)


def random_edges(n, p, rng):
    """Edge list of one Erdos-Renyi draw from a python random.Random."""
    return tuple(
        (u, v)
        for u in range(n)
        for v in range(u + 1, n)
        if rng.random() < p
    )
