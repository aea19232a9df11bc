"""Slow, independent reference implementations for cross-checking.

Everything here works on plain (n, edges) pairs with sets, itertools and
bit masks, deliberately sharing no code with the package under test.
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


def subset_tau(n, edges) -> int:
    """tau as n minus the largest independent set, over all 2^n vertex subsets.

    A subset is independent iff it minus its lowest vertex v is and v has
    no neighbour in the rest; much faster than brute_tau on dense graphs.
    """
    nb = [0] * n
    for u, v in edges:
        nb[u] |= 1 << v
        nb[v] |= 1 << u
    independent = bytearray(1 << n)
    independent[0] = 1
    alpha = 0
    for s in range(1, 1 << n):
        rest = s & (s - 1)
        if independent[rest] and not nb[(s ^ rest).bit_length() - 1] & rest:
            independent[s] = 1
            alpha = max(alpha, bin(s).count("1"))
    return n - alpha


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


def random_union(max_n, max_piece, rng):
    """A relabelled disjoint union of random pieces on at most max_n vertices.

    The pieces are random trees, cycles, Erdos-Renyi graphs and isolated
    vertices of at most max_piece vertices each.  Returns (n, edges).
    """
    target = rng.randint(1, max_n)
    n = 0
    edges = []
    while n < target:
        kind = rng.choice(("tree", "cycle", "gnp", "isolated"))
        size = 1 if kind == "isolated" else min(rng.randint(2, max_piece), target - n)
        if kind == "tree":
            piece = [(v, rng.randrange(v)) for v in range(1, size)]
        elif kind == "cycle" and size >= 3:
            piece = [(v, (v + 1) % size) for v in range(size)]
        else:
            piece = random_edges(size, rng.uniform(0.2, 0.7), rng)
        edges += [(u + n, v + n) for u, v in piece]
        n += size
    perm = list(range(n))
    rng.shuffle(perm)
    return n, tuple((perm[u], perm[v]) for u, v in edges)


# ---------------------------------------------------------------------------
# The paper's exponential tree algorithm, kept as a differential oracle for
# the linear-time tree solver.  It works on adjacency bit masks of its own.


def _mask_bits(mask):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _mask_components(adj, mask):
    out = []
    rest = mask
    while rest:
        comp = rest & -rest
        frontier = comp
        while frontier:
            grown = 0
            for v in _mask_bits(frontier):
                grown |= adj[v] & mask
            frontier = grown & ~comp
            comp |= frontier
        out.append(comp)
        rest &= ~comp
    return out


def _subtree_cover(adj, mask):
    """(tau, number of minimum covers capped at 2) of a connected subtree."""
    root = (mask & -mask).bit_length() - 1
    parent = {root: -1}
    order = [root]
    for v in order:
        for w in _mask_bits(adj[v] & mask):
            if w not in parent:
                parent[w] = v
                order.append(w)
    inc = {}  # v -> (size, count) of the best cover of T_v holding v
    exc = {}  # v -> (size, count) of the best cover of T_v avoiding v
    for v in reversed(order):
        isz, icnt = 1, 1
        esz, ecnt = 0, 1
        for w in _mask_bits(adj[v] & mask):
            if w == parent[v]:
                continue
            (ws, wc), (xs, xc) = inc[w], exc[w]
            isz += min(ws, xs)
            if ws == xs:
                icnt = 2
            else:
                icnt = min(2, icnt * (wc if ws < xs else xc))
            esz += ws
            ecnt = min(2, ecnt * wc)
        inc[v] = (isz, icnt)
        exc[v] = (esz, ecnt)
    (isz, icnt), (esz, ecnt) = inc[root], exc[root]
    if isz != esz:
        return min(isz, esz), icnt if isz < esz else ecnt
    return isz, 2


def branching_tree_pau(n, edges, model):
    """(tau, optimum, witness mask) of a tree by branching on first pins.

    A subtree with a unique minimum cover needs no pin.  Otherwise some pin
    v comes first: in the include model the rest must still cover with
    tau - 1 vertices, in the exclude model deleting N[v] must cost exactly
    |N(v)|.  Either splits the tree into independent components, solved
    recursively with a memo on vertex subsets.  O(1.4143^n) by the paper's
    rooted-subtree bound.  Among optimal pin sets the witness has the
    lexicographically smallest sorted vertex list.
    """
    adj = [0] * n
    for u, v in edges:
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    include = model == "include"
    covers = {}
    memo = {}

    def cover(mask):
        if mask not in covers:
            covers[mask] = _subtree_cover(adj, mask)
        return covers[mask]

    def best_for(mask):
        if mask in memo:
            return memo[mask]
        tau, count = cover(mask)
        if count == 1:
            answer = (0, 0)
        elif mask.bit_count() == 2:
            answer = (1, mask & -mask)
        else:
            best = None
            for v in _mask_bits(mask):
                if include:
                    rest = mask & ~(1 << v)
                    need = tau - 1
                else:
                    nv = adj[v] & mask
                    rest = mask & ~(1 << v) & ~nv
                    need = tau - nv.bit_count()
                comps = _mask_components(adj, rest)
                if need < 0 or sum(cover(c)[0] for c in comps) != need:
                    continue
                total, witness = 1, 1 << v
                for c in comps:
                    sub_opt, sub_witness = best_for(c)
                    total += sub_opt
                    witness |= sub_witness
                entry = (total, tuple(_mask_bits(witness)), witness)
                if best is None or entry[:2] < best[:2]:
                    best = entry
            answer = (best[0], best[2])
        memo[mask] = answer
        return answer

    full = (1 << n) - 1
    opt, witness = best_for(full)
    return cover(full)[0], opt, witness


def _ahu_code(adj, mask, root):
    """Canonical form of the rooted tree induced on mask."""
    parent = {root: -1}
    order = [root]
    for v in order:
        for w in _mask_bits(adj[v] & mask):
            if w not in parent:
                parent[w] = v
                order.append(w)
    code = {}
    for v in reversed(order):
        children = sorted(
            code[w] for w in _mask_bits(adj[v] & mask) if w != parent[v]
        )
        code[v] = "(" + "".join(children) + ")"
    return code[root]


def count_rooted_i_subtrees(n, edges, root):
    """Count induced-subtree shapes reachable by trimming around the root.

    Starting from the whole tree, any internal vertex other than the root
    may be deleted, keeping the component that still contains the root.
    Counted up to rooted isomorphism, this is exactly the number of
    distinct subproblem shapes the paper's branching tree algorithm can
    meet below the root; its bound of 2^(n/2) gives that algorithm's
    O(1.4143^n) running time.
    """
    adj = [0] * n
    for u, v in edges:
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    full = (1 << n) - 1
    if n == 0 or len(edges) != n - 1 or len(_mask_components(adj, full)) != 1:
        raise ValueError("input graph is not a connected tree")
    if not 0 <= root < n:
        raise ValueError(f"root {root} out of range")
    seen = {full}
    stack = [full]
    codes = set()
    while stack:
        mask = stack.pop()
        codes.add(_ahu_code(adj, mask, root))
        for v in _mask_bits(mask & ~(1 << root)):
            if (adj[v] & mask).bit_count() >= 2:
                rest = mask & ~(1 << v)
                comp = next(
                    c for c in _mask_components(adj, rest) if c >> root & 1
                )
                if comp not in seen:
                    seen.add(comp)
                    stack.append(comp)
    return len(codes)


# ---------------------------------------------------------------------------
# The take-v / take-N(v) leaf listing by plain pruning: every node is
# expanded unless a greedy clique bound rules it out, and the leaves that
# miss tau are filtered out afterwards.  The package's walk instead searches
# each branch it does not take, so equal lists, order included, check it.


def _greedy_clique_count(adj, active):
    """Cliques of the greedy partition grown from the lowest free vertex."""
    count = 0
    free = active
    while free:
        clique = free & -free
        common = adj[clique.bit_length() - 1] & free
        while common:
            low = common & -common
            clique |= low
            common &= adj[low.bit_length() - 1]
        free &= ~clique
        count += 1
    return count


def pruned_branch_leaves(n, edges, tau):
    """(forced mask, isolated edges) leaves of the branching tree, in walk order.

    ``tau`` is the graph's cover number, which the caller supplies.  The
    walk is depth-first on a lowest-id maximum-degree vertex v of degree
    >= 2, the take-v branch first, until only isolated edges remain; it
    prunes a node whose forced set plus the greedy clique bound exceeds
    tau, and keeps a leaf only when its forced set plus one endpoint per
    edge reaches tau.
    """
    adj = [0] * n
    for u, v in edges:
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    leaves = []
    stack = [((1 << n) - 1, 0)]
    while stack:
        active, forced = stack.pop()
        best_v, best_d = -1, 0
        for v in _mask_bits(active):
            d = (adj[v] & active).bit_count()
            if d > best_d:
                best_v, best_d = v, d
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
                leaves.append((forced, tuple(pairs)))
            continue
        lb = active.bit_count() - _greedy_clique_count(adj, active)
        if forced.bit_count() + lb > tau:
            continue
        bit = 1 << best_v
        nb = adj[best_v] & active
        stack.append((active & ~(nb | bit), forced | nb))
        stack.append((active ^ bit, forced | bit))
    return leaves


# ---------------------------------------------------------------------------
# The package's bounded cover search as it was before it filtered the
# children of each branching frame by unit propagation over the clique
# partition.  The filter may only drop children that hold no cover within
# budget, so both return the same first cover, or None; only the nodes they
# visit differ.  Its body is the old search, unchanged, with the table of
# refuted subproblems the package's search has since dropped: the table only
# skips subtrees that hold no cover within budget.

_REFUTED_CAP = 1 << 18


def _node(stats):
    stats.nodes_explored += 1


def unfiltered_bounded_cover(
    adj: tuple[int, ...],
    active: int,
    k: int,
    stats,
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


# ---------------------------------------------------------------------------
# The package's lexicographic cover walk as it was before it swapped a
# vertex into the cover it holds: one bounded search per vertex outside that
# cover, here the unfiltered search above.  The lexicographically smallest
# minimum cover is unique, so both walks return it.  Its body is the old
# walk, unchanged but for its name, the search it calls and the table of
# refuted subproblems that search shares, which the walk makes itself.


def unswapped_lex_min_cover(comp, stats) -> int:
    """The lexicographically smallest minimum cover of a component, by id, in labels.

    Walks the labels in ascending id order, keeping v whenever some
    minimum cover extends the decisions so far with v included.  The
    cover held, at first the component's minimum cover, is kept agreeing
    with the decisions, so a vertex in it is kept with no search; any
    other takes one bounded search, and the minimum cover it finds, if
    any, becomes the cover held.
    """
    adj, cover = comp.adj, comp.least
    tau = cover.bit_count()
    refuted: dict[int, int] = {}
    out_nb = decided = 0  # neighbours of the vertices decided out; all decided
    for v in comp.order:
        decided |= 1 << v
        if cover >> v & 1:
            continue
        forced = (cover & decided) | (1 << v) | out_nb
        rest = comp.full & ~decided & ~forced
        found = unfiltered_bounded_cover(
            adj, rest, tau - forced.bit_count(), stats, refuted
        )
        if found is None:
            out_nb |= adj[v]
        else:
            cover = found | forced
    return cover


# ---------------------------------------------------------------------------
# The package's component walk as it was before it took the rest of a
# component by layers once it met a cycle: it walks every component vertex
# by vertex, in breadth-first order.  Both yield the same (mask, rooting)
# pairs.  Its body is the old walk, unchanged but for its name and the bit
# iterator of this module.


def vertex_walk_components(adj):
    """Connected components as (mask, rooting), lowest vertex first.

    One breadth-first walk per component, from its lowest vertex, taking
    each vertex's new neighbours in ascending order.  The rooting is that
    walk's (order, parent), parent[i] being the position of order[i]'s
    parent (-1 at the root), when the component is a tree, else None: in a
    tree the walk meets no reached neighbour but the parent.
    """
    rest = (1 << len(adj)) - 1
    while rest:
        comp = rest & -rest
        order, parent, tree = [comp.bit_length() - 1], [-1], True
        for i, v in enumerate(order):
            nb = adj[v]
            known = nb & comp
            tree = tree and known.bit_count() < 2
            fresh = nb ^ known
            if fresh:
                comp |= fresh
                parent += [i] * fresh.bit_count()
                order += _mask_bits(fresh)
        rest ^= comp
        yield comp, (order, parent) if tree else None
