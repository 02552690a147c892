"""Independent brute-force oracles used to cross-check the package's solvers.

Everything here is deliberately naive: subset recursion, itertools scans, set
arithmetic.  Expected values frozen into the test files were produced by these
functions (or by hand where noted).
"""

from __future__ import annotations

from itertools import combinations, permutations

from twomilton.graphs import HamCycle, UGraph, bits, canonical_key


def oracle_alpha(g: UGraph) -> int:
    """Maximum independent set size by lowest-vertex branch recursion."""
    closed = [g.adj[v] | (1 << v) for v in range(g.n)]
    memo: dict[int, int] = {}

    def rec(mask: int) -> int:
        if mask == 0:
            return 0
        hit = memo.get(mask)
        if hit is not None:
            return hit
        low = mask & -mask
        v = low.bit_length() - 1
        best = max(rec(mask ^ low), 1 + rec(mask & ~closed[v]))
        memo[mask] = best
        return best

    return rec((1 << g.n) - 1)


def oracle_independent_sets(g: UGraph, size: int) -> list[tuple[int, ...]]:
    out = []
    for combo in combinations(range(g.n), size):
        if all(not g.has_edge(u, v) for u, v in combinations(combo, 2)):
            out.append(combo)
    return out


def oracle_max_clique(g: UGraph) -> tuple[int, ...]:
    """The lexicographically first clique of the largest size, sizes from the top."""
    for size in range(g.n, 0, -1):
        for combo in combinations(range(g.n), size):
            if all(g.has_edge(u, v) for u, v in combinations(combo, 2)):
                return combo
    return ()


def oracle_cliques(g: UGraph, vertices, size: int) -> list[tuple[int, ...]]:
    """The size-subsets of vertices that are cliques, in combinations order."""
    return [
        combo for combo in combinations(sorted(vertices), size)
        if all(g.has_edge(u, v) for u, v in combinations(combo, 2))
    ]


def oracle_clique_cover(g: UGraph, blocks: list, size: int) -> bool:
    """True iff blocks partition the vertices into cliques of the given size."""
    seen: set[int] = set()
    for block in blocks:
        if len(block) != size or len(set(block)) != size:
            return False
        if any(v in seen for v in block):
            return False
        if not all(g.has_edge(u, v) for u, v in combinations(block, 2)):
            return False
        seen.update(block)
    return len(seen) == g.n


def oracle_has_clique_cover(g: UGraph, size: int) -> bool:
    """True iff the vertices split into cliques of the given size.

    Set recursion: the least uncovered vertex v goes into a block with each
    (size - 1)-subset of its uncovered neighbours that is a clique in turn.
    """

    def rec(uncovered: frozenset) -> bool:
        if not uncovered:
            return True
        v = min(uncovered)
        near = [u for u in uncovered if g.has_edge(u, v)]
        return any(rec(uncovered - {v, *rest}) for rest in oracle_cliques(g, near, size - 1))

    return g.n % size == 0 and rec(frozenset(range(g.n)))


def oracle_archipelagos(g: UGraph):
    """(vertices, k4s, cyclic, neighborhood) per archipelago, by least vertex,
    or None when two K4s share a vertex.

    Union-find over the K4s, joined by the edges between two different K4s
    (the non-K4 edges between K4 vertices): its classes are the archipelagos,
    and a class is cyclic when one of those edges joins two K4s already in it.
    """
    k4s = oracle_cliques(g, range(g.n), 4)
    owner: dict[int, int] = {}
    for i, q in enumerate(k4s):
        for v in q:
            if v in owner:
                return None
            owner[v] = i
    parent = list(range(len(k4s)))

    def find(i):
        while parent[i] != i:
            i = parent[i]
        return i

    closing = []
    for u, v in combinations(sorted(owner), 2):
        if g.has_edge(u, v) and owner[u] != owner[v]:
            ru, rv = find(owner[u]), find(owner[v])
            if ru == rv:
                closing.append(ru)
            else:
                parent[ru] = rv
    cyclic_roots = {find(r) for r in closing}
    out = []
    for root in sorted({find(i) for i in range(len(k4s))}):
        quads = [q for i, q in enumerate(k4s) if find(i) == root]
        verts = sorted(v for q in quads for v in q)
        nbhd = {u for v in verts for u in range(g.n) if g.has_edge(u, v) and u not in verts}
        out.append((tuple(verts), tuple(quads), root in cyclic_roots, tuple(sorted(nbhd))))
    return sorted(out)


def oracle_induced_p4s(g: UGraph) -> list[tuple[int, int, int, int]]:
    """All induced 3-edge paths a-b-c-d, deduplicated by reversal (a < d)."""
    out = []
    for b in range(g.n):
        for c in bits(g.adj[b]):
            for a in bits(g.adj[b] & ~g.adj[c]):
                if a == c:
                    continue
                for d in bits(g.adj[c] & ~g.adj[b] & ~g.adj[a]):
                    if d in (a, b):
                        continue
                    if a < d:
                        out.append((a, b, c, d))
    return sorted(set(out))


def oracle_psi(g: UGraph) -> int:
    """Max disjoint induced 3-edge paths with degree-2 interiors, by recursion."""
    paths = [
        p for p in oracle_induced_p4s(g)
        if g.adj[p[1]].bit_count() == 2 and g.adj[p[2]].bit_count() == 2
    ]

    def rec(used: int, start: int) -> int:
        best = 0
        for i in range(start, len(paths)):
            m = 0
            for v in paths[i]:
                m |= 1 << v
            if m & used:
                continue
            best = max(best, 1 + rec(used | m, i + 1))
        return best

    return rec(0, 0)


def oracle_all_cycles(n: int) -> set[tuple[int, ...]]:
    """Canonical keys of all Hamiltonian cycles of K_n (use only for n <= 8)."""
    return {
        canonical_key(HamCycle((0,) + rest))
        for rest in permutations(range(1, n))
    }


def oracle_connected(g: UGraph, vertices: set[int] | None = None) -> bool:
    verts = set(range(g.n)) if vertices is None else set(vertices)
    if not verts:
        return True
    seen = {min(verts)}
    stack = [min(verts)]
    while stack:
        v = stack.pop()
        for u in bits(g.adj[v]):
            if u in verts and u not in seen:
                seen.add(u)
                stack.append(u)
    return seen == verts


def oracle_scan_survivors(n: int, k: int) -> list[tuple[int, ...]]:
    """Pinned-scan survivors by a flat loop over every candidate order.

    The orders are (0, p1, p2, *mid, last) with last > p1, taken by p1, then
    p2, then last, then `mid` in the order of `permutations`; an order is kept
    when every (k+1)-subset independent in the standard cycle holds one of
    its edges.
    """
    subsets = [
        s for s in combinations(range(n), k + 1)
        if all((b - a) % n not in (1, n - 1) for a, b in combinations(s, 2))
    ]
    rows = [[0] * n for _ in range(n)]
    for i, s in enumerate(subsets):
        for a, b in combinations(s, 2):
            rows[a][b] |= 1 << i
            rows[b][a] |= 1 << i
    full = (1 << len(subsets)) - 1
    out = []
    for p1 in range(1, n):
        for p2 in range(1, n):
            if p2 == p1:
                continue
            base = rows[0][p1] | rows[p1][p2]
            pool = [v for v in range(1, n) if v != p1 and v != p2]
            if not pool:
                if p1 < p2 and base | rows[p2][0] == full:
                    out.append((0, p1, p2))
                continue
            for last in pool:
                if last < p1:
                    continue
                remaining = [v for v in pool if v != last]
                for mid in permutations(remaining):
                    acc = base | rows[last][0]
                    prev = p2
                    for v in mid:
                        acc |= rows[prev][v]
                        prev = v
                    if acc | rows[prev][last] == full:
                        out.append((0, p1, p2) + mid + (last,))
    return out
