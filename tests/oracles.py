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


def oracle_k4s(g: UGraph) -> list[tuple[int, int, int, int]]:
    out = []
    for combo in combinations(range(g.n), 4):
        if all(g.has_edge(u, v) for u, v in combinations(combo, 2)):
            out.append(combo)
    return out


def oracle_triangles(g: UGraph) -> list[tuple[int, int, int]]:
    out = []
    for combo in combinations(range(g.n), 3):
        if all(g.has_edge(u, v) for u, v in combinations(combo, 2)):
            out.append(combo)
    return out


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


def oracle_has_k4_cover(g: UGraph) -> bool:
    k4s = oracle_k4s(g)
    by_vertex: dict[int, list] = {}
    for q in k4s:
        for v in q:
            by_vertex.setdefault(v, []).append(q)

    def rec(uncovered: frozenset) -> bool:
        if not uncovered:
            return True
        v = min(uncovered)
        for q in by_vertex.get(v, []):
            if all(u in uncovered for u in q):
                if rec(uncovered - set(q)):
                    return True
        return False

    return g.n % 4 == 0 and rec(frozenset(range(g.n)))


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
    """Canonical keys of all Hamiltonian cycles of K_n (use only for n <= 7)."""
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
