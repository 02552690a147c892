"""Exact independence-number machinery: solver, certificates, greedy extension,
and the degree-2 contraction that trades one vertex of independence for three
vertices of graph.

The solver is branch and bound over bitmask subproblems: vertices of degree at
most 1 are forced in, connected components solve independently, and branching
picks a maximum-degree vertex.  Subproblem values are memoised per solver.
"""

from __future__ import annotations

from dataclasses import dataclass

from .graphs import UGraph, VerificationError, bits, connected_components, mask_of
from .limits import check_limit


class AlphaSolver:
    """Reusable exact solver for one graph; all queries share a memo table."""

    def __init__(self, g: UGraph):
        self.g = g
        self.n = g.n
        self.adj = g.adj
        self.closed = tuple(g.adj[v] | (1 << v) for v in range(g.n))
        self.full = (1 << g.n) - 1
        self.memo: dict[int, int] = {}

    def _peel(self, P: int) -> tuple[int, int]:
        """Force in vertices of degree <= 1; returns (forced count, rest mask)."""
        adj = self.adj
        size = 0
        changed = True
        while changed and P:
            changed = False
            m = P
            while m:
                low = m & -m
                m ^= low
                if not P & low:
                    continue
                v = low.bit_length() - 1
                d = adj[v] & P
                c = d.bit_count()
                if c == 0:
                    size += 1
                    P ^= low
                    changed = True
                elif c == 1:
                    size += 1
                    P &= ~(d | low)
                    changed = True
        return size, P

    def alpha(self, P: int | None = None) -> int:
        if P is None:
            P = self.full
        if P == 0:
            return 0
        hit = self.memo.get(P)
        if hit is not None:
            return hit
        size, Q = self._peel(P)
        if Q:
            comps = connected_components(self.g, within=Q)
            if len(comps) > 1:
                size += sum(self.alpha(c) for c in comps)
            else:
                adj = self.adj
                v = max(bits(Q), key=lambda u: (adj[u] & Q).bit_count())
                size += max(
                    1 + self.alpha(Q & ~self.closed[v]),
                    self.alpha(Q & ~(1 << v)),
                )
        self.memo[P] = size
        return size

    def at_least(self, k: int, P: int | None = None) -> bool:
        """True iff the induced subgraph on P has an independent set of size k."""
        if P is None:
            P = self.full
        if k <= 0:
            return True
        if P.bit_count() < k:
            return False
        hit = self.memo.get(P)
        if hit is not None:
            return hit >= k
        size, Q = self._peel(P)
        if size >= k:
            return True
        k -= size
        if Q.bit_count() < k:
            return False
        comps = connected_components(self.g, within=Q)
        if len(comps) > 1:
            total = 0
            for comp in sorted(comps, key=int.bit_count, reverse=True):
                total += self.alpha(comp)
                if total >= k:
                    return True
            return False
        v = max(bits(Q), key=lambda u: (self.adj[u] & Q).bit_count())
        if self.at_least(k - 1, Q & ~self.closed[v]):
            return True
        return self.at_least(k, Q & ~(1 << v))

    def lex_min_maximum_set(self) -> tuple[int, ...]:
        """Lexicographically least maximum independent set (as a sorted tuple)."""
        value = self.alpha()
        chosen: list[int] = []
        P = self.full
        remaining = value
        while remaining:
            for v in bits(P):
                if self.alpha(P & ~self.closed[v]) == remaining - 1:
                    chosen.append(v)
                    P &= ~self.closed[v]
                    remaining -= 1
                    break
            else:
                raise AssertionError("no completable vertex; solver inconsistent")
        return tuple(chosen)


@dataclass(frozen=True)
class IndepCertificate:
    """A claimed maximum independent set; verify with verify_certificate."""

    value: int
    vertices: tuple[int, ...]


def verify_independent(g: UGraph, vertices) -> bool:
    """True iff vertices are distinct, in range, and pairwise nonadjacent."""
    vs = list(vertices)
    if len(set(vs)) != len(vs):
        return False
    if any(not 0 <= v < g.n for v in vs):
        return False
    m = mask_of(vs)
    return all(g.adj[v] & m == 0 for v in vs)


def verify_certificate(g: UGraph, cert: IndepCertificate) -> bool:
    return len(cert.vertices) == cert.value and verify_independent(g, cert.vertices)


def alpha_value(g: UGraph) -> int:
    """Exact independence number (no certificate)."""
    check_limit("alpha", g.n, "alpha_value")
    return AlphaSolver(g).alpha()


def alpha_exact(g: UGraph) -> IndepCertificate:
    """Exact independence number with the lexicographically least witness."""
    check_limit("alpha", g.n, "alpha_exact")
    solver = AlphaSolver(g)
    vertices = solver.lex_min_maximum_set()
    cert = IndepCertificate(value=len(vertices), vertices=vertices)
    if not verify_certificate(g, cert):
        raise VerificationError(f"alpha certificate {vertices} is not independent")
    return cert


def has_independent_set(g: UGraph, k: int) -> bool:
    """True iff alpha(g) >= k, with early exit (no full solve on success)."""
    check_limit("alpha", g.n, "has_independent_set")
    return AlphaSolver(g).at_least(k)


def greedy_extend(g: UGraph, seed) -> tuple[int, ...]:
    """Extend an independent set until it dominates (N[I] covers everything).

    Each round adds the least vertex outside N[I] having a neighbour in N[I]
    (falling back to the least uncovered vertex if the remainder is detached).
    In a connected graph of max degree <= 4 every round consumes at most 4
    uncovered vertices, so the result gains at least |V - N[I]| / 4 vertices.
    """
    I = sorted(set(seed))
    if not verify_independent(g, I):
        raise ValueError("seed set is not independent")
    closed = tuple(g.adj[v] | (1 << v) for v in range(g.n))
    covered = 0
    for v in I:
        covered |= closed[v]
    full = (1 << g.n) - 1
    while covered != full:
        uncovered = full & ~covered
        pick = None
        for v in bits(uncovered):
            if g.adj[v] & covered:
                pick = v
                break
        if pick is None:
            pick = (uncovered & -uncovered).bit_length() - 1
        I.append(pick)
        covered |= closed[pick]
    out = tuple(sorted(I))
    if not verify_independent(g, out):
        raise VerificationError(f"greedy extension {out} is not independent")
    return out


@dataclass(frozen=True)
class CsokaReduction:
    """Record of one degree-2 contraction: y removed, x and z merged into one."""

    g_old: UGraph
    y: int
    x: int
    z: int
    merged: int
    old_of_new: tuple[int, ...]


def csoka_reduce(g: UGraph, y: int) -> tuple[UGraph, CsokaReduction]:
    """Contract the path x-y-z (y of degree exactly 2, x,z nonadjacent).

    x, y, z are removed and a fresh vertex (the largest new id) connects to the
    remaining neighbours of x and z.  alpha drops by exactly 1 and any maximum
    independent set of the contraction lifts back (csoka_lift).  Raises
    ValueError when y is not reduction-eligible.
    """
    if not 0 <= y < g.n:
        raise ValueError(f"vertex {y} out of range")
    if g.degree(y) != 2:
        raise ValueError(f"not reduction-eligible: degree of {y} is {g.degree(y)}, need 2")
    x, z = g.neighbors(y)
    if g.has_edge(x, z):
        raise ValueError("not reduction-eligible: the two neighbours are adjacent")
    keep = [v for v in range(g.n) if v not in (x, y, z)]
    new_id = {old: i for i, old in enumerate(keep)}
    merged = len(keep)
    edges = [
        (new_id[u], new_id[v])
        for u, v in g.edges()
        if u in new_id and v in new_id
    ]
    outside = (g.adj[x] | g.adj[z]) & ~mask_of((x, y, z))
    edges.extend((new_id[w], merged) for w in bits(outside))
    reduced = UGraph.from_edges(merged + 1, edges)
    return reduced, CsokaReduction(
        g_old=g, y=y, x=x, z=z, merged=merged, old_of_new=tuple(keep)
    )


def csoka_lift(red: CsokaReduction, new_set) -> frozenset[int]:
    """Lift an independent set of the contraction; gains exactly one vertex."""
    g = red.g_old
    mapped = set()
    has_merged = False
    for p in new_set:
        if p == red.merged:
            has_merged = True
        else:
            mapped.add(red.old_of_new[p])
    if has_merged:
        # the merged vertex stands for x and z together: no remaining neighbour
        # of either is in the set, and x, z are nonadjacent
        lifted = mapped | {red.x, red.z}
    else:
        lifted = mapped | {red.y}
    out = frozenset(lifted)
    if not verify_independent(g, out):
        raise VerificationError(f"lift produced a dependent set {sorted(out)}")
    return out
