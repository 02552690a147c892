"""K4 structure of cycle unions: detection, clique covers, induced-path
packings, and archipelagos (components of the subgraph induced on K4 vertices).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .graphs import UGraph, VerificationError, bits, connected_components, mask_of
from .limits import check_limit


def find_k4s(g: UGraph) -> tuple[tuple[int, int, int, int], ...]:
    """All K4 vertex sets, ascending, each reported once (least vertex first)."""
    out = []
    for a in range(g.n):
        higher = g.adj[a] >> (a + 1) << (a + 1)
        for b in bits(higher):
            common_ab = g.adj[a] & g.adj[b] & higher & ~((1 << (b + 1)) - 1)
            for c in bits(common_ab):
                for d in bits(g.adj[c] & common_ab):
                    if d > c:
                        out.append((a, b, c, d))
    return tuple(out)


def k4s_disjoint(g: UGraph) -> bool:
    seen = 0
    for quad in find_k4s(g):
        m = mask_of(quad)
        if m & seen:
            return False
        seen |= m
    return True


def zeta(g: UGraph) -> int:
    """Number of K4s (for unions of two Hamiltonian cycles these are disjoint)."""
    return len(find_k4s(g))


def creates_k4(adj, u: int, v: int, ignore: int = 0):
    """The K4 that adding edge (u, v) would complete, or None.

    adj holds bitset rows, as UGraph.adj does; the vertices in the ignore mask
    count as deleted.  Only K4s through the new edge can appear, so it
    suffices to find an adjacent pair among the common neighbours of u and v.
    """
    common = adj[u] & adj[v] & ~ignore
    for a in bits(common):
        inner = adj[a] & common
        for b in bits(inner):
            if b > a:
                return tuple(sorted((u, v, a, b)))
    return None


def check_cover(g: UGraph, blocks, size: int) -> bool:
    """True iff blocks partition the vertex set into cliques of the given size."""
    seen = 0
    for block in blocks:
        block = tuple(block)
        if len(block) != size:
            return False
        m = mask_of(block)
        if m.bit_count() != size or m & seen:
            return False
        if any(not g.has_edge(a, b) for a, b in combinations(block, 2)):
            return False
        seen |= m
    return seen == (1 << g.n) - 1


def _cover_search(g: UGraph, cliques) -> tuple | None:
    """Exact partition-into-cliques search, branching on the least uncovered vertex."""
    by_vertex: dict[int, list] = {v: [] for v in range(g.n)}
    for q in cliques:
        for v in q:
            by_vertex[v].append((mask_of(q), q))
    full = (1 << g.n) - 1

    def rec(uncovered: int, acc: list):
        if uncovered == 0:
            return tuple(acc)
        v = (uncovered & -uncovered).bit_length() - 1
        for m, q in by_vertex[v]:
            if m & ~uncovered:
                continue
            acc.append(q)
            got = rec(uncovered & ~m, acc)
            if got is not None:
                return got
            acc.pop()
        return None

    return rec(full, [])


def find_k4_cover(g: UGraph) -> tuple | None:
    """A partition of the vertices into K4s, or None if there is none."""
    if g.n % 4:
        return None
    return _cover_search(g, find_k4s(g))


def find_triangles(g: UGraph) -> tuple[tuple[int, int, int], ...]:
    out = []
    for a in range(g.n):
        higher = g.adj[a] >> (a + 1) << (a + 1)
        for b in bits(higher):
            for c in bits(g.adj[b] & higher):
                if c > b:
                    out.append((a, b, c))
    return tuple(out)


def find_triangle_cover(g: UGraph) -> tuple | None:
    """A partition of the vertices into triangles, or None if there is none."""
    if g.n % 3:
        return None
    return _cover_search(g, find_triangles(g))


def induced_paths4(g: UGraph) -> tuple[tuple[int, int, int, int], ...]:
    """All induced 3-edge paths a-b-c-d (deduplicated by reversal: a < d)."""
    out = []
    for b in range(g.n):
        nb = g.adj[b]
        for c in bits(nb):
            nc = g.adj[c]
            for a in bits(nb & ~nc & ~(1 << c)):
                tail = nc & ~nb & ~g.adj[a] & ~(1 << a) & ~(1 << b)
                for d in bits(tail):
                    if a < d:
                        out.append((a, b, c, d))
    return tuple(sorted(set(out)))


def good_paths4(g: UGraph) -> tuple[tuple[int, int, int, int], ...]:
    """Induced 3-edge paths a-b-c-d whose interior vertices have degree 2.

    These are the paths the degree-2 contraction applies to: b and c have no
    neighbors outside the path, so removing b, c, d (or a, b, c) and rewiring
    trades 2 vertices for 1 guaranteed independent pick.  A shared K4 of two
    unions contributes exactly such a path, never a plain induced path.
    """
    return tuple(
        p for p in induced_paths4(g)
        if g.degree(p[1]) == 2 and g.degree(p[2]) == 2
    )


def psi_exact(g: UGraph) -> int:
    """Maximum number of disjoint induced 3-edge paths with degree-2 interiors."""
    check_limit("psi", g.n, "psi_exact")
    paths = good_paths4(g)
    masked = [(mask_of(p), p) for p in paths]
    by_vertex: list[list[int]] = [[] for _ in range(g.n)]
    for m, p in masked:
        for v in p:
            by_vertex[v].append(m)
    memo: dict[int, int] = {}

    def rec(avail: int) -> int:
        if avail.bit_count() < 4:
            return 0
        hit = memo.get(avail)
        if hit is not None:
            return hit
        # branch on the least vertex usable by some available path
        pick = -1
        options = None
        probe = avail
        while probe:
            low = probe & -probe
            probe ^= low
            v = low.bit_length() - 1
            usable = [m for m in by_vertex[v] if not m & ~avail]
            if usable:
                pick = v
                options = usable
                break
        if pick < 0:
            memo[avail] = 0
            return 0
        best = rec(avail & ~(1 << pick))
        for m in options:
            best = max(best, 1 + rec(avail & ~m))
        memo[avail] = best
        return best

    return rec((1 << g.n) - 1)


@dataclass(frozen=True)
class Archipelago:
    """One connected component of the subgraph induced on K4 vertices.

    matching holds the non-K4 edges inside the component; the component is
    cyclic iff its K4-adjacency multigraph has a cycle, i.e. iff
    len(matching) >= len(k4s).  neighborhood lists the outside vertices
    adjacent to the component (static under the reduction pipeline).
    """

    vertices: tuple[int, ...]
    mask: int
    k4s: tuple[tuple[int, int, int, int], ...]
    matching: tuple[tuple[int, int], ...]
    neighborhood: tuple[int, ...]

    @property
    def cyclic(self) -> bool:
        return len(self.matching) >= len(self.k4s)


def archipelagos(g: UGraph, k4s=None) -> tuple[Archipelago, ...]:
    """Archipelagos of g, ordered by smallest vertex.

    Requires the K4s to be pairwise disjoint (true in any union of two
    Hamiltonian cycles); raises ValueError otherwise.
    """
    if k4s is None:
        k4s = find_k4s(g)
    if not k4s:
        return ()
    covered = 0
    for quad in k4s:
        m = mask_of(quad)
        if m & covered:
            raise ValueError("K4s overlap; archipelago structure undefined")
        covered |= m
    k4_masks = [mask_of(q) for q in k4s]
    out = []
    for comp in connected_components(g, within=covered):
        verts = tuple(bits(comp))
        inside = [q for q, m in zip(k4s, k4_masks) if m & comp]
        if any(mask_of(q) & ~comp for q in inside):
            raise VerificationError(f"a K4 of {inside} straddles two archipelagos")
        k4_edges = set()
        for q in inside:
            k4_edges.update(combinations(q, 2))
        matching = []
        nbhd = 0
        for v in verts:
            for u in bits(g.adj[v]):
                if not comp >> u & 1:
                    nbhd |= 1 << u
                elif u > v and (v, u) not in k4_edges:
                    matching.append((v, u))
        out.append(
            Archipelago(
                vertices=verts,
                mask=comp,
                k4s=tuple(inside),
                matching=tuple(matching),
                neighborhood=tuple(bits(nbhd)),
            )
        )
    return tuple(out)
