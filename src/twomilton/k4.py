"""K4 structure of cycle unions: detection, clique covers, induced-path
packings, and archipelagos (components of the subgraph induced on K4 vertices).
Every K4 and triangle list, the covers' included, comes from graphs.cliques.
"""

from __future__ import annotations

from itertools import combinations
from typing import NamedTuple

from .graphs import (
    UGraph, VerificationError, bits, cliques, connected_components, depth_first, mask_of, overlap_rows,
)
from .independence import AlphaSolver


def find_k4s(g: UGraph) -> tuple[tuple[int, int, int, int], ...]:
    """All K4 vertex sets, ascending, each reported once (least vertex first)."""
    return tuple(cliques(g.adj, (1 << g.n) - 1, 4))


def zeta(g: UGraph) -> int:
    """Number of K4s (for unions of two Hamiltonian cycles these are disjoint)."""
    return len(find_k4s(g))


def creates_k4(adj, u: int, v: int):
    """The K4 that adding edge (u, v) would complete, or None.

    adj holds bitset rows, as UGraph.adj does.  Only K4s through the new edge
    can appear, so it suffices to find an adjacent pair among the common
    neighbours of u and v.  The reduction pipeline's _close asks this about
    two neighbours of an archipelago before it deletes that archipelago; no
    vertex of it can be one of the pair, since a K4 vertex has at most one
    neighbour outside its K4 when the maximum degree is 4.
    """
    for pair in cliques(adj, adj[u] & adj[v], 2):
        return tuple(sorted((u, v) + pair))
    return None


def window_path(n: int, v: int) -> tuple[int, int, int, int]:
    """The Hamiltonian path of the window v..v+3 (mod n) that shares no edge
    with the standard cycle: with the window's three cycle edges it is a K4."""
    return (v + 2) % n, v % n, (v + 3) % n, (v + 1) % n


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


def _cover_search(g: UGraph, size: int) -> tuple | None:
    """A partition of the vertices into size-cliques, or None if there is none.

    Exact search: the least uncovered vertex v is tried with each clique it
    completes among its uncovered neighbours, all later than v, so in
    lexicographic order.  A partition it returns has passed check_cover; one
    that fails raises VerificationError, so a found cover is a checked verdict.
    """
    if g.n % size:
        return None
    adj = g.adj

    def expand(uncovered: int):
        if not uncovered:
            return None
        low = uncovered & -uncovered
        v = low.bit_length() - 1
        return (((v,) + q, uncovered ^ low ^ mask_of(q)) for q in cliques(adj, adj[v] & uncovered, size - 1))

    blocks = depth_first((1 << g.n) - 1, expand)
    if blocks is not None and not check_cover(g, blocks, size):
        raise VerificationError(f"clique cover {blocks} is not a partition into {size}-cliques")
    return blocks


def find_k4_cover(g: UGraph) -> tuple | None:
    """A partition of the vertices into K4s, or None if there is none."""
    return _cover_search(g, 4)


def find_triangle_cover(g: UGraph) -> tuple | None:
    """A partition of the vertices into triangles, or None if there is none."""
    return _cover_search(g, 3)


def good_paths4(g: UGraph) -> tuple[tuple[int, int, int, int], ...]:
    """Induced 3-edge paths a-b-c-d whose interior vertices have degree 2,
    each once (a < d), ascending.

    psi_exact counts the most of them that share no vertex.  A shared K4 of
    two unions contributes exactly such a path, never a plain induced path.

    Each path is read off its middle edge b-c: a and d are the other
    neighbours of b and c, and the path is induced iff a != d and a, d are
    not adjacent (b and c have no further neighbours to check).
    """
    adj = g.adj
    out = []
    for b in range(g.n):
        if adj[b].bit_count() != 2:
            continue
        for c in bits(adj[b] >> (b + 1) << (b + 1)):
            if adj[c].bit_count() != 2:
                continue
            a = (adj[b] ^ 1 << c).bit_length() - 1
            d = (adj[c] ^ 1 << b).bit_length() - 1
            if a != d and not adj[a] >> d & 1:
                out.append((a, b, c, d) if a < d else (d, c, b, a))
    return tuple(sorted(out))


def psi_exact(g: UGraph) -> int:
    """Maximum number of disjoint induced 3-edge paths with degree-2 interiors.

    This is the independence number of the path-conflict graph: one vertex
    per path of good_paths4(g), two paths adjacent when they share a vertex.
    That graph has at most n vertices, since each path is read off a middle
    edge between two degree-2 vertices and those edges form paths and cycles
    on the degree-2 vertices; AlphaSolver's alpha limit counts its paths.
    """
    paths = good_paths4(g)
    return AlphaSolver(UGraph(len(paths), overlap_rows([mask_of(p) for p in paths]))).alpha()


class Archipelago(NamedTuple):
    """One connected component of the subgraph induced on K4 vertices.

    cyclic tells whether its K4-adjacency multigraph (one node per K4, one
    edge per non-K4 edge inside the component) has a cycle.  That multigraph
    is connected, so it is cyclic iff it has at least as many edges as nodes.
    neighborhood lists the outside vertices adjacent to the component (static
    under the reduction pipeline).
    """

    vertices: tuple[int, ...]
    mask: int
    k4s: tuple[tuple[int, int, int, int], ...]
    cyclic: bool
    neighborhood: tuple[int, ...]


def archipelagos(g: UGraph) -> tuple[Archipelago, ...]:
    """Archipelagos of g, ordered by smallest vertex.

    Requires the K4s to be pairwise disjoint (true in any union of two
    Hamiltonian cycles); raises ValueError otherwise.  A component's non-K4
    edges are its internal edges less the six of each K4.
    """
    k4s = find_k4s(g)
    masks = [mask_of(q) for q in k4s]
    covered = 0
    for m in masks:
        if m & covered:
            raise ValueError("K4s overlap; archipelago structure undefined")
        covered |= m
    out = []
    for comp in connected_components(g, within=covered):
        inside = [i for i, m in enumerate(masks) if m & comp]
        if any(masks[i] & ~comp for i in inside):
            raise VerificationError(f"a K4 of {[k4s[i] for i in inside]} straddles two archipelagos")
        verts = tuple(bits(comp))
        ends = nbhd = 0  # ends counts each internal edge twice
        for v in verts:
            ends += (g.adj[v] & comp).bit_count()
            nbhd |= g.adj[v]
        out.append(Archipelago(
            vertices=verts,
            mask=comp,
            k4s=tuple(k4s[i] for i in inside),
            cyclic=ends // 2 - 6 * len(inside) >= len(inside),
            neighborhood=tuple(bits(nbhd & ~comp)),
        ))
    return tuple(out)
