"""Core types for Hamiltonian cycles, their unions, and the family document format.

Vertices are 0..n-1.  Graphs are simple and undirected; adjacency is a tuple of
integer bitmasks, so vertex-set operations are plain mask arithmetic throughout
the package.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Sequence

FORMAT_VERSION = 1


class VerificationError(Exception):
    """A computed result failed the explicit check that vouches for it.

    The package raises it instead of using assert statements, which python -O
    removes.
    """


def bits(mask: int) -> Iterator[int]:
    """Yield the set bit positions of mask in ascending order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def mask_of(vertices: Iterable[int]) -> int:
    out = 0
    for v in vertices:
        out |= 1 << v
    return out


@dataclass(frozen=True, slots=True)
class HamCycle:
    """A Hamiltonian cycle given by its visiting order (a permutation of 0..n-1)."""

    order: tuple[int, ...]

    @property
    def n(self) -> int:
        return len(self.order)

    def edges(self) -> list[tuple[int, int]]:
        """Cycle edges as sorted pairs (u, v), u < v, in visiting order."""
        o = self.order
        out = []
        for i in range(len(o)):
            u, v = o[i], o[(i + 1) % len(o)]
            out.append((u, v) if u < v else (v, u))
        return out

    def edge_set(self) -> frozenset[tuple[int, int]]:
        return frozenset(self.edges())

    def successors(self) -> tuple[tuple[int, int], ...]:
        """For each vertex, its two cycle neighbours (ascending)."""
        o = self.order
        n = len(o)
        nbrs: list[list[int]] = [[] for _ in range(n)]
        for i, u in enumerate(o):
            nbrs[u] = sorted((o[i - 1], o[(i + 1) % n]))
        return tuple((a, b) for a, b in nbrs)


def make_cycle(order: Sequence[int]) -> HamCycle:
    """Validate and build a Hamiltonian cycle from a visiting order.

    Raises ValueError unless order is a permutation of 0..n-1 with n >= 3.
    """
    order = tuple(int(v) for v in order)
    n = len(order)
    if n < 3:
        raise ValueError(f"a cycle needs at least 3 vertices, got {n}")
    if sorted(order) != list(range(n)):
        raise ValueError("order must be a permutation of 0..n-1")
    return HamCycle(order)


def standard_cycle(n: int) -> HamCycle:
    """The cycle 0-1-...-(n-1)-0."""
    return make_cycle(range(n))


def canonical_key(cycle: HamCycle) -> tuple[int, ...]:
    """Lexicographically least visiting order over all 2n rotations/reflections.

    Two HamCycle values describe the same cycle iff their keys are equal.  The
    least representative always starts at vertex 0, so only the two traversal
    directions from 0 need comparing.
    """
    o = cycle.order
    n = len(o)
    i = o.index(0)
    fwd = tuple(o[(i + j) % n] for j in range(n))
    rev = tuple(o[(i - j) % n] for j in range(n))
    return min(fwd, rev)


def canonical_cycle(cycle: HamCycle) -> HamCycle:
    return HamCycle(canonical_key(cycle))


def relabel_cycle(cycle: HamCycle, perm: Sequence[int]) -> HamCycle:
    """Apply the vertex relabeling v -> perm[v] and return the canonical form."""
    return canonical_cycle(HamCycle(tuple(perm[v] for v in cycle.order)))


@dataclass(frozen=True, slots=True)
class UGraph:
    """Simple undirected graph on vertices 0..n-1 with bitmask adjacency."""

    n: int
    adj: tuple[int, ...]

    @classmethod
    def from_edges(cls, n: int, edges: Iterable[tuple[int, int]]) -> "UGraph":
        adj = [0] * n
        for u, v in edges:
            if u == v or not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"bad edge ({u}, {v}) for n={n}")
            adj[u] |= 1 << v
            adj[v] |= 1 << u
        return cls(n, tuple(adj))

    def has_edge(self, u: int, v: int) -> bool:
        return bool(self.adj[u] >> v & 1)

    def degree(self, v: int) -> int:
        return self.adj[v].bit_count()

    def neighbors(self, v: int) -> tuple[int, ...]:
        return tuple(bits(self.adj[v]))

    def edges(self) -> list[tuple[int, int]]:
        out = []
        for u in range(self.n):
            rest = self.adj[u] >> (u + 1) << (u + 1)
            out.extend((u, v) for v in bits(rest))
        return out

    def edge_count(self) -> int:
        return sum(self.degree(v) for v in range(self.n)) // 2

    def degree_sequence(self) -> tuple[int, ...]:
        return tuple(self.degree(v) for v in range(self.n))

    def max_degree(self) -> int:
        return max(self.degree_sequence(), default=0)

    def with_edge(self, u: int, v: int) -> "UGraph":
        if u == v:
            raise ValueError("loops not allowed")
        adj = list(self.adj)
        adj[u] |= 1 << v
        adj[v] |= 1 << u
        return UGraph(self.n, tuple(adj))

    def without_vertices(self, drop: int) -> "UGraph":
        """Isolate the vertices in mask drop (ids are preserved)."""
        keep = ~drop
        adj = [0 if (drop >> v) & 1 else self.adj[v] & keep for v in range(self.n)]
        return UGraph(self.n, tuple(adj))

    def induced(self, vertices_mask: int) -> "UGraph":
        return self.without_vertices(((1 << self.n) - 1) & ~vertices_mask)


def cycle_graph(cycle: HamCycle) -> UGraph:
    return UGraph.from_edges(cycle.n, cycle.edges())


def union(parts: Iterable[HamCycle | UGraph]) -> UGraph:
    """Union of cycles/graphs on the same vertex set; shared edges appear once."""
    parts = list(parts)
    if not parts:
        raise ValueError("union of an empty family")
    n = parts[0].n
    adj = [0] * n
    for p in parts:
        if p.n != n:
            raise ValueError("all members must share the vertex set")
        g = cycle_graph(p) if isinstance(p, HamCycle) else p
        for v in range(n):
            adj[v] |= g.adj[v]
    return UGraph(n, tuple(adj))


def relabel_graph(g: UGraph, perm: Sequence[int]) -> UGraph:
    return UGraph.from_edges(g.n, [(perm[u], perm[v]) for u, v in g.edges()])


def connected_components(g: UGraph, within: int | None = None) -> list[int]:
    """Vertex masks of connected components, ordered by smallest vertex.

    within restricts to the induced subgraph on that vertex mask.
    """
    pool = ((1 << g.n) - 1) if within is None else within
    comps = []
    while pool:
        seed = pool & -pool
        comp = seed
        frontier = seed
        while frontier:
            grow = 0
            for v in bits(frontier):
                grow |= g.adj[v]
            grow &= pool & ~comp
            comp |= grow
            frontier = grow
        comps.append(comp)
        pool &= ~comp
    return comps


def is_connected(g: UGraph, within: int | None = None) -> bool:
    return len(connected_components(g, within)) <= 1


def max_clique(adj: Sequence[int]) -> tuple[int, ...]:
    """The lexicographically first maximum clique of the graph with rows adj.

    adj[v] is the bitmask of v's neighbours, as in UGraph.adj.  Branch and
    bound: candidates are taken lowest first, so cliques are met in
    lexicographic order and only a strictly larger one replaces the best.
    The bound is a greedy colouring (Tomita-Seki) of the candidates in
    descending vertex order: the colours used on the candidates >= v colour
    them properly, so they bound every clique that branching on v or a later
    candidate can reach, and all of these bounds come from one colouring.
    """
    best: list[int] = []
    cur: list[int] = []

    def expand(cands):
        nonlocal best
        if len(cur) > len(best):
            best = cur[:]
        classes: list[int] = []
        bounds = []
        rest = cands
        while rest:
            v = rest.bit_length() - 1
            bit = 1 << v
            rest ^= bit
            for i, cls in enumerate(classes):
                if not cls & adj[v]:
                    classes[i] = cls | bit
                    break
            else:
                classes.append(bit)
            bounds.append((v, len(classes)))
        for v, bound in reversed(bounds):
            if len(cur) + bound <= len(best):
                return
            cands ^= 1 << v
            cur.append(v)
            expand(cands & adj[v])
            cur.pop()

    expand((1 << len(adj)) - 1)
    return tuple(best)


def distinct_cycles(cycles: Sequence[HamCycle]) -> bool:
    keys = {canonical_key(c) for c in cycles}
    return len(keys) == len(cycles)


@dataclass(frozen=True)
class FamilyDocument:
    """A family of Hamiltonian cycles plus optional certificates and metadata."""

    n: int
    cycles: tuple[HamCycle, ...]
    certificates: dict = field(default_factory=dict)
    meta: dict = field(default_factory=dict)
    edges: tuple[tuple[int, int], ...] | None = None

    def graph(self) -> UGraph:
        """Union of the cycles, or the explicit edge payload if one is present."""
        if self.edges is not None:
            return UGraph.from_edges(self.n, self.edges)
        return union(self.cycles)


def serialize_family(doc: FamilyDocument) -> str:
    """Canonical JSON for a family document (bit-exact round-trips)."""
    payload: dict = {
        "format_version": FORMAT_VERSION,
        "n": doc.n,
        "cycles": [list(c.order) for c in doc.cycles],
    }
    if doc.certificates:
        payload["certificates"] = doc.certificates
    if doc.meta:
        payload["meta"] = doc.meta
    if doc.edges is not None:
        payload["edges"] = [list(e) for e in doc.edges]
    return json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n"


def parse_family(text: str) -> FamilyDocument:
    """Parse a family document, validating version, n, and every cycle."""
    payload = json.loads(text)
    if not isinstance(payload, dict):
        raise ValueError("document must be a JSON object")
    version = payload.get("format_version")
    if version != FORMAT_VERSION:
        raise ValueError(f"unsupported format_version {version!r}")
    n = payload.get("n")
    if not isinstance(n, int) or n < 3:
        raise ValueError(f"bad n {n!r}")
    cycles = []
    for raw in payload.get("cycles", []):
        c = make_cycle(raw)
        if c.n != n:
            raise ValueError(f"cycle length {c.n} != n={n}")
        cycles.append(c)
    edges = None
    if "edges" in payload:
        edges = tuple(
            (int(u), int(v)) if u < v else (int(v), int(u))
            for u, v in payload["edges"]
        )
    return FamilyDocument(
        n=n,
        cycles=tuple(cycles),
        certificates=payload.get("certificates", {}),
        meta=payload.get("meta", {}),
        edges=edges,
    )
