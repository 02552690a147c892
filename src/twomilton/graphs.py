"""Core types for Hamiltonian cycles, their unions, and the family document format.

Vertices are 0..n-1.  Graphs are simple and undirected; adjacency is a tuple of
integer bitmasks, so vertex-set operations are plain mask arithmetic throughout
the package.  Every fixed-size clique list in the package comes from cliques().
"""

from __future__ import annotations

import json
from operator import itemgetter
from types import MappingProxyType
from typing import Iterable, Iterator, Mapping, NamedTuple, Sequence

FORMAT_VERSION = 1
MAX_VERTICES = 1 << 16  # the largest n a document may declare; bounds the rows it costs


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


class HamCycle(NamedTuple):
    """A Hamiltonian cycle given by its visiting order (a permutation of 0..n-1)."""

    order: tuple[int, ...]

    @property
    def n(self) -> int:
        return len(self.order)


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
    directions from 0 need comparing, and they first differ at the neighbour
    of 0 they visit next.
    """
    return _least_order(cycle.order)


def _least_order(o: tuple[int, ...]) -> tuple[int, ...]:
    """canonical_key of the cycle that visits o, without building the HamCycle."""
    i = o.index(0)
    if o[i - 1] < o[(i + 1) % len(o)]:
        return o[i::-1] + o[:i:-1]
    return o[i:] + o[:i]


def relabel_keys(order: Sequence[int], perms: Iterable[Sequence[int]]) -> Iterator[tuple[int, ...]]:
    """canonical_key of the cycle `order` under each relabeling v -> perm[v],
    lazily: a caller that stops early reads no more of perms."""
    return map(_least_order, map(itemgetter(*order), perms))


class UGraph(NamedTuple):
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


def cycle_graph(cycle: HamCycle) -> UGraph:
    return union([cycle])


def union(cycles: Iterable[HamCycle]) -> UGraph:
    """Union of cycles on the same vertex set; shared edges appear once.

    Each cycle's consecutive pairs, the closing pair included, are ORed
    straight into the rows.  The orders are not checked again: make_cycle
    checked each one, and parse_family builds every document cycle through it.
    """
    cycles = list(cycles)
    if not cycles:
        raise ValueError("union of an empty family")
    n = cycles[0].n
    adj = [0] * n
    for c in cycles:
        if c.n != n:
            raise ValueError("all members must share the vertex set")
        o = c.order
        for u, v in zip(o, o[1:] + o[:1]):
            adj[u] |= 1 << v
            adj[v] |= 1 << u
    return UGraph(n, tuple(adj))


def connected_components(adj: Sequence[int], pool: int) -> list[int]:
    """Vertex masks of the connected components of the subgraph that the
    rows adj induce on the vertex mask pool, ordered by smallest vertex."""
    comps = []
    while pool:
        seed = pool & -pool
        comp = seed
        frontier = seed
        while frontier:
            grow = 0
            while frontier:
                low = frontier & -frontier
                frontier ^= low
                grow |= adj[low.bit_length() - 1]
            grow &= pool & ~comp
            comp |= grow
            frontier = grow
        comps.append(comp)
        pool &= ~comp
    return comps


def is_connected(g: UGraph) -> bool:
    return len(connected_components(g.adj, (1 << g.n) - 1)) <= 1


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


def cliques(adj: Sequence[int], cands: int, size: int) -> Iterator[tuple[int, ...]]:
    """Yield the size-vertex cliques inside the vertex mask cands, as
    ascending tuples in lexicographic order.

    adj[v] is the bitmask of v's neighbours, as in UGraph.adj.  Each vertex
    is extended only by its later neighbours among the candidates, so each
    clique is met once, from its least member; a vertex with too few of
    them to finish a clique is not extended.
    """
    if not size:
        yield ()
        return
    while cands.bit_count() >= size:
        low = cands & -cands
        cands ^= low
        v = low.bit_length() - 1
        later = cands & adj[v]
        if later.bit_count() >= size - 1:
            for rest in cliques(adj, later, size - 1):
                yield (v,) + rest


def overlap_rows(masks: Sequence[int]) -> tuple[int, ...]:
    """The bitset adjacency rows of the graph where i ~ j iff i != j and
    masks[i] & masks[j] != 0.

    holders[b] collects the members whose mask has bit b, so the members that
    meet i are the union of holders[b] over the bits b of masks[i].
    """
    holders = [0] * max(masks, default=0).bit_length()
    for i, m in enumerate(masks):
        for b in bits(m):
            holders[b] |= 1 << i
    rows = []
    for i, m in enumerate(masks):
        meet = 0
        for b in bits(m):
            meet |= holders[b]
        rows.append(meet & ~(1 << i))
    return tuple(rows)


def depth_first(start, expand) -> tuple | None:
    """The picks along the first path of a depth-first search that reaches a
    goal, or None when no path does.

    expand(state) is None when the state is a goal, and otherwise yields the
    (pick, next state) steps to try, in order.  The open steps sit on an
    explicit stack, so the depth is not held to the interpreter's recursion
    limit; the picks and their order are those of the plain recursion.
    """
    options = expand(start)
    if options is None:
        return ()
    picks: list = []
    stack = [iter(options)]
    while stack:
        step = next(stack[-1], None)
        if step is None:
            stack.pop()
            if picks:
                picks.pop()
            continue
        pick, state = step
        picks.append(pick)
        options = expand(state)
        if options is None:
            return tuple(picks)
        stack.append(iter(options))
    return None


def distinct_cycles(cycles: Sequence[HamCycle]) -> bool:
    keys = {canonical_key(c) for c in cycles}
    return len(keys) == len(cycles)


# the default certificates and meta: a NamedTuple default is built once, so
# every document that omits them shares it, and read-only it lets no document
# change another's
_EMPTY: Mapping = MappingProxyType({})


class FamilyDocument(NamedTuple):
    """A family of Hamiltonian cycles plus optional certificates and metadata."""

    n: int
    cycles: tuple[HamCycle, ...]
    certificates: Mapping = _EMPTY
    meta: Mapping = _EMPTY
    edges: tuple[tuple[int, int], ...] | None = None

    def graph(self) -> UGraph:
        """Union of the cycles, or the explicit edge payload if one is present."""
        if self.edges is not None:
            return UGraph.from_edges(self.n, self.edges)
        return union(self.cycles)


def family_payload(doc: FamilyDocument) -> dict:
    """The JSON object of a family document, as serialize_family writes it; it
    refuses n > MAX_VERTICES with ValueError, as parse_family does."""
    if doc.n > MAX_VERTICES:
        raise ValueError(f"n = {doc.n} exceeds the document cap of {MAX_VERTICES} vertices")
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
    return payload


def serialize_family(doc: FamilyDocument) -> str:
    """Canonical JSON for a family document (bit-exact round-trips)."""
    return json.dumps(family_payload(doc), sort_keys=True, separators=(",", ":")) + "\n"


def _ints(raw, what: str) -> list[int]:
    """raw itself when it is a JSON list of integers; bools and floats are refused."""
    if not isinstance(raw, list) or not all(type(v) is int for v in raw):
        raise ValueError(f"{what} must be a list of integers")
    return raw


def _typed(payload: dict, key: str, kind: type, default):
    value = payload.get(key, default)
    if not isinstance(value, kind):
        raise ValueError(f"{key} must be a JSON {'object' if kind is dict else 'list'}")
    return value


def parse_family(text: str) -> FamilyDocument:
    """Parse a family document, checking every value's JSON type before use.

    n is an integer in [3, MAX_VERTICES]; cycles is a list of integer lists,
    each a permutation of 0..n-1; edges is a list of integer pairs with
    distinct endpoints in [0, n); certificates, meta and certificates.alpha
    are objects, and certificates.alpha, when present, holds an integer value
    and a list of integer vertices in [0, n).  Anything else raises
    ValueError, and so do nesting too deep for the JSON parser and an integer
    longer than the interpreter's int-to-str digit cap.
    """
    try:
        payload = json.loads(text)
    except RecursionError:
        raise ValueError("document nests too deeply to parse") from None
    except json.JSONDecodeError:
        raise
    except ValueError:
        # the digit cap's own message asks the user to change an interpreter setting
        raise ValueError("document holds an integer with too many digits to parse") from None
    if not isinstance(payload, dict):
        raise ValueError("document must be a JSON object")
    version = payload.get("format_version")
    if type(version) is not int or version != FORMAT_VERSION:
        raise ValueError(f"unsupported format_version {version!r}")
    n = payload.get("n")
    if type(n) is not int or not 3 <= n <= MAX_VERTICES:
        raise ValueError(f"n must be an integer in [3, {MAX_VERTICES}]")
    cycles = []
    for raw in _typed(payload, "cycles", list, []):
        c = make_cycle(_ints(raw, "a cycle"))
        if c.n != n:
            raise ValueError(f"cycle length {c.n} != n={n}")
        cycles.append(c)
    edges = None
    if "edges" in payload:
        raw = _typed(payload, "edges", list, None)
        edges = tuple(tuple(sorted(_ints(e, "an edge"))) for e in raw)
        if any(len(e) != 2 or e[0] == e[1] or e[0] < 0 or e[1] >= n for e in edges):
            raise ValueError(f"an edge must join two distinct vertices of 0..{n - 1}")
    certificates = _typed(payload, "certificates", dict, {})
    if "alpha" in certificates:
        alpha = _typed(certificates, "alpha", dict, None)
        if type(alpha.get("value")) is not int:
            raise ValueError("certificates.alpha.value must be an integer")
        if any(not 0 <= v < n for v in _ints(alpha.get("vertices"), "certificates.alpha.vertices")):
            raise ValueError(f"certificates.alpha.vertices must lie in 0..{n - 1}")
    return FamilyDocument(
        n=n,
        cycles=tuple(cycles),
        certificates=certificates,
        meta=_typed(payload, "meta", dict, {}),
        edges=edges,
    )
