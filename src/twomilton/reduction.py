"""Reduction of a union of two Hamiltonian cycles to a K4-free remainder.

The pipeline deletes archipelagos (components of the subgraph induced on K4
vertices), occasionally adding a reconnecting edge between non-K4 vertices.
Every archipelago leaves through one exit, _close: it joins the given pair of
the archipelago's neighbours, if there is one, then deletes the archipelago.
An archipelago is open while it is live and acyclic with an independent
neighbourhood:

1. "small": close each open archipelago whose neighbourhood is two vertices;
2. if the non-K4 vertices are disconnected, route the given cycle's arcs
   through archipelagos and, over a spanning tree of the components, close
   each arc's archipelago by the arc's endpoints;
3. close the open archipelagos with a 3-vertex neighbourhood: the
   one-edge-short "risky" patterns by their designated edge first, the rest
   by the least pair that completes no K4;
4. close the remaining open archipelagos (neighbourhood size >= 4) by a safe
   pair; close all other live archipelagos with no edge.

Steps 1, 3 and 4 are one loop, _drain: it closes the first open trio by step
3's rule or, with none open, the least open archipelago by step 1's or step
4's rule; step 1 is the drain restricted to size 2.  That reproduces the
steps in order because no archipelago opens again.  Neighbourhoods are
static and hold only non-K4 vertices (a K4 vertex next to an archipelago
lies in it); every step only adds edges between such vertices and deletes
archipelagos, which removes no edge between two of them.  So a neighbourhood
that stops being independent never becomes independent again: no open
size-2 archipelago is left after step 1, and step 4 meets none of size 2 or
3.  Two of step 2's arcs may pass through one archipelago; the second joins
its endpoints and finds the archipelago already gone.  Step 2's join checks
cannot fail, with its archipelago present or gone: the endpoints u and v lie
in different plain components, so they are not adjacent, and a common
neighbour would be plain and join those components, or be a K4 vertex, which
has at most one neighbour outside its K4.

Every deleted archipelago leaves a lift entry: a list of options (u, t), each
a transversal t (one vertex per K4) whose outside edges all point at u.  A
cyclic archipelago has the one option (None, t), t clean (no edge leaves the
archipelago); any other has one option per neighbourhood vertex, ascending.
lift_independent turns an independent set of the remainder into one of the
input union by one rule: each entry adds the transversal of its first option
whose u is not in the set, gaining exactly one vertex per K4.

The pipeline's state is its working graph (bitset rows) and its live mask.
Step 2 reads the route, a Hamiltonian cycle of the input graph, off its live
order: the input order with the deleted vertices skipped.  The route is
checked once, on entry, and then needs no check inside the loop:

- the live order stays a Hamiltonian cycle of the working graph.  A small
  archipelago A is left only through its neighbours a and b, so the live
  order passes A as one arc from a to b, and the joined edge a-b replaces
  that arc.  The one exception is when A, a and b are all that is live; then
  step 2 has nothing to join.
- only non-K4 vertices gain edges, so consecutive K4 vertices of the live
  order are adjacent in the input graph, and they lie in one archipelago.

An edge between two neighbours of an archipelago is tested with creates_k4
while that archipelago is still present.  That cannot change the answer: a
K4 vertex has three neighbours in its K4 and, at maximum degree 4, at most
one outside (it gains no edges), so no archipelago vertex is adjacent to
both ends.

No step may complete a new K4; for genuine unions of two Hamiltonian cycles on
n > 13 vertices this is a theorem, so a trigger means the input (or the
theory) is broken and the offending state is reported as a falsification
artifact instead of silently continuing.
"""

from __future__ import annotations

from itertools import combinations
from typing import NamedTuple

from .graphs import (
    FamilyDocument,
    HamCycle,
    UGraph,
    VerificationError,
    bits,
    connected_components,
    cycle_graph,
    depth_first,
    distinct_cycles,
    is_connected,
    mask_of,
    union,
)
from .independence import verify_independent
from .k4 import Archipelago, archipelagos, creates_k4, find_k4s


class StructureViolation(Exception):
    """A pipeline invariant failed; carries the offending state as a document."""

    def __init__(self, step: str, reason: str, artifact: FamilyDocument):
        super().__init__(f"[{step}] {reason}")
        self.step = step
        self.reason = reason
        self.artifact = artifact


class TraceStep(NamedTuple):
    step: str
    archipelago: tuple[int, ...]
    added_edge: tuple[int, int] | None


class LiftEntry(NamedTuple):
    """How to re-insert one deleted archipelago into an independent set.

    The lift adds the transversal of the first option (u, transversal) whose
    u is not in the set: (None, clean) alone for a cyclic archipelago, else
    one option per neighbour u in ascending order.
    """

    vertices: tuple[int, ...]
    options: tuple[tuple[int | None, tuple[int, ...]], ...]


class ReductionResult(NamedTuple):
    g: UGraph
    h: UGraph  # compacted remainder on the non-K4 vertices
    h_vertex_map: tuple[int, ...]  # h vertex i <-> original id h_vertex_map[i]
    zeta: int
    lift_plan: tuple[LiftEntry, ...]
    trace: tuple[TraceStep, ...]
    postconditions: dict


class _Pipeline:
    def __init__(self, g: UGraph, route: HamCycle | None):
        self.g = g
        self.route = route  # a Hamiltonian cycle of g, or None
        self.n = g.n
        self.adj = list(g.adj)  # mutable working adjacency
        self.alive = (1 << g.n) - 1  # an archipelago is live while its vertices are
        try:
            self.archs = archipelagos(g)
        except ValueError as exc:  # overlapping K4s: no archipelago structure
            self._fail("archipelagos", str(exc))
        self.trace: list[TraceStep] = []
        self.lift: list[LiftEntry] = []

    # -- state helpers ----------------------------------------------------

    def _artifact(self, detail: dict) -> FamilyDocument:
        # deleted vertices have empty rows, so these are the live edges
        edges = UGraph(self.n, tuple(self.adj)).edges()
        return FamilyDocument(n=self.n, cycles=(), edges=tuple(edges), meta={"detail": detail})

    def _fail(self, step: str, reason: str, **detail):
        raise StructureViolation(
            step, reason, self._artifact({"reason": reason, **detail})
        )

    def _safe_pair(self, step: str, arch: Archipelago, reason: str) -> tuple[int, int]:
        """The least neighbourhood pair whose edge completes no K4 once the
        archipelago is gone; fails with the reason when there is none.  For
        an open archipelago the edge is also new, so _close accepts it."""
        for a, b in combinations(arch.neighborhood, 2):
            if creates_k4(self.adj, a, b) is None:
                return a, b
        self._fail(step, f"archipelago {arch.vertices}: {reason}", archipelago=list(arch.vertices))

    def _close(self, step: str, arch: Archipelago, pair: tuple[int, int] | None):
        """Join the pair of the archipelago's neighbours, if one is given, then
        delete the archipelago if it is still live: the one way an edge enters
        the working graph and an archipelago leaves it."""
        if pair is not None:
            u, v = pair
            if self.adj[u] >> v & 1:
                self._fail(step, f"edge ({u},{v}) already present", edge=[u, v])
            quad = creates_k4(self.adj, u, v)
            if quad is not None:
                self._fail(
                    step,
                    f"joining neighbourhood ({u},{v}) completes K4 {quad}",
                    edge=[u, v], k4=list(quad),
                )
            self.adj[u] |= 1 << v
            self.adj[v] |= 1 << u
        self.trace.append(TraceStep(step, arch.vertices, pair))
        if arch.mask & self.alive:
            for v in arch.vertices:
                for w in bits(self.adj[v]):
                    self.adj[w] &= ~(1 << v)
                self.adj[v] = 0
            self.alive &= ~arch.mask
            self.lift.append(self._lift_entry(arch))

    # -- lift transversals (against the original graph; static) -----------

    def _transversal(self, arch: Archipelago, allowed_outside: int):
        adj = self.g.adj
        quads = arch.k4s
        outside = ~arch.mask & ~allowed_outside

        def expand(state):
            i, chosen = state
            if i == len(quads):
                return None
            return ((v, (i + 1, chosen | 1 << v)) for v in quads[i] if not adj[v] & (chosen | outside))

        return depth_first((0, 0), expand)

    def _lift_entry(self, arch: Archipelago) -> LiftEntry:
        options = []
        for u in (None,) if arch.cyclic else arch.neighborhood:
            t = self._transversal(arch, 0 if u is None else 1 << u)
            if t is None:
                self._fail(
                    "lift-plan",
                    f"cyclic archipelago {arch.vertices} has no clean transversal" if u is None
                    else f"archipelago {arch.vertices} has no transversal toward {u}",
                    archipelago=list(arch.vertices), **({} if u is None else {"neighbor": u}),
                )
            options.append((u, t))
        return LiftEntry(arch.vertices, tuple(options))

    # -- step 2: reconnect the non-K4 remainder ---------------------------

    def step2(self):
        k4_alive = self.alive & mask_of(v for arch in self.archs for v in arch.vertices)
        plain = self.alive & ~k4_alive
        if not plain:
            return
        if len(connected_components(self.adj, plain)) <= 1:
            return
        if self.route is None:
            self._fail(
                "connect",
                "remainder is disconnected and no Hamiltonian cycle is available "
                "to route reconnecting arcs",
            )
        # the route's live order, rotated to start at a plain vertex so that
        # no run of K4 vertices wraps; an arc is kept as (min, max, idx), so
        # the route's direction is never read
        live = [v for v in self.route.order if self.alive >> v & 1]
        i = live.index((plain & -plain).bit_length() - 1)
        seq = live[i:] + live[:i]
        # each run of K4 vertices between two plain vertices u, v is an arc
        # through the one archipelago that the run meets
        arcs = []
        run = 0
        for v in seq + seq[:1]:
            if k4_alive >> v & 1:
                run |= 1 << v
                continue
            if run:
                idx = next(i for i, arch in enumerate(self.archs) if arch.mask & run)
                arcs.append((min(u, v), max(u, v), idx))
                run = 0
            u = v
        # spanning tree over the components, arcs in ascending endpoint order;
        # only closed arcs join plain vertices, so adj's components are the merged ones
        for u, v, idx in sorted(arcs):
            if not next(m for m in connected_components(self.adj, plain) if m >> u & 1) >> v & 1:
                self._close("connect", self.archs[idx], (u, v))

    # -- steps 1, 3 and 4: close the open archipelagos ---------------------

    def _classify3(self, arch: Archipelago) -> tuple[int, int] | None:
        """The edge a risky pattern on an independent 3-neighbourhood demands,
        or None; fails on a forbidden pattern.

        For each outside pair (o1, o2) it counts the spokes from the three
        neighbourhood vertices to the pair: 6 spokes with the o1o2 edge is
        forbidden; 6 spokes without the edge, or 5 spokes (2+2+1) with it, is
        risky when the gap sits as the pattern demands relative to the marked
        vertices (>= 2 edges into the archipelago).  The least (type, o1, o2,
        a, b) over the risky pairs gives the edge ab.
        """
        trio = arch.neighborhood
        marked = [w for w in trio if (self.g.adj[w] & arch.mask).bit_count() >= 2]
        outside = 0
        excl = arch.mask | mask_of(trio)
        for w in trio:
            outside |= self.adj[w] & ~excl
        best = None
        for o1, o2 in combinations(bits(outside), 2):
            pair = 1 << o1 | 1 << o2
            spokes = [(self.adj[w] & pair).bit_count() for w in trio]
            total = sum(spokes)
            o_edge = self.adj[o1] >> o2 & 1
            hit = None
            if total == 6 and o_edge:
                self._fail(
                    "three",
                    f"forbidden archipelago {arch.vertices}: its neighbourhood "
                    "pattern admits no safe reconnecting edge",
                    archipelago=list(arch.vertices),
                )
            if total == 6 and marked:
                a = marked[0]
                hit = (1, o1, o2, a, min(w for w in trio if w != a))
            elif total == 5 and o_edge:
                w0 = trio[spokes.index(1)]
                full_marked = [w for w in marked if w != w0]
                if w0 in marked:
                    hit = (3, o1, o2, w0, min(w for w in trio if w != w0))
                elif full_marked:
                    hit = (2, o1, o2, full_marked[0], w0)
            if hit and (best is None or hit < best):
                best = hit
        if best is None:
            return None
        a, b = best[3:]
        return min(a, b), max(a, b)

    def _drain(self, size: int | None = None):
        """Close open archipelagos (of the given neighbourhood size, if one is
        given) until none is left: trios first, then the least one."""
        while True:
            live = []
            for arch in self.archs:
                if arch.mask & self.alive and not arch.cyclic and size in (None, len(arch.neighborhood)):
                    nbhd = mask_of(arch.neighborhood)
                    if not any(self.adj[v] & nbhd for v in arch.neighborhood):
                        live.append(arch)
            if not live:
                return
            trios = [arch for arch in live if len(arch.neighborhood) == 3]
            # every trio is classified first: a forbidden one fails
            risky = [(arch, edge) for arch, edge in zip(trios, map(self._classify3, trios)) if edge]
            arch = (trios or live)[0]
            k = len(arch.neighborhood)
            if risky:
                self._close("three-risky", *risky[0])
            elif k == 3:
                self._close("three", arch, self._safe_pair(
                    "three", arch,
                    "every neighbourhood pair completes a K4 (undetected forbidden pattern)",
                ))
            elif k == 2:
                self._close("small", arch, arch.neighborhood)
            elif k >= 4:
                self._close("final", arch, self._safe_pair("final", arch, "no safe neighbourhood pair"))
            else:
                self._fail(
                    "final",
                    f"acyclic archipelago {arch.vertices} with neighbourhood of "
                    f"size {k}: impossible for a union of two Hamiltonian cycles",
                    archipelago=list(arch.vertices),
                )

    # -- drive --------------------------------------------------------------

    def run(self) -> ReductionResult:
        zeta_total = sum(len(a.k4s) for a in self.archs)
        self._drain(2)
        self.step2()
        self._drain()
        for arch in self.archs:  # step 4's rest: close with no edge
            if arch.mask & self.alive:
                self._close("final", arch, None)
        h_vertices = tuple(bits(self.alive))
        new_id = {old: i for i, old in enumerate(h_vertices)}
        h = UGraph(len(h_vertices), tuple(
            mask_of(new_id[w] for w in bits(self.adj[v])) for v in h_vertices
        ))
        post = self._postconditions(h, h_vertices, zeta_total)
        return ReductionResult(
            g=self.g,
            h=h,
            h_vertex_map=h_vertices,
            zeta=zeta_total,
            lift_plan=tuple(self.lift),
            trace=tuple(self.trace),
            postconditions=post,
        )

    def _postconditions(self, h: UGraph, h_vertices, zeta_total: int) -> dict:
        connected = is_connected(h)
        k4_free = not find_k4s(h)
        monotone = all(
            h.degree(i) <= self.g.degree(old) for i, old in enumerate(h_vertices)
        )
        strict = (
            zeta_total == 0
            or h.n == 0
            or any(h.degree(i) < self.g.degree(old)
                   for i, old in enumerate(h_vertices))
        )
        post = {
            "connected": connected,
            "k4_free": k4_free,
            "degrees_monotone": monotone,
            "degree_drop_somewhere": strict,
        }
        for name, ok in post.items():
            if not ok:
                self._fail("post", f"postcondition {name} failed")
        return post


def technical_reduce(c1: HamCycle, c2: HamCycle) -> ReductionResult:
    """Reduce the union of two distinct Hamiltonian cycles (n > 13).

    Returns the K4-free remainder, the trace, and the lift plan.  Raises
    ValueError on ineligible input and StructureViolation with a falsification
    artifact if a pipeline invariant fails (which the structure theory rules
    out for genuine inputs).
    """
    if c1.n <= 13:
        raise ValueError("technical_reduce requires n > 13")
    if not distinct_cycles([c1, c2]):
        raise ValueError("the two cycles must be distinct")
    return _Pipeline(union([c1, c2]), c1).run()


def diagnose_reduction(g: UGraph, cycles=None) -> ReductionResult:
    """Run the pipeline on an arbitrary max-degree-4 graph.

    Unlike technical_reduce it takes any graph of maximum degree <= 4 and any
    number of cycles, which must be Hamiltonian cycles of g (ValueError
    otherwise); the first routes step 2.  A failing invariant raises
    StructureViolation, which names the step and carries the reason and the
    offending state, just as technical_reduce does.
    """
    if g.max_degree() > 4:
        raise ValueError("diagnostic reduction expects max degree <= 4")
    for c in cycles or ():
        if c.n != g.n or any(row & ~have for row, have in zip(cycle_graph(c).adj, g.adj)):
            raise ValueError("each cycle must be a Hamiltonian cycle of the graph")
    return _Pipeline(g, cycles[0] if cycles else None).run()


def lift_independent(result: ReductionResult, iset) -> tuple[int, ...]:
    """Lift an independent set of the remainder h (h ids) into the input union.

    Adds exactly result.zeta vertices (one per K4); output uses original ids.
    """
    iset = sorted(set(iset))
    if any(not 0 <= v < result.h.n for v in iset):
        raise ValueError("lift input must use remainder vertex ids")
    if not verify_independent(result.h, iset):
        raise ValueError("lift input is not independent in the remainder")
    out = {result.h_vertex_map[v] for v in iset}
    base = frozenset(out)
    for entry in result.lift_plan:
        t = next((t for u, t in entry.options if u not in base), None)
        if t is None:
            raise VerificationError(
                f"lift: neighbourhood {tuple(u for u, _ in entry.options)} fully inside "
                "the set; the guaranteed internal edge is missing"
            )
        out.update(t)
    lifted = tuple(sorted(out))
    if len(lifted) != len(iset) + result.zeta:
        raise VerificationError(
            f"lift: {len(lifted)} vertices, expected {len(iset)} + zeta {result.zeta}"
        )
    if not verify_independent(result.g, lifted):
        raise VerificationError(f"lift: {lifted} is not independent in the input union")
    return lifted
