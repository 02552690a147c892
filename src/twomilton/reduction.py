"""Reduction of a union of two Hamiltonian cycles to a K4-free remainder.

The pipeline deletes archipelagos (components of the subgraph induced on K4
vertices) one class at a time, occasionally adding a reconnecting edge between
non-K4 vertices:

1. "small" archipelagos (acyclic, neighbourhood exactly two independent
   vertices): delete and join the two neighbours, splicing both maintained
   Hamiltonian cycles through the new edge;
2. if the non-K4 vertices are disconnected, route the first cycle's arcs
   through archipelagos, add the arc endpoints of a spanning tree, and delete
   the traversed archipelagos;
3. acyclic archipelagos with an independent 3-vertex neighbourhood: the
   one-edge-short "risky" patterns get their designated edge first, everything
   else the least pair that completes no K4;
4. remaining acyclic archipelagos with independent neighbourhood (now of size
   >= 4) get one safe neighbourhood edge; all other archipelagos are deleted
   with no edge.

Every deleted archipelago leaves a lift entry: a clean independent transversal
(one vertex per K4, no edges leaving the archipelago) for cyclic archipelagos,
otherwise one transversal per neighbourhood vertex u whose outside edges all
point at u.  lift_independent turns an independent set of the remainder into
one of the input union, gaining exactly one vertex per K4.

The working graph and the maintained cycles are bitset rows (cycle_graph's
adj): splicing a cycle through a new edge a-b is two XORs, and step 2 walks
the first cycle by leaving each vertex through the row bit that is not the
previous vertex.  An edge between two neighbours of an archipelago is tested
with creates_k4 while that archipelago is still present.  That cannot change
the answer: a K4 vertex has three neighbours in its K4 and, at maximum degree
4, at most one outside, so no archipelago vertex is adjacent to both ends;
and only non-K4 vertices ever gain edges.

No step may complete a new K4; for genuine unions of two Hamiltonian cycles on
n > 13 vertices this is a theorem, so a trigger means the input (or the
theory) is broken and the offending state is reported as a falsification
artifact instead of silently continuing.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations

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


@dataclass(frozen=True)
class TraceStep:
    step: str
    archipelago: tuple[int, ...]
    added_edge: tuple[int, int] | None


@dataclass(frozen=True)
class LiftEntry:
    """How to re-insert one deleted archipelago into an independent set."""

    vertices: tuple[int, ...]
    kind: str  # "cyclic" (clean transversal) or "guarded" (per-neighbour)
    neighborhood: tuple[int, ...]
    clean: tuple[int, ...] | None
    by_neighbor: dict[int, tuple[int, ...]] | None


@dataclass(frozen=True)
class ReductionResult:
    g: UGraph
    cycles: tuple[HamCycle, HamCycle] | None
    h: UGraph  # compacted remainder on the non-K4 vertices
    h_vertex_map: tuple[int, ...]  # h vertex i <-> original id h_vertex_map[i]
    zeta: int
    lift_plan: tuple[LiftEntry, ...]
    trace: tuple[TraceStep, ...]
    postconditions: dict = field(default_factory=dict)


@dataclass(frozen=True)
class DiagnosticReport:
    ok: bool
    failed_step: str | None
    reason: str | None
    artifact: FamilyDocument | None
    result: ReductionResult | None


class _Pipeline:
    def __init__(self, g: UGraph, cycles):
        self.g = g
        self.n = g.n
        self.cycles = cycles
        self.adj = list(g.adj)  # mutable working adjacency
        self.alive = (1 << g.n) - 1  # an archipelago is live while its vertices are
        try:
            self.archs = archipelagos(g)
        except ValueError as exc:  # overlapping K4s: no archipelago structure
            self._fail("archipelagos", str(exc))
        self.trace: list[TraceStep] = []
        self.lift: list[LiftEntry] = []
        # bitset rows of the maintained cycles (the first also routes step 2)
        self.cyc: list[list[int]] = [
            list(cycle_graph(c).adj) for c in cycles or ()
        ]

    # -- state helpers ----------------------------------------------------

    def _artifact(self, detail: dict) -> FamilyDocument:
        # deleted vertices have empty rows, so these are the live edges
        edges = UGraph(self.n, tuple(self.adj)).edges()
        return FamilyDocument(n=self.n, cycles=(), edges=tuple(edges), meta={"detail": detail})

    def _fail(self, step: str, reason: str, **detail):
        raise StructureViolation(
            step, reason, self._artifact({"reason": reason, **detail})
        )

    def _open_archs(self, size: int | None = None):
        """Live acyclic archipelagos whose neighbourhood is independent (and of
        the given size), ordered by least vertex."""
        for arch in self.archs:
            if not arch.mask & self.alive or arch.cyclic:
                continue
            if size is not None and len(arch.neighborhood) != size:
                continue
            nbhd = mask_of(arch.neighborhood)
            if all(self.adj[v] & nbhd == 0 for v in arch.neighborhood):
                yield arch

    def _safe_pair(self, arch: Archipelago) -> tuple[int, int] | None:
        """The least neighbourhood pair whose edge completes no K4 once the
        archipelago is gone.  For an archipelago from _open_archs the edge is
        also new, so it passes every check of _add_edge."""
        for a, b in combinations(arch.neighborhood, 2):
            if creates_k4(self.adj, a, b) is None:
                return a, b
        return None

    def _join(self, step: str, arch: Archipelago, u: int, v: int):
        self.adj[u] |= 1 << v
        self.adj[v] |= 1 << u
        self.trace.append(TraceStep(step, arch.vertices, (u, v)))

    def _add_edge(self, step: str, u: int, v: int, arch: Archipelago):
        if self.adj[u] >> v & 1:
            self._fail(step, f"edge ({u},{v}) already present", edge=[u, v])
        quad = creates_k4(self.adj, u, v)
        if quad is not None:
            self._fail(
                step,
                f"adding edge ({u},{v}) completes K4 {quad}",
                edge=[u, v], k4=list(quad),
            )
        self._join(step, arch, u, v)

    def _delete_arch(self, arch: Archipelago):
        for v in arch.vertices:
            for u in bits(self.adj[v]):
                self.adj[u] &= ~(1 << v)
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
        if arch.cyclic:
            clean = self._transversal(arch, 0)
            if clean is None:
                self._fail(
                    "lift-plan",
                    f"cyclic archipelago {arch.vertices} has no clean transversal",
                    archipelago=list(arch.vertices),
                )
            return LiftEntry(arch.vertices, "cyclic", arch.neighborhood, clean, None)
        table = {}
        for u in arch.neighborhood:
            t = self._transversal(arch, 1 << u)
            if t is None:
                self._fail(
                    "lift-plan",
                    f"archipelago {arch.vertices} has no transversal toward {u}",
                    archipelago=list(arch.vertices), neighbor=u,
                )
            table[u] = t
        return LiftEntry(arch.vertices, "guarded", arch.neighborhood, None, table)

    # -- step 1: small archipelagos ---------------------------------------

    def _splice_cycles(self, arch: Archipelago, a: int, b: int):
        for rows in self.cyc:
            ka = rows[a] & arch.mask
            kb = rows[b] & arch.mask
            if ka.bit_count() != 1 or kb.bit_count() != 1:
                self._fail(
                    "small",
                    "cycle does not pass the small archipelago as one arc",
                    archipelago=list(arch.vertices), a=a, b=b,
                )
            rows[a] ^= ka | 1 << b
            rows[b] ^= kb | 1 << a
            for v in arch.vertices:
                rows[v] = 0

    def step1(self):
        while True:
            arch = next(self._open_archs(2), None)
            if arch is None:
                return
            a, b = arch.neighborhood
            quad = creates_k4(self.adj, a, b)
            if quad is not None:
                self._fail(
                    "small",
                    f"joining neighbourhood ({a},{b}) completes K4 {quad}",
                    edge=[a, b], k4=list(quad),
                )
            # when the archipelago and its two neighbours were the whole
            # graph, nothing is left to splice, and step 2 reads no cycle
            if (self.alive & ~arch.mask).bit_count() > 2:
                self._splice_cycles(arch, a, b)
            self._delete_arch(arch)
            self._join("small", arch, a, b)

    # -- step 2: reconnect the non-K4 remainder ---------------------------

    def step2(self):
        k4_alive = self.alive & mask_of(v for arch in self.archs for v in arch.vertices)
        plain = self.alive & ~k4_alive
        if not plain:
            return
        comps = connected_components(UGraph(self.n, tuple(self.adj)), within=plain)
        if len(comps) <= 1:
            return
        if not self.cyc:
            self._fail(
                "connect",
                "remainder is disconnected and no Hamiltonian cycle is available "
                "to route reconnecting arcs",
            )
        route = self.cyc[0]
        # walk the maintained cycle once; each step leaves by the row bit that
        # is not the previous vertex (the lowest at the start); a broken cycle
        # stops after n steps at most
        start = (plain & -plain).bit_length() - 1
        seq = [start]
        prev, cur = 0, start
        while len(seq) <= self.n:
            rest = route[cur] & ~prev
            nxt = (rest & -rest).bit_length() - 1
            if nxt == start or not rest:
                break
            prev, cur = 1 << cur, nxt
            seq.append(cur)
        if len(seq) != self.alive.bit_count():
            self._fail("connect", "maintained cycle lost vertices", length=len(seq))
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
                if run & ~self.archs[idx].mask:
                    self._fail("connect", "cycle arc crosses several archipelagos", arc=[u, v])
                arcs.append((min(u, v), max(u, v), idx))
                run = 0
            u = v
        # spanning tree over the components, arcs in ascending endpoint order
        groups = list(comps)
        chosen = []
        for u, v, idx in sorted(arcs):
            gu = next(m for m in groups if m >> u & 1)
            if not gu >> v & 1:
                gv = next(m for m in groups if m >> v & 1)
                groups = [m for m in groups if m not in (gu, gv)] + [gu | gv]
                chosen.append((u, v, idx))
        for u, v, idx in chosen:
            arch = self.archs[idx]
            if arch.mask & self.alive:
                self._delete_arch(arch)
            self._add_edge("connect", u, v, arch)

    # -- step 3: independent neighbourhoods of size 3 ----------------------

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

    def step3(self):
        while True:
            live = list(self._open_archs(3))
            if not live:
                return
            # every archipelago is classified first: a forbidden one fails
            risky = [(arch, edge) for arch, edge in zip(live, map(self._classify3, live)) if edge]
            if risky:
                arch, (a, b) = risky[0]
                self._add_edge("three-risky", a, b, arch)
                self._delete_arch(arch)
                continue
            arch = live[0]
            pair = self._safe_pair(arch)
            if pair is None:
                self._fail(
                    "three",
                    f"archipelago {arch.vertices}: every neighbourhood pair "
                    "completes a K4 (undetected forbidden pattern)",
                    archipelago=list(arch.vertices),
                )
            self._join("three", arch, *pair)
            self._delete_arch(arch)

    # -- step 4: the rest ---------------------------------------------------

    def step4(self):
        while True:
            arch = next(self._open_archs(), None)
            if arch is None:
                break
            size = len(arch.neighborhood)
            if size <= 1:
                self._fail(
                    "final",
                    f"acyclic archipelago {arch.vertices} with neighbourhood of "
                    f"size {size}: impossible for a union of two Hamiltonian cycles",
                    archipelago=list(arch.vertices),
                )
            if size in (2, 3):
                self._fail(
                    "final",
                    f"archipelago {arch.vertices} with independent neighbourhood "
                    f"of size {size} survived its dedicated step",
                    archipelago=list(arch.vertices),
                )
            pair = self._safe_pair(arch)
            if pair is None:
                self._fail(
                    "final",
                    f"archipelago {arch.vertices}: no safe neighbourhood pair",
                    archipelago=list(arch.vertices),
                )
            self._join("final", arch, *pair)
            self._delete_arch(arch)
        for arch in self.archs:
            if arch.mask & self.alive:
                self._delete_arch(arch)
                self.trace.append(TraceStep("final", arch.vertices, None))

    # -- drive --------------------------------------------------------------

    def run(self) -> ReductionResult:
        zeta_total = sum(len(a.k4s) for a in self.archs)
        self.step1()
        self.step2()
        self.step3()
        self.step4()
        h_vertices = tuple(bits(self.alive))
        new_id = {old: i for i, old in enumerate(h_vertices)}
        h = UGraph.from_edges(len(h_vertices), [
            (new_id[u], new_id[v]) for u, v in UGraph(self.n, tuple(self.adj)).edges()
        ])
        post = self._postconditions(h, h_vertices, zeta_total)
        return ReductionResult(
            g=self.g,
            cycles=self.cycles,
            h=h,
            h_vertex_map=h_vertices,
            zeta=zeta_total,
            lift_plan=tuple(self.lift),
            trace=tuple(self.trace),
            postconditions=post,
        )

    def _postconditions(self, h: UGraph, h_vertices, zeta_total: int) -> dict:
        connected = len(connected_components(h)) <= 1 if h.n else True
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
    return _Pipeline(union([c1, c2]), (c1, c2)).run()


def diagnose_reduction(g: UGraph, cycles=None) -> DiagnosticReport:
    """Run the pipeline on an arbitrary max-degree-4 graph and report.

    Unlike technical_reduce this never raises on invariant failures: the
    failing step, reason, and offending state come back in the report.
    """
    if g.max_degree() > 4:
        raise ValueError("diagnostic reduction expects max degree <= 4")
    try:
        result = _Pipeline(g, cycles).run()
    except StructureViolation as exc:
        return DiagnosticReport(
            ok=False, failed_step=exc.step, reason=exc.reason,
            artifact=exc.artifact, result=None,
        )
    return DiagnosticReport(
        ok=True, failed_step=None, reason=None, artifact=None, result=result
    )


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
        if entry.kind == "cyclic":
            out.update(entry.clean)
            continue
        free = [u for u in entry.neighborhood if u not in base]
        if not free:
            raise VerificationError(
                f"lift: neighbourhood {entry.neighborhood} fully inside the set; "
                "the guaranteed internal edge is missing"
            )
        out.update(entry.by_neighbor[min(free)])
    lifted = tuple(sorted(out))
    if len(lifted) != len(iset) + result.zeta:
        raise VerificationError(
            f"lift: {len(lifted)} vertices, expected {len(iset)} + zeta {result.zeta}"
        )
    if not verify_independent(result.g, lifted):
        raise VerificationError(f"lift: {lifted} is not independent in the input union")
    return lifted
