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
        self.archs = archipelagos(g)
        self.trace: list[TraceStep] = []
        self.lift: list[LiftEntry] = []
        # cycle neighbour lists for splicing (first cycle also routes step 2)
        self.cyc: list[list[list[int]] | None] = [
            [list(pair) for pair in c.successors()] for c in cycles or ()
        ]

    # -- state helpers ----------------------------------------------------

    def _artifact(self, detail: dict) -> FamilyDocument:
        edges = []
        for v in bits(self.alive):
            for u in bits(self.adj[v]):
                if u > v:
                    edges.append((v, u))
        return FamilyDocument(
            n=self.n, cycles=(), edges=tuple(edges),
            meta={"detail": detail},
        )

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
            if creates_k4(self.adj, a, b, arch.mask) is None:
                return a, b
        return None

    def _join(self, step: str, arch: Archipelago, u: int, v: int):
        self.adj[u] |= 1 << v
        self.adj[v] |= 1 << u
        self.trace.append(TraceStep(step, arch.vertices, (u, v)))

    def _add_edge(self, step: str, u: int, v: int, arch: Archipelago,
                  ignore: int = 0):
        if self.adj[u] >> v & 1:
            self._fail(step, f"edge ({u},{v}) already present", edge=[u, v])
        quad = creates_k4(self.adj, u, v, ignore)
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
        g = self.g
        quads = arch.k4s

        def rec(i: int, chosen: int, acc: list):
            if i == len(quads):
                return tuple(acc)
            for v in quads[i]:
                if g.adj[v] & chosen:
                    continue
                if g.adj[v] & ~arch.mask & ~allowed_outside:
                    continue
                acc.append(v)
                got = rec(i + 1, chosen | 1 << v, acc)
                if got is not None:
                    return got
                acc.pop()
            return None

        return rec(0, 0, [])

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
        for nbrs in self.cyc:
            if nbrs is None:
                continue
            ka = [w for w in nbrs[a] if arch.mask >> w & 1]
            kb = [w for w in nbrs[b] if arch.mask >> w & 1]
            if len(ka) != 1 or len(kb) != 1:
                self._fail(
                    "small",
                    "cycle does not pass the small archipelago as one arc",
                    archipelago=list(arch.vertices), a=a, b=b,
                )
            nbrs[a][nbrs[a].index(ka[0])] = b
            nbrs[b][nbrs[b].index(kb[0])] = a
            nbrs[a].sort()
            nbrs[b].sort()
            for v in arch.vertices:
                nbrs[v] = []

    def step1(self):
        while True:
            arch = next(self._open_archs(2), None)
            if arch is None:
                return
            a, b = arch.neighborhood
            # the archipelago counts as deleted, so the test sees the final state
            quad = creates_k4(self.adj, a, b, arch.mask)
            if quad is not None:
                self._fail(
                    "small",
                    f"joining neighbourhood ({a},{b}) completes K4 {quad}",
                    edge=[a, b], k4=list(quad),
                )
            if (self.alive & ~arch.mask).bit_count() <= 2:
                # the archipelago plus its two neighbours was the whole graph
                self.cyc = [None for _ in self.cyc]
            else:
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
        route = self.cyc[0] if self.cyc else None
        if route is None:
            self._fail(
                "connect",
                "remainder is disconnected and no Hamiltonian cycle is available "
                "to route reconnecting arcs",
            )
        comp_of = {}
        for ci, comp in enumerate(comps):
            for v in bits(comp):
                comp_of[v] = ci
        arch_of = {}
        for idx, arch in enumerate(self.archs):
            for v in bits(arch.mask & self.alive):
                arch_of[v] = idx
        # walk the maintained cycle once, recording arcs through archipelagos
        start = None
        for v in bits(plain):
            start = v
            break
        seq = [start]
        prev, cur = None, start
        while True:
            a, b = route[cur]
            nxt = b if a == prev else a
            if nxt == start:
                break
            prev, cur = cur, nxt
            seq.append(cur)
        if len(seq) != self.alive.bit_count():
            self._fail("connect", "maintained cycle lost vertices", length=len(seq))
        arcs = []
        i = 0
        L = len(seq)
        while i < L:
            if k4_alive >> seq[i] & 1:
                j = i
                while k4_alive >> seq[j % L] & 1:
                    j += 1
                u = seq[i - 1]
                v = seq[j % L]
                run_archs = {arch_of[seq[t % L]] for t in range(i, j)}
                if len(run_archs) != 1:
                    self._fail(
                        "connect", "cycle arc crosses several archipelagos",
                        arc=[u, v],
                    )
                arcs.append((min(u, v), max(u, v), run_archs.pop()))
                i = j
            else:
                i += 1
        # spanning tree over components, arcs in ascending endpoint order
        parent = list(range(len(comps)))

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        chosen = []
        for u, v, idx in sorted(arcs):
            ru, rv = find(comp_of[u]), find(comp_of[v])
            if ru != rv:
                parent[ru] = rv
                chosen.append((u, v, idx))
        for u, v, idx in chosen:
            arch = self.archs[idx]
            if arch.mask & self.alive:
                self._delete_arch(arch)
            self._add_edge("connect", u, v, arch)

    # -- step 3: independent neighbourhoods of size 3 ----------------------

    def _classify3(self, arch: Archipelago):
        """Forbidden/risky patterns on an independent 3-neighbourhood.

        Returns ("forbidden", None) or ("risky", (a, b)) with the edge to add,
        or (None, None).  Outside pair (o1, o2): counts spokes from the three
        neighbourhood vertices; 6 spokes + o1o2 edge is forbidden, 6 spokes
        without the edge or 5 spokes + the edge is risky when the gap sits as
        the pattern demands relative to the marked vertices (>= 2 edges into
        the archipelago).
        """
        trio = arch.neighborhood
        marked = [
            w for w in trio
            if (self.g.adj[w] & arch.mask).bit_count() >= 2
        ]
        outside = 0
        excl = arch.mask | mask_of(trio)
        for w in trio:
            outside |= self.adj[w] & ~excl
        hits = []
        for o1, o2 in combinations(sorted(bits(outside)), 2):
            spokes = {w: [] for w in trio}
            for w in trio:
                for o in (o1, o2):
                    if self.adj[w] >> o & 1:
                        spokes[w].append(o)
            total = sum(len(s) for s in spokes.values())
            o_edge = bool(self.adj[o1] >> o2 & 1)
            if total == 6 and o_edge:
                return "forbidden", None
            if total == 6 and not o_edge and marked:
                a = marked[0]
                b = min(w for w in trio if w != a)
                hits.append((1, o1, o2, a, b))
            elif total == 5 and o_edge:
                short = [w for w in trio if len(spokes[w]) == 1]
                if len(short) != 1:
                    continue
                w0 = short[0]
                if w0 in marked:
                    others = [w for w in trio if w != w0]
                    hits.append((3, o1, o2, w0, min(others)))
                else:
                    full_marked = [w for w in marked if w != w0]
                    if full_marked:
                        hits.append((2, o1, o2, full_marked[0], w0))
        if hits:
            hits.sort()
            _, _, _, a, b = hits[0]
            return "risky", (min(a, b), max(a, b))
        return None, None

    def step3(self):
        while True:
            live = list(self._open_archs(3))
            if not live:
                return
            risky = []
            for arch in live:
                kind, edge = self._classify3(arch)
                if kind == "forbidden":
                    self._fail(
                        "three",
                        f"forbidden archipelago {arch.vertices}: its neighbourhood "
                        "pattern admits no safe reconnecting edge",
                        archipelago=list(arch.vertices),
                    )
                if kind == "risky":
                    risky.append((arch, edge))
            if risky:
                arch, (a, b) = risky[0]
                self._add_edge("three-risky", a, b, arch, ignore=arch.mask)
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
        h_edges = []
        for v in h_vertices:
            for u in bits(self.adj[v]):
                if u > v:
                    h_edges.append((new_id[v], new_id[u]))
        h = UGraph.from_edges(len(h_vertices), h_edges)
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
    if c1.n != c2.n:
        raise ValueError("cycles must share the vertex set")
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
