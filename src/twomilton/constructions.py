"""Explicit cycle families with extremal independence behaviour.

- k4_strip: two cycles on 4k vertices whose union is covered by k disjoint K4s
  (alpha = zeta = k = n/4, the tight case).
- triple_n8: three cycles on 8 vertices, every pairwise union K4-covered.
- circulant_family: five cycles on n vertices (n odd, divisible by 3) with all
  ten pairwise unions triangle-covered, so pairwise alpha <= n/3.
- counterexample_strip: a 4-regular K4-free-outside-blocks graph showing that
  the K4 reduction requires genuine two-cycle inputs.
- amplify: chain products of a base family that trade alpha slack against
  family size on N blocks.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from random import Random

from .graphs import HamCycle, UGraph, VerificationError, make_cycle, standard_cycle, union
from .independence import alpha_value


def k4_strip(k: int) -> tuple[HamCycle, HamCycle]:
    """Two cycles on n=4k vertices whose union is k disjoint K4s in a ring.

    Block i sits on {4i, 4i+1, 4i+2, 4i+3}; the first cycle walks each block
    b-a-c-d and hops (4i+3, 4i+5), the second walks a-d-b-c and hops
    (4i+2, 4i+4), so each block collects all six inner edges.
    """
    if k < 1:
        raise ValueError("need k >= 1")
    first: list[int] = []
    second: list[int] = []
    for i in range(k):
        a = 4 * i
        first += [a + 1, a, a + 2, a + 3]
        second += [a, a + 3, a + 1, a + 2]
    return make_cycle(first), make_cycle(second)


def triple_n8() -> tuple[HamCycle, HamCycle, HamCycle]:
    """Three cycles on 8 vertices with every pairwise union covered by two K4s."""
    return (
        standard_cycle(8),
        make_cycle([0, 2, 6, 4, 7, 5, 1, 3]),
        make_cycle([0, 4, 2, 5, 3, 7, 1, 6]),
    )


def _close_paths(n: int, edges: list[tuple[int, int]]) -> HamCycle:
    """Close a disjoint union of paths into a Hamiltonian cycle.

    Paths are oriented from their smaller endpoint, ordered by that endpoint,
    and chained end-to-start (wrapping the last to the first).  Raises if the
    edges do not form spanning disjoint paths or a closing edge already exists.
    """
    nbrs: list[list[int]] = [[] for _ in range(n)]
    for u, v in edges:
        nbrs[u].append(v)
        nbrs[v].append(u)
    if any(len(b) > 2 for b in nbrs):
        raise ValueError("edges are not a union of paths")
    seen = [False] * n
    paths: list[list[int]] = []
    for start in range(n):
        if seen[start] or len(nbrs[start]) == 2:
            continue
        walk = [start]
        seen[start] = True
        cur, prev = start, -1
        while True:
            nxt = [w for w in nbrs[cur] if w != prev]
            if not nxt:
                break
            prev, cur = cur, nxt[0]
            if seen[cur]:
                raise ValueError("edges contain a cycle")
            seen[cur] = True
            walk.append(cur)
        paths.append(walk if walk[0] < walk[-1] else walk[::-1])
    if not all(seen):
        raise ValueError("edges contain a cycle")
    paths.sort(key=lambda p: p[0])
    existing = {frozenset(e) for e in edges}
    order: list[int] = []
    for i, path in enumerate(paths):
        if i:
            closing = frozenset((order[-1], path[0]))
            if closing in existing:
                raise ValueError("closing edge duplicates a path edge")
        order.extend(path)
    if frozenset((order[-1], order[0])) in existing and len(paths) > 1:
        raise ValueError("closing edge duplicates a path edge")
    return make_cycle(order)


def circulant_family(n: int) -> tuple[HamCycle, ...]:
    """Five cycles on n vertices (n odd, 3 | n, n >= 9) with all ten pairwise
    unions triangle-covered, hence pairwise alpha <= n/3.

    The first two are the distance-1 and distance-2 circulants; the other
    three close the 2-edge-star forests centred at 3k, 3k+1, 3k+2 (edges to
    centre+2 and centre+4, mod n).
    """
    if n < 9 or n % 2 == 0 or n % 3:
        raise ValueError("need odd n divisible by 3, n >= 9")
    c1 = standard_cycle(n)
    c2 = make_cycle([(2 * i) % n for i in range(n)])
    closed = []
    for r in range(3):
        edges = []
        for k in range(n // 3):
            centre = 3 * k + r
            edges.append(tuple(sorted((centre, (centre + 2) % n))))
            edges.append(tuple(sorted((centre, (centre + 4) % n))))
        closed.append(_close_paths(n, edges))
    return (c1, c2, *closed)


def counterexample_strip(units: int) -> UGraph:
    """A connected 4-regular graph on 8u vertices with zeta = u and alpha = 2u.

    Each unit is a K4 {0,1,2,3} plus middles 4 ~ {0,1}, 5 ~ {2,3} and a bar
    6 ~ 7, both bar vertices adjacent to both middles; bars chain across units
    (7 of one unit to 6 of the next).  Its K4 neighbourhoods are independent
    pairs whose reconnection always completes a new K4, so the graph certifies
    that the reduction pipeline needs unions of two Hamiltonian cycles.
    """
    if units < 2:
        raise ValueError("need units >= 2")
    n = 8 * units
    edges = []
    for i in range(units):
        b = 8 * i
        edges += [
            (b, b + 1), (b, b + 2), (b, b + 3), (b + 1, b + 2),
            (b + 1, b + 3), (b + 2, b + 3),
            (b + 4, b), (b + 4, b + 1), (b + 5, b + 2), (b + 5, b + 3),
            (b + 6, b + 4), (b + 6, b + 5), (b + 7, b + 4), (b + 7, b + 5),
            (b + 6, b + 7),
            (b + 7, (b + 8 + 6) % n),
        ]
    return UGraph.from_edges(n, edges)


@dataclass(frozen=True)
class AmplifyResult:
    """Output of amplify: the family, its chains, and the pairwise alpha bound."""

    n: int
    cycles: tuple[HamCycle, ...]
    chains: tuple[tuple[int, ...], ...]
    bound: Fraction
    base_alpha_ratio: Fraction
    agreement_cap: int
    attempts: tuple[int, ...]


def base_alpha_ratio(base: tuple[HamCycle, ...]) -> Fraction:
    """max over base pairs of alpha(union)/n, exact."""
    n0 = base[0].n
    worst = Fraction(0)
    for i in range(len(base)):
        for j in range(i + 1, len(base)):
            worst = max(worst, Fraction(alpha_value(union([base[i], base[j]])), n0))
    return worst


def amplify(
    base: tuple[HamCycle, ...],
    blocks: int,
    family_size: int,
    seed: str = "amplify",
    eps: Fraction = Fraction(1, 4),
    max_attempts: int = 10000,
) -> AmplifyResult:
    """Build family_size cycles on blocks * n0 vertices from a base family.

    Cycle j picks one base cycle per block via a chain drawn from a seeded
    generator; chains are resampled until every earlier chain agrees with the
    new one on at most blocks/k0 + eps*blocks positions.  Block a is the chosen
    base cycle shifted onto [a*n0, (a+1)*n0) with the edge at its first vertex
    (toward the larger cycle neighbour) deleted; first vertices of blocks
    2i, 2i+1 are matched, and the resulting superpaths are closed in a ring.

    Any pair of results has alpha <= cap*n0/2 + (blocks - cap)*c0*n0 + blocks/2
    where cap = blocks/k0 + eps*blocks and c0 = base_alpha_ratio(base): blocks
    with equal chain entries contribute an intact base union (alpha <= c0*n0),
    unequal blocks at most n0/2, and the matching limits first vertices.
    The construction is deterministic in (base, blocks, family_size, seed, eps).
    """
    k0 = len(base)
    n0 = base[0].n
    if blocks < 2 or blocks % 2:
        raise ValueError("blocks must be even and >= 2")
    if any(c.n != n0 for c in base):
        raise ValueError("base cycles must share a vertex count")
    cap_exact = Fraction(blocks, k0) + eps * blocks
    cap = int(cap_exact)
    chains: list[tuple[int, ...]] = []
    attempts_log: list[int] = []
    for j in range(family_size):
        attempt = 0
        while True:
            rng = Random(f"{seed}:chain:{j}:{attempt}")
            chain = tuple(rng.randrange(k0) for _ in range(blocks))
            agree = [
                sum(a == b for a, b in zip(chain, earlier)) for earlier in chains
            ]
            if all(x <= cap for x in agree):
                break
            attempt += 1
            if attempt >= max_attempts:
                raise ValueError(
                    f"chain {j}: no admissible chain within {max_attempts} attempts; "
                    f"raise eps or blocks"
                )
        chains.append(chain)
        attempts_log.append(attempt)
    cycles = tuple(_assemble(base, chain, n0) for chain in chains)
    c0 = base_alpha_ratio(base)
    bound = (
        cap_exact * Fraction(n0, 2)
        + (blocks - cap_exact) * c0 * n0
        + Fraction(blocks, 2)
    )
    return AmplifyResult(
        n=blocks * n0,
        cycles=cycles,
        chains=tuple(chains),
        bound=bound,
        base_alpha_ratio=c0,
        agreement_cap=cap,
        attempts=tuple(attempts_log),
    )


def _assemble(base: tuple[HamCycle, ...], chain: tuple[int, ...], n0: int) -> HamCycle:
    """Stitch shifted base blocks into one Hamiltonian cycle (see amplify)."""
    paths = []
    for a, pick in enumerate(chain):
        order = base[pick].order
        at0 = order.index(0)
        bigger = max(order[at0 - 1], order[(at0 + 1) % n0])
        # path from 0 to its larger neighbour, walking away from that neighbour
        if order[(at0 + 1) % n0] == bigger:
            walk = [order[(at0 - t) % n0] for t in range(n0)]
        else:
            walk = [order[(at0 + t) % n0] for t in range(n0)]
        if walk[0] != 0 or walk[-1] != bigger:
            raise VerificationError(f"block walk {walk} does not run from 0 to {bigger}")
        paths.append([a * n0 + v for v in walk])
    order_out: list[int] = []
    for i in range(0, len(chain), 2):
        # e ... v(2i) - v(2i+1) ... f, entered at e = far end of block 2i
        order_out.extend(reversed(paths[i]))
        order_out.extend(paths[i + 1])
    return make_cycle(order_out)
