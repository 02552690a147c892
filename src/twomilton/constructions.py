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

# chain draws per family member before amplify gives up
MAX_ATTEMPTS = 10000


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


def circulant_family(n: int) -> tuple[HamCycle, ...]:
    """Five cycles on n vertices (n odd, 3 | n, n >= 9) with all ten pairwise
    unions triangle-covered, hence pairwise alpha <= n/3.

    The first two are the distance-1 and distance-2 circulants.  For each
    residue r mod 3, the centres c = r, r+3, ... with edges to c+2 and c+4
    (mod n) form n/3 disjoint paths (c+2, c, c+4) through every vertex; the
    cycle runs them in the order of their smaller ends, each from that end.
    """
    if n < 9 or n % 2 == 0 or n % 3:
        raise ValueError("need odd n divisible by 3, n >= 9")
    c1 = standard_cycle(n)
    c2 = make_cycle([(2 * i) % n for i in range(n)])
    closed = []
    for r in range(3):
        paths = [((c + 2) % n, c, (c + 4) % n) for c in range(r, n, 3)]
        paths = sorted(p if p[0] < p[-1] else p[::-1] for p in paths)
        closed.append(make_cycle([v for p in paths for v in p]))
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
    agreement_cap: int


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
    if family_size < 0:
        raise ValueError("family_size must be >= 0")
    if any(c.n != n0 for c in base):
        raise ValueError("base cycles must share a vertex count")
    cap_exact = Fraction(blocks, k0) + eps * blocks
    cap = int(cap_exact)
    chains: list[tuple[int, ...]] = []
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
            if attempt >= MAX_ATTEMPTS:
                raise ValueError(
                    f"chain {j}: no admissible chain within {MAX_ATTEMPTS} attempts; "
                    f"raise eps or blocks"
                )
        chains.append(chain)
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
        agreement_cap=cap,
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
