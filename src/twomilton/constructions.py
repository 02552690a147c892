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

from fractions import Fraction
from itertools import combinations
from math import floor
from random import Random
from typing import NamedTuple

from .graphs import HamCycle, UGraph, canonical_key, make_cycle, standard_cycle, union

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


class AmplifyResult(NamedTuple):
    """Output of amplify: the family, its chains, and the pairwise alpha bound."""

    n: int
    cycles: tuple[HamCycle, ...]
    chains: tuple[tuple[int, ...], ...]
    bound: Fraction
    agreement_cap: int


def base_alpha_ratio(base: tuple[HamCycle, ...]) -> Fraction:
    """max over base pairs of alpha(union)/n, exact; 0 for a one-cycle base."""
    from .independence import alpha_value

    return max(
        (Fraction(alpha_value(union(pair)), base[0].n) for pair in combinations(base, 2)),
        default=Fraction(0),
    )


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
    new one on at most cap = blocks/k0 + eps*blocks positions.  Block a is the
    chosen base cycle shifted onto [a*n0, (a+1)*n0) with the edge at its first
    vertex (toward the larger cycle neighbour) deleted; first vertices of
    blocks 2i, 2i+1 are matched, and the resulting superpaths are closed in a
    ring.  eps must lie in [0, 1 - 1/k0): above that the cap reaches blocks
    and a chain may repeat.

    Bound, for any base of k0 >= 2 cycles on n0 vertices with pairwise ratio
    c0 = base_alpha_ratio(base); c0 <= 1/2, as one Hamiltonian cycle alone
    has alpha <= n0/2.  Let I be independent in the union of two results.
    Every edge the construction deletes touches a block's first vertex, so
    apart from that vertex a block holds every edge of its two picked base
    cycles.  Where the chains agree both cycles carry the same path there,
    and I takes at most n0/2 of the block, plus 1 if it takes the first
    vertex.  Where they disagree the block holds the union of two distinct
    base cycles, and I takes at most c0*n0 of it, plus 1 if it takes the
    first vertex.  The
    first vertices of blocks 2i and 2i+1 are adjacent in both cycles, so the
    "plus 1" terms total at most blocks/2.  Since c0 <= 1/2 the sum grows
    with the agreement count, which is at most cap, so

        alpha <= cap*n0/2 + (blocks - cap)*c0*n0 + blocks/2
               = blocks * n0 * semirandom_rate(n0, c0, k0, eps*(1/2 - c0)).

    The construction is deterministic in (base, blocks, family_size, seed, eps).
    """
    from .bounds import semirandom_rate

    k0 = len(base)
    if k0 < 2:
        raise ValueError("base must have at least two cycles")
    n0 = base[0].n
    if blocks < 2 or blocks % 2:
        raise ValueError("blocks must be even and >= 2")
    if family_size < 0:
        raise ValueError("family_size must be >= 0")
    if not 0 <= eps < 1 - Fraction(1, k0):
        raise ValueError(f"eps must lie in [0, 1 - 1/k0) = [0, {1 - Fraction(1, k0)}), got {eps}")
    cap = Fraction(blocks, k0) + eps * blocks
    # before any draw; its unions also refuse base cycles of different sizes
    c0 = base_alpha_ratio(base)
    chains: list[tuple[int, ...]] = []
    for j in range(family_size):
        for attempt in range(MAX_ATTEMPTS):
            rng = Random(f"{seed}:chain:{j}:{attempt}")
            chain = tuple(rng.randrange(k0) for _ in range(blocks))
            if all(sum(a == b for a, b in zip(chain, earlier)) <= cap for earlier in chains):
                break
        else:
            raise ValueError(
                f"chain {j}: no admissible chain within {MAX_ATTEMPTS} attempts; "
                f"raise eps or blocks"
            )
        chains.append(chain)
    return AmplifyResult(
        n=blocks * n0,
        cycles=tuple(_assemble(base, chain) for chain in chains),
        chains=tuple(chains),
        bound=blocks * n0 * semirandom_rate(n0, c0, k0, eps * (Fraction(1, 2) - c0)),
        agreement_cap=floor(cap),
    )


def _assemble(base: tuple[HamCycle, ...], chain: tuple[int, ...]) -> HamCycle:
    """Stitch shifted base blocks into one Hamiltonian cycle (see amplify).

    Block a is the canonical key of base[chain[a]] shifted by a * n0: the path
    from 0 toward its smaller cycle neighbour that ends at the larger one, so
    the deleted edge is 0's edge toward the larger neighbour.
    """
    n0 = base[0].n
    paths = [[a * n0 + v for v in canonical_key(base[pick])] for a, pick in enumerate(chain)]
    order_out: list[int] = []
    for i in range(0, len(chain), 2):
        # e ... v(2i) - v(2i+1) ... f, entered at e = far end of block 2i
        order_out.extend(reversed(paths[i]))
        order_out.extend(paths[i + 1])
    return make_cycle(order_out)
