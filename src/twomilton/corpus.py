"""Seeded random generators for reproducible test corpora.

All generators take a string seed and derive their randomness from
random.Random(f"{kind}:{params}:{seed}"), so corpora regenerate bit-identically
across runs and machines.
"""

from __future__ import annotations

from fractions import Fraction
from math import ceil
from random import Random

from .graphs import HamCycle, UGraph, canonical_key, cycle_graph, make_cycle, relabel_keys
from .k4 import creates_k4, window_path


def random_cycle(n: int, rng: Random) -> HamCycle:
    rest = list(range(1, n))
    rng.shuffle(rest)
    return make_cycle([0] + rest)


def random_pair(n: int, seed: str) -> tuple[HamCycle, HamCycle]:
    """Two distinct uniform Hamiltonian cycles on n vertices, n >= 4."""
    if n < 4:
        raise ValueError("need n >= 4: the triangle is the only cycle on 3 vertices")
    rng = Random(f"pair:{n}:{seed}")
    c1 = random_cycle(n, rng)
    while True:
        c2 = random_cycle(n, rng)
        if canonical_key(c1) != canonical_key(c2):
            return c1, c2


def planted_pair(n: int, k4s: int, seed: str) -> tuple[HamCycle, HamCycle]:
    """Two cycles whose union contains at least k4s disjoint K4s.

    The second cycle completes the complementary path on k4s disjoint windows
    of 4 consecutive vertices of the first and threads the rest randomly; both
    cycles are then relabeled by a random permutation.
    """
    if n < 4:
        raise ValueError("need n >= 4: the triangle is the only cycle on 3 vertices")
    if n < 4 * k4s + (2 if k4s else 0) or k4s < 0:
        raise ValueError("too many K4s requested for this n")
    rng = Random(f"planted:{n}:{k4s}:{seed}")
    starts = [4 * i for i in range(k4s)]
    for _ in range(200):
        cand = sorted(rng.sample(range(n - 3), k4s)) if k4s else []
        if all(b - a >= 4 for a, b in zip(cand, cand[1:])):
            starts = cand
            break
    in_window = set()
    pieces: list[tuple[int, ...]] = []
    for s in starts:
        pieces.append(window_path(n, s))
        in_window.update(range(s, s + 4))
    pieces.extend((v,) for v in range(n) if v not in in_window)
    rng.shuffle(pieces)
    order: list[int] = []
    for piece in pieces:
        order.extend(piece if rng.random() < 0.5 else piece[::-1])
    c1 = make_cycle(range(n))
    c2 = make_cycle(order)
    if canonical_key(c1) == canonical_key(c2):
        return planted_pair(n, k4s, seed + "'")
    perm = list(range(n))
    rng.shuffle(perm)
    return tuple(HamCycle(key) for c in (c1, c2) for key in relabel_keys(c.order, (perm,)))


def random_k4free(n: int, seed: str) -> UGraph:
    """A connected K4-free graph, max degree <= 4, never 4-regular.

    Starts from a random Hamiltonian cycle and adds random chords while the
    edge count stays below a target drawn from [n, 2n-1]; chords that would
    exceed degree 4 or complete a K4 are skipped.  The edge budget < 2n keeps
    at least one vertex below degree 4.
    """
    rng = Random(f"k4free:{n}:{seed}")
    adj = list(cycle_graph(random_cycle(n, rng)).adj)
    target = rng.randint(n, 2 * n - 1)
    edges = n  # the cycle's
    tries = 0
    while edges < target and tries < 20 * n:
        tries += 1
        u, v = rng.randrange(n), rng.randrange(n)
        if u == v or adj[u] >> v & 1:
            continue
        if adj[u].bit_count() >= 4 or adj[v].bit_count() >= 4:
            continue
        if creates_k4(adj, u, v) is not None:
            continue
        adj[u] |= 1 << v
        adj[v] |= 1 << u
        edges += 1
    return UGraph(n, tuple(adj))


def random_johnson_system(n: int, x, eps, seed: str) -> list[frozenset[int]]:
    """A qualifying set system by greedy rejection sampling.

    Draws 2000 sets of exactly ceil(x*n) elements and keeps one when every
    pairwise intersection with the kept sets stays at or below (1-eps)*x^2*n,
    so the output always satisfies the set-system preconditions.  eps = 1
    asks for pairwise disjoint sets; beyond it the cap is negative.
    """
    x = Fraction(x)
    eps = Fraction(eps)
    if n < 1 or not 0 < x <= 1 or not 0 < eps <= 1:
        raise ValueError("need n >= 1, 0 < x <= 1 and 0 < eps <= 1")
    size = ceil(x * n)
    cap = (1 - eps) * x * x * n
    rng = Random(f"johnson:{n}:{x}:{eps}:{seed}")
    out: list[frozenset[int]] = []
    for _ in range(2000):
        cand = frozenset(rng.sample(range(n), size))
        if all(len(cand & kept) <= cap for kept in out):
            out.append(cand)
    return out
