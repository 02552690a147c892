"""Seeded random generators for reproducible test corpora.

All generators take a string seed and derive their randomness from
random.Random(f"{kind}:{params}:{seed}"), so corpora regenerate bit-identically
across runs and machines.
"""

from __future__ import annotations

from fractions import Fraction
from math import ceil
from random import Random

from .graphs import HamCycle, UGraph, canonical_key, make_cycle, relabel_cycle, union
from .k4 import creates_k4


def random_cycle(n: int, rng: Random) -> HamCycle:
    rest = list(range(1, n))
    rng.shuffle(rest)
    return make_cycle([0] + rest)


def random_pair(n: int, seed: str) -> tuple[HamCycle, HamCycle]:
    """Two distinct uniform Hamiltonian cycles on n vertices."""
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
    pieces: list[list[int]] = []
    for s in starts:
        pieces.append([s + 2, s, s + 3, s + 1])
        in_window.update(range(s, s + 4))
    pieces.extend([v] for v in range(n) if v not in in_window)
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
    return relabel_cycle(c1, perm), relabel_cycle(c2, perm)


def random_k4free(n: int, seed: str) -> UGraph:
    """A connected K4-free graph, max degree <= 4, never 4-regular.

    Starts from a random Hamiltonian cycle and adds random chords while the
    edge count stays below a target drawn from [n, 2n-1]; chords that would
    exceed degree 4 or complete a K4 are skipped.  The edge budget < 2n keeps
    at least one vertex below degree 4.
    """
    rng = Random(f"k4free:{n}:{seed}")
    g = union([random_cycle(n, rng)])
    target = rng.randint(n, 2 * n - 1)
    tries = 0
    while g.edge_count() < target and tries < 20 * n:
        tries += 1
        u, v = rng.randrange(n), rng.randrange(n)
        if u == v or g.has_edge(u, v):
            continue
        if g.degree(u) >= 4 or g.degree(v) >= 4:
            continue
        if creates_k4(g.adj, u, v) is not None:
            continue
        g = g.with_edge(u, v)
    return g


def random_johnson_system(n: int, x, eps, seed: str, tries: int = 2000) -> list[frozenset[int]]:
    """A qualifying set system by greedy rejection sampling.

    Draws sets of exactly ceil(x*n) elements and keeps one when every pairwise
    intersection with the kept sets stays at or below (1-eps)*x^2*n, so the
    output always satisfies the set-system preconditions.
    """
    x = Fraction(x)
    eps = Fraction(eps)
    if not 0 < x <= 1 or eps <= 0:
        raise ValueError("need 0 < x <= 1 and eps > 0")
    size = ceil(x * n)
    cap = (1 - eps) * x * x * n
    rng = Random(f"johnson:{n}:{x}:{eps}:{seed}")
    out: list[frozenset[int]] = []
    for _ in range(tries):
        cand = frozenset(rng.sample(range(n), size))
        if all(len(cand & kept) <= cap for kept in out):
            out.append(cand)
    return out
