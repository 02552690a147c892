"""Searches over Hamiltonian cycle families: exact f(n, k) and special pairs.

f(n, k) is the largest size of a family of distinct Hamiltonian cycles on a
common n-vertex ground set whose pairwise unions all have independence number
at most k.  Relabeling is a bijection on such families, so one member of a
maximum family (when any exist) can be pinned to the standard cycle: f equals
one plus the clique number of the compatibility graph over the partner cycles
that survive the pinned filter.

The filter itself is exact: alpha(C_std | C) <= k iff every (k+1)-subset that
is independent in the standard cycle contains an edge of C.  Subsets are
indexed once and each candidate cycle folds its n edges into one hit mask, so
a cycle is scanned in O(n) big-int operations.
"""

from __future__ import annotations

import random
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from itertools import combinations, permutations, product
from math import factorial

from .constructions import circulant_family, k4_strip
from .graphs import (
    HamCycle, VerificationError, bits, canonical_key, cycle_graph, make_cycle, max_clique,
    standard_cycle, union,
)
from .independence import alpha_value
from .k4 import zeta
from .limits import check_limit, limit


class WitnessCheckError(VerificationError):
    """A pair of cycles in a computed witness family has a union with alpha > k."""


def dihedral_stabilizer(cycle: HamCycle) -> tuple[tuple[int, ...], ...]:
    """The 2n vertex permutations that map the cycle onto itself."""
    order = cycle.order
    n = cycle.n
    pos = {v: i for i, v in enumerate(order)}
    maps = []
    for r in range(n):
        for sign in (1, -1):
            perm = [0] * n
            for v in range(n):
                perm[v] = order[(r + sign * pos[v]) % n]
            maps.append(tuple(perm))
    return tuple(maps)


def enumerate_cycles(n: int, pinned: HamCycle | None = None):
    """Yield each of the (n-1)!/2 distinct Hamiltonian cycles exactly once.

    Orders are normalized to start at 0 with the smaller neighbor second.
    With `pinned`, only one representative per orbit of the pinned cycle's
    dihedral stabilizer is yielded.
    """
    if n < 3:
        raise ValueError("a Hamiltonian cycle needs n >= 3")
    check_limit("enum", n, "cycle enumeration")
    maps = None
    if pinned is not None:
        if pinned.n != n:
            raise ValueError("pinned cycle is on the wrong vertex count")
        maps = dihedral_stabilizer(pinned)
    for tail in permutations(range(1, n)):
        if tail[0] > tail[-1]:
            continue
        order = (0,) + tail
        if maps is not None:
            key = canonical_key(HamCycle(order))
            if any(canonical_key(HamCycle(tuple(m[v] for v in order))) < key for m in maps):
                continue
        yield make_cycle(order)


def _independent_subsets(n, r):
    """r-subsets of range(n) with no two members adjacent on the standard cycle."""
    out = []
    for s in combinations(range(n), r):
        if all(s[i + 1] - s[i] >= 2 for i in range(r - 1)) and not (
            r >= 2 and s[0] == 0 and s[-1] == n - 1
        ):
            out.append(s)
    return out


def _pair_rows(n, subsets):
    """rows[a][b] = bitmask of the subsets containing both a and b."""
    rows = [[0] * n for _ in range(n)]
    for i, s in enumerate(subsets):
        bit = 1 << i
        for a, b in combinations(s, 2):
            rows[a][b] |= bit
            rows[b][a] |= bit
    return rows


def _scan_task(args):
    """Survivor orders among cycles (0, p1, p2, *rest): one fixed-prefix task."""
    n, k, p1, p2 = args
    subsets = _independent_subsets(n, k + 1)
    rows = _pair_rows(n, subsets)
    full = (1 << len(subsets)) - 1
    base = rows[0][p1] | rows[p1][p2]
    pool = [v for v in range(1, n) if v != p1 and v != p2]
    out = []
    if not pool:
        if p1 < p2 and base | rows[p2][0] == full:
            out.append((0, p1, p2))
        return out
    for last in pool:
        if last < p1:
            continue
        closing = rows[last][0]
        remaining = [v for v in pool if v != last]
        for mid in permutations(remaining):
            acc = base
            prev = p2
            for v in mid:
                acc |= rows[prev][v]
                prev = v
            if acc | rows[prev][last] | closing == full:
                out.append((0, p1, p2) + mid + (last,))
    return out


def _compatibility_rows(masks):
    """Bitset adjacency rows of the graph where i ~ j iff masks[i] & masks[j] == 0.

    holders[b] collects the members whose mask has bit b, so the members that
    clash with i are the union of holders[b] over the bits b of masks[i].
    """
    holders = [0] * max(masks, default=0).bit_length()
    for i, m in enumerate(masks):
        for b in bits(m):
            holders[b] |= 1 << i
    everyone = (1 << len(masks)) - 1
    adj = []
    for i, m in enumerate(masks):
        clash = 1 << i
        for b in bits(m):
            clash |= holders[b]
        adj.append(everyone & ~clash)
    return adj


@dataclass(frozen=True)
class FSearchResult:
    n: int
    k: int
    value: int
    witnesses: tuple[HamCycle, ...]
    mode: str  # "exhaustive" or "lower-bound"
    examined: int
    elapsed: float
    log: tuple[str, ...]


def compute_f(n: int, k: int, workers: int = 1) -> FSearchResult:
    """Exact f(n, k) for n <= 12; a labeled construction lower bound beyond.

    The exhaustive mode streams all (n-1)!/2 cycle orders in deterministic
    prefix-task order, so the result is independent of `workers`.
    """
    if n < 3:
        raise ValueError("need n >= 3")
    if k < 0:
        raise ValueError("need k >= 0")
    if workers < 1:
        raise ValueError("need workers >= 1")
    t0 = time.perf_counter()
    total = factorial(n - 1) // 2
    log = ["pinned first cycle to the standard order; families are closed under relabeling"]
    if k >= n // 2:
        # any union of two cycles has alpha <= floor(n/2) <= k, so every pair
        # of distinct cycles qualifies and the family of all cycles is maximum
        witnesses = tuple(enumerate_cycles(n)) if total <= 1000 else ()
        log.append(f"alpha of any union <= floor(n/2) = {n // 2} <= k = {k}")
        log.append(f"f({n},{k}) = {total}: the family of all distinct cycles")
        return FSearchResult(n, k, total, witnesses, "exhaustive", 0, time.perf_counter() - t0, tuple(log))
    if n > 12:
        return _construction_lower_bound(n, k, t0, log)
    check_limit("enum", n, "exhaustive f-search")

    tasks = [(n, k, p1, p2) for p1 in range(1, n) for p2 in range(1, n) if p2 != p1]
    if workers == 1:
        chunks = [_scan_task(t) for t in tasks]
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            chunks = list(pool.map(_scan_task, tasks, chunksize=max(1, len(tasks) // (4 * workers))))
    survivors = [order for chunk in chunks for order in chunk]
    log.append(f"examined {total} distinct cycles across {len(tasks)} prefix tasks (workers={workers})")
    log.append(f"survivors with alpha(union with standard) <= {k}: {len(survivors)}")

    all_subsets = list(combinations(range(n), k + 1))
    rows = _pair_rows(n, all_subsets)
    full = (1 << len(all_subsets)) - 1
    masks = []
    for order in survivors:
        hit = 0
        prev = order[-1]
        for v in order:
            hit |= rows[prev][v]
            prev = v
        masks.append(full & ~hit)
    clique = max_clique(_compatibility_rows(masks))
    value = 1 + len(clique)
    witnesses = (standard_cycle(n),) + tuple(make_cycle(survivors[i]) for i in clique)
    for a, b in combinations(witnesses, 2):
        alpha_ab = alpha_value(union([a, b]))
        if alpha_ab > k:
            raise WitnessCheckError(
                f"f({n},{k}) witnesses {a.order} and {b.order}: "
                f"alpha of their union is {alpha_ab} > {k}"
            )
    log.append(f"maximum clique among survivors: {len(clique)}")
    log.append(f"f({n},{k}) = {value}; witness family re-verified pairwise")
    return FSearchResult(n, k, value, witnesses, "exhaustive", total, time.perf_counter() - t0, tuple(log))


def _family_alpha_ok(cycles, k):
    return all(alpha_value(union([a, b])) <= k for a, b in combinations(cycles, 2))


def _construction_lower_bound(n, k, t0, log):
    log.append("n > 12 is out of exhaustive range; reporting a construction lower bound")
    best = (standard_cycle(n),)
    verifiable = n <= limit("alpha")
    if n % 4 == 0 and n // 4 <= k:
        pair = k4_strip(n // 4)
        if not verifiable or _family_alpha_ok(pair, k):
            best = pair
            log.append(f"strip pair: alpha of the union is n/4 = {n // 4} <= k")
    if n % 2 == 1 and n % 3 == 0 and n >= 9 and n // 3 <= k:
        fam = circulant_family(n)
        if not verifiable or _family_alpha_ok(fam, k):
            if len(fam) > len(best):
                best = tuple(fam)
                log.append(f"circulant family: 10 cycles, pairwise alpha <= n/3 = {n // 3} <= k")
    if not verifiable:
        log.append("witness values taken from the constructions; n exceeds the alpha solver limit")
    log.append(f"f({n},{k}) >= {len(best)} (lower-bound mode)")
    return FSearchResult(n, k, len(best), best, "lower-bound", 0, time.perf_counter() - t0, tuple(log))


def _complement_path(n, start):
    """The unique Hamiltonian path supplying the 3 edges a K4 needs on a
    window of four consecutive standard-cycle vertices."""
    v = start % n
    return (v + 2) % n, v, (v + 3) % n, (v + 1) % n


def _closings(pieces, singles):
    """All cycle orders through fixed path pieces plus free single vertices.

    The first piece is pinned in position and orientation, which normalizes
    rotation and reflection away, so each edge set appears exactly once.
    """
    head = tuple(pieces[0])
    rest = [tuple(p) for p in pieces[1:]] + [(s,) for s in singles]
    for perm in permutations(rest):
        options = [(p, p[::-1]) if len(p) > 1 else (p,) for p in perm]
        for choice in product(*options):
            yield head + tuple(v for p in choice for v in p)


@dataclass(frozen=True)
class ExceptionalPair:
    """Two cycles whose union reaches alpha = n/4 without a K4 cover."""

    graph: object
    cycles: tuple[HamCycle, HamCycle]
    alpha: int
    zeta: int


def find_exceptional(n: int) -> ExceptionalPair:
    """A two-miltonian graph with alpha = n/4 and zeta = n/4 - 1 (n in {8, 12}).

    Any K4 of the union occupies four consecutive standard-cycle vertices, so
    the partner is forced to the complementary path inside each planted
    window; the search runs over all closings of the forced paths through the
    free vertices, with window placements normalized by rotation.
    """
    if n not in (8, 12):
        raise ValueError(
            "exceptional graphs exist only at n = 8 and n = 12; for larger n "
            "divisible by 4, alpha = n/4 forces a K4 cover"
        )
    std = standard_cycle(n)
    target = n // 4
    window_sets = [(0,)] if n == 8 else [(0, b) for b in (4, 5, 6, 7, 8)]
    for starts in window_sets:
        pieces = [_complement_path(n, s) for s in starts]
        used = {v for p in pieces for v in p}
        singles = [v for v in range(n) if v not in used]
        for order in _closings(pieces, singles):
            partner = make_cycle(order)
            g = union([std, partner])
            if zeta(g) != target - 1 or alpha_value(g) != target:
                continue
            return ExceptionalPair(g, (std, partner), target, target - 1)
    raise AssertionError(
        "no exceptional pair found at n = %d; this falsifies the expected sharpness" % n
    )


def window_partners(n: int) -> list[HamCycle]:
    """Every cycle whose union with the standard cycle is K4-covered.

    The K4s of a covered union partition the standard order into consecutive
    blocks of four (one of four offsets), and within each block the partner
    must supply exactly the three missing edges: the complementary path.
    Closing the n/4 forced paths in all (p-1)! * 2^(p-1) ways per offset
    therefore yields every K4-cover-compatible partner exactly once.
    """
    if n % 4 != 0 or n < 8:
        raise ValueError("K4-covered unions need n divisible by 4, n >= 8")
    out = []
    for offset in range(4):
        pieces = [_complement_path(n, offset + 4 * i) for i in range(n // 4)]
        out.extend(make_cycle(order) for order in _closings(pieces, []))
    return out


def _covered_pair(b_cycle, adj_c):
    """Is the union of the two cycles K4-covered?  The K4s would partition
    b's order into consecutive blocks whose missing edges b cannot supply,
    so each block needs its three non-path pairs present in c."""
    order = b_cycle.order
    n = len(order)
    for offset in range(4):
        for i in range(offset, n + offset, 4):
            w0, w1, w2, w3 = (order[(i + j) % n] for j in range(4))
            if not (
                adj_c[w0] >> w2 & 1 and adj_c[w0] >> w3 & 1 and adj_c[w1] >> w3 & 1
            ):
                break
        else:
            return True
    return False


@dataclass(frozen=True)
class NothreeReport:
    n: int
    partners: int
    pairs_checked: int
    mode: str  # "exhaustive" or "sampled"
    triples_found: int
    witnesses: tuple[tuple[HamCycle, HamCycle, HamCycle], ...]


def verify_nothree(n: int, seed=0, sample_cap: int = 2_000_000) -> NothreeReport:
    """Search for three cycles with all three pairwise unions K4-covered.

    The first cycle is pinned to the standard one, the other two then run
    over the complete list of window partners; each candidate pair is tested
    for a K4 cover of its own union.  Exhaustive while the pair count fits
    under sample_cap, seeded sampling beyond that.
    """
    if n % 4 != 0 or not 8 <= n <= 24:
        raise ValueError("triple verification covers n divisible by 4 with 8 <= n <= 24")
    std = standard_cycle(n)
    partners = window_partners(n)
    adj = [cycle_graph(c).adj for c in partners]
    total_pairs = len(partners) * (len(partners) - 1) // 2
    if total_pairs <= sample_cap:
        mode = "exhaustive"
        pair_iter = combinations(range(len(partners)), 2)
        checked = total_pairs
    else:
        mode = "sampled"
        rng = random.Random(f"{seed}:nothree:{n}")
        pair_iter = (
            tuple(rng.sample(range(len(partners)), 2)) for _ in range(sample_cap)
        )
        checked = sample_cap
    found = 0
    witnesses = []
    for i, j in pair_iter:
        if _covered_pair(partners[i], adj[j]):
            found += 1
            if len(witnesses) < 8:
                witnesses.append((std, partners[i], partners[j]))
    return NothreeReport(n, len(partners), checked, mode, found, tuple(witnesses))
