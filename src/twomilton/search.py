"""Searches over Hamiltonian cycle families: exact f(n, k) and special pairs.

f(n, k) is the largest size of a family of distinct Hamiltonian cycles on a
common n-vertex ground set whose pairwise unions all have independence number
at most k.  Relabeling is a bijection on such families, so one member of a
maximum family (when any exist) can be pinned to the standard cycle: f equals
one plus the clique number of the compatibility graph over the partner cycles
that survive the pinned filter.

The filter itself is exact: alpha(C_std | C) <= k iff every (k+1)-subset that
is independent in the standard cycle contains an edge of C.  Subsets are
indexed once per (n, k) and a cycle's edges fold into one hit mask.  The scan
is one depth-first recursion: it builds each order as a path, one vertex at a
time, and shares the hit mask along the path's prefix.  It cuts a prefix as
soon as some subset is unhit and has at most one *open* vertex (the path end,
the closing vertex or an unvisited one): every edge still to be placed joins
two open vertices, so such a subset stays unhit in every completion.  A table
over all vertex sets gives the subsets with two or more open members in one
lookup.  A second cut looks at the unhit subsets with exactly two open
members, one of them the closing vertex: only the edge between those two can
hit one.  While an unvisited vertex is left, the closing vertex takes exactly
one more edge, from an unvisited vertex, so a prefix is cut unless all those
subsets hold one same unvisited vertex.

The dihedral group of the standard cycle (order 2n) maps survivors to
survivors, so the scan lists one representative per orbit with its orbit
size: vertex 0 must have the least signature (the sorted pair of distances
to its partner neighbours), and a leaf must be the least of the images that
keep it so.  compute_f refuses on the summed orbit sizes before it expands
anything, then expands each orbit (graphs.relabel_keys) and puts the orders
back into the order of the flat scan, which the witness tie-break depends on.

The compatibility rows come from an index over the survivors: for each
vertex pair, the survivors holding that edge.  A survivor's row is the AND,
over its own independent (k+1)-sets, of the survivors with an edge inside
the set.  The dihedral maps fix the standard cycle and keep alpha of a
union, so a map g that sends A to g(A) sends A's partners onto g(A)'s:
row(g(A)) = g(row(A)).  Only each orbit's representative is ANDed, and
every other member's row is read off it through the member's map.
"""

from __future__ import annotations

from decimal import Decimal
from functools import lru_cache, reduce
from itertools import chain, combinations, islice, permutations, product
from math import factorial
from operator import itemgetter, or_
from typing import NamedTuple

from .graphs import (
    MAX_VERTICES, HamCycle, VerificationError, bits, cliques, cycle_graph, make_cycle, max_clique,
    relabel_keys, standard_cycle, union,
)
from .independence import alpha_value
from .k4 import find_k4_cover, find_triangle_cover, window_path, zeta
from .limits import limit


# compute_f refuses compatibility rows (a bit per pair of survivors) over
# 128 MiB, that is, more than 32,768 survivors
MAX_ROW_BITS = 1 << 30


def _pair_rows(n, pair_lists):
    """rows[a][b] = bitmask of the items i whose pairs pair_lists[i] hold {a, b}."""
    rows = [[0] * n for _ in range(n)]
    for i, pairs in enumerate(pair_lists):
        bit = 1 << i
        for a, b in pairs:
            rows[a][b] |= bit
            rows[b][a] |= bit
    return rows


@lru_cache(maxsize=16)
def _independent_sets(n, k):
    """The (k+1)-sets independent in the standard cycle, as ascending tuples
    in lexicographic order: the (k+1)-cliques of the cycle's complement."""
    every = (1 << n) - 1
    apart = [every & ~(row | 1 << v) for v, row in enumerate(cycle_graph(standard_cycle(n)).adj)]
    return tuple(cliques(apart, every, k + 1))


@lru_cache(maxsize=16)
def _scan_tables(n, k):
    """(rows, full, reach, three, members, dist, far, steps) for the pinned
    scan at (n, k), built once per process.

    rows[a][b] holds the independent (k+1)-subsets of the standard cycle that
    contain both a and b, and full all of them, in the order of
    _independent_sets.
    reach[o] is the OR of rows[a][b] over the pairs {a, b} inside the vertex
    set o, that is, the subsets with at least two members in o.  Splitting o at its two lowest
    members v < w, a pair inside o either misses v, misses w, or is {v, w}.
    three[o] holds the subsets with at least three members in o, by the same
    split: such a subset misses v, misses w, or holds v, w and a member of
    o other than v and w, that is, lies in rows[v][w] & reach[o - v].
    members[i] is the vertex mask of subset i.
    dist[a][b] is the distance of a and b on the standard cycle, and
    far[a][t] the set of vertices at distance at least t from a.  For a
    least signature (s1, s2) of vertex 0, steps[s1][s2] = (thr, tie):
    a vertex whose first placed edge has length d keeps a signature
    >= (s1, s2) iff its second edge has length >= thr[d], and equal iff
    that length is tie[d] (-1: never).
    """
    subsets = _independent_sets(n, k)
    rows = tuple(map(tuple, _pair_rows(n, (combinations(s, 2) for s in subsets))))
    full = (1 << len(subsets)) - 1
    members = tuple(sum(1 << v for v in s) for s in subsets)
    reach = [0] * (1 << n)
    three = [0] * (1 << n)
    for o in range(1 << n):
        rest = o & (o - 1)
        if rest:
            v = (o & -o).bit_length() - 1
            w = (rest & -rest).bit_length() - 1
            vw = rows[v][w]
            reach[o] = reach[rest] | reach[o ^ (1 << w)] | vw
            three[o] = three[rest] | three[o ^ (1 << w)] | vw & reach[rest]
    half = n // 2
    dist = tuple(tuple(min((a - b) % n, (b - a) % n) for b in range(n)) for a in range(n))
    far = tuple(tuple(sum(1 << b for b in range(n) if dist[a][b] >= t) for t in range(half + 2)) for a in range(n))
    steps = tuple(
        tuple(
            (
                [half + 1 if d < s1 else s2 if d == s1 else s1 if d >= s2 else s1 + 1 for d in range(half + 1)],
                [s2 if d == s1 else s1 if d == s2 else -1 for d in range(half + 1)],
            )
            for s2 in range(half + 1)
        )
        for s1 in range(half + 1)
    )
    return rows, full, tuple(reach), tuple(three), members, dist, far, steps


@lru_cache(maxsize=16)
def _dihedral_maps(n):
    """maps[u] = (v -> v - u, v -> u - v) mod n as lookup tuples: the two
    maps of the standard cycle's dihedral group that send u to 0."""
    return tuple(
        (tuple((v - u) % n for v in range(n)), tuple((u - v) % n for v in range(n))) for u in range(n)
    )


def _orbit_size(order, ties):
    """2n / |stabilizer| of the cycle `order` if it is the least of its images
    under the dihedral maps that send a vertex of `ties` to 0, else 0.

    The images are normalised by canonical_key.  The maps that fix the cycle
    all send a vertex of ties to 0 when ties holds every vertex of the least
    signature.
    """
    maps = _dihedral_maps(len(order))
    fixed = 0
    for image in relabel_keys(order, chain.from_iterable(maps[u] for u in ties)):
        if image < order:
            return 0
        fixed += image == order
    return 2 * len(order) // fixed


def _survivors(n, k):
    """(representatives, count): one representative per dihedral orbit of
    the survivor orders, as (order, orbit size) in scan order, and the number
    of survivors, the sum of the orbit sizes.

    One depth-first recursion builds the orders (0, p1, ..., last) with
    last > p1: for each p1 and `last`, it extends the path from p1.  acc
    holds the subsets hit by the edges placed so far, the closing edge
    (last, 0) included.  The edges still to place join two *open* vertices:
    the path end, the unvisited vertices and `last`.  So a subset not in
    acc | reach[open] (at most one open member) can never be hit, and the
    whole subtree is cut.

    The closing-vertex cut: an unhit subset outside three[open] that holds
    `last` has exactly one other open member (the closing edge hits those
    that hold 0, and the first cut, one level up, those with none), and
    only the edge between the two can hit it.  While unvisited vertices are
    left, `last` takes exactly one more edge, from the vertex visited last,
    which is unvisited now.  So the subtree is cut unless those subsets all
    hold the unvisited member u of the lowest of them; when that one holds
    the path end instead, no u exists, and the subtree is cut too (the path
    end's next edge goes to an unvisited vertex).  Both cuts only drop
    subtrees whose leaves all fail the hit test.

    The dihedral group of the standard cycle (v -> +-v + a mod n) maps
    survivors to survivors, and the scan keeps one member of each orbit.  A
    vertex's signature is the sorted pair of the standard-cycle distances to
    its two partner neighbours.  The maps keep it, so every orbit has
    members in which vertex 0 has the least signature, and only those are
    listed: once `last` is chosen, the test runs on every vertex as soon as
    both its neighbours are placed, p1 included, through the far mask of the
    edge ahead (steps in _scan_tables).  The vertices whose signature ties
    with 0's ride down the path, and a leaf is kept only if it is the least
    of its images under the maps that send 0 or one of them to 0
    (_orbit_size).  Those images are the members of the orbit that the
    signature test lets through, so exactly one of them is kept; the
    reflection that fixes 0 already rules out p1 > n - last for a whole
    `last`.
    """
    rows, full, reach, three, members, dist, far, steps = _scan_tables(n, k)
    out = []

    def extend(prev, dp, free, acc, path, tied):
        row = rows[prev]
        if not free:
            dv = dist[prev][last]
            if dv >= thr[dp] and dv >= thr[d0] and acc | row[last] == full:
                if dv == tie[dp]:
                    tied += (prev,)
                if dv == tie[d0]:
                    tied += (last,)
                order = path + (last,)
                size = _orbit_size(order, tied)
                if size:
                    out.append((order, size))
            return
        # unhit, with at most two open members: only the edge between those
        # two can hit one
        opens = free | last_bit
        forced = full & ~(acc | three[opens | 1 << prev])
        # last takes one more edge, from an unvisited vertex, so the forced
        # subsets that hold it must all hold the unvisited member u of the
        # lowest of them (none when that one holds prev)
        ends = forced & with_last
        if ends:
            u = members[(ends & -ends).bit_length() - 1] & free
            if not u or ends & ~rows[last][u.bit_length() - 1]:
                return
        # each child's open set is free | last, so one lookup prunes them all
        need = full & ~(acc | reach[opens])
        rest = free & far[prev][thr[dp]]
        lengths = dist[prev]
        even = tie[dp]
        while rest:
            bit = rest & -rest
            rest ^= bit
            v = bit.bit_length() - 1
            if not need & ~row[v]:
                dv = lengths[v]
                extend(v, dv, free ^ bit, acc | row[v], path + (v,), tied + (prev,) if dv == even else tied)

    others = (1 << n) - 2
    for p1 in range(1, n):
        d01 = dist[0][p1]
        # last > p1 orients the cycle; p1 > n - last would make the
        # reflection v -> -v, which keeps 0, give a smaller order
        for last in range(p1 + 1, n - p1 + 1):
            d0 = dist[0][last]
            thr, tie = steps[min(d01, d0)][max(d01, d0)]
            last_bit = 1 << last
            with_last = reduce(or_, rows[last])
            extend(p1, d01, others ^ (1 << p1) ^ last_bit, rows[0][p1] | rows[last][0], (0, p1), (0,))
    return out, sum(size for _, size in out)


class FSearchResult(NamedTuple):
    value: int
    witnesses: tuple[HamCycle, ...]
    mode: str  # "exhaustive" or "lower-bound"
    examined: int  # cycles the pinned filter scanned; 0 when no scan ran
    survivors: int  # cycles the pinned filter kept; 0 when no scan ran
    log: tuple[str, ...]


def _expand_orbits(n, reps):
    """Every survivor order, in the order of the flat scan, from the orbit
    representatives, as (order, orbit, g) triples: orbit is the index in reps
    of the order's representative, and g a dihedral map (a lookup tuple)
    that sends the representative to the order.

    Each orbit is the set of the 2n dihedral images of its representative,
    normalised by canonical_key, which gives the orientation last > p1 that
    the scan lists; one relabel_keys pass gives each image with a map that
    makes it.  The flat scan runs over p1, p2 and last and then over
    the middle in lexicographic order, so the orders are bucketed by
    (p1, p2, last) and each bucket is sorted as plain tuples.
    """
    maps = [g for pair in _dihedral_maps(n) for g in pair]
    buckets = {}
    for index, (order, size) in enumerate(reps):
        orbit = dict(zip(relabel_keys(order, maps), maps))
        if len(orbit) != size:
            raise VerificationError(f"the orbit of {order} has {len(orbit)} cycles, the scan counted {size}")
        for o, g in orbit.items():
            buckets.setdefault((o[1] * n + o[2]) * n + o[-1], []).append((o, index, g))
    out = []
    for key in sorted(buckets):
        out += sorted(buckets[key])
    return out


def _compatibility_rows(n, k, reps, survivors):
    """rows[i]: the bitmask of the survivors j whose union with survivor i
    has alpha <= k, for the orbit representatives of _survivors and the
    (order, orbit, g) triples _expand_orbits makes from them.

    alpha(A | B) <= k iff B has an edge inside every (k+1)-set independent
    in A.  _pair_rows over the survivors' edges indexes, for each vertex
    pair, the survivors holding it, and the OR of that index over the pairs
    of a set gives the set's hitters, built on first use.  own_row is the
    AND of the hitters of a survivor's own independent (k+1)-sets, the
    images of the standard cycle's under v -> order[v], and stops once it is
    empty.

    It runs on each representative A only.  A dihedral map g fixes the
    standard cycle and keeps alpha of a union, so it maps A's partners
    one-to-one onto g(A)'s: row(g(A)) is the set of the images g(B) of the
    partners B in row(A), each read through relabel_keys over the maps of
    the orbit's members.  So an empty row zeroes the whole orbit.  An image
    costs one relabel per partner and member, so when A has at least as many
    partners as it has (k+1)-sets, each member ANDs its own sets instead: at
    (8,3), where every orbit is that dense, images alone made the rows some
    800 times slower.
    """
    holders = _pair_rows(n, (zip(o, o[1:] + o[:1]) for o, _, _ in survivors))
    # k >= 1 whenever a cycle survives (no edge lies inside a 1-set), so
    # each getter returns a tuple
    places = [itemgetter(*s) for s in _independent_sets(n, k)]
    everyone = (1 << len(survivors)) - 1
    hitters = {}

    def own_row(order):
        row = everyone
        bit = [1 << v for v in order]
        for place in places:
            key = sum(place(bit))
            hit = hitters.get(key)
            if hit is None:
                hit = 0
                for a, b in combinations(bits(key), 2):
                    hit |= holders[a][b]
                hitters[key] = hit
            row &= hit
            if not row:
                break
        return row

    orbits = [[] for _ in reps]
    for i, (_, rep, g) in enumerate(survivors):
        orbits[rep].append((i, g))
    index = {order: i for i, (order, _, _) in enumerate(survivors)}
    rows = [0] * len(survivors)
    for (order, _), orbit in zip(reps, orbits):
        row = own_row(order)
        if row.bit_count() >= len(places):
            for i, _ in orbit:
                rows[i] = own_row(survivors[i][0])
        elif row:
            maps = [g for _, g in orbit]
            for j in bits(row):
                for (i, _), image in zip(orbit, relabel_keys(survivors[j][0], maps)):
                    rows[i] |= 1 << index[image]
    return rows


def exact_range(n: int, k: int) -> bool:
    """Does compute_f(n, k) answer exactly, in closed form or by the scan?
    Raises ValueError unless (n, k) is valid input to compute_f."""
    if n < 3:
        raise ValueError("need n >= 3")
    if n > MAX_VERTICES:
        raise ValueError(f"need n <= {MAX_VERTICES}, the largest n a witness document may declare")
    if k < 0:
        raise ValueError("need k >= 0")
    return k >= n // 2 or n <= limit("enum")


def compute_f(n: int, k: int, workers: int = 1) -> FSearchResult:
    """f(n, k) in one of three modes, chosen here and nowhere else.

    - k >= n/2 ("exhaustive"): every union has alpha <= floor(n/2) <= k, so
      f counts all (n-1)!/2 cycles, for n up to MAX_VERTICES; while there
      are at most 1000 they are listed as witnesses, with no scan: the keys
      (0, *p) with p[0] < p[-1], sorted as permutations yields them.
    - n <= limit("enum") ("exhaustive"): the pinned scan over all cycle
      orders, then a maximum clique of compatible survivors, whose witness
      family is re-checked pairwise by alpha.  The scan counts the survivors
      from its orbit sizes, and the MAX_ROW_BITS refusal comes before any
      orbit is expanded.  The expanded orders follow the flat scan's order.
      The scan cuts a prefix at the open vertices and at the closing vertex
      (_survivors).  It runs in this process; `workers` selects nothing and
      only refuses values below 1.  The clique's rows are ANDs over each
      orbit representative's independent (k+1)-sets, read from an edge index
      over the survivors, and every other member's row is the image of its
      representative's under the member's dihedral map (_compatibility_rows).
    - otherwise, outside exact_range ("lower-bound"): the best construction
      that applies, each of its pairwise unions certified by a clique cover
      (_construction_lower_bound).
    """
    exact = exact_range(n, k)
    if workers < 1:
        raise ValueError("need workers >= 1")
    total = factorial(n - 1) // 2
    log = ["pinned first cycle to the standard order; families are closed under relabeling"]
    if k >= n // 2:
        # no (k+1)-set is independent in the standard cycle, so the scan keeps
        # every cycle, and the family of all cycles is maximum
        value, mode, examined, count = total, "exhaustive", 0, 0
        witnesses = ()
        if total <= 1000:
            witnesses = tuple(make_cycle((0,) + p) for p in permutations(range(1, n)) if p[0] < p[-1])
        log.append(f"alpha of any union <= floor(n/2) = {n // 2} <= k = {k}")
        # Decimal prints any number of digits; str(int) stops at Python's cap
        log.append(f"f({n},{k}) = {Decimal(total)}: the family of all distinct cycles")
    elif not exact:
        witnesses = _construction_lower_bound(n, k, log)
        value, mode, examined, count = len(witnesses), "lower-bound", 0, 0
    else:
        reps, count = _survivors(n, k)
        if count ** 2 > MAX_ROW_BITS:
            raise ValueError(
                f"f({n},{k}): {count} survivors need {count ** 2} bits "
                f"of compatibility rows, more than the {MAX_ROW_BITS} allowed"
            )
        expanded = _expand_orbits(n, reps)
        # the golden CLI digests and the benchmark's search-f stdout hash pin this
        # line; its "prefix tasks" count the ordered (p1, p2) prefixes of the scan
        log.append(f"examined {total} distinct cycles across {(n - 1) * (n - 2)} prefix tasks (workers=1)")
        log.append(f"survivors with alpha(union with standard) <= {k}: {count}")
        clique = max_clique(_compatibility_rows(n, k, reps, expanded))
        value, mode, examined = 1 + len(clique), "exhaustive", total
        witnesses = (standard_cycle(n),) + tuple(make_cycle(expanded[i][0]) for i in clique)
        for a, b in combinations(witnesses, 2):
            alpha_ab = alpha_value(union([a, b]))
            if alpha_ab > k:
                raise VerificationError(
                    f"f({n},{k}) witnesses {a.order} and {b.order}: "
                    f"alpha of their union is {alpha_ab} > {k}"
                )
        log.append(f"maximum clique among survivors: {len(clique)}")
        log.append(f"f({n},{k}) = {value}; witness family re-verified pairwise")
    return FSearchResult(value, witnesses, mode, examined, count, tuple(log))


def _certify_cover(cycles, find_cover, size, name):
    """Raise VerificationError unless every pairwise union of the cycles is
    partitioned into cliques of the given size (find_cover checks each
    partition it returns).  An independent set meets each clique at most
    once, so such a cover bounds alpha by n/size."""
    for (i, a), (j, b) in combinations(enumerate(cycles), 2):
        if find_cover(union([a, b])) is None:
            raise VerificationError(f"{name}: the union of cycles {i} and {j} has no cover by {size}-cliques")


def _construction_lower_bound(n, k, log):
    """A family whose pairwise unions have alpha <= k, proved by clique covers.

    The strip pair (4 | n) is covered by n/4 disjoint K4s and the five
    circulant cycles (n odd, 3 | n) pairwise by n/3 disjoint triangles; a
    cover that fails to check raises instead of dropping the construction.
    """
    from .constructions import circulant_family, k4_strip

    log.append(f"n > {limit('enum')} is out of exhaustive range; reporting a construction lower bound")
    best = (standard_cycle(n),)
    if n % 4 == 0 and n // 4 <= k:
        best = k4_strip(n // 4)
        _certify_cover(best, find_k4_cover, 4, "strip pair")
        log.append(f"strip pair: a cover by n/4 = {n // 4} disjoint K4s gives alpha <= {n // 4} <= k")
    elif n % 2 == 1 and n % 3 == 0 and n >= 9 and n // 3 <= k:
        best = circulant_family(n)
        _certify_cover(best, find_triangle_cover, 3, "circulant family")
        log.append(
            f"circulant family: 5 cycles, each of the 10 pairwise unions covered by "
            f"n/3 = {n // 3} disjoint triangles, so alpha <= {n // 3} <= k"
        )
    log.append(f"f({n},{k}) >= {len(best)} (lower-bound mode)")
    return best


def find_exceptional(n: int) -> tuple[HamCycle, HamCycle]:
    """The standard cycle and a partner whose union has alpha = n/4 and
    zeta = n/4 - 1, so no K4 cover (n in {8, 12}).

    _survivors(n, n/4) lists one representative per dihedral orbit of the
    partners whose union with the standard cycle has alpha <= n/4; the first
    one in scan order whose union has n/4 - 1 K4s is the partner.  The dihedral
    maps fix the standard cycle and so keep zeta and alpha of the union: a
    representative stands for its whole orbit.
    """
    if n not in (8, 12):
        raise ValueError(
            "exceptional graphs exist only at n = 8 and n = 12; for larger n "
            "divisible by 4, alpha = n/4 forces a K4 cover"
        )
    std = standard_cycle(n)
    target = n // 4
    for order, _ in _survivors(n, target)[0]:
        partner = make_cycle(order)
        g = union([std, partner])
        if zeta(g) == target - 1 and alpha_value(g) == target:
            return std, partner
    raise VerificationError(
        "no exceptional pair found at n = %d; this falsifies the expected sharpness" % n
    )


def window_partners(n: int) -> list[HamCycle]:
    """Every cycle whose union with the standard cycle is K4-covered.

    The K4s of a covered union partition the standard order into consecutive
    blocks of four (one of four offsets), and within each block the partner
    must supply exactly the three missing edges: the complementary path.
    Closing the p = n/4 forced paths in all (p-1)! * 2^(p-1) ways per offset
    therefore yields every K4-cover-compatible partner exactly once: the
    first path is pinned in place and orientation, which normalizes rotation
    and reflection away, and the others run over every order and orientation.
    """
    if n % 4 != 0 or n < 8:
        raise ValueError("K4-covered unions need n divisible by 4, n >= 8")
    out = []
    for offset in range(4):
        head, *rest = (window_path(n, offset + 4 * i) for i in range(n // 4))
        for perm in permutations(rest):
            for choice in product(*((p, p[::-1]) for p in perm)):
                out.append(make_cycle(head + tuple(chain.from_iterable(choice))))
    return out


class NothreeReport(NamedTuple):
    partners: int
    triples_found: int
    witnesses: tuple[tuple[HamCycle, HamCycle, HamCycle], ...]


def verify_nothree(n: int) -> NothreeReport:
    """Count the triples of cycles whose three pairwise unions are K4-covered.

    The first cycle is pinned to the standard one, so the other two run over
    the pairs of window partners.  A K4 in the union of two cycles takes a
    3-edge path from each, so a cover of the union of b and c splits b's
    order into consecutive blocks w0 w1 w2 w3 (at one of four offsets) and c
    holds each block's non-path pairs w0w2, w0w3 and w1w3.  holders[u][v] is
    the bitmask of the partners holding edge uv; for partner i, the AND of
    holders over one offset's pairs is the set of partners that cover it at
    that offset.  Every pair is counted, at every n, and the witnesses are
    the first eight pairs i < j in ascending order.
    """
    if n % 4 != 0 or not 8 <= n <= 24:
        raise ValueError("triple verification covers n divisible by 4 with 8 <= n <= 24")
    std = standard_cycle(n)
    partners = window_partners(n)
    holders = _pair_rows(n, (zip(c.order, c.order[1:] + c.order[:1]) for c in partners))
    everyone = (1 << len(partners)) - 1
    found = 0
    witnesses = []
    for i, b in enumerate(partners):
        order = b.order * 2
        covers = 0
        for offset in range(4):
            acc = everyone
            for s in range(offset, n, 4):
                w0, w1, w2, w3 = order[s:s + 4]
                acc &= holders[w0][w2] & holders[w0][w3] & holders[w1][w3]
                if not acc:
                    break
            covers |= acc
        later = covers >> (i + 1)
        found += later.bit_count()
        witnesses += [(std, b, partners[i + 1 + j]) for j in islice(bits(later), 8 - len(witnesses))]
    return NothreeReport(len(partners), found, tuple(witnesses))
