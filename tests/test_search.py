"""Exhaustive f(n, k) search, exceptional graphs, and covered-triple scans."""

import cProfile
import hashlib
import pstats
import random
from collections import Counter
from itertools import combinations
from math import ceil, factorial

import pytest

from twomilton import search
from twomilton.bounds import smooth_bound
from twomilton.constructions import circulant_family, k4_strip
from twomilton.graphs import (
    MAX_VERTICES,
    HamCycle,
    VerificationError,
    canonical_key,
    make_cycle,
    overlap_rows,
    standard_cycle,
    union,
)
from twomilton.independence import alpha_value
from twomilton.k4 import check_cover, find_k4_cover, find_triangle_cover, window_path, zeta
from twomilton.limits import limit
from twomilton.search import (
    compute_f,
    exact_range,
    find_exceptional,
    verify_nothree,
    window_partners,
)

from oracles import oracle_all_cycles, oracle_alpha, oracle_has_clique_cover, oracle_scan_survivors
from runners import fresh_python


@pytest.mark.parametrize("n", range(3, 8))
def test_closed_form_witnesses_are_all_cycles(n, monkeypatch):
    # k >= n/2: the witnesses list each distinct cycle once, in its canonical
    # order, sorted, and are listed without the scan or the orbit expansion
    def scanned(*args):
        raise AssertionError("the closed form ran the pinned scan")

    monkeypatch.setattr(search, "_survivors", scanned)
    monkeypatch.setattr(search, "_expand_orbits", scanned)
    res = compute_f(n, n // 2)
    assert res.value == factorial(n - 1) // 2
    assert [c.order for c in res.witnesses] == sorted(oracle_all_cycles(n))
    assert (res.mode, res.examined, res.survivors) == ("exhaustive", 0, 0)


@pytest.mark.parametrize("n,k,want", [(4, 1, 3), (6, 1, 1), (7, 1, 1), (9, 2, 1)])
def test_compute_f_small(n, k, want):
    res = compute_f(n, k)
    assert res.value == want
    assert res.mode == "exhaustive"


def test_compute_f_n5_k1_is_two():
    # K5 is the union of two edge-disjoint 5-cycles with alpha = 1.
    res = compute_f(5, 1)
    assert res.value == 2
    assert len(res.witnesses) == 2
    g = union(res.witnesses)
    assert g.edge_count() == 10 and oracle_alpha(g) == 1


def test_compute_f_n8_k2():
    res = compute_f(8, 2)
    assert res.value == 3
    assert len(res.witnesses) == 3
    for i in range(3):
        for j in range(i + 1, 3):
            assert oracle_alpha(union([res.witnesses[i], res.witnesses[j]])) <= 2


def test_compute_f_monotone_in_k():
    values = [compute_f(6, k).value for k in (1, 2, 3)]
    assert values == sorted(values)


# The exhaustive search reports the lexicographically first maximum clique of
# survivors, so its witness families are fixed; the benchmark pins them too.
PINNED_WITNESSES = {
    (6, 2): [
        (0, 1, 2, 3, 4, 5), (0, 1, 2, 4, 5, 3), (0, 1, 2, 5, 3, 4),
        (0, 1, 3, 4, 5, 2), (0, 1, 3, 5, 4, 2), (0, 1, 4, 3, 5, 2),
        (0, 2, 1, 4, 5, 3), (0, 2, 1, 5, 4, 3), (0, 2, 1, 5, 3, 4),
        (0, 3, 1, 5, 2, 4),
    ],
    (7, 2): [
        (0, 1, 2, 3, 4, 5, 6), (0, 1, 2, 5, 3, 6, 4), (0, 2, 3, 1, 6, 4, 5),
        (0, 2, 6, 3, 4, 1, 5), (0, 3, 1, 4, 2, 5, 6),
    ],
    (8, 2): [
        (0, 1, 2, 3, 4, 5, 6, 7), (0, 2, 6, 4, 7, 5, 1, 3),
        (0, 4, 2, 5, 3, 7, 1, 6),
    ],
    (11, 3): [
        (0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10), (0, 1, 3, 5, 10, 4, 8, 6, 9, 7, 2),
        (0, 3, 1, 2, 9, 5, 7, 4, 6, 10, 8),
    ],
    (12, 3): [
        (0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11), (0, 2, 4, 10, 7, 9, 6, 8, 5, 11, 1, 3),
    ],
}


@pytest.mark.parametrize("n,k", sorted(PINNED_WITNESSES))
def test_compute_f_witness_order_pinned(n, k):
    res = compute_f(n, k)
    assert [c.order for c in res.witnesses] == PINNED_WITNESSES[n, k]
    assert res.value == len(PINNED_WITNESSES[n, k])


def test_compute_f_outputs_digest():
    # one sha256 over every field of compute_f's result, at each exhaustive
    # cell of the benchmark's table and at (5,1) and (8,3);
    # taken before the compatibility rows were built one per orbit and the
    # scan cut at the closing vertex, so a change that moves any output moves it
    h = hashlib.sha256()
    for n, k in [(4, 1), (5, 1), (6, 2), (7, 2), (8, 2), (8, 3), (10, 2), (11, 3), (12, 3)]:
        res = compute_f(n, k)
        witnesses = [c.order for c in res.witnesses]
        h.update(repr((n, k, res.value, witnesses, res.mode, res.examined, res.survivors, res.log)).encode())
    assert h.hexdigest() == "f19aaf790c07b85f366a2a7a5a1d8fc79a30bb692df4f59e248c01f1c61c2686"


@pytest.mark.parametrize("n,k", [(6, 3), (8, 2), (16, 4)], ids=["closed-form", "scan", "lower-bound"])
def test_compute_f_returns_a_value(n, k):
    # no field records how or when the search ran, so equal calls give equal records
    assert compute_f(n, k) == compute_f(n, k)


def test_verify_nothree_returns_a_value():
    assert verify_nothree(8) == verify_nothree(8)


def test_witness_recheck_runs_under_optimize():
    # A bare assert would vanish under -O; the re-check must still raise.
    script = (
        "import sys\n"
        "import twomilton.search as s\n"
        "if not sys.flags.optimize:\n"
        "    sys.exit(2)\n"
        "s.alpha_value = lambda g: 2  # k + 1 for k = 1\n"
        "try:\n"
        "    s.compute_f(4, 1)\n"
        "except s.VerificationError as exc:\n"
        "    print('raised', exc)\n"
        "    sys.exit(0)\n"
        "sys.exit(1)\n"
    )
    proc = fresh_python("-O", "-c", script)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.startswith("raised f(4,1) witnesses")


def test_compute_f_shortcut_when_alpha_cap_is_free():
    # k >= n//2 admits every pair of cycles, so f counts all (n-1)!/2 of them
    # without scanning a single union.
    res = compute_f(6, 3)
    assert res.value == 60
    assert res.examined == 0
    assert len(res.witnesses) == 60


def test_compute_f_workers_agree():
    for n, k in [(7, 1), (8, 2), (10, 2), (11, 3), (12, 3)]:
        # the keyword selects nothing, so the whole records agree, log included
        assert compute_f(n, k, workers=2) == compute_f(n, k, workers=1), (n, k)


def expanded_survivors(n, k):
    """(representatives, survivors): the pinned scan's orbit representatives,
    and its survivors as (order, orbit, map) triples, its orbits expanded as
    compute_f expands them."""
    reps = search._survivors(n, k)[0]
    return reps, search._expand_orbits(n, reps)


def scan_survivors(n, k):
    """The pinned scan's survivor orders, in the order compute_f lists them."""
    return [order for order, _, _ in expanded_survivors(n, k)[1]]


@pytest.mark.parametrize("n", range(3, 10))
def test_scan_matches_flat_oracle(n):
    # same survivors in the same order: the witness tie-break indexes them
    for k in range(0, (n + 1) // 2):
        assert scan_survivors(n, k) == oracle_scan_survivors(n, k), (n, k)


# (count, sha256 of repr(list of orders)) of the survivor lists, taken from
# the flat scan the pruned one replaced
SCAN_DIGESTS = {
    (10, 0): (0, "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945"),
    (10, 1): (0, "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945"),
    (10, 2): (0, "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945"),
    (10, 3): (22070, "991c4e44d2b148b31d06b6a8ac9286c4a638c96fe6a7bedd1dbd00dddedcac50"),
    (10, 4): (180000, "0c533995b94576e2360d4498e847773994fabb39921c01de1c81dc0bb305a7a4"),
    (11, 3): (4402, "f9a0d7c41a96351780515962f2a72ffacd002c7aadc4625eb226dedc2c9cc210"),
    (12, 3): (56, "13d11f25e4f43e2b92bfefbcd1db37e412e5b4c21cb25bdb0366d3511a24af9d"),
}


@pytest.mark.parametrize("n,k", sorted(SCAN_DIGESTS))
def test_scan_survivors_pinned(n, k):
    survivors = scan_survivors(n, k)
    assert (len(survivors), hashlib.sha256(repr(survivors).encode()).hexdigest()) == SCAN_DIGESTS[n, k]


@pytest.mark.parametrize("n", range(5, 11))
def test_scan_tables_three_and_members(n):
    # three[o]: the subsets with at least three members in the vertex set o,
    # and members[i] the vertex mask of subset i, for every k the scan runs at
    for k in range(n // 2):
        masks = [sum(1 << v for v in s) for s in search._independent_sets(n, k)]
        _, _, _, three, members, *_ = search._scan_tables(n, k)
        assert list(members) == masks, (n, k)
        for o in range(1 << n):
            want = sum(1 << i for i, mask in enumerate(masks) if (mask & o).bit_count() >= 3)
            assert three[o] == want, (n, k, o)


@pytest.mark.parametrize("n", range(13, 18))
def test_no_partner_keeps_alpha_below_four(n):
    # the lemma's floor by machine: no cycle on 13 to 17 vertices makes a
    # union with alpha <= 3 with the standard cycle, so, relabeling, every
    # union of two Hamiltonian cycles there has alpha >= 4, as the lemma's
    # floor over every K4 count, zeta + (7(n - 4 zeta) - 4)/26 rounded up,
    # predicts
    assert search._survivors(n, 3) == ([], 0)
    floor = ceil(min(smooth_bound(n, z) for z in range(n // 4 + 1)))
    assert floor == {13: 4, 14: 4, 15: 4, 16: 4, 17: 5}[n]


def signatures(order):
    """sig[v]: the sorted standard-cycle distances from v to its two neighbours in order."""
    n = len(order)
    sig = [None] * n
    for i, v in enumerate(order):
        sig[v] = tuple(sorted(min((u - v) % n, (v - u) % n) for u in (order[i - 1], order[(i + 1) % n])))
    return sig


def dihedral_images(order):
    """The canonical keys of the cycle's images under all 2n maps v -> +-v + a mod n."""
    n = len(order)
    return [canonical_key(HamCycle(tuple((s * v + a) % n for v in order))) for a in range(n) for s in (1, -1)]


@pytest.mark.parametrize("n,k", [(7, 2), (8, 2), (8, 3), (9, 3), (10, 3), (11, 3)])
def test_scan_keeps_one_representative_per_orbit(n, k):
    # each representative has vertex 0 at the least signature and is the
    # least of its images that keep it there (the least of all 2n images may
    # put a vertex of larger signature at 0, as in 106 of the 191 orbits at
    # (8,3)); the orbits are disjoint, and together they are the survivors;
    # the expansion gives each member a map that sends its representative
    # to it
    reps, count = search._survivors(n, k)
    seen = set()
    for order, size in reps:
        images = dihedral_images(order)
        least = signatures(order)[0]
        assert least == min(signatures(order)), order
        assert order == min(im for im in images if signatures(im)[0] == least), order
        orbit = set(images)
        assert size == len(orbit) and not orbit & seen, order
        seen |= orbit
    if n <= 9:
        assert seen == set(oracle_scan_survivors(n, k))
    else:
        assert len(seen) == SCAN_DIGESTS[n, k][0]
    assert count == len(seen)
    for order, orbit, g in search._expand_orbits(n, reps):
        assert canonical_key(HamCycle(tuple(g[v] for v in reps[orbit][0]))) == order


# orbits of the survivors under the 2n maps, one representative each
ORBIT_COUNTS = {(8, 3): 191, (9, 3): 777, (10, 3): 1187, (11, 3): 230, (12, 3): 7}


@pytest.mark.parametrize("n,k", sorted(ORBIT_COUNTS))
def test_orbit_counts_pinned(n, k):
    assert len(search._survivors(n, k)[0]) == ORBIT_COUNTS[n, k]


# leaves of the pinned scan: the orders that pass the signature test and the
# leaf's hit test and reach _orbit_size; a weaker signature test shows here.
# The open-vertex and closing-vertex cuts only drop subtrees whose leaves fail
# the hit test, so a weaker cut leaves these counts as they are; it shows in
# EXTEND_COUNTS below
LEAF_COUNTS = {(10, 3): 2262, (10, 4): 18309, (11, 3): 619, (12, 3): 16}


@pytest.mark.parametrize("n,k", sorted(LEAF_COUNTS))
def test_scan_leaf_counts_pinned(n, k, monkeypatch):
    calls = 0
    orbit_size = search._orbit_size

    def counted(order, ties):
        nonlocal calls
        calls += 1
        return orbit_size(order, ties)

    monkeypatch.setattr(search, "_orbit_size", counted)
    search._survivors(n, k)
    assert calls == LEAF_COUNTS[n, k]


# nodes of the pinned scan (calls of its recursion, extend): a weaker cut
# shows here
EXTEND_COUNTS = {(10, 3): 14033, (11, 3): 14766, (12, 3): 14540}


@pytest.mark.parametrize("n,k", sorted(EXTEND_COUNTS))
def test_scan_extend_counts_pinned(n, k):
    prof = cProfile.Profile()
    prof.runcall(search._survivors, n, k)
    calls = [total for (_, _, name), (_, total, *_) in pstats.Stats(prof).stats.items() if name == "extend"]
    assert calls == [EXTEND_COUNTS[n, k]]


@pytest.mark.parametrize("n,k,want", [(8, 2, 40), (10, 2, 0), (11, 3, 4402), (12, 3, 56)])
def test_compute_f_survivor_count(n, k, want):
    res = compute_f(n, k)
    assert res.survivors == want
    assert f"survivors with alpha(union with standard) <= {k}: {want}" in res.log


def test_compute_f_survivors_zero_without_scan():
    assert compute_f(6, 3).survivors == 0  # k >= n // 2: no scan
    assert compute_f(16, 4).survivors == 0  # lower-bound mode


@pytest.mark.parametrize("n,k", [(4, 1), (5, 1), (6, 2), (7, 2), (8, 2)])
def test_compatibility_rows_match_brute_force(n, k):
    # bit j of row i is set exactly when the union of survivors i and j has
    # alpha <= k; these are every (n, k) with n <= 8 whose scan keeps
    # survivors, but (8, 3), which test_compatibility_rows_match_overlap_rows covers
    reps, survivors = expanded_survivors(n, k)
    cycles = [make_cycle(order) for order, _, _ in survivors]
    rows = search._compatibility_rows(n, k, reps, survivors)
    assert len(rows) == len(cycles)
    for i, a in enumerate(cycles):
        want = sum(1 << j for j, b in enumerate(cycles) if j != i and oracle_alpha(union([a, b])) <= k)
        assert rows[i] == want, (n, k, a.order)


@pytest.mark.parametrize("n,k", [(8, 3), (11, 3)])
def test_compatibility_rows_match_overlap_rows(n, k):
    # two survivors are compatible iff no (k+1)-set misses the edges of both,
    # the construction the edge index replaced; at (11, 3) 2,950 of the 4,402
    # survivors have no partner, so a wrong orbit skip shows here, and the
    # other 1,452 read their rows off 71 representatives through their maps;
    # (8, 3)'s representatives have more partners than sets, so each member
    # ANDs its own
    reps, survivors = expanded_survivors(n, k)
    subsets = list(combinations(range(n), k + 1))
    holders = search._pair_rows(n, (combinations(sub, 2) for sub in subsets))
    full = (1 << len(subsets)) - 1
    missed = []
    for order, _, _ in survivors:
        hit = 0
        for a, b in zip(order, order[1:] + order[:1]):
            hit |= holders[a][b]
        missed.append(full & ~hit)
    everyone = (1 << len(survivors)) - 1
    want = [everyone & ~(row | 1 << i) for i, row in enumerate(overlap_rows(missed))]
    assert search._compatibility_rows(n, k, reps, survivors) == want


def test_compute_f_refuses_dense_rows():
    # (10, 4) keeps 180,000 survivors, whose compatibility rows would take
    # about 4 GB; compute_f stops right after the scan instead
    with pytest.raises(ValueError, match="180000 survivors"):
        compute_f(10, 4)


def test_compute_f_refuses_before_expanding(monkeypatch):
    # the count comes from the orbit sizes, so no orbit is expanded
    def expand(n, reps):
        raise RuntimeError("expanded an orbit")

    monkeypatch.setattr(search, "_expand_orbits", expand)
    with pytest.raises(ValueError, match="180000 survivors"):
        compute_f(10, 4)


def test_compute_f_lower_bound_mode_beyond_range():
    res = compute_f(16, 4)
    assert res.mode == "lower-bound"
    assert res.value >= 2
    for i, b in enumerate(res.witnesses):
        for c in res.witnesses[i + 1:]:
            assert alpha_value(union([b, c])) <= 4


def test_compute_f_enum_limit_sets_the_exhaustive_range(monkeypatch):
    assert compute_f(13, 3).mode == "lower-bound"
    monkeypatch.setenv("TWOMILTON_LIMITS", "enum=13")
    res = compute_f(13, 3)
    assert (res.mode, res.value, res.survivors) == ("exhaustive", 1, 0)
    assert res.examined == factorial(12) // 2


@pytest.mark.parametrize("n, k, message", [
    (2, 1, "need n >= 3"),
    (70000, 35000, f"need n <= {MAX_VERTICES}, the largest n a witness document may declare"),
    (20, -1, "need k >= 0"),
])
def test_exact_range_refuses_bad_input(n, k, message):
    with pytest.raises(ValueError) as err:
        exact_range(n, k)
    assert str(err.value) == message


def test_limit_refuses_an_unknown_key():
    with pytest.raises(KeyError, match="unknown limit 'nope'"):
        limit("nope")


def test_compute_f_refuses_past_the_document_cap():
    # its witness document could not be parsed back
    with pytest.raises(ValueError, match=f"need n <= {MAX_VERTICES}"):
        compute_f(MAX_VERTICES + 1, (MAX_VERTICES + 1) // 2)


def test_compute_f_closed_form_beyond_enum_limit():
    # k >= n/2 is exact at every n, with no scan and no witness list
    res = compute_f(14, 7)
    assert (res.mode, res.value, res.witnesses) == ("exhaustive", factorial(13) // 2, ())
    assert exact_range(14, 7) and not exact_range(14, 6)
    # (n-1)!/2 has 5,732 digits here, past Python's int-to-str cap of 4,300
    assert compute_f(2000, 1000).value == factorial(1999) // 2


def test_compute_f_lower_bounds_certified_by_covers():
    # far beyond the alpha limit, each pairwise union is checked by its cover
    res = compute_f(4000, 1000)
    assert (res.mode, res.value) == ("lower-bound", 2)
    assert [c.order for c in res.witnesses] == [c.order for c in k4_strip(1000)]
    assert "a cover by n/4 = 1000 disjoint K4s" in res.log[2]
    g = union(res.witnesses)
    assert check_cover(g, find_k4_cover(g), 4)
    res = compute_f(3003, 1001)
    assert (res.mode, res.value) == ("lower-bound", 5)
    assert [c.order for c in res.witnesses] == [c.order for c in circulant_family(3003)]
    assert res.log[2].startswith("circulant family: 5 cycles, each of the 10 pairwise unions covered")
    g = union(res.witnesses[3:])
    assert check_cover(g, find_triangle_cover(g), 3)


@pytest.mark.parametrize("n, k, finder, message", [
    (16, 4, "find_k4_cover", "strip pair: the union of cycles 0 and 1 has no cover by 4-cliques"),
    (15, 5, "find_triangle_cover", "circulant family: the union of cycles 0 and 1 has no cover by 3-cliques"),
])
def test_compute_f_refuses_a_construction_its_cover_search_misses(monkeypatch, n, k, finder, message):
    # a lower bound stands only on covers that were found
    monkeypatch.setattr(search, finder, lambda g: None)
    with pytest.raises(VerificationError, match=message):
        compute_f(n, k)


def test_compute_f_rejects_bad_input():
    with pytest.raises(ValueError):
        compute_f(2, 1)
    with pytest.raises(ValueError):
        compute_f(8, 1, workers=0)


def test_compute_f_k0_is_vacuous_singleton():
    # No union has alpha 0, but a family of one cycle has no pairs to check.
    assert compute_f(8, 0).value == 1


def test_find_exceptional_n8():
    std, partner = find_exceptional(8)
    assert std == standard_cycle(8)
    assert partner.order == (0, 1, 7, 4, 6, 3, 5, 2)
    g = union([std, partner])
    assert oracle_alpha(g) == 2
    assert zeta(g) == 1
    assert find_k4_cover(g) is None


def test_find_exceptional_n12():
    std, partner = find_exceptional(12)
    assert std == standard_cycle(12)
    assert partner.order == (0, 2, 11, 1, 10, 4, 7, 5, 8, 6, 9, 3)
    g = union([std, partner])
    assert alpha_value(g) == 3
    assert zeta(g) == 2
    assert find_k4_cover(g) is None


def test_find_exceptional_rejects_n16():
    with pytest.raises(ValueError):
        find_exceptional(16)


def test_window_partner_counts():
    assert len(window_partners(8)) == 8
    assert len(window_partners(12)) == 32
    assert len(window_partners(16)) == 192


def test_window_partners_complete_at_n8():
    # Against the full scan: a cycle's union with the standard cycle is
    # K4-covered exactly when the cycle is a window partner.
    std = standard_cycle(8)
    partners = {canonical_key(c) for c in window_partners(8)}
    for key in oracle_all_cycles(8):
        covered = find_k4_cover(union([std, make_cycle(key)])) is not None
        assert covered == (key in partners)


# labelled (alpha, zeta) counts of the unions of the standard cycle with the
# survivors of the pinned scan at k = n/4
WINDOW_CENSUS = {8: {(2, 0): 16, (2, 1): 16, (2, 2): 8}, 12: {(3, 2): 24, (3, 3): 32}}


@pytest.mark.parametrize("n", sorted(WINDOW_CENSUS))
def test_window_partners_are_the_covered_survivors(n):
    # a K4-covered union has alpha <= n/4, so every window partner survives
    # the pinned scan at k = n/4, and the covered survivors are exactly the
    # window partners
    std = standard_cycle(n)
    census = Counter()
    covered = set()
    for order, _, _ in search._expand_orbits(n, search._survivors(n, n // 4)[0]):
        g = union([std, make_cycle(order)])
        census[alpha_value(g), zeta(g)] += 1
        if find_k4_cover(g) is not None:
            covered.add(order)
    assert covered == {canonical_key(c) for c in window_partners(n)}
    assert census == WINDOW_CENSUS[n]


def test_window_partners_are_covered_with_standard():
    for n in (8, 12, 16):
        std = standard_cycle(n)
        for c in window_partners(n):
            g = union([std, c])
            assert find_k4_cover(g) is not None
            assert zeta(g) == n // 4


def test_verify_nothree_n8_has_triples():
    rep = verify_nothree(8)
    assert rep.partners == len(window_partners(8))
    assert rep.triples_found > 0
    std, b, c = rep.witnesses[0]
    assert std.order == standard_cycle(8).order
    for pair in ((std, b), (std, c), (b, c)):
        assert find_k4_cover(union(list(pair))) is not None


@pytest.mark.parametrize("n", [12, 16, 20, 24])
def test_verify_nothree_none_beyond_n8(n):
    rep = verify_nothree(n)
    assert (rep.partners, rep.triples_found) == (len(window_partners(n)), 0)


@pytest.mark.parametrize("n", [8, 12])
def test_verify_nothree_matches_oracle_on_every_pair(n):
    # the brute-force cover search on each union of two window partners; the
    # witnesses are the first eight covered pairs in combinations order
    std = standard_cycle(n)
    covered = [
        (b, c) for b, c in combinations(window_partners(n), 2) if oracle_has_clique_cover(union([b, c]), 4)
    ]
    rep = verify_nothree(n)
    assert (rep.partners, rep.triples_found) == (len(window_partners(n)), len(covered))
    assert [(a.order, b.order, c.order) for a, b, c in rep.witnesses] == [
        (std.order, b.order, c.order) for b, c in covered[:8]
    ]


def test_verify_nothree_counts_covers_at_every_offset(monkeypatch):
    # the window partners mapped onto a random order b are covered with b at
    # each of the four offsets of b's blocks, and the near misses hold every
    # block but the last (the one that wraps, at offsets 1 to 3); b comes
    # first, so the index is read at every offset, and the count must match
    # the oracle on each pair
    order = list(range(12))
    random.Random("nothree-offsets").shuffle(order)
    near = [window_path(12, o) + window_path(12, o + 4) + tuple((o + j) % 12 for j in range(8, 12))
            for o in range(4)]
    others = [c.order for c in window_partners(12)] + near
    cycles = [make_cycle(order)] + [make_cycle([order[v] for v in c]) for c in others]
    monkeypatch.setattr(search, "window_partners", lambda n: cycles)
    covered = [(b, c) for b, c in combinations(cycles, 2) if oracle_has_clique_cover(union([b, c]), 4)]
    rep = verify_nothree(12)
    assert rep.triples_found == len(covered) >= 32
    assert [(b.order, c.order) for _, b, c in rep.witnesses] == [(b.order, c.order) for b, c in covered[:8]]


def test_verify_nothree_rejects_bad_n():
    with pytest.raises(ValueError):
        verify_nothree(10)
    with pytest.raises(ValueError):
        verify_nothree(28)
