"""Exhaustive f(n, k) search, exceptional graphs, and covered-triple scans."""

import os
import subprocess
import sys
from itertools import permutations
from math import factorial

import pytest

import twomilton
from twomilton.graphs import HamCycle, canonical_key, make_cycle, standard_cycle, union
from twomilton.independence import alpha_value
from twomilton.k4 import find_k4_cover, zeta
from twomilton.search import (
    compute_f,
    dihedral_stabilizer,
    enumerate_cycles,
    find_exceptional,
    verify_nothree,
    window_partners,
)

from oracles import oracle_alpha


def test_enumerate_counts():
    for n, want in [(3, 1), (4, 3), (5, 12), (6, 60), (7, 360)]:
        got = sum(1 for _ in enumerate_cycles(n))
        assert got == want == factorial(n - 1) // 2


def test_enumerate_yields_distinct_cycles():
    seen = {tuple(sorted(c.edges())) for c in enumerate_cycles(6)}
    assert len(seen) == 60


def test_pinned_enumeration_matches_orbit_dedup():
    n = 8
    std = standard_cycle(n)
    maps = dihedral_stabilizer(std)
    assert len(maps) == 2 * n
    reps = set()
    for tail in permutations(range(1, n)):
        if tail[0] > tail[-1]:
            continue
        order = (0,) + tail
        reps.add(min(canonical_key(HamCycle(tuple(m[v] for v in order))) for m in maps))
    got = [c for c in enumerate_cycles(n, pinned=std)]
    assert len(got) == len(reps)
    assert {canonical_key(c) for c in got} == reps


def test_stabilizer_maps_preserve_pinned_cycle():
    std = standard_cycle(10)
    edges = set(std.edges())
    for m in dihedral_stabilizer(std):
        mapped = {tuple(sorted((m[a], m[b]))) for a, b in edges}
        assert mapped == edges


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
}


@pytest.mark.parametrize("n,k", sorted(PINNED_WITNESSES))
def test_compute_f_witness_order_pinned(n, k):
    res = compute_f(n, k)
    assert [c.order for c in res.witnesses] == PINNED_WITNESSES[n, k]
    assert res.value == len(PINNED_WITNESSES[n, k])


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
        "except s.WitnessCheckError as exc:\n"
        "    print('raised', exc)\n"
        "    sys.exit(0)\n"
        "sys.exit(1)\n"
    )
    src = os.path.dirname(os.path.dirname(twomilton.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    proc = subprocess.run(
        [sys.executable, "-O", "-c", script], env=env, capture_output=True, text=True, timeout=60
    )
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
    a = compute_f(7, 1, workers=1)
    b = compute_f(7, 1, workers=2)
    assert a.value == b.value
    assert [c.order for c in a.witnesses] == [c.order for c in b.witnesses]


def test_compute_f_lower_bound_mode_beyond_range():
    res = compute_f(16, 4)
    assert res.mode == "lower-bound"
    assert res.value >= 2
    for i, b in enumerate(res.witnesses):
        for c in res.witnesses[i + 1:]:
            assert alpha_value(union([b, c])) <= 4


def test_compute_f_rejects_bad_input():
    with pytest.raises(ValueError):
        compute_f(2, 1)
    with pytest.raises(ValueError):
        compute_f(8, 1, workers=0)


def test_compute_f_k0_is_vacuous_singleton():
    # No union has alpha 0, but a family of one cycle has no pairs to check.
    assert compute_f(8, 0).value == 1


def test_find_exceptional_n8():
    found = find_exceptional(8)
    assert (found.alpha, found.zeta) == (2, 1)
    assert oracle_alpha(found.graph) == 2
    assert zeta(found.graph) == 1
    assert find_k4_cover(found.graph) is None


def test_find_exceptional_n12():
    found = find_exceptional(12)
    assert (found.alpha, found.zeta) == (3, 2)
    assert zeta(found.graph) == 2
    assert find_k4_cover(found.graph) is None


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
    for c in enumerate_cycles(8):
        covered = find_k4_cover(union([std, c])) is not None
        assert covered == (canonical_key(c) in partners)


def test_window_partners_are_covered_with_standard():
    for n in (8, 12, 16):
        std = standard_cycle(n)
        for c in window_partners(n):
            g = union([std, c])
            assert find_k4_cover(g) is not None
            assert zeta(g) == n // 4


def test_verify_nothree_n8_has_triples():
    rep = verify_nothree(8)
    assert rep.mode == "exhaustive"
    assert rep.triples_found > 0
    std, b, c = rep.witnesses[0]
    assert std.order == standard_cycle(8).order
    for pair in ((std, b), (std, c), (b, c)):
        assert find_k4_cover(union(list(pair))) is not None


@pytest.mark.parametrize("n", [12, 16])
def test_verify_nothree_none_beyond_n8(n):
    rep = verify_nothree(n)
    assert rep.triples_found == 0
    assert rep.pairs_checked == rep.partners * (rep.partners - 1) // 2


def test_verify_nothree_rejects_bad_n():
    with pytest.raises(ValueError):
        verify_nothree(10)
    with pytest.raises(ValueError):
        verify_nothree(28)
