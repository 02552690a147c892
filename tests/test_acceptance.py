"""Acceptance gate: one test per release criterion, with pinned budgets.

Run `pytest tests/test_acceptance.py -v` for one pass/fail line per
criterion; each test also prints a `criterion N: PASS` summary with its
measured runtime (visible with -s or in failure output).
"""

import time
from fractions import Fraction
from itertools import combinations
from random import Random

import pytest

from twomilton.bounds import (
    johnson_check,
    psizeta_stats,
    locke_lou_check,
    semirandom_rate,
    smooth_check,
    stoneage_check,
    threshold_lower,
)
from twomilton.constructions import (
    amplify,
    circulant_family,
    counterexample_strip,
    triple_n8,
)
from twomilton.corpus import random_johnson_system, random_k4free, random_pair
from twomilton.graphs import cycle_graph, make_cycle, standard_cycle, union
from twomilton.independence import alpha_exact, alpha_value, verify_independent
from twomilton.k4 import find_k4_cover, find_triangle_cover, zeta
from twomilton.reduction import lift_independent, technical_reduce
from twomilton.search import compute_f, find_exceptional, window_partners


def _report(num: int, detail: str, t0: float) -> float:
    elapsed = time.perf_counter() - t0
    print(f"criterion {num}: PASS {detail} ({elapsed:.1f}s)")
    return elapsed


@pytest.fixture(scope="module")
def pair_corpus():
    """100 seeded random two-cycle pairs with n in [14, 40] (criteria 5, 6)."""
    rng = Random("acceptance:corpus")
    out = []
    for i in range(100):
        n = rng.randrange(14, 41)
        out.append(random_pair(n, f"acceptance:pair:{i}"))
    return out


def test_criterion_01_f_4_1_exhaustive():
    t0 = time.perf_counter()
    res = compute_f(4, 1)
    assert res.value == 3
    assert res.mode == "exhaustive"
    elapsed = _report(1, "f(4,1) = 3 over all 3 cycles", t0)
    assert elapsed < 1.0


def test_criterion_02_f_8_2_witness_and_scan():
    t0 = time.perf_counter()
    fam = triple_n8()
    assert len(fam) == 3
    for a, b in combinations(fam, 2):
        g = union([a, b])
        assert alpha_value(g) == 2
        assert find_k4_cover(g) is not None
    res = compute_f(8, 2)
    assert res.value == 3
    assert res.examined == 2520
    elapsed = _report(2, "triple witness pairwise alpha=2 and covered; "
                         "f(8,2) = 3 over all 2520 cycles", t0)
    assert elapsed < 60.0


def test_criterion_03_f_12_3_scan():
    t0 = time.perf_counter()
    res = compute_f(12, 3)
    assert res.value == 2
    assert res.examined == 19_958_400
    elapsed = _report(3, "f(12,3) = 2 over 19,958,400 cycles", t0)
    assert elapsed < 60.0


def test_criterion_04_circulant_family_upper_bound():
    t0 = time.perf_counter()
    for n in (9, 15, 21):
        fam = circulant_family(n)
        assert len(fam) == 5
        for a, b in combinations(fam, 2):
            g = union([a, b])
            assert find_triangle_cover(g) is not None
            assert alpha_value(g) <= n // 3
    elapsed = _report(4, "3 families x 10 unions triangle-covered, alpha <= n/3", t0)
    assert elapsed < 60.0


def test_criterion_05_reduction_postconditions_and_lift(pair_corpus):
    t0 = time.perf_counter()
    for c1, c2 in pair_corpus:
        res = technical_reduce(c1, c2)
        assert all(res.postconditions.values()), res.postconditions
        cert = alpha_exact(res.h)
        lifted = lift_independent(res, cert.vertices)
        assert verify_independent(res.g, lifted)
        assert len(lifted) == cert.value + res.zeta
    elapsed = _report(5, "100 reductions: 4 postconditions + independent lift", t0)
    assert elapsed < 300.0


def test_criterion_06_smooth_floor_on_corpus(pair_corpus):
    t0 = time.perf_counter()
    for c1, c2 in pair_corpus:
        assert smooth_check(union([c1, c2]))
    _report(6, "alpha >= zeta + (7(n-4*zeta)-4)/26 on all 100 pairs", t0)


def test_criterion_07_structural_equivalence_and_exceptions():
    t0 = time.perf_counter()
    for n in (16, 20, 24):
        rng = Random(f"acceptance:struct:{n}")
        partners = window_partners(n)
        samples = []
        for s in range(25):
            samples.append(random_pair(n, f"acceptance:struct:rand:{n}:{s}"))
        for _ in range(25):
            partner = rng.choice(partners)
            perm = rng.sample(range(n), n)
            samples.append((
                make_cycle([perm[v] for v in standard_cycle(n).order]),
                make_cycle([perm[v] for v in partner.order]),
            ))
        for c1, c2 in samples:
            g = union([c1, c2])
            covered = find_k4_cover(g) is not None
            assert (alpha_value(g) == n // 4) == covered
    found8 = find_exceptional(8)
    assert (found8.alpha, found8.zeta) == (2, 1)
    found12 = find_exceptional(12)
    assert (found12.alpha, found12.zeta) == (3, 2)
    with pytest.raises(ValueError):
        find_exceptional(16)
    elapsed = _report(7, "alpha = n/4 iff K4-covered on 150 samples; "
                         "exceptional graphs at 8 and 12 only", t0)
    assert elapsed < 600.0


def test_criterion_08_counterexample_strip():
    t0 = time.perf_counter()
    g = counterexample_strip(3)
    assert g.n == 24
    assert alpha_exact(g).value == 6
    assert zeta(g) == 3
    elapsed = _report(8, "3-unit strip: n=24, alpha=6, zeta=3", t0)
    assert elapsed < 5.0


def test_criterion_09_amplified_family():
    t0 = time.perf_counter()
    first = amplify(circulant_family(9), 4, 6, seed="amplify")
    second = amplify(circulant_family(9), 4, 6, seed="amplify")
    assert [c.order for c in first.cycles] == [c.order for c in second.cycles]
    assert (first.bound, first.agreement_cap) == (second.bound, second.agreement_cap)
    n = first.n
    assert n == 36 and len(first.cycles) == 6
    for c in first.cycles:
        assert sorted(c.order) == list(range(n))
        assert cycle_graph(c).edge_count() == n
    worst = 0
    for a, b in combinations(first.cycles, 2):
        worst = max(worst, alpha_value(union([a, b])))
    assert worst <= first.bound
    elapsed = _report(9, f"6 Hamiltonian outputs on n=36, pairwise alpha <= "
                         f"{worst} <= {first.bound}, seed-stable", t0)
    assert elapsed < 120.0


def test_criterion_10_threshold_constants_bit_exact():
    t0 = time.perf_counter()
    assert threshold_lower().value == Fraction(45, 169)
    assert semirandom_rate(None, Fraction(1, 3), 5) == Fraction(11, 30)
    _report(10, "45/169 and 11/30 exactly", t0)


def test_criterion_11_inequality_corpora():
    t0 = time.perf_counter()
    rng = Random("acceptance:ineq")
    for i in range(1000):
        n = rng.randrange(6, 27)
        g = random_k4free(n, f"acceptance:k4free:{i}")
        assert locke_lou_check(g)
        assert stoneage_check(g)
    for i in range(200):
        n = rng.randrange(32, 65)
        sets = random_johnson_system(n, Fraction(1, 4), Fraction(1, 2),
                                     f"acceptance:johnson:{i}")
        assert johnson_check(n, sets, Fraction(1, 4), Fraction(1, 2))
    shared_positive = 0
    for i in range(100):
        n = rng.randrange(14, 25)
        c, d1 = random_pair(n, f"acceptance:psizeta:{i}:a")
        _, d2 = random_pair(n, f"acceptance:psizeta:{i}:b")
        m, _ = psizeta_stats(c, d1, d2)
        shared_positive += m > 0
    partner_pool = {n: window_partners(n) for n in (8, 12, 16, 20, 24)}
    for i in range(100):
        n = rng.choice((8, 12, 16, 20, 24))
        d1, d2 = rng.sample(partner_pool[n], 2)
        m, psi = psizeta_stats(standard_cycle(n), d1, d2)
        assert psi >= m
        shared_positive += m > 0
    assert shared_positive > 0
    elapsed = _report(11, "1000 degree-4 K4-free graphs, 200 set systems, "
                          f"200 triples ({shared_positive} with shared K4s)", t0)
    assert elapsed < 900.0
