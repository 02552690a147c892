"""Rational bounds, checker predicates, and family statistics."""

import hashlib
from fractions import Fraction

import pytest

from twomilton.bounds import (
    FamilyStats,
    IteratingReport,
    delta_fn,
    exists_check,
    family_stats,
    iterating_check,
    johnson_check,
    johnson_q,
    locke_lou_check,
    psizeta_stats,
    quality_bound,
    quality_check,
    semirandom_rate,
    smooth_bound,
    smooth_check,
    step_check,
    step_gain,
    stoneage_check,
    threshold_lower,
    threshold_penalty,
)
from twomilton.constructions import circulant_family, k4_strip, triple_n8
from twomilton.corpus import random_johnson_system, random_pair
from twomilton.graphs import UGraph, make_cycle, standard_cycle, union
from twomilton.independence import alpha_value
from twomilton.k4 import psi_exact, zeta


def test_threshold_lower_exact():
    rep = threshold_lower()
    assert rep.value == Fraction(45, 169)
    assert rep.base == Fraction(7, 26)
    assert rep.minimizer == Fraction(1, 13)
    assert rep.minimum == Fraction(-1, 338)
    assert rep.value == rep.base + rep.minimum


def test_threshold_penalty_vertex():
    z0 = Fraction(1, 13)
    m = threshold_penalty(z0)
    assert m == Fraction(-1, 338)
    for z in (0, Fraction(1, 26), Fraction(1, 10), Fraction(1, 2), 1):
        assert threshold_penalty(z) >= m


def test_semirandom_rate_examples():
    assert semirandom_rate(None, Fraction(1, 3), 5) == Fraction(11, 30)
    assert semirandom_rate(9, Fraction(1, 3), 5, Fraction(1, 100)) == Fraction(389, 900)
    assert semirandom_rate(9, Fraction(1, 3), 5) == Fraction(19, 45)


def test_semirandom_rate_monotone_toward_limit():
    c0 = Fraction(1, 3)
    limit = semirandom_rate(None, c0, 5)
    prev = None
    for n0 in (9, 18, 36, 360, 3600):
        rate = semirandom_rate(n0, c0, 5)
        assert rate > limit
        if prev is not None:
            assert rate < prev
        prev = rate
    # and decreasing in the family size k0 when c0 <= 1/2
    rates = [semirandom_rate(None, c0, k0) for k0 in (2, 3, 5, 8, 13)]
    assert rates == sorted(rates, reverse=True)


def test_semirandom_rate_rejects():
    with pytest.raises(ValueError):
        semirandom_rate(None, Fraction(1, 3), 1)
    with pytest.raises(ValueError):
        semirandom_rate(2, Fraction(1, 3), 5)


def test_johnson_q_examples():
    assert johnson_q(1, 1) == 1
    assert johnson_q(Fraction(1, 4), Fraction(1, 2)) == 7
    with pytest.raises(ValueError):
        johnson_q(0, 1)
    with pytest.raises(ValueError):
        johnson_q(Fraction(1, 2), 0)


def test_johnson_check_on_generated_systems():
    for seed in range(5):
        n = 48 + 8 * seed
        sets = random_johnson_system(n, Fraction(1, 4), Fraction(1, 2), f"jt:{seed}")
        assert johnson_check(n, sets, Fraction(1, 4), Fraction(1, 2))


def test_johnson_check_rejects_violations():
    with pytest.raises(ValueError):
        johnson_check(16, [{0, 1}], Fraction(1, 4), Fraction(1, 2))
    big = set(range(8))
    with pytest.raises(ValueError):
        johnson_check(16, [big, big | {8}], Fraction(1, 4), Fraction(1, 2))


def test_johnson_needs_a_nonempty_ground_set():
    # at n = 0 every empty set qualifies, so any count would "falsify" q
    with pytest.raises(ValueError):
        johnson_check(0, [set()] * 8, Fraction(1, 4), Fraction(1, 2))
    for n, eps in ((0, Fraction(1, 2)), (-3, Fraction(1, 2)), (16, Fraction(3, 2))):
        with pytest.raises(ValueError):
            random_johnson_system(n, Fraction(1, 4), eps, "j")


def test_delta_examples_and_monotonicity():
    assert delta_fn(1, 1) == Fraction(1, 5)
    eps = Fraction(1, 2)
    values = [delta_fn(Fraction(k, 8), eps) for k in range(1, 9)]
    assert all(a < b for a, b in zip(values, values[1:]))


def test_step_gain():
    assert step_gain(Fraction(1, 2)) == 1
    assert step_gain(Fraction(1, 5)) == Fraction(1, 4)
    with pytest.raises(ValueError):
        step_gain(1)


def test_locke_lou_on_small_graphs():
    g5 = UGraph.from_edges(5, list(standard_cycle(5).edges()))
    assert locke_lou_check(g5)
    k3 = UGraph.from_edges(3, [(0, 1), (1, 2), (0, 2)])
    assert locke_lou_check(k3)


def test_locke_lou_rejects_preconditions():
    k4 = UGraph.from_edges(4, [(a, b) for a in range(4) for b in range(a + 1, 4)])
    with pytest.raises(ValueError):
        locke_lou_check(k4)
    two_triangles = UGraph.from_edges(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
    with pytest.raises(ValueError):
        locke_lou_check(two_triangles)  # disconnected
    star5 = UGraph.from_edges(6, [(0, i) for i in range(1, 6)])
    with pytest.raises(ValueError):
        locke_lou_check(star5)  # degree 5


def test_stoneage_on_small_graphs():
    g5 = UGraph.from_edges(5, list(standard_cycle(5).edges()))
    assert stoneage_check(g5)
    k4 = UGraph.from_edges(4, [(a, b) for a in range(4) for b in range(a + 1, 4)])
    with pytest.raises(ValueError):
        stoneage_check(k4)
    # K4,4 is 4-regular and K4-free: excluded, not falsified
    k44 = UGraph.from_edges(8, [(i, 4 + j) for i in range(4) for j in range(4)])
    with pytest.raises(ValueError):
        stoneage_check(k44)


def test_quality_bound_values():
    assert quality_bound(26, 0, 0) == 7 - Fraction(4, 26) - 1
    assert quality_bound(26, 13, 0) == 6 - Fraction(4, 26) - 1
    assert quality_bound(26, 0, 2) == 8 - Fraction(4, 26) - 1
    with pytest.raises(ValueError):
        quality_bound(-1, 0, 0)


def test_quality_check_on_strip_and_random_pairs():
    g = union(list(k4_strip(4)))
    assert quality_check(g)
    for seed in range(5):
        c1, c2 = random_pair(16, f"qb:{seed}")
        assert quality_check(union([c1, c2]))


def test_smooth_bound_values():
    assert smooth_bound(26, 0) == Fraction(7 * 26 - 4, 26)
    # fully covered: the K4-free remainder is empty and only -4/26 survives
    assert smooth_bound(16, 4) == 4 - Fraction(2, 13)
    assert smooth_bound(20, 4) == 4 + Fraction(24, 26)


def test_lower_bound_chain_matches_its_formulas():
    # each floor of the lower-bound chain, written out: a rewrite of how they
    # are derived from one another must leave every value where it is
    for n in range(200):
        assert smooth_bound(n, 0) == Fraction(7 * n - 4, 26)
        for z in range(n // 4 + 1):
            assert smooth_bound(n, z) == z + Fraction(7 * (n - 4 * z) - 4, 26)
            base = Fraction(7 * n, 26) - Fraction(z, 13) - Fraction(4, 26) - 1
            for p in range(n // 4 + 2):
                assert quality_bound(n, z, p) == base + Fraction(p, 2)
    for z in (0, Fraction(1, 26), Fraction(1, 13), Fraction(1, 10), Fraction(1, 2), 1):
        assert threshold_penalty(z) == -Fraction(z) / 13 + Fraction(z) ** 2 / 2
    z0 = Fraction(1, 13)
    rep = threshold_lower()
    assert (rep.base, rep.minimizer) == (Fraction(7, 26), z0)
    assert rep.minimum == -z0 / 13 + z0 * z0 / 2
    assert rep.value == Fraction(7, 26) - z0 / 13 + z0 * z0 / 2


def test_smooth_check_on_corpus():
    g = union(list(k4_strip(5)))
    assert smooth_check(g)
    for seed in range(5):
        c1, c2 = random_pair(18, f"sm:{seed}")
        assert smooth_check(union([c1, c2]))


def test_family_stats_table():
    stats = family_stats(triple_n8())
    assert stats.n == 8 and stats.size == 3
    assert [(i, j) for i, j, _, _, _ in stats.table] == [(0, 1), (0, 2), (1, 2)]
    for _, _, z, _, a in stats.table:
        assert z == 2 and a == 2


def test_family_stats_requires_two_cycles():
    with pytest.raises(ValueError):
        family_stats([standard_cycle(8)])
    with pytest.raises(ValueError):
        family_stats([standard_cycle(8), standard_cycle(10)])


def test_psizeta_on_strip():
    # Both unions with the first strip cycle are the strip itself: every
    # window K4 is shared, and the second cycle against itself is disallowed,
    # so compare against a perturbed partner instead.
    c1, c2 = k4_strip(3)
    m, psi = psizeta_stats(c1, c2, c2)
    assert m == 3 and psi >= 3


def test_psizeta_on_random_triples():
    for seed in range(10):
        c, d1 = random_pair(16, f"pz:{seed}:a")
        _, d2 = random_pair(16, f"pz:{seed}:b")
        m, psi = psizeta_stats(c, d1, d2)
        assert psi >= m >= 0


def test_psizeta_rejects_mismatched_sizes():
    with pytest.raises(ValueError):
        psizeta_stats(standard_cycle(8), standard_cycle(8), standard_cycle(12))


def test_iterating_check_on_circulant():
    fam = circulant_family(9)
    stats = family_stats(fam)
    rep = iterating_check(stats, Fraction(1, 2), Fraction(1, 2))
    assert rep.ok
    if rep.hypothesis_holds:
        assert rep.alpha_aux <= rep.alpha_cap


def test_iterating_check_vacuous_when_hypothesis_fails():
    # Two cycles whose union has no K4 at all: zeta = 0 < x*n/4.
    c1 = standard_cycle(9)
    c2 = make_cycle([(3 * i) % 9 if False else (2 * i) % 9 for i in range(9)])
    stats = family_stats([c1, c2])
    rep = iterating_check(stats, 1, Fraction(1, 2))
    assert not rep.hypothesis_holds and rep.ok


def test_checker_subfamilies_pinned_on_circulant_45():
    # The reported cliques are the lexicographically first maximum ones.
    stats = family_stats(circulant_family(45))
    assert step_check(stats, Fraction(1, 10)).subfamily == (0, 1, 2, 3, 4)
    rep = iterating_check(stats, Fraction(1, 4), Fraction(1, 2))
    assert rep.dense_subfamily == (0,)


def test_step_check_reports_gain():
    stats = family_stats(triple_n8())
    rep = step_check(stats, Fraction(1, 2))
    assert rep.gain == 1
    assert rep.ok
    assert rep.m_x == Fraction(1, 4)


HAND_BUILT = FamilyStats(100, 3, ((0, 1, 20, 0, 40), (0, 2, 50, 10, 30), (1, 2, 50, 10, 30)))


def test_step_check_conclusion_on_hand_built_stats():
    # hypothesis holds on every pair (psi/n below (1-eps)(zeta/n)^2 - eps), and
    # the auxiliary clique (0, 2) has m(Y) = 1/2 with m(Y)^2 > m(X)^2 + 1/99
    rep = step_check(HAND_BUILT, Fraction(1, 100))
    assert rep.hypothesis_holds
    assert rep.subfamily == (0, 2)
    assert rep.m_x == Fraction(1, 5) and rep.m_y == Fraction(1, 2)
    assert rep.gain == Fraction(1, 99)
    assert rep.ok


def test_exists_check_finds_dense_pair():
    stats = family_stats(triple_n8())
    pair = exists_check(stats, Fraction(1, 2))
    # (1-eps)(zeta/n)^2 - eps = (1/2)(1/16) - 1/2 < 0 <= psi/n: trivially found
    assert pair in {(0, 1), (0, 2), (1, 2)}


def test_exists_check_can_fail_to_find():
    c1, c2 = k4_strip(4)
    stats = family_stats([c1, c2])
    pair = exists_check(stats, Fraction(0))
    _, _, z, p, _ = stats.table[0]
    expected = Fraction(p, 16) >= Fraction(z, 16) ** 2
    assert pair == ((0, 1) if expected else None)


def test_density_checkers_digest():
    # one sha256 over each table and the step, exists and iterating reports
    # on it at three values of eps and three of x, taken before FamilyStats
    # lost its lookup accessors; a rewrite of the checkers that moves any
    # report field moves the digest
    tables = [family_stats(fam) for fam in (
        triple_n8(), circulant_family(9), circulant_family(15), circulant_family(45),
        k4_strip(3), k4_strip(4), *(random_pair(16, f"bd:{s}") for s in range(4)),
    )] + [HAND_BUILT]
    epsilons = (Fraction(1, 100), Fraction(1, 10), Fraction(1, 2))
    xs = (Fraction(1, 4), Fraction(1, 2), Fraction(1))
    h = hashlib.sha256()
    for stats in tables:
        h.update(repr(stats.table).encode())
        for eps in epsilons:
            h.update(repr((step_check(stats, eps), exists_check(stats, eps))).encode())
            for x in xs:
                h.update(repr(iterating_check(stats, x, eps)).encode())
    assert h.hexdigest() == "82c2bcf564290e28441bc2332bc061cebcdb3ef5a4823903329aff4d14446b2a"


# Tight cases: each checker's inequality holds with equality, so a flip of
# >= to > (or <= to <) in the checker turns a pass into a failure.


def test_smooth_check_is_tight_on_an_n8_union():
    g = union([standard_cycle(8), make_cycle((0, 2, 5, 1, 6, 4, 7, 3))])
    assert zeta(g) == 0 and alpha_value(g) == smooth_bound(8, 0) == 2
    assert smooth_check(g)


def test_locke_lou_check_is_tight_on_the_square_of_c8():
    # C8^2 is connected, K4-free and 4-regular with alpha 2 = (7*8 - 4)/26,
    # and e - 9n + 26*alpha = 16 - 72 + 52 = -4
    g = UGraph.from_edges(8, [(i, (i + d) % 8) for i in range(8) for d in (1, 2)])
    assert g.edge_count() == 16 and g.max_degree() == 4
    assert alpha_value(g) == smooth_bound(g.n, 0) == 2
    assert locke_lou_check(g)


def test_johnson_check_is_tight_at_one_full_set():
    # m = 1 = q(1, 1/2)
    assert johnson_q(1, Fraction(1, 2)) == 1
    assert johnson_check(6, [range(6)], 1, Fraction(1, 2))


def test_exists_check_finds_a_pair_at_equality():
    # psi/n = 1/4 = (zeta/n)^2 at eps = 0
    assert exists_check(FamilyStats(4, 2, ((0, 1, 2, 1, 1),)), 0) == (0, 1)


def test_iterating_check_is_tight_in_both_inequalities():
    # zeta = x*n/4 on every pair, and no pair reaches the psi floor, so the
    # auxiliary graph is empty: alpha_aux = 8 = q(1/4, 1/2) + 1
    stats = FamilyStats(4, 8, tuple((i, j, 1, 0, 0) for i in range(8) for j in range(i + 1, 8)))
    rep = iterating_check(stats, 1, Fraction(1, 2))
    assert rep == IteratingReport(True, 8, Fraction(8), (0,), True)


def test_step_check_refuses_eps_outside_the_open_unit_interval():
    for eps in (0, 1):
        with pytest.raises(ValueError, match="0 < eps < 1"):
            step_check(HAND_BUILT, eps)
