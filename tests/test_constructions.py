"""Explicit families: strips, the 8-vertex triple, circulants, amplification."""

from fractions import Fraction
from itertools import combinations

import pytest

from twomilton import constructions
from twomilton.constructions import (
    amplify,
    base_alpha_ratio,
    circulant_family,
    counterexample_strip,
    k4_strip,
    triple_n8,
)
from twomilton.graphs import canonical_key, cycle_graph, distinct_cycles, standard_cycle, union
from twomilton.independence import alpha_value, verify_independent
from twomilton.k4 import check_cover, find_k4_cover, find_triangle_cover, zeta

from oracles import oracle_alpha


def test_k4_strip_structure():
    for k in (1, 2, 3, 5):
        c1, c2 = k4_strip(k)
        assert distinct_cycles([c1, c2])
        g = union([c1, c2])
        # for k >= 2 the cycles share no edge; at k=1 the union is plain K4
        assert g.edge_count() == (8 * k if k > 1 else 6)
        assert zeta(g) == k
        cover = find_k4_cover(g)
        assert cover is not None and check_cover(g, cover, 4)
        if k > 1:
            assert g.degree_sequence() == (4,) * (4 * k)


def test_k4_strip_alpha_equals_quarter():
    for k in (2, 3, 4):
        g = union(k4_strip(k))
        assert alpha_value(g) == k


def test_triple_n8_is_valid():
    trio = triple_n8()
    assert distinct_cycles(trio)
    for i in range(3):
        for j in range(i + 1, 3):
            g = union([trio[i], trio[j]])
            assert find_k4_cover(g) is not None
            assert alpha_value(g) == 2


def test_circulant_family_n9_frozen():
    c1, c2, c3, c4, c5 = circulant_family(9)
    assert c1.order == (0, 1, 2, 3, 4, 5, 6, 7, 8)
    assert c2.order == (0, 2, 4, 6, 8, 1, 3, 5, 7)
    assert c3.order == (1, 6, 8, 2, 0, 4, 5, 3, 7)
    assert c4.order == (0, 7, 2, 3, 1, 5, 6, 4, 8)
    assert c5.order == (0, 5, 7, 1, 8, 3, 4, 2, 6)


@pytest.mark.parametrize("n", [9, 15, 21])
def test_circulant_family_covers(n):
    fam = circulant_family(n)
    assert len(fam) == 5
    assert distinct_cycles(fam)
    for i in range(5):
        for j in range(i + 1, 5):
            g = union([fam[i], fam[j]])
            cover = find_triangle_cover(g)
            assert cover is not None, (n, i, j)
            assert check_cover(g, cover, 3)
            assert alpha_value(g) <= n // 3


def test_circulant_family_ratio():
    assert base_alpha_ratio(circulant_family(9)) == Fraction(1, 3)
    assert base_alpha_ratio(circulant_family(9)[:1]) == 0


def test_circulant_rejects_bad_n():
    for n in (6, 7, 12, 18):
        with pytest.raises(ValueError):
            circulant_family(n)


def test_counterexample_strip_small():
    g = counterexample_strip(2)
    assert g.n == 16
    assert g.degree_sequence() == (4,) * 16
    assert zeta(g) == 2
    assert alpha_value(g) == 4 == oracle_alpha(g)
    with pytest.raises(ValueError):
        counterexample_strip(1)


def test_counterexample_strip_alpha_quarter():
    g = counterexample_strip(3)
    assert g.n == 24
    assert zeta(g) == 3
    assert alpha_value(g) == 6
    # the canonical witness: K4 corner + bar vertex per unit
    witness = [v for i in range(3) for v in (8 * i, 8 * i + 6)]
    assert verify_independent(g, witness)


def test_amplify_smoke():
    base = circulant_family(9)
    res = amplify(base, blocks=4, family_size=6, seed="smoke")
    assert res.n == 36
    assert len(res.cycles) == 6
    assert distinct_cycles(res.cycles)
    assert res.agreement_cap == 1
    assert res.bound == Fraction(167, 10)
    for i, a in enumerate(res.chains):
        for b in res.chains[:i]:
            assert sum(x == y for x, y in zip(a, b)) <= 1
    # determinism
    again = amplify(base, blocks=4, family_size=6, seed="smoke")
    assert [canonical_key(c) for c in again.cycles] == [
        canonical_key(c) for c in res.cycles
    ]
    # a different seed changes the chains
    other = amplify(base, blocks=4, family_size=6, seed="other")
    assert other.chains != res.chains


def test_amplify_block_structure():
    base = circulant_family(9)
    res = amplify(base, blocks=4, family_size=2, seed="blocks")
    for cyc, chain in zip(res.cycles, res.chains):
        edges = set(cycle_graph(cyc).edges())
        for a, pick in enumerate(chain):
            block_edges = {
                (a * 9 + u, a * 9 + v) for u, v in cycle_graph(base[pick]).edges()
            }
            inside = {
                e for e in edges if a * 9 <= e[0] < (a + 1) * 9 and a * 9 <= e[1] < (a + 1) * 9
            }
            missing = block_edges - inside
            assert len(missing) == 1  # exactly the deleted first-vertex edge
            assert inside <= block_edges
            (gone,) = missing
            assert a * 9 in gone


def test_amplify_pair_alpha_within_bound():
    base = circulant_family(9)
    res = amplify(base, blocks=4, family_size=3, seed="bound")
    for i in range(3):
        for j in range(i + 1, 3):
            g = union([res.cycles[i], res.cycles[j]])
            assert alpha_value(g) <= res.bound


def test_amplify_validates(monkeypatch):
    base = circulant_family(9)
    with pytest.raises(ValueError, match="even"):
        amplify(base, blocks=3, family_size=2, seed="x")
    monkeypatch.setattr(constructions, "MAX_ATTEMPTS", 50)
    with pytest.raises(ValueError, match="within 50 attempts"):
        # cap 0 with many chains over a tiny base cannot be satisfied
        amplify(base[:2], blocks=2, family_size=40, seed="x", eps=Fraction(0))


def test_amplify_refuses_negative_family_size():
    with pytest.raises(ValueError, match="family_size"):
        amplify(circulant_family(9), blocks=4, family_size=-3, seed="x")
    assert amplify(circulant_family(9), blocks=4, family_size=0, seed="x").cycles == ()


@pytest.mark.parametrize("base", [circulant_family(9), circulant_family(15), triple_n8()],
                         ids=["circulant-9", "circulant-15", "triple-8"])
def test_amplify_bound_on_several_bases(base):
    # the bound is the closed formula of the amplification argument, and
    # every pair of the family meets it
    k0, n0, c0 = len(base), base[0].n, base_alpha_ratio(base)
    for blocks in (2, 4):
        for eps in (Fraction(0), Fraction(1, 4), Fraction(1, 2)):
            cap = Fraction(blocks, k0) + eps * blocks
            closed = cap * Fraction(n0, 2) + (blocks - cap) * c0 * n0 + Fraction(blocks, 2)
            for seed in ("s0", "s1", "s2"):
                res = amplify(base, blocks, 3, seed=seed, eps=eps)
                assert res.bound == closed
                for a, b in combinations(res.cycles, 2):
                    assert alpha_value(union([a, b])) <= res.bound


@pytest.mark.parametrize("base, blocks, size, eps, message", [
    (circulant_family(9)[:1], 4, 3, Fraction(1, 4), "two cycles"),
    (circulant_family(9), 4, 3, Fraction(-3, 10), "eps"),
    (circulant_family(9), 2, 10, Fraction(3), "eps"),
    (circulant_family(9), 4, 3, Fraction(4, 5), "eps"),
    (triple_n8(), 4, 3, Fraction(2, 3), "eps"),
    ((standard_cycle(9), standard_cycle(10)), 4, 3, Fraction(1, 4), "vertex set"),
], ids=["one-cycle", "negative", "three", "four-fifths", "two-thirds-k0-3", "mixed-sizes"])
def test_amplify_refuses_before_any_draw(monkeypatch, base, blocks, size, eps, message):
    # a negative eps gives a cap no second chain meets, and eps >= 1 - 1/k0 a
    # cap of blocks, under which a chain may repeat; both are refused up front
    def no_draw(*args):
        raise AssertionError("amplify drew a chain")

    monkeypatch.setattr(constructions, "Random", no_draw)
    with pytest.raises(ValueError, match=message):
        amplify(base, blocks, size, seed="x", eps=eps)


def test_amplify_eps_range_edges():
    base = circulant_family(9)
    assert amplify(base, 4, 3, seed="x", eps=Fraction(0)).agreement_cap == 0
    res = amplify(base, 2, 10, seed="x", eps=Fraction(79, 100))
    assert res.agreement_cap == 1 and distinct_cycles(res.cycles)
