"""Independence solver vs the subset-recursion oracle, greedy extension,
certificates, and the degree-2 contraction."""

import random
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from twomilton.constructions import circulant_family
from twomilton.corpus import random_pair
from twomilton.graphs import UGraph, cycle_graph, make_cycle, mask_of, standard_cycle, union
from twomilton.independence import (
    AlphaSolver,
    alpha_exact,
    alpha_value,
    csoka_lift,
    csoka_reduce,
    greedy_extend,
    has_independent_set,
    verify_certificate,
    verify_independent,
)

from oracles import oracle_alpha, oracle_independent_sets


def random_graph(n, p, seed):
    rng = random.Random(f"indep:{n}:{p}:{seed}")
    edges = [
        (u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p
    ]
    return UGraph.from_edges(n, edges)


def test_alpha_known_values():
    assert alpha_value(cycle_graph(standard_cycle(8))) == 4
    assert alpha_value(cycle_graph(standard_cycle(9))) == 4
    assert alpha_value(UGraph.from_edges(3, [])) == 3
    k4 = UGraph.from_edges(4, [(u, v) for u in range(4) for v in range(u + 1, 4)])
    assert alpha_value(k4) == 1
    # the 15-edge union of C8 and its chord cycle: alpha = 3 (e.g. {0, 3, 6})
    g = union([standard_cycle(8), make_cycle([0, 2, 4, 6, 1, 3, 5, 7])])
    assert alpha_value(g) == 3
    # a partner covering C8 by two K4s on {0..3} and {4..7}: alpha = 2
    h = union([standard_cycle(8), make_cycle([2, 0, 3, 1, 6, 4, 7, 5])])
    assert alpha_value(h) == 2


def clique_rich_graph(n, size, count, extra, seed):
    """count random cliques of the given size plus `extra` random edges."""
    rng = random.Random(f"cliques:{n}:{size}:{count}:{extra}:{seed}")
    edges = set()
    for _ in range(count):
        edges.update(combinations(sorted(rng.sample(range(n), size)), 2))
    while extra > 0:
        u, v = sorted(rng.sample(range(n), 2))
        edges.add((u, v))
        extra -= 1
    return UGraph.from_edges(n, sorted(edges))


def oracle_cases():
    """Seeded general graphs, n <= 16: sparse to dense (max degree well above
    4), triangle-rich, K4-rich, complete, edgeless and empty."""
    cases = [UGraph.from_edges(0, [])]
    cases += [UGraph.from_edges(n, list(combinations(range(n), 2))) for n in (1, 2, 3, 6, 9)]
    cases += [random_graph(n, p, 3000 + seed)
              for seed, (n, p) in enumerate((n, p) for n in (5, 9, 12, 16)
                                            for p in (0.0, 0.15, 0.3, 0.5, 0.7))]
    cases += [clique_rich_graph(n, 3, n // 2, n // 4, seed) for n in (8, 12, 16) for seed in range(4)]
    cases += [clique_rich_graph(n, 4, n // 3, 2, seed) for n in (8, 12, 16) for seed in range(4)]
    return cases


def test_solver_matches_oracle_general_graphs():
    cases = oracle_cases()
    assert max(max((a.bit_count() for a in g.adj), default=0) for g in cases) > 4
    for i, g in enumerate(cases):
        a = oracle_alpha(g)
        cert = alpha_exact(g)
        assert cert.value == a, f"case {i}"
        # combinations() lists sets in lexicographic order
        assert cert.vertices == oracle_independent_sets(g, a)[0], f"case {i}"
        assert [has_independent_set(g, k) for k in (a - 1, a, a + 1)] == [True, True, False], f"case {i}"
        assert not oracle_independent_sets(g, a + 1), f"case {i}"


def path_and_cycle_union(parts):
    """Disjoint union of ("path", m) and ("cycle", m) components, with the
    vertex mask of each component."""
    edges, masks, base = [], [], 0
    for kind, m in parts:
        vs = list(range(base, base + m))
        edges += list(zip(vs, vs[1:]))
        if kind == "cycle":
            edges.append((vs[0], vs[-1]))
        masks.append(mask_of(vs))
        base += m
    return UGraph.from_edges(base, edges), masks


@pytest.mark.parametrize("parts", [
    [("path", 1), ("path", 2), ("path", 5), ("path", 8)],
    [("cycle", 3), ("cycle", 4), ("cycle", 5), ("cycle", 10), ("cycle", 11)],
    [("path", 7), ("cycle", 7), ("path", 4), ("cycle", 6), ("cycle", 9), ("path", 3)],
])
def test_closed_form_on_paths_and_cycles(parts):
    g, masks = path_and_cycle_union(parts)
    expected = [(m + 1) // 2 if kind == "path" else m // 2 for kind, m in parts]
    solver = AlphaSolver(g)
    assert [solver._path_or_cycle(mask) for mask in masks] == expected
    assert alpha_value(g) == sum(expected) == oracle_alpha(g)
    assert has_independent_set(g, sum(expected))
    assert not has_independent_set(g, sum(expected) + 1)


# alpha_exact certificates taken before the solver gained the worklist and the
# domination rule; a change to the solver must leave every one unchanged.
PINNED_CERTIFICATES = {
    "c45:0-1": "0 3 6 9 12 15 18 21 24 27 30 33 36 39 42",
    "c45:0-2": "0 3 6 9 12 15 18 21 24 27 30 33 36 39 42",
    "c45:0-3": "0 2 4 7 10 13 16 19 22 25 28 31 34 37 40",
    "c45:0-4": "0 2 5 8 11 14 17 20 23 26 29 32 35 38 43",
    "c45:1-2": "0 1 5 6 9 12 15 18 21 24 27 30 33 36 39",
    "c45:1-3": "0 1 4 7 10 13 16 19 22 25 28 31 34 37 40",
    "c45:1-4": "0 1 4 5 8 11 14 17 20 23 26 29 32 35 38",
    "c45:2-3": "0 3 6 9 12 15 18 21 24 27 30 33 36 39 42",
    "c45:2-4": "0 1 3 6 9 12 15 18 21 24 27 30 33 36 39",
    "c45:3-4": "0 1 2 7 8 13 14 19 20 25 26 31 32 37 38",
    "c63:0-1": "0 3 6 9 12 15 18 21 24 27 30 33 36 39 42 45 48 51 54 57 60",
    "c63:0-2": "0 3 6 9 12 15 18 21 24 27 30 33 36 39 42 45 48 51 54 57 60",
    "c63:0-3": "0 2 4 7 10 13 16 19 22 25 28 31 34 37 40 43 46 49 52 55 58",
    "c63:0-4": "0 2 5 8 11 14 17 20 23 26 29 32 35 38 41 44 47 50 53 56 61",
    "c63:1-2": "0 1 5 6 9 12 15 18 21 24 27 30 33 36 39 42 45 48 51 54 57",
    "c63:1-3": "0 1 4 7 10 13 16 19 22 25 28 31 34 37 40 43 46 49 52 55 58",
    "c63:1-4": "0 1 4 5 8 11 14 17 20 23 26 29 32 35 38 41 44 47 50 53 56",
    "c63:2-3": "0 3 6 9 12 15 18 21 24 27 30 33 36 39 42 45 48 51 54 57 60",
    "c63:2-4": "0 1 3 6 9 12 15 18 21 24 27 30 33 36 39 42 45 48 51 54 57",
    "c63:3-4": "0 1 2 7 8 13 14 19 20 25 26 31 32 37 38 43 44 49 50 55 56",
    "r48:pin:0": "1 2 5 7 8 11 16 22 23 24 28 32 35 36 37 40 41 44 45 47",
    "r48:pin:1": "0 1 7 10 11 12 14 15 18 19 20 22 27 28 29 31 32 35 37 41",
    "r48:pin:2": "1 2 4 5 8 9 12 16 19 20 29 31 33 35 36 37 41 45 46 47",
    "r48:pin:3": "0 2 4 7 8 9 10 12 13 14 17 25 27 29 32 34 37 40 43",
    "r48:pin:4": "0 2 3 5 6 7 8 9 13 14 17 24 25 27 28 40 42 44 47",
    "r48:pin:5": "3 5 6 9 10 12 15 16 20 22 26 27 28 29 32 33 38 42 44",
    "r64:pin:0": "0 2 4 6 8 9 10 11 12 13 15 16 20 21 22 29 34 37 44 47 51 53 54 60 62 63",
    "r64:pin:1": "0 2 7 9 11 12 13 18 19 20 21 25 26 29 30 31 37 40 42 44 47 50 51 54 57 60",
    "r64:pin:2": "0 2 6 7 11 13 14 15 16 19 20 21 24 25 26 27 30 34 36 44 51 53 54 57 61 62",
    "r64:pin:3": "0 1 4 7 8 17 19 22 23 26 27 28 29 30 31 33 35 38 40 48 53 54 56 58 60",
    "r64:pin:4": "0 1 2 3 4 11 12 13 17 18 28 29 30 32 36 44 45 49 50 53 54 59 60 62 63",
    "r64:pin:5": "0 2 4 5 6 7 8 10 16 17 18 24 26 28 33 35 36 37 38 39 40 44 47 49 56 58",
}


def pinned_graph(key):
    kind, rest = key.split(":", 1)
    if kind[0] == "c":
        fam = circulant_family(int(kind[1:]))
        i, j = map(int, rest.split("-"))
        return union([fam[i], fam[j]])
    return union(random_pair(int(kind[1:]), rest))


@pytest.mark.parametrize("key", list(PINNED_CERTIFICATES))
def test_certificate_pinned(key):
    cert = alpha_exact(pinned_graph(key))
    assert " ".join(map(str, cert.vertices)) == PINNED_CERTIFICATES[key]


def test_alpha_matches_oracle_random():
    for seed in range(40):
        n = 6 + seed % 9
        g = random_graph(n, 0.25 + 0.05 * (seed % 5), seed)
        assert alpha_value(g) == oracle_alpha(g), f"seed={seed}"


@settings(max_examples=60, deadline=None)
@given(st.integers(5, 12), st.integers(0, 10**6))
def test_alpha_matches_oracle_property(n, seed):
    g = random_graph(n, 0.3, seed)
    assert alpha_value(g) == oracle_alpha(g)


def test_certificate_is_lex_min_maximum():
    g = cycle_graph(standard_cycle(8))
    cert = alpha_exact(g)
    assert cert.value == 4
    assert cert.vertices == (0, 2, 4, 6)
    assert verify_certificate(g, cert)
    # path on 5 vertices: alpha 3, least witness (0, 2, 4)
    p5 = UGraph.from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4)])
    assert alpha_exact(p5).vertices == (0, 2, 4)


def test_certificate_lex_min_against_enumeration():
    from itertools import combinations

    for seed in range(10):
        g = random_graph(9, 0.3, 1000 + seed)
        cert = alpha_exact(g)
        best = min(
            c
            for c in combinations(range(9), cert.value)
            if verify_independent(g, c)
        )
        assert cert.vertices == best


def test_threshold_queries():
    g = union([standard_cycle(8), make_cycle([2, 0, 3, 1, 6, 4, 7, 5])])
    assert has_independent_set(g, 2)
    assert not has_independent_set(g, 3)
    assert has_independent_set(g, 0)


def test_solver_memo_reuse():
    g = cycle_graph(standard_cycle(12))
    s = AlphaSolver(g)
    assert s.alpha() == 6
    assert s.at_least(6)
    assert not s.at_least(7)


def test_shared_solver_stays_exact():
    # at_least memoises only values below its target; a solver that answered
    # any k afterwards answers alpha() and every other k exactly
    for i, g in enumerate(oracle_cases()):
        a = oracle_alpha(g)
        for ks in (range(a + 2), range(a + 1, -1, -1)):
            s = AlphaSolver(g)
            assert [s.at_least(k) for k in ks] == [k <= a for k in ks], f"case {i}"
            assert s.alpha() == a, f"case {i}"


def test_verify_independent():
    g = cycle_graph(standard_cycle(5))
    assert verify_independent(g, [0, 2])
    assert not verify_independent(g, [0, 1])
    assert not verify_independent(g, [0, 0, 2])
    assert not verify_independent(g, [0, 9])


def test_greedy_extend_cycle_example():
    g = cycle_graph(standard_cycle(8))
    assert greedy_extend(g, [0]) == (0, 2, 4, 6)
    assert greedy_extend(g, []) == (0, 2, 4, 6)


def test_greedy_extend_quarter_bound():
    for seed in range(20):
        n = 10 + seed
        order = list(range(1, n))
        random.Random(f"greedy:{seed}").shuffle(order)
        g = union([standard_cycle(n), make_cycle([0] + order)])
        base = greedy_extend(g, [])
        # closed neighbourhood of the empty set is empty: gain >= n/4
        assert len(base) * 4 >= n
        seeded = greedy_extend(g, [base[0]])
        uncovered = n - 1 - g.degree(base[0])
        assert (len(seeded) - 1) * 4 >= uncovered


def test_greedy_rejects_dependent_seed():
    g = cycle_graph(standard_cycle(6))
    with pytest.raises(ValueError):
        greedy_extend(g, [0, 1])


def test_csoka_path_example():
    # P5 0-1-2-3-4, contract at y=2: P3 remains, alpha 3 -> 2, lift restores 3
    p5 = UGraph.from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4)])
    reduced, red = csoka_reduce(p5, 2)
    assert reduced.n == 2 + 1
    assert alpha_value(reduced) == alpha_value(p5) - 1
    new_cert = alpha_exact(reduced)
    lifted = csoka_lift(red, new_cert.vertices)
    assert len(lifted) == 3
    assert verify_independent(p5, lifted)


def test_csoka_alpha_drop_random():
    # every eligible contraction drops alpha by exactly 1 and lifts back
    checked = 0
    for seed in range(30):
        g = random_graph(9, 0.25, 2000 + seed)
        for y in range(g.n):
            if g.degree(y) != 2:
                continue
            x, z = g.neighbors(y)
            if g.has_edge(x, z):
                continue
            reduced, red = csoka_reduce(g, y)
            assert alpha_value(reduced) == alpha_value(g) - 1
            lifted = csoka_lift(red, alpha_exact(reduced).vertices)
            assert len(lifted) == alpha_value(g)
            assert verify_independent(g, lifted)
            checked += 1
    assert checked > 10


def test_csoka_rejects_ineligible():
    g = cycle_graph(standard_cycle(3))
    with pytest.raises(ValueError, match="adjacent"):
        csoka_reduce(g, 0)
    p5 = UGraph.from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4)])
    with pytest.raises(ValueError, match="degree"):
        csoka_reduce(p5, 0)


def test_limits_env_override(monkeypatch):
    g = cycle_graph(standard_cycle(10))
    monkeypatch.setenv("TWOMILTON_LIMITS", "alpha=8")
    with pytest.raises(ValueError, match="TWOMILTON_LIMITS"):
        alpha_value(g)
    monkeypatch.setenv("TWOMILTON_LIMITS", "alpha=16")
    assert alpha_value(g) == 5


@pytest.mark.parametrize("entry, message", [
    ("alpah=1", "unknown TWOMILTON_LIMITS key 'alpah'; known keys: alpha, enum"),
    ("alpha", "bad TWOMILTON_LIMITS entry 'alpha'"),
    ("alpha=x", "bad TWOMILTON_LIMITS entry 'alpha=x'"),
], ids=["unknown-key", "no-value", "bad-value"])
def test_limits_refuse_unknown_key(monkeypatch, entry, message):
    # a misspelt key or value would otherwise leave the limit at its default
    # unnoticed, or fail with a message that does not name the entry
    monkeypatch.setenv("TWOMILTON_LIMITS", entry)
    with pytest.raises(ValueError) as err:
        alpha_value(cycle_graph(standard_cycle(10)))
    assert str(err.value) == message
