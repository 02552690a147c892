"""The archipelago deletion pipeline and its independence lift."""

import hashlib
import json

import pytest

from twomilton.constructions import counterexample_strip, k4_strip
from twomilton.corpus import planted_pair, random_pair
from twomilton.graphs import UGraph, make_cycle, standard_cycle, union
from twomilton.independence import alpha_exact, alpha_value, verify_independent
from twomilton.k4 import find_k4s, zeta
from twomilton.reduction import (
    StructureViolation,
    diagnose_reduction,
    lift_independent,
    technical_reduce,
)

from oracles import oracle_alpha


def check_result(res):
    g, h = res.g, res.h
    assert all(res.postconditions.values())
    assert not find_k4s(h)
    assert h.n == g.n - 4 * res.zeta
    for i, old in enumerate(res.h_vertex_map):
        assert h.degree(i) <= g.degree(old)
    cert = alpha_exact(h) if h.n else None
    iset = cert.vertices if cert else ()
    lifted = lift_independent(res, iset)
    assert len(lifted) == len(iset) + res.zeta
    assert verify_independent(g, lifted)
    return lifted


def test_validations():
    c1, c2 = k4_strip(3)  # n = 12 <= 13
    with pytest.raises(ValueError, match="n > 13"):
        technical_reduce(c1, c2)
    c = standard_cycle(16)
    with pytest.raises(ValueError, match="distinct"):
        technical_reduce(c, make_cycle(list(range(15, -1, -1))))
    with pytest.raises(ValueError, match="vertex set"):
        technical_reduce(standard_cycle(16), standard_cycle(20))


def test_fully_covered_strip_reduces_to_empty():
    c1, c2 = k4_strip(4)
    res = technical_reduce(c1, c2)
    assert res.zeta == 4
    assert res.h.n == 0
    assert res.h_vertex_map == ()
    lifted = lift_independent(res, ())
    assert len(lifted) == 4
    assert verify_independent(res.g, lifted)
    assert all(e.kind == "cyclic" for e in res.lift_plan)


def test_zeta_zero_is_identity():
    c1, c2 = random_pair(17, "idty")
    g = union([c1, c2])
    assert zeta(g) == 0  # seed chosen so the union is K4-free
    res = technical_reduce(c1, c2)
    assert res.zeta == 0
    assert res.h.n == 17
    assert res.h.edges() == g.edges()
    assert res.trace == ()
    lifted = lift_independent(res, alpha_exact(res.h).vertices)
    assert len(lifted) == alpha_value(g)


def two_island_pair():
    """Two K4 windows at 0..3 and 8..11 whose removal splits the remainder
    into islands {4..7} and {12..15} (the second cycle never bridges them and
    both windows have 4-vertex independent neighbourhoods), so the
    spanning-tree reconnection must route arcs of the first cycle."""
    c1 = standard_cycle(16)
    c2 = make_cycle([4, 6, 5, 7, 2, 0, 3, 1, 13, 12, 15, 14, 10, 8, 11, 9])
    return c1, c2


def test_reconnection_step():
    c1, c2 = two_island_pair()
    g = union([c1, c2])
    assert zeta(g) == 2
    res = technical_reduce(c1, c2)
    steps = [t.step for t in res.trace]
    assert "connect" in steps
    connect = next(t for t in res.trace if t.step == "connect")
    assert connect.added_edge == (4, 15)
    # the surviving second window is handled afterwards with a safe edge
    final = [t for t in res.trace if t.step == "final"]
    assert final and final[0].added_edge == (4, 12)
    check_result(res)


def three_neighbour_pair():
    """One K4 window at 0..3 with neighbourhood {4, 6, 15}: vertex 15 sends
    two spokes (so it is marked), and no risky outside pattern applies."""
    c1 = standard_cycle(16)
    c2 = make_cycle([15, 2, 0, 3, 1, 6, 8, 4, 9, 5, 10, 7, 11, 13, 12, 14])
    return c1, c2


def test_three_neighbourhood_step():
    c1, c2 = three_neighbour_pair()
    g = union([c1, c2])
    assert zeta(g) == 1
    res = technical_reduce(c1, c2)
    three = [t for t in res.trace if t.step.startswith("three")]
    assert len(three) == 1
    assert three[0].step == "three"
    assert three[0].added_edge == (4, 6)
    check_result(res)


def test_planted_corpus():
    lifted_sizes = []
    for seed in range(25):
        n = 16 + 4 * (seed % 5)
        k = 1 + seed % 3
        c1, c2 = planted_pair(n, k, f"red:{seed}")
        g = union([c1, c2])
        assert zeta(g) >= k
        res = technical_reduce(c1, c2)
        lifted = check_result(res)
        lifted_sizes.append(len(lifted))
        # the lift is a real independent set of g, so alpha(g) >= alpha(h) + zeta
        if n <= 20:
            assert oracle_alpha(g) >= len(lifted)
    assert any(s > 4 for s in lifted_sizes)


def test_random_pairs_mostly_trivial():
    for seed in range(10):
        c1, c2 = random_pair(20, f"rnd:{seed}")
        res = technical_reduce(c1, c2)
        check_result(res)


def test_determinism():
    c1, c2 = planted_pair(24, 2, "det")
    r1 = technical_reduce(c1, c2)
    r2 = technical_reduce(c1, c2)
    assert r1.trace == r2.trace
    assert r1.h.adj == r2.h.adj
    assert r1.lift_plan == r2.lift_plan


def test_lift_rejects_bad_input():
    c1, c2 = planted_pair(20, 1, "bad")
    res = technical_reduce(c1, c2)
    edges = res.h.edges()
    if edges:
        with pytest.raises(ValueError, match="independent"):
            lift_independent(res, edges[0])
    with pytest.raises(ValueError, match="vertex ids"):
        lift_independent(res, [res.h.n + 3])


def test_counterexample_strip_diagnosis():
    g = counterexample_strip(3)
    report = diagnose_reduction(g)
    assert not report.ok
    assert report.failed_step == "small"
    assert "K4" in report.reason
    assert report.artifact is not None
    assert report.artifact.n == 24
    assert report.result is None


def test_diagnose_accepts_clean_union():
    c1, c2 = planted_pair(18, 1, "diag")
    report = diagnose_reduction(union([c1, c2]), cycles=(c1, c2))
    assert report.ok
    assert report.result is not None
    assert report.result.zeta >= 1


def test_diagnose_rejects_high_degree():
    star = UGraph.from_edges(6, [(0, i) for i in range(1, 6)])
    with pytest.raises(ValueError, match="degree"):
        diagnose_reduction(star)


def _k4_with_trio(extra_edges):
    """K4 on 0..3, spokes 0-4, 1-4, 2-5, 3-6 (vertex 4 marked), plus extras."""
    edges = [(u, v) for u in range(4) for v in range(u + 1, 4)]
    edges += [(0, 4), (1, 4), (2, 5), (3, 6)]
    edges += extra_edges
    n = 1 + max(max(e) for e in edges)
    return UGraph.from_edges(n, edges)


# six spokes to the outside pair {7,8}, no 7-8 edge: connect marked 4 to 5
RISKY_1 = [(4, 7), (4, 8), (5, 7), (5, 8), (6, 7), (6, 8)]
# five spokes plus the 7-8 edge, gap at unmarked 6: connect 4 to 6
RISKY_2 = [(4, 7), (4, 8), (5, 7), (5, 8), (6, 7), (7, 8)]
# five spokes plus the 7-8 edge, gap at the marked vertex 4: connect 4 to 5
RISKY_3 = [(4, 8), (5, 7), (5, 8), (6, 7), (6, 8), (7, 8)]


def test_risky_type1_edge():
    g = _k4_with_trio(RISKY_1)
    report = diagnose_reduction(g)
    assert report.ok
    risky = [t for t in report.result.trace if t.step == "three-risky"]
    assert risky and risky[0].added_edge == (4, 5)


def test_risky_type2_edge():
    g = _k4_with_trio(RISKY_2)
    report = diagnose_reduction(g)
    assert report.ok
    risky = [t for t in report.result.trace if t.step == "three-risky"]
    assert risky and risky[0].added_edge == (4, 6)


def test_risky_type3_edge():
    g = _k4_with_trio(RISKY_3)
    report = diagnose_reduction(g)
    assert report.ok
    risky = [t for t in report.result.trace if t.step == "three-risky"]
    assert risky and risky[0].added_edge == (4, 5)


def test_forbidden_pattern_detected():
    # six spokes plus the 7-8 edge: no safe reconnection exists
    g = _k4_with_trio([(4, 7), (4, 8), (5, 7), (5, 8), (6, 7), (6, 8), (7, 8)])
    report = diagnose_reduction(g)
    assert not report.ok
    assert report.failed_step == "three"
    assert "forbidden" in report.reason


def test_strict_mode_raises():
    g = counterexample_strip(2)
    with pytest.raises(StructureViolation) as info:
        from twomilton.reduction import _Pipeline

        _Pipeline(g, None).run()
    assert info.value.step == "small"
    assert info.value.artifact.n == 16


PINNED_INPUTS = {
    "planted-24-2": lambda: technical_reduce(*planted_pair(24, 2, "pin:0")),
    "planted-32-3": lambda: technical_reduce(*planted_pair(32, 3, "pin:1")),
    "planted-41-5": lambda: technical_reduce(*planted_pair(41, 5, "pin:2")),
    "planted-18-3": lambda: technical_reduce(*planted_pair(18, 3, "pin:s44")),
    "planted-20-3": lambda: technical_reduce(*planted_pair(20, 3, "pin:s86")),
    "planted-19-2": lambda: technical_reduce(*planted_pair(19, 2, "pin:s1105")),
    "two-island": lambda: technical_reduce(*two_island_pair()),
    "three-neighbour": lambda: technical_reduce(*three_neighbour_pair()),
    "risky-1": lambda: diagnose_reduction(_k4_with_trio(RISKY_1)).result,
    "risky-2": lambda: diagnose_reduction(_k4_with_trio(RISKY_2)).result,
    "risky-3": lambda: diagnose_reduction(_k4_with_trio(RISKY_3)).result,
}


def _plan_digest(res):
    """sha256 of the lift plan, the remainder rows and its vertex map."""
    plan = [
        [e.vertices, e.kind, e.neighborhood, e.clean,
         None if e.by_neighbor is None else sorted(e.by_neighbor.items())]
        for e in res.lift_plan
    ]
    text = json.dumps([plan, res.h.adj, res.h_vertex_map])
    return hashlib.sha256(text.encode()).hexdigest()


def _trace(res):
    return tuple((t.step, t.archipelago, t.added_edge) for t in res.trace)


# trace and lift-plan/remainder digest of each input above, taken before the
# pipeline was consolidated to one implementation of each primitive
PINNED = [
    ("planted-24-2", (
        ("three", (1, 9, 19, 20), (4, 10)),
        ("final", (2, 3, 5, 23), None),
    ), "ba3300529568cc732083b3c528f8bd0439fd584bb524147380331b914fb965ff"),
    ("planted-32-3", (
        ("final", (0, 5, 8, 28), (1, 14)),
        ("final", (2, 12, 18, 26), (16, 20)),
        ("final", (7, 17, 25, 27), (10, 14)),
    ), "99396d1b3b6348f9c2595d64ffb6313aae5341dfdbb2ee6ec781172c0cc1ce02"),
    ("planted-41-5", (
        ("final", (0, 1, 3, 6, 9, 11, 14, 16, 17, 18, 21, 23, 24, 27, 28, 32, 34, 36, 38,
                   40), None),
    ), "b284ce1749311464a04506c4439228468721a2047b87432e48972da77dd7005c"),
    ("planted-18-3", (
        ("small", (2, 6, 7, 9), (0, 17)),
        ("final", (1, 10, 15, 16), None),
        ("final", (3, 5, 12, 14), None),
    ), "3123b0f96f6f69f27242723aab554b00a45580c68e5444c40dfce015a777e8aa"),
    ("planted-20-3", (
        ("connect", (0, 5, 7, 9, 11, 13, 16, 19), (2, 8)),
        ("connect", (1, 3, 4, 6, 12, 14, 15, 18), (2, 17)),
    ), "57a15203bab8b186b11b88a9464f3bc545f912768581a456a19069861b05be8e"),
    ("planted-19-2", (
        ("three-risky", (2, 7, 8, 12), (1, 9)),
        ("final", (4, 5, 15, 18), None),
    ), "75610bfe5cea075844a067cd8e9583d1bb94238fcee6ebe4535198fbe0303ed7"),
    ("two-island", (
        ("connect", (0, 1, 2, 3), (4, 15)),
        ("final", (8, 9, 10, 11), (4, 12)),
    ), "fa5fa8d24336cafba84f47ef6f659f3f6a712171c653b0801a83d55182ea9580"),
    ("three-neighbour", (
        ("three", (0, 1, 2, 3), (4, 6)),
    ), "534eebc6d74a95cde8cd106065ea42072fc8fe07e012e9f548523b47768cd453"),
    ("risky-1", (
        ("three-risky", (0, 1, 2, 3), (4, 5)),
    ), "dc179a521a6610654d75b107f82e7a0ada6e77bc0c65120c6ec0a648a17adaca"),
    ("risky-2", (
        ("three-risky", (0, 1, 2, 3), (4, 6)),
    ), "45bdf3e12662a5f5f60be84e17013ddd38ab55aaa10ad188f0c23dadbdadd7b7"),
    ("risky-3", (
        ("three-risky", (0, 1, 2, 3), (4, 5)),
    ), "781ea9f4d858d652c30dafd7da5addaca26f74ce4daa298eb8ef0fc8b78d0ddd"),
]


@pytest.mark.parametrize("name,trace,digest", PINNED, ids=[p[0] for p in PINNED])
def test_reduction_output_pinned(name, trace, digest):
    res = PINNED_INPUTS[name]()
    assert _trace(res) == trace
    assert _plan_digest(res) == digest


def test_counterexample_diagnosis_pinned():
    # step 1 fails on the first small archipelago, before anything is deleted,
    # so the artifact is the whole input graph
    g = counterexample_strip(3)
    report = diagnose_reduction(g)
    assert report.failed_step == "small"
    assert report.reason == "joining neighbourhood (4,5) completes K4 (4, 5, 6, 7)"
    assert report.artifact.edges == tuple(g.edges())
    assert report.artifact.meta == {"detail": {
        "reason": report.reason, "edge": [4, 5], "k4": [4, 5, 6, 7],
    }}
