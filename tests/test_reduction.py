"""The archipelago deletion pipeline and its independence lift."""

import hashlib
import json

import pytest

from twomilton import reduction
from twomilton.constructions import counterexample_strip, k4_strip
from twomilton.corpus import planted_pair, random_pair
from twomilton.graphs import UGraph, make_cycle, standard_cycle, union
from twomilton.independence import alpha_exact, alpha_value, verify_independent
from twomilton.k4 import archipelagos, find_k4s, zeta
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
    assert all([u for u, _ in e.options] == [None] for e in res.lift_plan)


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


# planted pairs (n, K4s, seed) whose step 1 deletes a small archipelago and
# whose step 2 then routes its arcs along the first cycle's live order, which
# skips the deleted vertices; the two steps were taken while the pipeline
# still kept a spliced copy of each cycle
SPLICE_THEN_CONNECT = [
    ((34, 7, "8"), (
        ("small", (11, 24, 28, 30), (6, 8)),
        ("connect", (0, 1, 2, 3, 5, 10, 14, 15, 16, 17, 19, 25, 26, 27, 29, 31), (22, 32)),
    )),
    ((39, 7, "6"), (
        ("small", (0, 25, 27, 34), (16, 28)),
        ("connect", (3, 15, 24, 38), (6, 21)),
    )),
    ((33, 6, "sc:2081"), (
        ("small", (6, 9, 12, 20), (1, 5)),
        ("connect", (0, 2, 3, 4, 11, 15, 16, 17, 18, 21, 22, 25, 26, 27, 28, 29), (1, 32)),
    )),
    ((38, 6, "sc:4284"), (
        ("small", (0, 7, 21, 35), (3, 16)),
        ("connect", (2, 9, 22, 29), (23, 24)),
    )),
    ((30, 6, "sc:5992"), (
        ("small", (4, 6, 17, 18), (9, 21)),
        ("connect", (1, 2, 3, 5, 11, 12, 13, 14, 15, 16, 20, 23, 24, 25, 27, 28), (0, 22)),
    )),
]


@pytest.mark.parametrize("args,steps", SPLICE_THEN_CONNECT)
def test_reconnection_walks_the_live_order(args, steps):
    # step 2 must route along the cycle that step 1's joined edge closes
    res = technical_reduce(*planted_pair(*args))
    assert _trace(res)[:2] == steps
    check_result(res)


@pytest.mark.parametrize("args", [args for args, _ in SPLICE_THEN_CONNECT])
def test_reconnection_ignores_the_route_direction(args):
    # step 2 keeps each arc by its ends in ascending order, so walking the
    # route backwards gives the same trace, lift plan and remainder
    c1, c2 = planted_pair(*args)
    g = union([c1, c2])
    forward = diagnose_reduction(g, (c1,))
    backward = diagnose_reduction(g, (make_cycle(c1.order[::-1]),))
    assert forward.trace == technical_reduce(c1, c2).trace
    assert (backward.trace, backward.lift_plan, backward.h, backward.h_vertex_map) == (
        forward.trace, forward.lift_plan, forward.h, forward.h_vertex_map)


def test_small_archipelago_that_is_the_whole_graph():
    # a 4-regular chain of three K4s: step 1 deletes all twelve K4 vertices at
    # once, and its two neighbours, joined, are the whole remainder
    c1 = make_cycle((0, 1, 2, 3, 4, 5, 7, 6, 13, 9, 8, 10, 11, 12))
    c2 = make_cycle((0, 2, 13, 10, 9, 11, 8, 7, 4, 6, 5, 12, 1, 3))
    res = technical_reduce(c1, c2)
    assert [(t.step, t.added_edge) for t in res.trace] == [("small", (12, 13))]
    assert (res.h.n, res.h.edges(), res.h_vertex_map) == (2, [(0, 1)], (12, 13))
    assert len(check_result(res)) == alpha_value(res.g) == 4


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


def test_pair_generators_need_four_vertices():
    # the triangle is the only cycle on 3 vertices: no distinct partner exists
    # (random_pair at n = 3 is checked through the CLI, in a subprocess with a
    # timeout, so that an endless search for a partner fails instead of hanging)
    with pytest.raises(ValueError, match="n >= 4"):
        planted_pair(3, 0, "x")
    c1, c2 = random_pair(4, "x")
    assert c1.n == c2.n == 4 and c1.order != c2.order
    assert planted_pair(4, 0, "x")[0].n == 4


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
    with pytest.raises(StructureViolation) as err:
        diagnose_reduction(g)
    assert err.value.step == "small"
    assert "K4" in err.value.reason
    assert err.value.artifact.n == 24


def test_diagnose_accepts_clean_union():
    c1, c2 = planted_pair(18, 1, "diag")
    assert diagnose_reduction(union([c1, c2]), cycles=(c1, c2)).zeta >= 1


@pytest.mark.parametrize("n", range(14, 41))
def test_diagnose_returns_what_technical_reduce_returns(n):
    # both entries run one pipeline, routed by the first cycle; four of these
    # inputs take step 2, which reads that route
    c1, c2 = planted_pair(n, (n - 2) // 5, f"same:{n}")
    assert diagnose_reduction(union([c1, c2]), (c1, c2)) == technical_reduce(c1, c2)


def test_diagnose_reports_no_safe_neighbourhood_pair(monkeypatch):
    # a creates_k4 that sees a K4 behind every pair leaves _safe_pair no pair
    monkeypatch.setattr(reduction, "creates_k4", lambda adj, a, b: (a, b, a, b))
    cases = [
        (three_neighbour_pair(), "three",
         "archipelago (0, 1, 2, 3): every neighbourhood pair completes a K4 (undetected forbidden pattern)"),
        (planted_pair(20, 1, "f5"), "final", "archipelago (5, 9, 11, 15): no safe neighbourhood pair"),
    ]
    for cycles, step, reason in cases:
        with pytest.raises(StructureViolation) as err:
            diagnose_reduction(union(list(cycles)))
        assert (err.value.step, err.value.reason) == (step, reason)


def test_close_refuses_an_edge_already_present():
    pipeline = reduction._Pipeline(union(list(three_neighbour_pair())), None)
    with pytest.raises(StructureViolation) as err:
        pipeline._close("final", pipeline.archs[0], (0, 1))
    assert err.value.step == "final"
    assert err.value.artifact.meta["detail"] == {"reason": "edge (0,1) already present", "edge": [0, 1]}


def test_diagnose_reports_overlapping_k4s():
    # K5 minus one edge has maximum degree 4 and two K4s sharing three vertices
    g = UGraph.from_edges(5, [(u, v) for u in range(5) for v in range(u + 1, 5) if (u, v) != (3, 4)])
    with pytest.raises(StructureViolation) as err:
        diagnose_reduction(g)
    assert err.value.step == "archipelagos"
    assert "overlap" in err.value.reason
    assert err.value.artifact.edges == tuple(g.edges())


def test_diagnose_refuses_a_cycle_that_splits_a_small_archipelago():
    # step 1 deletes (6, 9, 12, 20) between 1 and 5; with 9 moved to the front
    # of the first cycle's order, that cycle passes the archipelago twice, so
    # it holds a non-edge and is refused before any step runs
    c1, c2 = planted_pair(33, 6, "sc:2081")
    moved = make_cycle((9,) + tuple(v for v in c1.order if v != 9))
    with pytest.raises(ValueError, match="Hamiltonian cycle"):
        diagnose_reduction(union([c1, c2]), (moved, c2))


def test_diagnose_refuses_a_cycle_on_other_vertices():
    c1, c2 = planted_pair(18, 1, "diag")
    with pytest.raises(ValueError, match="Hamiltonian cycle"):
        diagnose_reduction(union([c1, c2]), (c1, make_cycle(range(19))))


def test_diagnose_refuses_a_cycle_shorter_than_the_graph():
    # every edge of the 4-cycle is an edge of the first block's K4
    with pytest.raises(ValueError, match="Hamiltonian cycle"):
        diagnose_reduction(union(list(k4_strip(4))), (make_cycle(range(4)),))


def test_diagnose_reports_a_remainder_with_no_degree_drop():
    # two K4s joined by 0-4 and 1-5 form a cyclic archipelago with no outside
    # neighbour; deleting it leaves the 5-cycle on 8..12 with every degree kept
    edges = [(a + u, a + v) for a in (0, 4) for u in range(4) for v in range(u + 1, 4)]
    edges += [(0, 4), (1, 5)] + [(8 + i, 8 + (i + 1) % 5) for i in range(5)]
    with pytest.raises(StructureViolation) as err:
        diagnose_reduction(UGraph.from_edges(13, edges))
    assert (err.value.step, err.value.reason) == (
        "post", "postcondition degree_drop_somewhere failed",
    )


def test_diagnose_reports_a_k4_with_one_neighbour():
    g = UGraph.from_edges(5, [(u, v) for u in range(4) for v in range(u + 1, 4)] + [(0, 4)])
    with pytest.raises(StructureViolation) as err:
        diagnose_reduction(g)
    assert (err.value.step, err.value.reason) == (
        "final",
        "acyclic archipelago (0, 1, 2, 3) with neighbourhood of size 1: "
        "impossible for a union of two Hamiltonian cycles",
    )


def test_diagnose_needs_a_cycle_to_reconnect():
    # deleting the K4 leaves the islands {4} and {5, 6}
    edges = [(u, v) for u in range(4) for v in range(u + 1, 4)] + [(0, 4), (1, 5), (2, 6), (5, 6)]
    with pytest.raises(StructureViolation) as err:
        diagnose_reduction(UGraph.from_edges(7, edges))
    assert (err.value.step, err.value.reason) == (
        "connect",
        "remainder is disconnected and no Hamiltonian cycle is available "
        "to route reconnecting arcs",
    )


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
    risky = [t for t in diagnose_reduction(_k4_with_trio(RISKY_1)).trace if t.step == "three-risky"]
    assert risky and risky[0].added_edge == (4, 5)


def test_risky_type2_edge():
    risky = [t for t in diagnose_reduction(_k4_with_trio(RISKY_2)).trace if t.step == "three-risky"]
    assert risky and risky[0].added_edge == (4, 6)


def test_risky_type3_edge():
    risky = [t for t in diagnose_reduction(_k4_with_trio(RISKY_3)).trace if t.step == "three-risky"]
    assert risky and risky[0].added_edge == (4, 5)


def test_forbidden_pattern_detected():
    # six spokes plus the 7-8 edge: no safe reconnection exists
    g = _k4_with_trio([(4, 7), (4, 8), (5, 7), (5, 8), (6, 7), (6, 8), (7, 8)])
    with pytest.raises(StructureViolation) as err:
        diagnose_reduction(g)
    assert err.value.step == "three"
    assert "forbidden" in err.value.reason


@pytest.mark.parametrize("args,steps", [
    ((21, 3, "d7"), ["three", "final", "final"]),
    ((31, 3, "d117"), ["connect", "three", "final"]),
])
def test_trios_close_before_larger_neighbourhoods(args, steps):
    # a trio closes before an archipelago with a larger neighbourhood, even
    # when that one has the least vertex: step 3 runs before step 4
    assert [t.step for t in technical_reduce(*planted_pair(*args)).trace] == steps


@pytest.mark.parametrize("cycles,reason,detail", [
    (k4_strip(2), "cyclic archipelago (0, 1, 2, 3, 4, 5, 6, 7) has no clean transversal",
     {"archipelago": list(range(8))}),
    (planted_pair(24, 2, "pin:0"), "archipelago (1, 9, 19, 20) has no transversal toward 4",
     {"archipelago": [1, 9, 19, 20], "neighbor": 4}),
])
def test_lift_plan_failure_names_the_archipelago(monkeypatch, cycles, reason, detail):
    from twomilton.reduction import _Pipeline

    monkeypatch.setattr(_Pipeline, "_transversal", lambda self, arch, allowed: None)
    with pytest.raises(StructureViolation) as err:
        diagnose_reduction(union(cycles), cycles)
    assert (err.value.step, err.value.reason) == ("lift-plan", reason)
    assert list(err.value.artifact.meta["detail"].items()) == [("reason", reason), *detail.items()]


def test_step2_closes_like_every_step(monkeypatch):
    # step 2 joins the arc's endpoints before it deletes the archipelago, so a
    # failing lift entry leaves the joined edge in the artifact
    from twomilton.reduction import _Pipeline

    monkeypatch.setattr(_Pipeline, "_transversal", lambda self, arch, allowed: None)
    c1, c2 = planted_pair(31, 3, "d117")
    g = union([c1, c2])
    with pytest.raises(StructureViolation) as err:
        diagnose_reduction(g, [c1])
    assert (err.value.step, err.value.reason) == (
        "lift-plan", "archipelago (5, 7, 10, 23) has no transversal toward 8")
    assert set(err.value.artifact.edges) - set(g.edges()) == {(14, 29)}
    assert not any({5, 7, 10, 23} & set(e) for e in err.value.artifact.edges)


def test_two_arcs_through_one_archipelago():
    # the route passes one archipelago twice and both arcs join components:
    # the second close joins its endpoints and finds the archipelago gone
    res = technical_reduce(*planted_pair(26, 5, "d712"))
    arch = (0, 3, 5, 7, 8, 9, 11, 13, 14, 16, 17, 20, 21, 22, 23, 25)
    assert [tuple(t) for t in res.trace] == [
        ("connect", arch, (2, 6)), ("connect", arch, (2, 15)), ("final", (1, 4, 10, 19), None),
    ]
    assert [e.vertices for e in res.lift_plan] == [arch, (1, 4, 10, 19)]
    check_result(res)

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
    "risky-1": lambda: diagnose_reduction(_k4_with_trio(RISKY_1)),
    "risky-2": lambda: diagnose_reduction(_k4_with_trio(RISKY_2)),
    "risky-3": lambda: diagnose_reduction(_k4_with_trio(RISKY_3)),
}


def _plan_digest(res):
    """sha256 of the lift plan, the remainder rows and its vertex map.

    Each entry is hashed in the JSON of the plan before its options were one
    list, [vertices, kind, neighborhood, clean, by_neighbor], so that the
    pinned digests still apply."""
    nbhd = {a.vertices: a.neighborhood for a in archipelagos(res.g)}
    plan = []
    for e in res.lift_plan:
        options = dict(e.options)
        if None in options:
            plan.append([e.vertices, "cyclic", nbhd[e.vertices], options[None], None])
        else:
            plan.append([e.vertices, "guarded", nbhd[e.vertices], None, sorted(options.items())])
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
    with pytest.raises(StructureViolation) as err:
        diagnose_reduction(g)
    assert err.value.step == "small"
    assert err.value.reason == "joining neighbourhood (4,5) completes K4 (4, 5, 6, 7)"
    assert err.value.artifact.edges == tuple(g.edges())
    assert err.value.artifact.meta == {"detail": {
        "reason": err.value.reason, "edge": [4, 5], "k4": [4, 5, 6, 7],
    }}


def _lift_pin_inputs(res):
    """(label, remainder set) pairs: the lex-min maximum set of h, and for
    each guarded entry the one-vertex set of its least neighbour, which
    makes the lift pass to that entry's next option."""
    yield "max", alpha_exact(res.h).vertices if res.h.n else ()
    for e in res.lift_plan:
        u = e.options[0][0]
        if u is not None:
            yield f"least-neighbour {u}", (res.h_vertex_map.index(u),)


def test_lift_choice_pinned():
    # sha256 of every lift above on every pinned input, taken before the
    # cyclic and guarded lift entries became one rule
    rows = [
        [name, label, lift_independent(res, iset)]
        for name, build in PINNED_INPUTS.items()
        for res in [build()]
        for label, iset in _lift_pin_inputs(res)
    ]
    text = json.dumps(rows)
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "f33a02d0498ac310fcc44851a678b68b1933bcabeba6f55571d8e3ee0dfecf91"
    )
