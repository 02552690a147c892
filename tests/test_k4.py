"""K4 detection, clique covers, path packings, archipelago taxonomy."""

import random

import pytest

from twomilton.constructions import k4_strip, triple_n8
from twomilton.graphs import UGraph, cycle_graph, make_cycle, standard_cycle, union
from twomilton.k4 import (
    Archipelago,
    archipelagos,
    check_cover,
    creates_k4,
    find_k4_cover,
    find_k4s,
    find_triangle_cover,
    find_triangles,
    good_paths4,
    induced_paths4,
    k4s_disjoint,
    psi_exact,
    zeta,
)

from oracles import (
    oracle_clique_cover,
    oracle_has_k4_cover,
    oracle_induced_p4s,
    oracle_k4s,
    oracle_psi,
)


def random_graph(n, p, seed):
    rng = random.Random(f"k4:{n}:{seed}")
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
    return UGraph.from_edges(n, edges)


def test_find_k4s_matches_oracle():
    for seed in range(30):
        g = random_graph(9, 0.45, seed)
        assert find_k4s(g) == tuple(oracle_k4s(g)), f"seed={seed}"


def test_find_k4s_strip():
    c1, c2 = k4_strip(4)
    g = union([c1, c2])
    assert find_k4s(g) == tuple(
        (4 * i, 4 * i + 1, 4 * i + 2, 4 * i + 3) for i in range(4)
    )
    assert zeta(g) == 4
    assert k4s_disjoint(g)


def test_creates_k4():
    # K4 minus one edge: adding it completes the K4
    g = UGraph.from_edges(5, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 4)])
    assert creates_k4(g.adj, 2, 3) == (0, 1, 2, 3)
    assert creates_k4(g.adj, 3, 4) is None
    # ignored vertices count as deleted: without 0 the pair 2, 3 closes no K4
    assert creates_k4(g.adj, 2, 3, ignore=1 << 0) is None
    assert creates_k4(g.adj, 2, 3, ignore=1 << 4) == (0, 1, 2, 3)


def test_creates_k4_matches_brute_force():
    # on max-degree-4 graphs, creates_k4(adj, u, v, ignore) finds a K4 iff the
    # graph with the ignored vertices isolated and (u, v) added has one through u, v
    hits = 0
    for seed in range(300):
        rng = random.Random(f"creates:{seed}")
        n = rng.randrange(5, 13)
        adj = [0] * n
        for _ in range(3 * n):
            a, b = rng.sample(range(n), 2)
            if adj[a].bit_count() < 4 and adj[b].bit_count() < 4:
                adj[a] |= 1 << b
                adj[b] |= 1 << a
        g = UGraph(n, tuple(adj))
        u, v, *rest = rng.sample(range(n), n)
        # every other seed joins u to a vertex with two common neighbours
        close = [w for w in rest if (adj[u] & adj[w]).bit_count() >= 2]
        if seed % 2 and close:
            v = close[0]
            rest = [w for w in range(n) if w not in (u, v)]
        ignore = sum(1 << w for w in rest if rng.random() < 0.2)
        through = [
            q for q in find_k4s(g.without_vertices(ignore).with_edge(u, v))
            if u in q and v in q
        ]
        got = creates_k4(g.adj, u, v, ignore)
        assert (got is not None) == bool(through), f"seed={seed}"
        if got is not None:
            assert got in through, f"seed={seed}"
            hits += 1
    assert hits >= 30


def test_check_cover_and_search():
    c1, c2 = k4_strip(3)
    g = union([c1, c2])
    cover = find_k4_cover(g)
    assert cover is not None
    assert check_cover(g, cover, 4)
    assert oracle_clique_cover(g, list(cover), 4)
    # removing an edge kills the cover
    broken = UGraph.from_edges(12, [e for e in g.edges() if e != (0, 1)])
    assert find_k4_cover(broken) is None
    assert not oracle_has_k4_cover(broken)
    assert not check_cover(g, cover[:-1], 4)
    assert find_k4_cover(cycle_graph(standard_cycle(8))) is None


def test_triple_pairwise_covers():
    trio = triple_n8()
    for i in range(3):
        for j in range(i + 1, 3):
            g = union([trio[i], trio[j]])
            cover = find_k4_cover(g)
            assert cover is not None, (i, j)
            assert check_cover(g, cover, 4)
            assert oracle_has_k4_cover(g)


def test_triangle_cover():
    g = UGraph.from_edges(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
    cover = find_triangle_cover(g)
    assert cover == ((0, 1, 2), (3, 4, 5))
    assert check_cover(g, cover, 3)
    assert find_triangle_cover(cycle_graph(standard_cycle(4))) is None
    assert find_triangles(g) == ((0, 1, 2), (3, 4, 5))


def test_induced_paths_match_oracle():
    for seed in range(20):
        g = random_graph(8, 0.35, 100 + seed)
        assert induced_paths4(g) == tuple(oracle_induced_p4s(g))


def test_psi_cycle_values():
    # psi(C_m) = floor(m/4) for m >= 5; C4 itself has no induced 3-edge path
    assert psi_exact(cycle_graph(standard_cycle(4))) == 0
    for m in range(5, 13):
        assert psi_exact(cycle_graph(standard_cycle(m))) == m // 4


def test_psi_matches_oracle():
    for seed in range(20):
        g = random_graph(9, 0.3, 200 + seed)
        assert psi_exact(g) == oracle_psi(g), f"seed={seed}"
    # complete graph has no induced path
    k5 = UGraph.from_edges(5, [(u, v) for u in range(5) for v in range(u + 1, 5)])
    assert psi_exact(k5) == 0


def test_psi_limit(monkeypatch):
    monkeypatch.setenv("TWOMILTON_LIMITS", "psi=6")
    with pytest.raises(ValueError, match="TWOMILTON_LIMITS"):
        psi_exact(cycle_graph(standard_cycle(8)))


def test_psi_requires_degree_two_interiors():
    # The block strip contains induced 3-edge paths (2-4-6-8 runs across the
    # hop edges) but every vertex has degree >= 3, so none is contractible
    # and psi must be 0.  A pendant path keeps its degree-2 interior.
    strip = union(list(k4_strip(4)))
    assert (2, 4, 6, 8) in induced_paths4(strip)
    assert good_paths4(strip) == ()
    assert psi_exact(strip) == 0
    tadpole = UGraph.from_edges(
        6, [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (4, 5)]
    )
    assert good_paths4(tadpole) == ((2, 3, 4, 5),)
    assert psi_exact(tadpole) == 1


def test_archipelago_single_k4():
    g = UGraph.from_edges(
        6, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3), (0, 4), (1, 5)]
    )
    (arch,) = archipelagos(g)
    assert arch.vertices == (0, 1, 2, 3)
    assert arch.k4s == ((0, 1, 2, 3),)
    assert arch.matching == ()
    assert not arch.cyclic
    assert arch.neighborhood == (4, 5)


def _two_k4s(bridges):
    edges = [(u, v) for u in range(4) for v in range(u + 1, 4)]
    edges += [(u, v) for u in range(4, 8) for v in range(u + 1, 8)]
    edges += bridges
    return UGraph.from_edges(8, edges)


def test_archipelago_tree_vs_cycle():
    tree = _two_k4s([(0, 4)])
    (arch,) = archipelagos(tree)
    assert len(arch.k4s) == 2
    assert arch.matching == ((0, 4),)
    assert not arch.cyclic
    ring = _two_k4s([(0, 4), (1, 5)])
    (arch,) = archipelagos(ring)
    assert arch.matching == ((0, 4), (1, 5))
    assert arch.cyclic


def test_archipelago_strip_is_one_cyclic_component():
    c1, c2 = k4_strip(4)
    g = union([c1, c2])
    (arch,) = archipelagos(g)
    assert len(arch.k4s) == 4
    assert len(arch.matching) == 8
    assert arch.cyclic
    assert arch.neighborhood == ()


def test_archipelagos_reject_overlapping_k4s():
    k5 = UGraph.from_edges(5, [(u, v) for u in range(5) for v in range(u + 1, 5)])
    with pytest.raises(ValueError, match="overlap"):
        archipelagos(k5)


def test_archipelago_separate_components():
    c1, c2 = k4_strip(2)
    g = union([c1, c2])
    # two disjoint K4 blocks joined by strip edges form ONE component;
    # dropping the inter-block edges splits them
    edges = [e for e in g.edges() if e[0] // 4 == e[1] // 4]
    h = UGraph.from_edges(8, edges)
    archs = archipelagos(h)
    assert len(archs) == 2
    assert archs[0].vertices == (0, 1, 2, 3)
    assert archs[1].vertices == (4, 5, 6, 7)
    assert not archs[0].cyclic
