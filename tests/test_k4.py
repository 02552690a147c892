"""K4 detection, clique covers, path packings, archipelago taxonomy."""

import random
from itertools import combinations

import pytest

from twomilton.constructions import circulant_family, k4_strip, triple_n8
from twomilton.graphs import UGraph, cliques, cycle_graph, standard_cycle, union
from twomilton.k4 import (
    archipelagos,
    check_cover,
    creates_k4,
    find_k4_cover,
    find_k4s,
    find_triangle_cover,
    good_paths4,
    psi_exact,
    zeta,
)

from oracles import (
    oracle_archipelagos,
    oracle_clique_cover,
    oracle_cliques,
    oracle_has_clique_cover,
    oracle_induced_p4s,
    oracle_psi,
)


def random_graph(n, p, seed):
    rng = random.Random(f"k4:{n}:{seed}")
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
    return UGraph.from_edges(n, edges)


def test_find_k4s_matches_oracle():
    for seed in range(30):
        g = random_graph(9, 0.45, seed)
        assert find_k4s(g) == tuple(oracle_cliques(g, range(g.n), 4)), f"seed={seed}"


def test_find_k4s_strip():
    c1, c2 = k4_strip(4)
    g = union([c1, c2])
    assert find_k4s(g) == tuple(
        (4 * i, 4 * i + 1, 4 * i + 2, 4 * i + 3) for i in range(4)
    )
    assert zeta(g) == 4


def test_creates_k4():
    # K4 minus one edge: adding it completes the K4
    g = UGraph.from_edges(5, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 4)])
    assert creates_k4(g.adj, 2, 3) == (0, 1, 2, 3)
    assert creates_k4(g.adj, 3, 4) is None


def test_creates_k4_matches_brute_force():
    # on max-degree-4 graphs, creates_k4(adj, u, v) finds a K4 iff the graph
    # with (u, v) added has one through u and v
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
        through = [q for q in find_k4s(UGraph.from_edges(n, g.edges() + [(u, v)])) if u in q and v in q]
        got = creates_k4(g.adj, u, v)
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
    assert not oracle_has_clique_cover(broken, 4)
    assert not check_cover(g, cover[:-1], 4)
    assert find_k4_cover(cycle_graph(standard_cycle(8))) is None


def test_empty_graph_has_the_empty_cover():
    # the cover search starts at its goal: no vertex is left uncovered
    assert find_k4_cover(UGraph(0, ())) == ()


def test_check_cover_rejects_each_defect():
    g = union(list(k4_strip(2)))  # K4s {0,1,2,3} and {4,5,6,7}
    good = [(0, 1, 2, 3), (4, 5, 6, 7)]
    assert check_cover(g, good, 4)
    assert not check_cover(g, [(0, 1, 2), (3, 4, 5, 6, 7)], 4)  # wrong block size
    assert not check_cover(g, [(0, 1, 2, 2), (4, 5, 6, 7)], 4)  # repeated vertex
    assert not check_cover(g, [(0, 1, 2, 3), (3, 5, 6, 7)], 4)  # overlapping blocks
    assert not check_cover(g, [(0, 1, 2, 4), (3, 5, 6, 7)], 4)  # not a clique
    assert not check_cover(g, [(0, 1, 2, 3)], 4)  # vertices left uncovered


def test_triple_pairwise_covers():
    trio = triple_n8()
    for i in range(3):
        for j in range(i + 1, 3):
            g = union([trio[i], trio[j]])
            cover = find_k4_cover(g)
            assert cover is not None, (i, j)
            assert check_cover(g, cover, 4)
            assert oracle_has_clique_cover(g, 4)


def test_triangle_cover():
    g = UGraph.from_edges(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
    cover = find_triangle_cover(g)
    assert cover == ((0, 1, 2), (3, 4, 5))
    assert check_cover(g, cover, 3)
    assert find_triangle_cover(cycle_graph(standard_cycle(4))) is None
    assert tuple(cliques(g.adj, (1 << g.n) - 1, 3)) == ((0, 1, 2), (3, 4, 5))


def test_cover_search_matches_brute_force():
    # a cover is found exactly when the brute-force partition search finds
    # one, and a found one checks; n runs over multiples of 3 and 4 and
    # densities from sparse to near-complete, so both verdicts occur
    found = {3: [0, 0], 4: [0, 0]}
    for seed in range(240):
        rng = random.Random(f"cover:{seed}")
        n = rng.choice([3, 4, 6, 8, 9, 12])
        g = random_graph(n, rng.uniform(0.3, 0.95), seed)
        for size, search in ((3, find_triangle_cover), (4, find_k4_cover)):
            cover = search(g)
            expected = oracle_has_clique_cover(g, size)
            assert (cover is not None) == expected, f"seed={seed} size={size}"
            if cover is not None:
                assert oracle_clique_cover(g, list(cover), size), f"seed={seed} size={size}"
            if not n % size:
                found[size][expected] += 1
    assert min(found[3] + found[4]) >= 10, found


def test_cover_blocks_pinned():
    # the blocks are the first partition in the search's branch order: the
    # least uncovered vertex with its lexicographically first completion
    assert find_k4_cover(union(list(k4_strip(4)))) == tuple(tuple(range(s, s + 4)) for s in range(0, 16, 4))
    trio = triple_n8()
    assert [find_k4_cover(union([trio[i], trio[j]])) for i, j in ((0, 1), (0, 2), (1, 2))] == [
        ((0, 1, 2, 3), (4, 5, 6, 7)),
        ((0, 1, 6, 7), (2, 3, 4, 5)),
        ((0, 2, 4, 6), (1, 3, 5, 7)),
    ]
    pinned = {
        9: [
            ((0, 1, 2), (3, 4, 5), (6, 7, 8)), ((0, 1, 2), (3, 4, 5), (6, 7, 8)),
            ((0, 7, 8), (1, 2, 3), (4, 5, 6)), ((0, 1, 8), (2, 3, 4), (5, 6, 7)),
            ((0, 2, 4), (1, 6, 8), (3, 5, 7)), ((0, 2, 7), (1, 3, 5), (4, 6, 8)),
            ((0, 5, 7), (1, 3, 8), (2, 4, 6)), ((0, 2, 7), (1, 3, 5), (4, 6, 8)),
            ((0, 2, 4), (1, 6, 8), (3, 5, 7)), ((0, 5, 7), (1, 3, 8), (2, 4, 6)),
        ],
        15: [
            ((0, 1, 2), (3, 4, 5), (6, 7, 8), (9, 10, 11), (12, 13, 14)),
            ((0, 1, 2), (3, 4, 5), (6, 7, 8), (9, 10, 11), (12, 13, 14)),
            ((0, 13, 14), (1, 2, 3), (4, 5, 6), (7, 8, 9), (10, 11, 12)),
            ((0, 1, 14), (2, 3, 4), (5, 6, 7), (8, 9, 10), (11, 12, 13)),
            ((0, 2, 4), (1, 12, 14), (3, 5, 7), (6, 8, 10), (9, 11, 13)),
            ((0, 2, 13), (1, 3, 5), (4, 6, 8), (7, 9, 11), (10, 12, 14)),
            ((0, 11, 13), (1, 3, 14), (2, 4, 6), (5, 7, 9), (8, 10, 12)),
            ((0, 2, 13), (1, 3, 5), (4, 6, 8), (7, 9, 11), (10, 12, 14)),
            ((0, 2, 4), (1, 12, 14), (3, 5, 7), (6, 8, 10), (9, 11, 13)),
            ((0, 11, 13), (1, 3, 14), (2, 4, 6), (5, 7, 9), (8, 10, 12)),
        ],
    }
    for n, blocks in pinned.items():
        fam = circulant_family(n)
        pairs = [(i, j) for i in range(5) for j in range(i + 1, 5)]
        assert [find_triangle_cover(union([fam[i], fam[j]])) for i, j in pairs] == blocks, n


def test_good_paths_match_oracle():
    # the dense graphs hold few degree-2 interiors; the sparse ones hold more
    graphs = [random_graph(8, 0.35, 100 + seed) for seed in range(20)]
    graphs += [random_graph(10, 0.22, 300 + seed) for seed in range(40)]
    found = 0
    for seed, g in enumerate(graphs):
        want = tuple(
            p for p in oracle_induced_p4s(g) if g.degree(p[1]) == 2 and g.degree(p[2]) == 2
        )
        assert good_paths4(g) == want, f"seed={seed}"
        found += len(want)
    assert found >= 25


def test_psi_cycle_values():
    # psi(C_m) = floor(m/4) for m >= 5; C4 itself has no induced 3-edge path
    assert psi_exact(cycle_graph(standard_cycle(4))) == 0
    for m in range(5, 13):
        assert psi_exact(cycle_graph(standard_cycle(m))) == m // 4


def chorded_cycle(n, chords, seed):
    """C_n plus a few random chords: every vertex off the chords has degree 2."""
    rng = random.Random(f"chorded:{n}:{seed}")
    edges = {(i, i + 1) for i in range(n - 1)} | {(0, n - 1)}
    for _ in range(chords):
        u, v = sorted(rng.sample(range(n), 2))
        edges.add((u, v))
    return UGraph.from_edges(n, sorted(edges))


def test_psi_matches_oracle():
    for seed in range(20):
        g = random_graph(9, 0.3, 200 + seed)
        assert psi_exact(g) == oracle_psi(g), f"seed={seed}"
    packed = 0
    for seed in range(40):
        g = chorded_cycle(8 + seed % 9, 1 + seed % 3, seed)
        psi = psi_exact(g)
        assert psi == oracle_psi(g), f"chorded seed={seed}"
        packed += psi >= 2
    assert packed >= 10
    # complete graph has no induced path
    k5 = UGraph.from_edges(5, [(u, v) for u in range(5) for v in range(u + 1, 5)])
    assert psi_exact(k5) == 0


def test_psi_limit(monkeypatch):
    # C8 has 8 good paths, so its path-conflict graph exceeds alpha=6
    monkeypatch.setenv("TWOMILTON_LIMITS", "alpha=6")
    with pytest.raises(ValueError) as err:
        psi_exact(cycle_graph(standard_cycle(8)))
    assert str(err.value) == "the alpha solver supports n <= 6 (got n=8); raise via TWOMILTON_LIMITS=alpha=8"


def test_psi_large_cycle_within_default_limits():
    # C60 has 60 good paths: within the alpha limit, whatever n is
    assert psi_exact(cycle_graph(standard_cycle(60))) == 15


def test_psi_requires_degree_two_interiors():
    # The block strip contains induced 3-edge paths (2-4-6-8 runs across the
    # hop edges) but every vertex has degree >= 3, so none is contractible
    # and psi must be 0.  A pendant path keeps its degree-2 interior.
    strip = union(list(k4_strip(4)))
    assert (2, 4, 6, 8) in oracle_induced_p4s(strip)
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
    assert not arch.cyclic
    ring = _two_k4s([(0, 4), (1, 5)])
    (arch,) = archipelagos(ring)
    assert arch.cyclic


def test_archipelago_strip_is_one_cyclic_component():
    c1, c2 = k4_strip(4)
    g = union([c1, c2])
    (arch,) = archipelagos(g)
    assert len(arch.k4s) == 4
    assert arch.cyclic
    assert arch.neighborhood == ()


def _planted_archipelago_graph(rng, shape):
    """Disjoint K4s on shuffled labels, joined by matching edges as a tree, a
    tree plus one edge, or a ring, and some K4 vertices given an outside
    neighbour; maximum degree 4 (an outside vertex on three vertices of one
    K4 makes a second, overlapping K4)."""
    m = rng.randint(1, 5)
    rest_size = rng.choice([0, 0, rng.randint(1, 6)])
    n = 4 * m + rest_size
    label = rng.sample(range(n), n)
    edges = set()
    free = []
    for i in range(m):
        quad = label[4 * i:4 * i + 4]
        edges.update(combinations(quad, 2))
        free.append(list(quad))

    def join(i, j):
        if i != j and free[i] and free[j]:
            edges.add((free[i].pop(rng.randrange(len(free[i]))),
                       free[j].pop(rng.randrange(len(free[j])))))

    if shape == "ring":
        for i in range(m):
            join(i, (i + 1) % m)
    else:
        for i in range(1, m):
            join(i, rng.randrange(i))
        if shape == "tree+1":
            join(rng.randrange(m), rng.randrange(m))
    rest = label[4 * m:]
    degree = dict.fromkeys(rest, 0)
    for v in (v for quad in free for v in quad):
        o = rng.choice(rest) if rest and rng.random() < 0.5 else None
        if o is not None and degree[o] < 4:
            edges.add((v, o))
            degree[o] += 1
    for a, b in combinations(rest, 2):
        if rng.random() < 0.3 and degree[a] < 4 and degree[b] < 4:
            edges.add((a, b))
            degree[a] += 1
            degree[b] += 1
    return UGraph.from_edges(n, sorted(edges))


def test_archipelagos_match_union_find_oracle():
    # cyclic comes from an edge count; the oracle finds cycles by union-find
    rng = random.Random("archipelago-oracle")
    seen = {"cyclic": 0, "acyclic": 0, "neighbours": 0, "closed": 0, "overlap": 0}
    for i in range(300):
        g = _planted_archipelago_graph(rng, ("tree", "tree+1", "ring")[i % 3])
        assert g.max_degree() <= 4
        want = oracle_archipelagos(g)
        if want is None:
            seen["overlap"] += 1
            with pytest.raises(ValueError, match="overlap"):
                archipelagos(g)
            continue
        got = archipelagos(g)
        assert [(a.vertices, a.k4s, a.cyclic, a.neighborhood) for a in got] == want
        for a in got:
            assert a.mask == sum(1 << v for v in a.vertices)
            seen["cyclic" if a.cyclic else "acyclic"] += 1
            seen["neighbours" if a.neighborhood else "closed"] += 1
    assert min(seen.values()) >= 1 and seen["cyclic"] >= 50 and seen["neighbours"] >= 50, seen


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
