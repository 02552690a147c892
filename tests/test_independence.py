"""Independence solver vs the subset-recursion oracle, certificates, and the
degree-2 fold behind the solver's branch."""

import hashlib
import random
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from twomilton.constructions import circulant_family
from twomilton.corpus import planted_pair, random_k4free, random_pair
from twomilton.graphs import UGraph, bits, cycle_graph, make_cycle, standard_cycle, union
from twomilton.independence import (
    AlphaSolver,
    alpha_exact,
    alpha_value,
    has_independent_set,
    verify_independent,
)
from twomilton.reduction import technical_reduce

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


def check_against_oracle(g, label):
    a = oracle_alpha(g)
    cert = alpha_exact(g)
    assert cert.value == a, label
    # combinations() lists sets in lexicographic order
    assert cert.vertices == oracle_independent_sets(g, a)[0], label
    assert [has_independent_set(g, k) for k in (a - 1, a, a + 1)] == [True, True, False], label
    assert not oracle_independent_sets(g, a + 1), label


def test_solver_matches_oracle_general_graphs():
    cases = oracle_cases()
    assert max(max((a.bit_count() for a in g.adj), default=0) for g in cases) > 4
    for i, g in enumerate(cases):
        check_against_oracle(g, f"case {i}")


def subdivided(n, edges):
    """Put one new vertex (numbered from n up) in the middle of every edge."""
    out = []
    for i, (u, v) in enumerate(edges):
        out += [(u, n + i), (v, n + i)]
    return UGraph.from_edges(n + len(edges), out)


def theta(lengths):
    """Vertices 0 and 1 joined by internally disjoint paths with these edge counts."""
    edges, nxt = [], 2
    for length in lengths:
        path = [0, *range(nxt, nxt + length - 1), 1]
        nxt += length - 1
        edges += list(zip(path, path[1:]))
    return UGraph.from_edges(nxt, edges)


def induced(g, keep):
    """The subgraph induced by keep, relabelled 0..len(keep)-1 in order."""
    index = {v: i for i, v in enumerate(sorted(keep))}
    return UGraph.from_edges(
        len(index), [(index[u], index[v]) for u, v in g.edges() if u in index and v in index])


def degree_two_cases():
    """Graphs with many vertices of degree 2, where the solver branches on a
    degree-2 vertex; in the last group some degree-2 vertices have adjacent
    neighbours, which the reduction must remove before any branch."""
    k4 = list(combinations(range(4), 2))
    prism = [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (0, 3), (1, 4), (2, 5)]
    k33 = [(u, v) for u in range(3) for v in range(3, 6)]
    k5 = list(combinations(range(5), 2))
    octahedron = [(u, v) for u, v in combinations(range(6), 2) if v != u + 3]
    cases = {
        "subdivided-k4": subdivided(4, k4),
        "subdivided-prism": subdivided(6, prism),
        "subdivided-k33": subdivided(6, k33),
        "subdivided-k5": subdivided(5, k5),
        "subdivided-octahedron": subdivided(6, octahedron),
    }
    for lengths in ((2, 3, 4), (3, 3, 3), (2, 2, 5), (4, 5, 6), (2, 3, 3, 4), (1, 3, 5), (1, 2, 6)):
        cases["theta-" + "-".join(map(str, lengths))] = theta(lengths)
    for n, kept in ((16, 13), (20, 15), (20, 16), (24, 16)):
        for seed in range(3):
            rng = random.Random(f"deleted:{n}:{kept}:{seed}")
            g = union(random_pair(n, f"deleted:{seed}"))
            cases[f"union-{n}-minus-{n - kept}-s{seed}"] = induced(g, rng.sample(range(n), kept))
    cases["diamond"] = UGraph.from_edges(4, [(0, 1), (0, 2), (1, 2), (1, 3), (2, 3)])
    # triangle 0 1 2; tails 1-3-4-5 and 2-6-7 leave 0 of degree 2 with adjacent neighbours
    cases["triangle-with-tails"] = UGraph.from_edges(
        8, [(0, 1), (0, 2), (1, 2), (1, 3), (3, 4), (4, 5), (2, 6), (6, 7)])
    # two triangles joined at a vertex, with a tail on each
    cases["bowtie-with-tails"] = UGraph.from_edges(
        9, [(0, 1), (0, 2), (1, 2), (2, 3), (2, 4), (3, 4), (1, 5), (5, 6), (4, 7), (7, 8)])
    return cases


DEGREE_TWO_CASES = degree_two_cases()


@pytest.mark.parametrize("name", list(DEGREE_TWO_CASES))
def test_solver_matches_oracle_degree_two_graphs(name):
    check_against_oracle(DEGREE_TWO_CASES[name], name)


def test_degree_two_branch_stays_live():
    # memo entries after alpha() on the pinned pairs: 378 and 2,509 when every
    # branch was on a vertex of maximum degree, 311 and 1,204 when the
    # degree-2 branch took the lowest degree-2 vertex, 141 and 603 when it
    # took the one whose neighbours have the highest degrees, 80 and 352 now
    # that a subproblem the rules solve outright leaves no entry
    for n, limit in ((48, 80), (64, 352)):
        solver = AlphaSolver(union(random_pair(n, f"pin:{n}")))
        solver.alpha()
        assert len(solver.memo) <= limit, n


@pytest.mark.parametrize("n, limits", [(48, (140, 296, 21, 140)), (64, (607, 856, 19, 607))])
def test_search_stays_small(n, limits):
    # _reduce runs once per node that misses the memo, so its calls count the
    # search tree; each query runs on a fresh solver, and a change that grows
    # the tree of any of them fails here
    g = union(random_pair(n, f"pin:{n}"))
    a = AlphaSolver(g).alpha()
    queries = (AlphaSolver.alpha, AlphaSolver.lex_min_maximum_set,
               lambda s: s.at_least(a), lambda s: s.at_least(a + 1))
    calls = []
    for query in queries:
        solver = AlphaSolver(g)
        inner, count = solver._reduce, 0

        def counted(P, dirty):
            nonlocal count
            count += 1
            return inner(P, dirty)

        solver._reduce = counted
        query(solver)
        calls.append(count)
    assert all(c <= limit for c, limit in zip(calls, limits)), calls


def step_circulant(n, steps):
    """The circulant graph on n vertices joining v to v + s for each s in steps."""
    return UGraph.from_edges(n, [(v, (v + s) % n) for v in range(n) for s in steps])


def disjoint_union(graphs, seed):
    """Disjoint union of graphs with shuffled labels, so no piece is contiguous."""
    n = sum(g.n for g in graphs)
    label = list(range(n))
    random.Random(seed).shuffle(label)
    edges, base = [], 0
    for g in graphs:
        edges += [(label[base + u], label[base + v]) for u, v in g.edges()]
        base += g.n
    return UGraph.from_edges(n, edges)


def branch_pick_cases():
    """Graphs without a degree-2 vertex, where the solver branches on a vertex
    of maximum degree, and reduced graphs of three or more components."""
    petersen = [(i, (i + 1) % 5) for i in range(5)] + [(i, i + 5) for i in range(5)]
    petersen += [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    cases = {"petersen": UGraph.from_edges(10, petersen)}
    # one edge fewer leaves two vertices of degree 3, so the vertices of
    # degree 4 next to them score lower than the rest
    for n, steps in ((11, (1, 2)), (10, (1, 3))):
        g = step_circulant(n, steps)
        cases[f"c{n}-{steps[0]}-{steps[1]}-minus-0-1"] = UGraph.from_edges(
            n, [e for e in g.edges() if e != (0, 1)])
    octahedron = step_circulant(6, (1, 2))
    for name, pieces in (("three-octahedra", [octahedron] * 3),
                         ("octahedra-and-c7", [octahedron, step_circulant(7, (1, 2)), octahedron])):
        cases[name] = disjoint_union(pieces, name)
    return cases


BRANCH_PICK_CASES = branch_pick_cases()


@pytest.mark.parametrize("name", list(BRANCH_PICK_CASES))
def test_solver_matches_oracle_branch_pick_graphs(name):
    check_against_oracle(BRANCH_PICK_CASES[name], name)


def path_and_cycle_union(parts):
    """Disjoint union of ("path", m) and ("cycle", m) components."""
    edges, base = [], 0
    for kind, m in parts:
        vs = list(range(base, base + m))
        edges += list(zip(vs, vs[1:]))
        if kind == "cycle":
            edges.append((vs[0], vs[-1]))
        base += m
    return UGraph.from_edges(base, edges)


@pytest.mark.parametrize("parts", [
    [("path", 1), ("path", 2), ("path", 5), ("path", 8)],
    [("cycle", 3), ("cycle", 4), ("cycle", 5), ("cycle", 10), ("cycle", 11)],
    [("path", 7), ("cycle", 7), ("path", 4), ("cycle", 6), ("cycle", 9), ("path", 3)],
])
def test_closed_form_on_paths_and_cycles(parts):
    g = path_and_cycle_union(parts)
    expected = [(m + 1) // 2 if kind == "path" else m // 2 for kind, m in parts]
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


def digest_corpus():
    """Random unions (n = 20..64), the K4-free remainders technical_reduce
    leaves of planted pairs, random K4-free graphs, and general random graphs
    with triangles (n <= 16); three seeds each."""
    seeds = range(3)
    graphs = [union(random_pair(n, f"digest:{s}")) for n in range(20, 65, 4) for s in seeds]
    graphs += [technical_reduce(*planted_pair(n, n // 8, f"digest:{s}")).h
               for n in range(24, 65, 8) for s in seeds]
    graphs += [random_k4free(n, f"digest:{s}") for n in range(16, 65, 8) for s in seeds]
    graphs += [random_graph(n, p, 7000 + s) for n in (8, 12, 16) for p in (0.2, 0.35, 0.5) for s in seeds]
    return graphs


def test_solver_outputs_digest():
    # one sha256 over alpha, the lex-min certificate and the decision at
    # alpha - 1, alpha and alpha + 1 on every graph of the corpus, taken before
    # the solver's node was reworked; a change to the solver that moves any
    # answer moves the digest
    h = hashlib.sha256()
    for g in digest_corpus():
        cert = alpha_exact(g)
        a = cert.value
        h.update(repr((g.n, a, cert.vertices, [has_independent_set(g, k) for k in (a - 1, a, a + 1)])).encode())
    assert h.hexdigest() == "fd78301b2ea90947f8face20f5b49ec438bd565f7a89e16ac4291ee575197740"


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
    assert verify_independent(g, cert.vertices)
    # path on 5 vertices: alpha 3, least witness (0, 2, 4)
    p5 = UGraph.from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4)])
    assert alpha_exact(p5).vertices == (0, 2, 4)


def lex_min_by_enumeration(g):
    """The least maximum independent set in lexicographic order: the first
    independent oracle_alpha(g)-subset in combinations() order."""
    for c in combinations(range(g.n), oracle_alpha(g)):
        if verify_independent(g, c):
            return c


def test_certificate_lex_min_against_enumeration():
    cases = oracle_cases() + list(DEGREE_TWO_CASES.values())
    cases += [random_graph(9, 0.3, 1000 + seed) for seed in range(10)]
    for i, g in enumerate(cases):
        assert alpha_exact(g).vertices == lex_min_by_enumeration(g), f"case {i}"


@settings(max_examples=60, deadline=None)
@given(st.integers(5, 13), st.sampled_from((0.15, 0.3, 0.5)), st.integers(0, 10**6))
def test_certificate_lex_min_property(n, p, seed):
    g = random_graph(n, p, seed)
    assert alpha_exact(g).vertices == lex_min_by_enumeration(g)


def record_searches(solver):
    """Log (depth, P, k) for every search the solver makes from now on;
    depth 0 is a top-level search."""
    inner, log, depth = solver._alpha, [], 0

    def recorded(P, dirty, k):
        nonlocal depth
        log.append((depth, P, k))
        depth += 1
        try:
            return inner(P, dirty, k)
        finally:
            depth -= 1

    solver._alpha = recorded
    return log


def test_certificate_probes_each_vertex_once():
    # after alpha(), the certificate makes at most one top-level search per
    # vertex (106 on this graph when every take restarted from vertex 0)
    g = union(random_pair(48, "pin:48"))
    solver = AlphaSolver(g)
    solver.alpha()
    log = record_searches(solver)
    assert solver.lex_min_maximum_set() == alpha_exact(g).vertices
    top = sum(depth == 0 for depth, _, _ in log)
    # one of the top-level calls is the certificate's own alpha(), a memo hit
    assert top - 1 <= g.n, top


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
    for i, g in enumerate(oracle_cases() + list(DEGREE_TWO_CASES.values())):
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


def without(g, gone):
    """The subgraph of g induced on the vertices outside the mask gone, relabelled 0.."""
    index = {v: i for i, v in enumerate(v for v in range(g.n) if not gone >> v & 1)}
    return UGraph.from_edges(len(index), [
        (index[u], index[v]) for u, v in g.edges() if u in index and v in index])


def test_degree_two_fold_identity():
    # for w of degree 2 with nonadjacent neighbours x, z: some maximum set holds
    # w or both x and z, so alpha is the better of the solver's two branches
    folds = both_only = 0
    for seed in range(60):
        g = random_graph(10, 0.25, seed)
        a = oracle_alpha(g)
        closed = [g.adj[v] | 1 << v for v in range(g.n)]
        for w in range(g.n):
            if g.degree(w) != 2:
                continue
            x, z = bits(g.adj[w])
            if g.has_edge(x, z):
                continue
            take_w = 1 + oracle_alpha(without(g, closed[w]))
            take_both = 2 + oracle_alpha(without(g, closed[x] | closed[z]))
            assert max(take_w, take_both) == a, (seed, w)
            folds += 1
            both_only += take_w < a
    assert folds >= 100 and both_only >= 15, (folds, both_only)


# Reduced, connected graphs whose first branch is the degree-2 fold at w
# (edges, w).  In the "ties" group the take-x-and-z child has the same
# remainder alpha as the take-w child, so it wins by one; in the "short" group
# it has one less, so it loses by one.
FOLD_CASES = {
    "ties-9": ([(0, 5), (0, 6), (0, 8), (1, 2), (1, 3), (1, 7), (2, 5), (2, 7), (3, 5), (3, 6),
                (4, 6), (4, 7), (4, 8), (5, 6)], 8),
    "ties-10": ([(0, 2), (0, 3), (0, 4), (0, 7), (1, 2), (1, 4), (1, 5), (1, 6), (1, 8), (2, 3),
                 (2, 5), (3, 5), (3, 6), (3, 7), (3, 8), (4, 6), (4, 7), (4, 8), (5, 8), (6, 9),
                 (7, 9)], 9),
    "ties-11": ([(0, 2), (0, 4), (0, 9), (1, 2), (1, 6), (1, 10), (2, 7), (2, 8), (3, 4), (3, 6),
                 (3, 9), (3, 10), (4, 5), (4, 6), (4, 8), (5, 7), (6, 8), (6, 9), (8, 9)], 10),
    "short-7": ([(0, 1), (0, 2), (1, 4), (1, 6), (2, 4), (3, 4), (3, 5), (5, 6)], 0),
    "short-7-triangles": ([(0, 1), (0, 3), (0, 5), (1, 4), (2, 3), (2, 4), (2, 6), (3, 5),
                           (5, 6)], 6),
    "short-9": ([(0, 7), (0, 8), (1, 7), (1, 8), (2, 3), (2, 5), (3, 4), (4, 6), (5, 6), (5, 8),
                 (6, 8)], 0),
    "short-11": ([(0, 1), (0, 4), (0, 6), (0, 7), (0, 9), (1, 2), (1, 9), (2, 4), (2, 5), (2, 7),
                  (3, 9), (3, 10), (4, 8), (4, 9), (5, 10), (6, 7), (6, 8), (6, 9)], 8),
}


@pytest.mark.parametrize("name", list(FOLD_CASES))
def test_fold_second_child_is_a_decision(name):
    # Q - N[x] - N[z] lies inside Q - N[w], so the solver asks the second
    # child only whether it reaches alpha(Q - N[w]); a target one too low
    # would count a child that falls short as a win
    edges, w = FOLD_CASES[name]
    g = UGraph.from_edges(max(max(e) for e in edges) + 1, edges)
    closed = [a | 1 << v for v, a in enumerate(g.adj)]
    x, z = bits(g.adj[w])
    take_w = oracle_alpha(without(g, closed[w]))
    take_both = oracle_alpha(without(g, closed[x] | closed[z]))
    ties = name.startswith("ties")
    assert take_both == take_w - (not ties)
    a = oracle_alpha(g)
    assert a == 1 + take_w + ties
    cert = alpha_exact(g)
    assert (cert.value, cert.vertices) == (a, lex_min_by_enumeration(g))
    assert [has_independent_set(g, k) for k in range(a + 2)] == [True] * (a + 1) + [False]
    # the graph still reaches the fold at w: below the root, the first call
    # drops N[w] and the second asks about Q - N[x] - N[z] at target take_w
    solver = AlphaSolver(g)
    log = record_searches(solver)
    assert solver.alpha() == a
    below_root = [(P, k) for depth, P, k in log if depth == 1]
    assert below_root == [(solver.full ^ closed[w], g.n), (solver.full & ~(closed[x] | closed[z]), take_w)]


def test_limits_env_override(monkeypatch):
    g = cycle_graph(standard_cycle(10))
    monkeypatch.setenv("TWOMILTON_LIMITS", "alpha=8")
    with pytest.raises(ValueError, match="TWOMILTON_LIMITS"):
        alpha_value(g)
    monkeypatch.setenv("TWOMILTON_LIMITS", "alpha=16")
    assert alpha_value(g) == 5


def test_alpha_limit_is_the_solvers(monkeypatch):
    # every exact alpha is held to the limit where it is computed, not by
    # each entry point in turn
    monkeypatch.setenv("TWOMILTON_LIMITS", "alpha=8")
    with pytest.raises(ValueError) as err:
        AlphaSolver(cycle_graph(standard_cycle(10)))
    assert str(err.value) == "the alpha solver supports n <= 8 (got n=10); raise via TWOMILTON_LIMITS=alpha=10"


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
