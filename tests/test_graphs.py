"""Core graph types: construction, canonical forms, unions, documents."""

import hashlib
import json
import random
from itertools import permutations

import pytest
from hypothesis import given, strategies as st

from twomilton.corpus import random_k4free
from twomilton.graphs import (
    MAX_VERTICES,
    FamilyDocument,
    HamCycle,
    UGraph,
    canonical_key,
    cliques,
    connected_components,
    cycle_graph,
    depth_first,
    distinct_cycles,
    family_payload,
    is_connected,
    make_cycle,
    max_clique,
    parse_family,
    relabel_keys,
    serialize_family,
    standard_cycle,
    union,
)

from oracles import oracle_cliques, oracle_connected, oracle_max_clique


def test_make_cycle_validates():
    with pytest.raises(ValueError):
        make_cycle([0, 1])
    with pytest.raises(ValueError):
        make_cycle([0, 1, 1, 2])
    with pytest.raises(ValueError):
        make_cycle([0, 2, 3])
    c = make_cycle([2, 0, 1])
    assert c.n == 3


def test_cycle_edges():
    c = standard_cycle(5)
    assert cycle_graph(c).edges() == [(0, 1), (0, 4), (1, 2), (2, 3), (3, 4)]
    assert cycle_graph(c).adj[0] == 1 << 1 | 1 << 4
    assert cycle_graph(c).adj[3] == 1 << 2 | 1 << 4


@given(st.integers(3, 40).flatmap(lambda n: st.lists(st.permutations(range(n)), min_size=1, max_size=3)))
def test_union_matches_the_edge_list_union(orders):
    # the oracle is the edge-list path: each order's consecutive pairs, the
    # closing pair included, through from_edges
    n = len(orders[0])
    cycles = [make_cycle(o) for o in orders]
    want = UGraph.from_edges(n, [(o[i - 1], o[i]) for o in orders for i in range(n)])
    assert union(cycles) == want
    assert cycle_graph(cycles[0]).edge_count() == n


def test_random_k4free_rows_digest():
    # sha256 over the rows of random_k4free at n = 5..40 and three seeds,
    # taken before the generator kept its own row list
    h = hashlib.sha256()
    for n in range(5, 41):
        for s in range(3):
            h.update(repr(random_k4free(n, f"rows:{s}").adj).encode())
            h.update(b"\n")
    assert h.hexdigest() == "ae2ddc573827309fc18df3cfa2f7ce423fffb0362973bec027cf5e908770ab85"


def test_canonical_key_dihedral():
    base = make_cycle([0, 1, 2, 3])
    assert canonical_key(base) == (0, 1, 2, 3)
    # all 8 dihedral images of C4 share the key
    for img in ([1, 2, 3, 0], [3, 2, 1, 0], [2, 3, 0, 1], [0, 3, 2, 1]):
        assert canonical_key(make_cycle(img)) == (0, 1, 2, 3)
    other = make_cycle([0, 2, 1, 3])
    assert canonical_key(other) != (0, 1, 2, 3)


@given(st.permutations(list(range(7))), st.integers(0, 6), st.booleans())
def test_canonical_key_invariant_under_rotation_reflection(perm, shift, flip):
    c = make_cycle(perm)
    rotated = perm[shift:] + perm[:shift]
    if flip:
        rotated = rotated[::-1]
    assert canonical_key(c) == canonical_key(make_cycle(rotated))


@pytest.mark.parametrize("n", range(3, 13))
def test_canonical_key_is_least_rotation_or_reflection(n):
    # against the least of all 2n rotations and reflections of the order,
    # every cycle for n <= 6 and 300 random ones beyond
    rng = random.Random(f"canonical-key:{n}")
    orders = list(permutations(range(n))) if n <= 6 else [tuple(rng.sample(range(n), n)) for _ in range(300)]
    for order in orders:
        turns = [order[i:] + order[:i] for i in range(n)]
        least = min(turns + [t[::-1] for t in turns])
        key = canonical_key(HamCycle(order))
        assert type(key) is tuple and key == least, order


def test_union_shared_edge_counts_once():
    # C8 plus the chord cycle shares edge (7,0): 15 edges, degrees 3 at 0 and 7.
    c1 = standard_cycle(8)
    c2 = make_cycle([0, 2, 4, 6, 1, 3, 5, 7])
    g = union([c1, c2])
    assert g.edge_count() == 15
    assert g.degree_sequence() == (3, 4, 4, 4, 4, 4, 4, 3)
    assert g.has_edge(0, 7)


def test_union_validates():
    with pytest.raises(ValueError):
        union([])
    with pytest.raises(ValueError):
        union([standard_cycle(4), standard_cycle(5)])


@given(st.permutations(list(range(8))), st.permutations(list(range(8))))
def test_relabel_preserves_union_shape(order, perm):
    c1 = standard_cycle(8)
    c2 = make_cycle(order)
    g = union([c1, c2])
    h = union([HamCycle(key) for c in (c1, c2) for key in relabel_keys(c.order, [perm])])
    assert h.edge_count() == g.edge_count()
    assert sorted(h.degree_sequence()) == sorted(g.degree_sequence())
    relabeled = UGraph.from_edges(8, [(perm[u], perm[v]) for u, v in g.edges()])
    assert relabeled.degree_sequence() == h.degree_sequence()


@given(st.integers(3, 12).flatmap(lambda n: st.tuples(
    st.permutations(range(n)), st.lists(st.permutations(range(n)), min_size=1, max_size=5))))
def test_relabel_keys_is_the_canonical_key_of_each_image(case):
    order, perms = case
    want = [canonical_key(HamCycle(tuple(perm[v] for v in order))) for perm in perms]
    assert list(relabel_keys(tuple(order), perms)) == want


def test_connectivity_matches_oracle():
    g = UGraph.from_edges(6, [(0, 1), (1, 2), (3, 4)])
    assert not is_connected(g)
    assert oracle_connected(g) is False
    comps = connected_components(g.adj, 0b111111)
    assert comps == [0b000111, 0b011000, 0b100000]
    assert connected_components(g.adj, 0b000111) == [0b000111]
    assert is_connected(cycle_graph(standard_cycle(9)))


def test_max_clique_matches_oracle():
    rng = random.Random(20160930)
    graphs = [UGraph(0, ()), UGraph.from_edges(7, []), UGraph.from_edges(9, [
        (u, v) for u in range(9) for v in range(u + 1, 9)
    ])]
    for _ in range(500):
        n = rng.randint(0, 14)
        p = rng.random()
        graphs.append(UGraph.from_edges(n, [
            (u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p
        ]))
    for g in graphs:
        assert max_clique(g.adj) == oracle_max_clique(g)
    assert max_clique(graphs[0].adj) == ()
    assert max_clique(graphs[1].adj) == (0,)
    assert max_clique(graphs[2].adj) == tuple(range(9))


def test_max_clique_breaks_ties_lexicographically():
    # Two disjoint triangles {1, 4, 5} and {2, 3, 6} plus a pendant edge at 0:
    # both triangles are maximum, and {1, 4, 5} comes first.
    g = UGraph.from_edges(7, [(0, 6), (1, 4), (1, 5), (4, 5), (2, 3), (2, 6), (3, 6)])
    assert max_clique(g.adj) == (1, 4, 5)
    # Relabelled so that {2, 3, 6} becomes {0, 1, 4}: now that one comes first.
    perm = [6, 2, 1, 4, 3, 5, 0]
    h = UGraph.from_edges(7, [(perm[u], perm[v]) for u, v in g.edges()])
    assert max_clique(h.adj) == (0, 1, 4)


def test_cliques_match_brute_force():
    # every size from 0 (the empty clique) to 5, inside a random candidate
    # mask, in the order of combinations; the full mask is among the masks
    rng = random.Random("cliques")
    listed = 0
    for trial in range(300):
        n = rng.randint(0, 12)
        p = rng.uniform(0.2, 0.8)
        g = UGraph.from_edges(n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p])
        cands = rng.getrandbits(n) if trial % 3 else (1 << n) - 1
        members = [v for v in range(n) if cands >> v & 1]
        for size in range(6):
            got = list(cliques(g.adj, cands, size))
            assert got == oracle_cliques(g, members, size), (trial, size)
            listed += len(got)
    assert listed > 1000


def test_depth_first_from_a_goal_picks_nothing():
    assert depth_first(0, lambda state: None) == ()


def test_distinct_cycles():
    assert distinct_cycles([standard_cycle(5), make_cycle([0, 2, 4, 1, 3])])
    assert not distinct_cycles([standard_cycle(5), make_cycle([0, 4, 3, 2, 1])])


def test_document_round_trip_bit_exact():
    doc = FamilyDocument(
        n=8,
        cycles=(standard_cycle(8), make_cycle([0, 2, 4, 6, 1, 3, 5, 7])),
        certificates={"alpha": {"value": 2, "vertices": [0, 4]}},
        meta={"seed": "demo"},
    )
    text = serialize_family(doc)
    back = parse_family(text)
    assert back.n == 8
    assert back.cycles[1].order == (0, 2, 4, 6, 1, 3, 5, 7)
    assert back.certificates == doc.certificates
    assert serialize_family(back) == text
    payload = json.loads(text)
    assert payload["format_version"] == 1
    assert all(isinstance(v, int) for cyc in payload["cycles"] for v in cyc)


def test_serialize_refuses_what_parse_refuses():
    # n is capped at MAX_VERTICES on both sides of the document boundary
    assert parse_family(serialize_family(FamilyDocument(n=MAX_VERTICES, cycles=()))).n == MAX_VERTICES
    with pytest.raises(ValueError):
        serialize_family(FamilyDocument(n=MAX_VERTICES + 1, cycles=()))
    # every emitter builds its document through family_payload
    with pytest.raises(ValueError, match="exceeds the document cap"):
        family_payload(FamilyDocument(n=MAX_VERTICES + 1, cycles=()))


def test_document_edge_payload():
    doc = FamilyDocument(n=4, cycles=(), edges=((0, 1), (2, 1), (0, 3)))
    text = serialize_family(doc)
    back = parse_family(text)
    assert back.edges == ((0, 1), (1, 2), (0, 3))
    assert back.graph().edge_count() == 3
    assert serialize_family(back) == serialize_family(
        FamilyDocument(n=4, cycles=(), edges=back.edges)
    )


def test_parse_rejects_bad_documents():
    with pytest.raises(ValueError):
        parse_family(json.dumps({"format_version": 99, "n": 4, "cycles": []}))
    with pytest.raises(ValueError):
        parse_family(json.dumps({"format_version": 1, "n": 2, "cycles": []}))
    with pytest.raises(ValueError):
        parse_family(
            json.dumps({"format_version": 1, "n": 5, "cycles": [[0, 1, 2, 3]]})
        )
    with pytest.raises(ValueError):
        parse_family(json.dumps([1, 2, 3]))
