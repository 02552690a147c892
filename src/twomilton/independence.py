"""Exact independence-number machinery: the solver and its certificates.

The solver is branch and reduce over bitmask subproblems.  Two rules shrink a
subproblem P without changing its independence number:

- a vertex of degree at most 1 in P is taken (its neighbour, if any, goes);
- a vertex v dominates a neighbour u when N[v] & P is inside N[u]; u is
  dropped, since swapping u for v turns any independent set through u into
  one through v.  With deg(v) >= 2 this needs v on a triangle, so only
  vertices on a triangle of the whole graph are checked.

The rules run off a worklist: a rule's outcome at v depends only on which of
v's neighbours are still in P, so when vertices leave P only their neighbours
are examined again.  A branch child removes the branch vertex v alone and
hands on adj[v], or removes what is left of N[v] and hands on ball[v], or
(in the degree-2 branch below) what is left of N[x] | N[z] and hands on
ball[x] | ball[z].  ball[v] is precomputed and holds every neighbour of a
vertex of N[v], so each mask covers every neighbour of a removed vertex; the
other vertices in it kept all their neighbours, so they still admit no rule
and examining them changes nothing.  The components of a reduced subproblem
start clean.  The degree rule applies whenever it can, so a reduced
subproblem has no vertex of degree below 2.

One pass over a reduced subproblem Q grows the component of its lowest
vertex a layer at a time, ORing a layer's rows into one mask that is cleared
of the vertices seen once, and sorts the vertices by degree in Q: 2, at least
3, at least 4.  When the component is not all of Q, alpha(Q) is its alpha
plus that of the rest, which splits again on its own.  A connected Q of maximum
degree 2 is a cycle, whose alpha is half its length rounded down.  Otherwise
the solver branches, and the branch that takes the vertex runs first.  A
neighbour scores 1 for degree at least 3 and 1 more for degree at least 4:

- on the vertex w of degree 2 whose neighbours x and z score highest, the
  lowest on a tie: take w, or take both x and z.  A maximum set without w
  holds x or z, and one holding only one of them swaps it for w.  x and z
  are not adjacent, since w would then dominate both and the reduction would
  have dropped them.  So alpha is the larger of 1 + alpha(Q - N[w]) and
  2 + alpha(Q - N[x] - N[z]): the degree-2 fold, which merges x, w, z into
  one vertex standing for "w, or both x and z" and costs exactly one unit
  of alpha.  High-degree x and z make the second branch remove more.  As w
  is in N[x], Q - N[x] - N[z] lies inside Q - N[w], so the second branch
  beats the first by one at most: it only decides whether
  alpha(Q - N[x] - N[z]) reaches alpha(Q - N[w]).
- with no vertex of degree 2, on the vertex of maximum degree whose
  neighbours score lowest, the lowest on a tie: take it, or drop it.

Every branch is exact, so the choice of vertex changes the work but no value
and no certificate.

One memoised search with a target k answers every query: it returns alpha
exactly when that is below k and otherwise stops at the first value >= k it
finds; the second branch runs only when the first falls short.  Only the
exact values, those below the target, are memoised, and none that the rules
solve outright: that costs one reduction again, not an entry.
"""

from __future__ import annotations

from typing import NamedTuple

from .graphs import UGraph, VerificationError, mask_of
from .limits import check_limit


class AlphaSolver:
    """Reusable exact solver for one graph; all queries share a memo table."""

    def __init__(self, g: UGraph):
        check_limit("alpha", g.n, "the alpha solver")
        self.n = g.n
        self.adj = adj = g.adj
        self.closed = tuple(a | (1 << v) for v, a in enumerate(adj))
        self.full = (1 << g.n) - 1
        # ball[v]: every neighbour of a vertex of N[v], the dirty mask of a
        # child that removes part of N[v]; v is on a triangle when two of its
        # neighbours are adjacent
        ball = []
        on_triangle = 0
        for v, a in enumerate(adj):
            reach = tri = 0
            m = a
            while m:
                low = m & -m
                m ^= low
                row = adj[low.bit_length() - 1]
                reach |= row
                tri |= row & a
            ball.append(reach | a)
            if tri:
                on_triangle |= 1 << v
        self.ball = tuple(ball)
        self.on_triangle = on_triangle
        self.memo: dict[int, int] = {}

    def _reduce(self, P: int, dirty: int) -> tuple[int, int]:
        """Apply the rules at the vertices of dirty, and again at the neighbours
        of every vertex they remove; returns (taken count, rest mask).

        Vertices of P outside dirty must already admit no rule.
        """
        adj = self.adj
        closed = self.closed
        on_triangle = self.on_triangle
        size = 0
        dirty &= P
        while dirty:
            low = dirty & -dirty
            dirty ^= low
            d = adj[low.bit_length() - 1] & P
            if not d & (d - 1):
                size += 1
                P ^= low | d
                if d:
                    dirty = (dirty | adj[d.bit_length() - 1]) & P
            elif low & on_triangle:
                near = d | low
                m = d
                while m:
                    bit = m & -m
                    m ^= bit
                    u = bit.bit_length() - 1
                    if not near & ~closed[u]:
                        P ^= bit
                        near ^= bit
                        dirty |= adj[u]
                dirty &= P
        return size, P

    def alpha(self) -> int:
        return self._alpha(self.full, self.full, self.n + 1)

    def at_least(self, k: int) -> bool:
        """True iff the graph has an independent set of size k."""
        return self._alpha(self.full, self.full, k) >= k

    def _alpha(self, P: int, dirty: int, k: int) -> int:
        """alpha(P) when that is below k; otherwise some value >= k, returned
        as soon as one is found.  Only the exact values (below k) are memoised."""
        if P == 0:
            return 0
        hit = self.memo.get(P)
        if hit is not None:
            return hit
        size, Q = self._reduce(P, dirty)
        if not Q or size >= k:
            return size
        adj = self.adj
        # one pass, a layer at a time: the component of Q's lowest vertex,
        # noting which of its vertices have degree 2 in Q and which 4 or more
        comp = frontier = Q & -Q
        two = four = 0
        while frontier:
            grow = 0
            while frontier:
                low = frontier & -frontier
                frontier ^= low
                near = adj[low.bit_length() - 1] & Q
                grow |= near
                d = near.bit_count()
                if d == 2:
                    two |= low
                elif d > 3:
                    four |= low
            frontier = grow & ~comp
            comp |= frontier
        if comp != Q:
            size += self._alpha(comp, 0, k - size)
            if size < k:
                size += self._alpha(Q ^ comp, 0, k - size)
        elif two == Q:
            size += Q.bit_count() // 2
        else:
            closed, ball = self.closed, self.ball
            three = Q ^ two  # no vertex of a reduced Q has degree below 2
            room = k - size
            # a neighbour scores 1 for degree >= 3 and 2 for degree >= 4; a
            # child that removes vertices hands on every neighbour of them,
            # since a rule can newly apply only there
            if two:
                score, m = -1, two
                while m and score < 4:
                    low = m & -m
                    m ^= low
                    near = adj[low.bit_length() - 1] & Q
                    s = (near & three).bit_count() + (near & four).bit_count()
                    if s > score:
                        w, score, pair = low.bit_length() - 1, s, near
                # some maximum set holds w or both neighbours: a set holding
                # one alone can swap it for w
                x, z = (pair & -pair).bit_length() - 1, pair.bit_length() - 1
                if adj[x] >> z & 1:
                    raise VerificationError(
                        f"degree-2 vertex {w} has adjacent neighbours {x} and {z}; "
                        "the reduction should have dropped them")
                best = 1 + self._alpha(Q & ~closed[w], ball[w], room - 1)
                # taking x and z beats taking w by one at most
                if best < room and self._alpha(
                        Q & ~(closed[x] | closed[z]), ball[x] | ball[z], best - 1) >= best - 1:
                    best += 1
            else:
                # most neighbours in Q, then lowest score, then lowest vertex
                degree, score, m = -1, 0, four or three
                while m:
                    low = m & -m
                    m ^= low
                    near = adj[low.bit_length() - 1] & Q
                    d = near.bit_count()
                    if d >= degree:
                        s = (near & three).bit_count() + (near & four).bit_count()
                        if d > degree or s < score:
                            v, degree, score = low.bit_length() - 1, d, s
                best = 1 + self._alpha(Q & ~closed[v], ball[v], room - 1)
                if best < room:
                    rest = self._alpha(Q ^ (1 << v), adj[v], room)
                    if rest > best:
                        best = rest
            size += best
        if size < k:
            self.memo[P] = size
        return size

    def lex_min_maximum_set(self) -> tuple[int, ...]:
        """Lexicographically least maximum independent set (as a sorted tuple).

        One pass in increasing order probes each vertex of P once: v is taken
        when alpha(P - N[v]) = alpha(P) - 1, and otherwise dropped from P for
        good.  A dropped u lies in no maximum set of the P it was probed in,
        so dropping it keeps alpha(P).  Nor does u lie in a maximum set of
        any later P: with the vertices taken since, that set would be a
        maximum set of the earlier P through u.  So the pass takes the same
        vertices as restarting from the lowest vertex after every take.
        """
        chosen: list[int] = []
        P = self.full
        remaining = self.alpha()
        for v in range(self.n):
            if not remaining:
                break
            if not P >> v & 1:
                continue
            # alpha(P minus N[v]) <= remaining - 1 always, so this tests equality
            rest = P & ~self.closed[v]
            if self._alpha(rest, rest, remaining - 1) >= remaining - 1:
                chosen.append(v)
                P = rest
                remaining -= 1
            else:
                P ^= 1 << v
        if remaining:
            raise VerificationError("no completable vertex; solver inconsistent")
        return tuple(chosen)


class IndepCertificate(NamedTuple):
    """An independent set of `value` vertices: it certifies alpha >= value only; verify with verify_certificate."""

    value: int
    vertices: tuple[int, ...]


def verify_independent(g: UGraph, vertices) -> bool:
    """True iff vertices are distinct, in range, and pairwise nonadjacent."""
    vs = list(vertices)
    if len(set(vs)) != len(vs):
        return False
    if any(not 0 <= v < g.n for v in vs):
        return False
    m = mask_of(vs)
    adj = g.adj
    return all(adj[v] & m == 0 for v in vs)


def verify_certificate(g: UGraph, cert: IndepCertificate) -> bool:
    return len(cert.vertices) == cert.value and verify_independent(g, cert.vertices)


def alpha_value(g: UGraph) -> int:
    """Exact independence number (no certificate)."""
    return AlphaSolver(g).alpha()


def alpha_exact(g: UGraph) -> IndepCertificate:
    """Exact independence number with the lexicographically least witness."""
    vertices = AlphaSolver(g).lex_min_maximum_set()
    cert = IndepCertificate(value=len(vertices), vertices=vertices)
    if not verify_certificate(g, cert):
        raise VerificationError(f"alpha certificate {vertices} is not independent")
    return cert


def has_independent_set(g: UGraph, k: int) -> bool:
    """True iff alpha(g) >= k, with early exit (no full solve on success)."""
    return AlphaSolver(g).at_least(k)
