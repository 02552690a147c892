"""Exact-rational inequality toolkit for two-miltonian independence bounds.

Everything the source statements give as a fraction stays a Fraction; float
arithmetic never enters a verdict.  The asymptotic results are exposed as
hypothesis-conclusion checkers over concrete families, since that is their
finitely checkable content.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

from .graphs import HamCycle, UGraph, VerificationError, is_connected, max_clique, union
from .independence import alpha_value
from .k4 import find_k4s, psi_exact, zeta

# the -O(1) of the quality inequality made concrete: the -4/26 tail of the
# Locke-Lou bound applied to the reduced graph, plus one unit of rounding
DEFAULT_SLACK = Fraction(4, 26) + 1


def locke_lou_check(g: UGraph) -> bool:
    """alpha >= (7n-4)/26 and e - 9n + 26*alpha >= -4 for one graph.

    Both inequalities require a connected K4-free graph with max degree 4.
    """
    if g.max_degree() > 4 or find_k4s(g) or not is_connected(g):
        raise ValueError("locke_lou_check needs a connected K4-free graph with max degree <= 4")
    a = alpha_value(g)
    e = g.edge_count()
    return a >= Fraction(7 * g.n - 4, 26) and e - 9 * g.n + 26 * a >= -4


def stoneage_check(g: UGraph) -> bool:
    """alpha > n/4 for a K4-free, max-degree-4 graph that is not 4-regular."""
    degs = g.degree_sequence()
    if g.max_degree() > 4 or find_k4s(g):
        raise ValueError("stoneage_check needs a K4-free graph with max degree <= 4")
    if all(d == 4 for d in degs):
        raise ValueError("stoneage_check does not apply to 4-regular graphs")
    return 4 * alpha_value(g) > g.n


def quality_bound(n: int, zeta_count: int, psi_count: int) -> Fraction:
    """7n/26 - zeta/13 + psi/2 - DEFAULT_SLACK."""
    if n < 0 or zeta_count < 0 or psi_count < 0:
        raise ValueError("counts must be nonnegative")
    return Fraction(7 * n, 26) - Fraction(zeta_count, 13) + Fraction(psi_count, 2) - DEFAULT_SLACK


def quality_check(g: UGraph) -> bool:
    """alpha(g) >= quality_bound for a graph built from two Hamiltonian cycles."""
    return alpha_value(g) >= quality_bound(g.n, zeta(g), psi_exact(g))


def smooth_bound(n: int, zeta_count: int) -> Fraction:
    """zeta + (7(n - 4*zeta) - 4)/26: the K4-aware two-miltonian floor."""
    return zeta_count + Fraction(7 * (n - 4 * zeta_count) - 4, 26)


def smooth_check(g: UGraph) -> bool:
    """alpha(g) >= zeta + (7(n-4*zeta)-4)/26 on a two-miltonian graph."""
    return alpha_value(g) >= smooth_bound(g.n, zeta(g))


def johnson_q(x, eps) -> Fraction:
    """(1 - x(1-eps)) / (x*eps): the set-system size ceiling."""
    x = Fraction(x)
    eps = Fraction(eps)
    if not 0 < x <= 1:
        raise ValueError("need 0 < x <= 1")
    if eps <= 0:
        raise ValueError("need eps > 0")
    return (1 - x * (1 - eps)) / (x * eps)


def johnson_check(n: int, sets, x, eps) -> bool:
    """m <= q(x, eps) for a qualifying set system on a ground set of size n.

    Qualifying means every set has at least x*n elements and every pairwise
    intersection at most (1-eps)*x^2*n; violations are input errors, not
    falsifications, and so is n < 1, where the empty set qualifies any
    number of times.
    """
    if n < 1:
        raise ValueError("need n >= 1")
    x = Fraction(x)
    eps = Fraction(eps)
    members = [frozenset(s) for s in sets]
    cap = (1 - eps) * x * x * n
    for s in members:
        if len(s) < x * n:
            raise ValueError("a set is smaller than x*n")
    for s, t in combinations(members, 2):
        if len(s & t) > cap:
            raise ValueError("a pairwise intersection exceeds (1-eps)*x^2*n")
    return len(members) <= johnson_q(x, eps)


def delta_fn(x, eps) -> Fraction:
    """(q(x/4, eps) + 1)^-1, strictly increasing in x at fixed eps."""
    x = Fraction(x)
    if not 0 < x <= 1:
        raise ValueError("need 0 < x <= 1")
    return 1 / (johnson_q(x / 4, eps) + 1)


def semirandom_rate(n0, c0, k0: int, eps=0) -> Fraction:
    """1/(2 k0) + (k0-1)/k0 * c0 [+ 1/(2 n0)] + eps.

    The independence ratio sustained by chained families built from a base
    family of k0 cycles on n0 vertices with pairwise ratio c0.  Pass n0=None
    for the block-count limit; decreasing in k0 and n0 whenever c0 <= 1/2.
    """
    if k0 < 2:
        raise ValueError("need k0 >= 2")
    c0 = Fraction(c0)
    rate = Fraction(1, 2 * k0) + Fraction(k0 - 1, k0) * c0 + Fraction(eps)
    if n0 is not None:
        if n0 < 3:
            raise ValueError("need n0 >= 3")
        rate += Fraction(1, 2 * n0)
    return rate


def threshold_penalty(z) -> Fraction:
    """-z/13 + z^2/2: the quality trade-off at K4 density zeta/n = z."""
    z = Fraction(z)
    return -z / 13 + z * z / 2


@dataclass(frozen=True)
class ThresholdLowerReport:
    value: Fraction      # 45/169
    base: Fraction       # 7/26, the K4-free rate
    minimizer: Fraction  # z = 1/13 minimizes the penalty
    minimum: Fraction    # -1/338


def threshold_lower() -> ThresholdLowerReport:
    """The lower threshold constant 45/169 = 7/26 + min_z(-z/13 + z^2/2).

    The quadratic's vertex is z = 1/13 with value -1/338.  The asymptotic
    argument iterates two steps: each densification round forces
    m(Y)^2 > m(X)^2 + eps/(1-eps) (step_check), and a family larger than
    |X|^(delta(4m, eps)^((1-eps)/eps)) beyond the Ramsey threshold holds a
    dense pair (exists_check).
    """
    z0 = Fraction(1, 13)
    m = threshold_penalty(z0)
    return ThresholdLowerReport(
        value=Fraction(7, 26) + m,
        base=Fraction(7, 26),
        minimizer=z0,
        minimum=m,
    )


def step_gain(eps) -> Fraction:
    """eps/(1-eps): the guaranteed per-round increase of m(X)^2."""
    eps = Fraction(eps)
    if not 0 < eps < 1:
        raise ValueError("need 0 < eps < 1")
    return eps / (1 - eps)


@dataclass(frozen=True)
class FamilyStats:
    """Pairwise (zeta, psi, alpha) table over a family of Hamiltonian cycles."""

    n: int
    size: int
    table: tuple[tuple[int, int, int, int, int], ...]  # (i, j, zeta, psi, alpha)

    def stat(self, i: int, j: int) -> tuple[int, int, int]:
        if i > j:
            i, j = j, i
        for a, b, z, p, al in self.table:
            if (a, b) == (i, j):
                return z, p, al
        raise KeyError((i, j))

    @property
    def m_of_x(self) -> Fraction:
        """min zeta(C u D)/n over the pairs; always within [0, 1]."""
        return min(Fraction(z, self.n) for _, _, z, _, _ in self.table)


def family_stats(cycles) -> FamilyStats:
    cycles = list(cycles)
    if len(cycles) < 2:
        raise ValueError("need at least two cycles")
    table = []
    for i, j in combinations(range(len(cycles)), 2):
        g = union([cycles[i], cycles[j]])
        table.append((i, j, zeta(g), psi_exact(g), alpha_value(g)))
    return FamilyStats(cycles[0].n, len(cycles), tuple(table))


def psizeta_stats(c: HamCycle, d1: HamCycle, d2: HamCycle) -> tuple[int, int]:
    """(m, psi): K4s shared by the two unions with c, and psi(d1 u d2).

    A K4 in both unions draws the same complementary path from d1 and from
    d2, and that path is induced in d1 u d2; shared K4s are disjoint, so
    psi(d1 u d2) >= m must hold and is checked.
    """
    shared = set(find_k4s(union([c, d1]))) & set(find_k4s(union([c, d2])))
    m = len(shared)
    psi = psi_exact(union([d1, d2]))
    if psi < m:
        raise VerificationError(f"psi {psi} < shared K4 count {m}: falsifies the packing bound")
    return m, psi


def _aux_graph(stats: FamilyStats, psi_floor: Fraction) -> UGraph:
    """Auxiliary graph joining family members whose union packs psi_floor."""
    edges = [(i, j) for i, j, _, p, _ in stats.table if p >= psi_floor]
    return UGraph.from_edges(stats.size, edges)


@dataclass(frozen=True)
class IteratingReport:
    hypothesis_holds: bool
    alpha_aux: int
    alpha_cap: Fraction
    dense_subfamily: tuple[int, ...]
    ok: bool


def iterating_check(stats: FamilyStats, x, eps) -> IteratingReport:
    """Finite content of the psi-densification step.

    Hypothesis: every pair has zeta >= x*n/4.  Checked conclusion: the
    auxiliary graph (pairs with psi >= (1-eps)x^2 n/16) has independence
    number at most q(x/4, eps) + 1, which is what forces a large clique, i.e.
    a dense subfamily; a maximum one is reported.
    """
    x = Fraction(x)
    eps = Fraction(eps)
    hyp = all(z >= x * stats.n / 4 for _, _, z, _, _ in stats.table)
    aux = _aux_graph(stats, (1 - eps) * x * x * stats.n / 16)
    a = alpha_value(aux)
    cap = johnson_q(x / 4, eps) + 1
    clique = max_clique(aux.adj)
    return IteratingReport(hyp, a, cap, clique, not hyp or a <= cap)


@dataclass(frozen=True)
class StepReport:
    hypothesis_holds: bool
    m_x: Fraction
    subfamily: tuple[int, ...]
    m_y: Fraction | None
    gain: Fraction
    ok: bool


def step_check(stats: FamilyStats, eps) -> StepReport:
    """One densification round on a concrete family.

    Hypothesis: exists_check finds no pair.  Conclusion checked: any >= 2
    clique Y of the auxiliary graph at x = 4*m(X) has
    m(Y)^2 > m(X)^2 + eps/(1-eps).
    """
    eps = Fraction(eps)
    n = stats.n
    m = stats.m_of_x
    hyp = exists_check(stats, eps).pair is None
    aux = _aux_graph(stats, (1 - eps) * m * m * n)
    clique = max_clique(aux.adj)
    m_y = None
    ok = True
    if hyp and len(clique) >= 2:
        m_y = min(
            Fraction(stats.stat(i, j)[0], n) for i, j in combinations(clique, 2)
        )
        ok = m_y * m_y > m * m + step_gain(eps)
    return StepReport(hyp, m, clique, m_y, step_gain(eps), ok)


@dataclass(frozen=True)
class ExistsReport:
    found: bool
    pair: tuple[int, int] | None


def exists_check(stats: FamilyStats, eps) -> ExistsReport:
    """Scan for a pair with psi/n >= (1-eps)(zeta/n)^2 - eps."""
    eps = Fraction(eps)
    n = stats.n
    for i, j, z, p, _ in stats.table:
        if Fraction(p, n) >= (1 - eps) * Fraction(z, n) ** 2 - eps:
            return ExistsReport(True, (i, j))
    return ExistsReport(False, None)
