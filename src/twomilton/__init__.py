"""Exact combinatorial toolkit for independent sets in unions of two Hamiltonian cycles."""

from .bounds import (
    exists_check,
    johnson_check,
    locke_lou_check,
    psizeta_stats,
    quality_check,
    semirandom_rate,
    smooth_check,
    stoneage_check,
    threshold_lower,
)
from .constructions import (
    amplify,
    circulant_family,
    counterexample_strip,
    k4_strip,
    triple_n8,
)
from .graphs import (
    FamilyDocument,
    HamCycle,
    UGraph,
    canonical_key,
    cycle_graph,
    make_cycle,
    parse_family,
    serialize_family,
    standard_cycle,
    union,
)
from .independence import (
    alpha_exact,
    alpha_value,
    csoka_lift,
    csoka_reduce,
    greedy_extend,
    verify_independent,
)
from .k4 import find_k4_cover, find_k4s, find_triangle_cover, psi_exact, zeta
from .reduction import diagnose_reduction, lift_independent, technical_reduce
from .search import compute_f, find_exceptional, verify_nothree, window_partners

__all__ = [
    "FamilyDocument",
    "HamCycle",
    "UGraph",
    "alpha_exact",
    "alpha_value",
    "amplify",
    "canonical_key",
    "circulant_family",
    "compute_f",
    "counterexample_strip",
    "csoka_lift",
    "csoka_reduce",
    "cycle_graph",
    "diagnose_reduction",
    "exists_check",
    "find_exceptional",
    "find_k4_cover",
    "find_k4s",
    "find_triangle_cover",
    "greedy_extend",
    "johnson_check",
    "k4_strip",
    "lift_independent",
    "locke_lou_check",
    "make_cycle",
    "parse_family",
    "psi_exact",
    "psizeta_stats",
    "quality_check",
    "semirandom_rate",
    "serialize_family",
    "smooth_check",
    "standard_cycle",
    "stoneage_check",
    "technical_reduce",
    "threshold_lower",
    "triple_n8",
    "union",
    "verify_independent",
    "verify_nothree",
    "window_partners",
    "zeta",
]

__version__ = "0.1.0"
