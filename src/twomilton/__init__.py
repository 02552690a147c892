"""Exact combinatorial toolkit for independent sets in unions of two Hamiltonian cycles.

Every public name is imported from its submodule on first use, so
`import twomilton` loads no solver.  _EXPORTS is the one table naming each
name's submodule: the CLI calls every solver as `twomilton.<name>`, so each of
its processes loads no solver that its command does not run.
"""

from importlib import import_module

# public name -> the submodule that defines it
_EXPORTS = {
    **dict.fromkeys((
        "delta_fn", "exists_check", "johnson_check", "johnson_q", "locke_lou_check", "psizeta_stats",
        "quality_check", "semirandom_rate", "smooth_check", "stoneage_check", "threshold_lower",
    ), "bounds"),
    **dict.fromkeys((
        "amplify", "circulant_family", "counterexample_strip", "k4_strip", "triple_n8",
    ), "constructions"),
    **dict.fromkeys(("random_johnson_system", "random_k4free", "random_pair"), "corpus"),
    **dict.fromkeys((
        "FamilyDocument", "HamCycle", "UGraph", "canonical_key", "cycle_graph", "make_cycle",
        "parse_family", "serialize_family", "standard_cycle", "union",
    ), "graphs"),
    **dict.fromkeys(("alpha_exact", "alpha_value", "verify_independent"), "independence"),
    **dict.fromkeys(("find_k4_cover", "find_k4s", "find_triangle_cover", "psi_exact", "zeta"), "k4"),
    **dict.fromkeys((
        "StructureViolation", "diagnose_reduction", "lift_independent", "technical_reduce",
    ), "reduction"),
    **dict.fromkeys((
        "compute_f", "exact_range", "find_exceptional", "verify_nothree", "window_partners",
    ), "search"),
}

__all__ = sorted(_EXPORTS)

__version__ = "0.1.0"


def __getattr__(name):
    """Import the submodule that defines `name` and keep the name here (PEP 562)."""
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{_EXPORTS[name]}", __name__), name)
    globals()[name] = value
    return value
