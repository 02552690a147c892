"""Every verdict check raises VerificationError, also under python -O.

Each case makes the verifier behind one check lie (or hands the check an
inconsistent input) and expects the check to raise.  A bare assert would
vanish under -O and let the bad result through.  The cases above run in a
child process under -O; the last test runs in process (and so under -O when
the suite does) and also covers the input refusals of the generators and of
UGraph, and lift_independent's checks on tampered reduction results.
"""

import os
import subprocess
import sys
import textwrap

import pytest

import twomilton
from twomilton.bounds import delta_fn
from twomilton.constructions import k4_strip
from twomilton.corpus import planted_pair, random_pair
from twomilton.graphs import UGraph, VerificationError
from twomilton.reduction import LiftEntry, lift_independent, technical_reduce
from twomilton.search import window_partners

CASES = {
    "independence.alpha_exact": """
        import twomilton.independence as m
        from twomilton.graphs import standard_cycle, union
        m.verify_independent = lambda g, vs: False
        m.alpha_exact(union([standard_cycle(5)]))
    """,
    "independence.lex_min_maximum_set": """
        import twomilton.independence as m
        from twomilton.graphs import standard_cycle, union
        # the whole graph claims alpha 2, yet no vertex leaves a remainder of alpha 1
        m.AlphaSolver.alpha = lambda self: 2
        m.AlphaSolver._alpha = lambda self, P, dirty, k: 0
        m.alpha_exact(union([standard_cycle(5)]))
    """,
    "independence.AlphaSolver._alpha": """
        import twomilton.independence as m
        from twomilton.graphs import UGraph
        # with the rules off, the diamond's degree-2 vertex 0 has adjacent neighbours 1 and 2
        m.AlphaSolver._reduce = lambda self, P, dirty: (0, P)
        m.alpha_value(UGraph.from_edges(4, [(0, 1), (0, 2), (1, 2), (1, 3), (2, 3)]))
    """,
    "search.find_exceptional": """
        import twomilton.search as m
        m.zeta = lambda g: -1
        m.find_exceptional(8)
    """,
    "search.find_exceptional.alpha": """
        import twomilton.search as m
        # every survivor at k = 3 has alpha <= 3, so only the explicit check rejects them
        m.alpha_value = lambda g: -1
        m.find_exceptional(12)
    """,
    "search.expand_orbits": """
        import twomilton.search as m
        # every orbit representative claims a single-cycle orbit
        m._orbit_size = lambda order, ties: 1
        m.compute_f(8, 2)
    """,
    "search.construction_lower_bound": """
        import twomilton.k4
        import twomilton.search as m
        twomilton.k4.check_cover = lambda g, blocks, size: False
        m.compute_f(16, 4)
    """,
    "reduction.lift_independent.size": """
        import twomilton.reduction as m
        from twomilton.constructions import k4_strip
        res = m.technical_reduce(*k4_strip(4))
        m.lift_independent(res._replace(zeta=res.zeta + 1), ())
    """,
    "reduction.lift_independent.independent": """
        import twomilton.reduction as m
        from twomilton.constructions import k4_strip
        res = m.technical_reduce(*k4_strip(4))
        answers = iter([True, False])  # the input passes, the lifted set fails
        m.verify_independent = lambda g, vs: next(answers)
        m.lift_independent(res, ())
    """,
    "reduction.lift_independent.options": """
        import twomilton.reduction as m
        from twomilton.corpus import planted_pair
        res = m.technical_reduce(*planted_pair(24, 2, "pin:0"))
        entry = next(e for e in res.lift_plan if e.options[0][0] is not None)
        m.verify_independent = lambda g, vs: True  # the whole neighbourhood passes as input
        m.lift_independent(res, [res.h_vertex_map.index(u) for u, _ in entry.options])
    """,
    "bounds.psizeta_stats": """
        import twomilton.bounds as m
        from twomilton.constructions import triple_n8
        m.psi_exact = lambda g: -1
        m.psizeta_stats(*triple_n8())
    """,
    "cli.construct": """
        import twomilton.cli as m
        import twomilton.independence
        twomilton.independence.verify_independent = lambda g, vs: False
        m.main(["construct", "strip"])
    """,
    "cli.cover": """
        import os
        import tempfile
        import twomilton.cli as m
        import twomilton.k4
        from twomilton.constructions import k4_strip
        from twomilton.graphs import FamilyDocument, serialize_family
        twomilton.k4.check_cover = lambda g, blocks, size: False
        with tempfile.TemporaryDirectory() as folder:
            path = os.path.join(folder, "s2.json")
            with open(path, "w") as f:
                f.write(serialize_family(FamilyDocument(8, k4_strip(2))))
            m.main(["cover", "--input", path])
    """,
    "k4.archipelagos": """
        import twomilton.k4 as m
        from twomilton.graphs import UGraph
        m.find_k4s = lambda g: ((0, 1, 2, 3),)
        m.archipelagos(UGraph.from_edges(4, [(0, 1), (2, 3)]))
    """,
}

WRAPPER = """\
import sys
from twomilton.graphs import VerificationError
if not sys.flags.optimize:
    sys.exit(2)
try:
{body}
except VerificationError as exc:
    print("raised", exc)
    sys.exit(0)
sys.exit(1)
"""


@pytest.mark.parametrize("site", list(CASES))
def test_check_runs_under_optimize(site):
    script = WRAPPER.format(body=textwrap.indent(textwrap.dedent(CASES[site]).strip(), "    "))
    src = os.path.dirname(os.path.dirname(twomilton.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    proc = subprocess.run(
        [sys.executable, "-O", "-c", script], env=env, capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.startswith("raised ")


def _tampered_lift(case):
    """Run lift_independent on a ReductionResult tampered as the case names."""
    if case == "neighbourhood":
        # the first entry's one option points at h vertex 0, which the set holds
        res = technical_reduce(*planted_pair(24, 2, "pin:0"))
        entry = res.lift_plan[0]
        plan = (entry._replace(options=((res.h_vertex_map[0], entry.options[0][1]),)),) + res.lift_plan[1:]
        return lift_independent(res._replace(lift_plan=plan), (0,))
    # the strip's union is one cyclic archipelago, lifted by one clean transversal
    res = technical_reduce(*k4_strip(4))
    plan = () if case == "dropped" else (LiftEntry(tuple(range(16)), ((None, (3, 5, 8, 12)),)),)
    return lift_independent(res._replace(lift_plan=plan), ())


@pytest.mark.parametrize("run, error, match", [
    (lambda: delta_fn(0, 1), ValueError, "0 < x <= 1"),
    (lambda: k4_strip(0), ValueError, "k >= 1"),
    (lambda: random_pair(3, "s"), ValueError, "n >= 4"),
    (lambda: planted_pair(12, 3, "s"), ValueError, "too many K4s"),
    (lambda: window_partners(6), ValueError, "divisible by 4"),
    (lambda: UGraph.from_edges(3, [(0, 3)]), ValueError, r"bad edge \(0, 3\)"),
    (lambda: _tampered_lift("dropped"), VerificationError, r"expected 0 \+ zeta 4"),
    # 3-5 is a hop edge of the strip
    (lambda: _tampered_lift("adjacent"), VerificationError, "not independent in the input union"),
    (lambda: _tampered_lift("neighbourhood"), VerificationError, "fully inside the set"),
], ids=["delta_fn", "k4_strip", "random_pair", "planted_pair", "window_partners", "from_edges",
        "lift-dropped-entry", "lift-adjacent-transversal", "lift-neighbourhood-in-set"])
def test_refusals_and_tampered_lifts_raise_in_process(run, error, match):
    # explicit raises, not asserts, so these hold under python -O as well
    with pytest.raises(error, match=match):
        run()
