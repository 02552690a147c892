"""Every verdict check raises VerificationError, also under python -O.

Each case makes the verifier behind one check lie (or hands the check an
inconsistent input) and expects the check to raise.  A bare assert would
vanish under -O and let the bad result through.
"""

import os
import subprocess
import sys
import textwrap

import pytest

import twomilton

CASES = {
    "independence.alpha_exact": """
        import twomilton.independence as m
        from twomilton.graphs import standard_cycle, union
        m.verify_certificate = lambda g, cert: False
        m.alpha_exact(union([standard_cycle(5)]))
    """,
    "independence.greedy_extend": """
        import twomilton.independence as m
        from twomilton.graphs import standard_cycle, union
        answers = iter([True, False])  # the seed passes, the result fails
        m.verify_independent = lambda g, vs: next(answers)
        m.greedy_extend(union([standard_cycle(6)]), [0])
    """,
    "independence.csoka_lift": """
        import twomilton.independence as m
        from twomilton.graphs import standard_cycle, union
        _, red = m.csoka_reduce(union([standard_cycle(6)]), 1)
        m.verify_independent = lambda g, vs: False
        m.csoka_lift(red, [])
    """,
    "reduction.lift_independent.size": """
        import dataclasses
        import twomilton.reduction as m
        from twomilton.constructions import k4_strip
        res = m.technical_reduce(*k4_strip(4))
        m.lift_independent(dataclasses.replace(res, zeta=res.zeta + 1), ())
    """,
    "reduction.lift_independent.independent": """
        import twomilton.reduction as m
        from twomilton.constructions import k4_strip
        res = m.technical_reduce(*k4_strip(4))
        answers = iter([True, False])  # the input passes, the lifted set fails
        m.verify_independent = lambda g, vs: next(answers)
        m.lift_independent(res, ())
    """,
    "bounds.psizeta_stats": """
        import twomilton.bounds as m
        from twomilton.constructions import triple_n8
        m.psi_exact = lambda g: -1
        m.psizeta_stats(*triple_n8())
    """,
    "cli.construct": """
        import twomilton.cli as m
        m.verify_independent = lambda g, vs: False
        m.main(["construct", "strip"])
    """,
    "k4.archipelagos": """
        import twomilton.k4 as m
        from twomilton.graphs import UGraph
        m.find_k4s = lambda g: ((0, 1, 2, 3),)
        m.archipelagos(UGraph.from_edges(4, [(0, 1), (2, 3)]))
    """,
    "constructions.amplify": """
        from twomilton.constructions import _assemble
        from twomilton.graphs import standard_cycle
        _assemble((standard_cycle(9),), (0, 0), 8)  # blocks of 8 from a 9-cycle
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
