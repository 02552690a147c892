"""The package carries no assert statements: python -O would strip them.

Checks that vouch for a result raise VerificationError instead (see
test_checks.py); this guard keeps a bare assert from coming back unnoticed.
"""

import ast
from pathlib import Path

import twomilton


def test_no_assert_statements_in_package():
    found = []
    for path in sorted(Path(twomilton.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Assert)]
    assert not found, f"assert statements vanish under python -O: {found}"
