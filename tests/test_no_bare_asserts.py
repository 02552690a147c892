"""The package and the benchmark carry no assert statements: python -O would strip them.

Checks that vouch for a result raise VerificationError instead (see
test_checks.py), and the benchmark's check() verdicts raise too; this guard
keeps a bare assert from coming back unnoticed.
"""

import ast
from pathlib import Path

import twomilton

PACKAGE = Path(twomilton.__file__).parent


def test_no_assert_statements_in_package():
    found = []
    for folder in (PACKAGE, PACKAGE.parent.parent / "benchmarks"):
        paths = sorted(folder.glob("*.py"))
        assert paths, f"no Python files under {folder}"
        for path in paths:
            tree = ast.parse(path.read_text(), filename=str(path))
            found += [f"{folder.name}/{path.name}:{node.lineno}" for node in ast.walk(tree)
                      if isinstance(node, ast.Assert)]
    assert not found, f"assert statements vanish under python -O: {found}"
