"""Every name a module imports at top level is used in that module.

The check reads the sources of src/twomilton/, tests/ and benchmarks/ and
parses each one.  A name bound by a top-level `import` or `from ... import`
counts as used when it appears anywhere in the module as a name, which
covers the root of an attribute chain (`json` in `json.dumps`).
`from __future__` imports are exempt.  Imports inside a function or a class
are out of scope: the ones there probe that a module imports, as
test_imports.py does.
"""

import ast
from pathlib import Path

import twomilton

PACKAGE = Path(twomilton.__file__).parent
ROOT = PACKAGE.parent.parent
DIRS = (PACKAGE, ROOT / "tests", ROOT / "benchmarks")


def _unused(path):
    """The names imported at the top level of the module at path and never used."""
    tree = ast.parse(path.read_text(), filename=str(path))
    imported = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            imported += [alias.asname or alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [alias.asname or alias.name for alias in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in imported if name not in used]


def test_no_unused_top_level_imports():
    unused = [
        f"{path.relative_to(ROOT)}: {name}"
        for folder in DIRS
        for path in sorted(folder.glob("*.py"))
        for name in _unused(path)
    ]
    assert not unused, "imported and never used:\n" + "\n".join(unused)
