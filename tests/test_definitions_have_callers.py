"""Every definition of the package has a caller in the package or the benchmark.

The definitions are the top-level functions and classes and the non-dunder
methods and properties of the classes.  A definition that nothing in src/ or
benchmarks/ refers to runs only in tests: it is dead weight, or a checker that
still needs a caller.  Being exported does not count.  A reference counts when
the name appears as a name, an attribute or an import in src/ (outside
__init__.py) or in benchmarks/, other than inside a definition of that name.
The few definitions kept without one are listed in ALLOWED, each with its
reason.
"""

import ast
from pathlib import Path

import twomilton

PACKAGE = Path(twomilton.__file__).parent
CALLER_DIRS = (PACKAGE, PACKAGE.parent.parent / "benchmarks")

ALLOWED: dict[tuple[str, str], str] = {
    ("__init__", "__getattr__"): "the PEP 562 hook that loads an export on first use; the interpreter calls it",
    ("bounds", "smooth_check"): "tests/test_acceptance.py, acceptance criterion 6",
    ("bounds", "locke_lou_check"): "tests/test_acceptance.py, acceptance criterion 11",
    ("bounds", "stoneage_check"): "tests/test_acceptance.py, acceptance criterion 11",
    ("bounds", "johnson_check"): "tests/test_acceptance.py, acceptance criterion 11",
    ("bounds", "psizeta_stats"): "tests/test_acceptance.py, acceptance criterion 11",
    ("bounds", "quality_check"): "tests/test_bounds.py, until `verify --claim lemma=...` calls it",
}

DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _definitions():
    """(module, name) of each top-level function and class, and (module,
    "Class.method") of each non-dunder method, in file order."""
    out = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in tree.body:
            if isinstance(node, DEFS):
                out.append((path.stem, node.name))
            if isinstance(node, ast.ClassDef):
                out.extend(
                    (path.stem, f"{node.name}.{item.name}") for item in node.body
                    if isinstance(item, DEFS) and not item.name.startswith("__")
                )
    return out


def _names(node, inside=frozenset()):
    """The names node refers to, less those used inside a definition of that name."""
    if isinstance(node, DEFS):
        inside = inside | {node.name}
    name = None
    if isinstance(node, ast.Name):
        name = node.id
    elif isinstance(node, ast.Attribute):
        name = node.attr
    elif isinstance(node, ast.alias):
        name = node.name.rpartition(".")[2]
    found = {name} - inside - {None}
    for child in ast.iter_child_nodes(node):
        found |= _names(child, inside)
    return found


def _referenced():
    """Names used in src/ (outside __init__.py) or benchmarks/, outside their own definition."""
    used = set()
    for folder in CALLER_DIRS:
        for path in sorted(folder.glob("*.py")):
            if folder == PACKAGE and path.name == "__init__.py":
                continue
            used |= _names(ast.parse(path.read_text(), filename=str(path)))
    return used


def test_every_definition_has_a_caller():
    definitions = _definitions()
    stale = [key for key in ALLOWED if key not in definitions]
    assert not stale, f"allow-listed definitions that no longer exist: {stale}"
    used = _referenced()
    orphans = [
        f"{module}.{name}" for module, name in definitions
        if name.rpartition(".")[2] not in used and (module, name) not in ALLOWED
    ]
    assert not orphans, (
        f"{len(orphans)} of {len(definitions)} definitions are not "
        f"referenced in src/ or benchmarks/: {orphans}"
    )
