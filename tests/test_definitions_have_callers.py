"""Every top-level function and class of the package has a caller or is public.

A definition that nothing in the package or the benchmark refers to, and that
the package does not export, runs only in tests: it is dead weight or a
checker that belongs in the public API.  A reference counts when the name
appears as a name, an attribute or an import in src/ (outside __init__.py) or
in benchmarks/, other than in its own definition.  The few definitions kept
without one are listed in ALLOWED, each with its reason.
"""

import ast
from pathlib import Path

import twomilton

PACKAGE = Path(twomilton.__file__).parent
CALLER_DIRS = (PACKAGE, PACKAGE.parent.parent / "benchmarks")

ALLOWED: dict[tuple[str, str], str] = {
    ("__init__", "__getattr__"): "the PEP 562 hook that loads an export on first use; the interpreter calls it",
}


def _definitions():
    """(module, name) of each top-level function and class, in file order."""
    out = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                out.append((path.stem, node.name))
    return out


def _referenced():
    """Names used in src/ (outside __init__.py) or benchmarks/, outside their own definition."""
    used = set()
    for folder in CALLER_DIRS:
        for path in sorted(folder.glob("*.py")):
            if folder == PACKAGE and path.name == "__init__.py":
                continue
            tree = ast.parse(path.read_text(), filename=str(path))
            for top in tree.body:
                own = getattr(top, "name", None) if folder == PACKAGE else None
                for node in ast.walk(top):
                    if isinstance(node, ast.Name):
                        name = node.id
                    elif isinstance(node, ast.Attribute):
                        name = node.attr
                    elif isinstance(node, ast.alias):
                        name = node.name.rpartition(".")[2]
                    else:
                        continue
                    if name != own:
                        used.add(name)
    return used


def test_every_definition_has_a_caller_or_is_exported():
    definitions = _definitions()
    stale = [key for key in ALLOWED if key not in definitions]
    assert not stale, f"allow-listed definitions that no longer exist: {stale}"
    used = _referenced() | set(twomilton.__all__)
    orphans = [
        f"{module}.{name}" for module, name in definitions
        if name not in used and (module, name) not in ALLOWED
    ]
    assert not orphans, (
        f"{len(orphans)} of {len(definitions)} top-level definitions are neither "
        f"referenced in src/ or benchmarks/ nor exported: {orphans}"
    )
