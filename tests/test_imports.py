"""The package and each CLI process load only the modules they use.

`import twomilton` binds its public names lazily (PEP 562), and each CLI
command imports its solvers where it calls them, so a process pays to
compile only what its command runs.  The load checks run in a fresh
interpreter, since this one has imported every module already.
"""

import ast
import importlib
import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import twomilton
from twomilton.constructions import k4_strip
from twomilton.graphs import FamilyDocument, serialize_family, standard_cycle

SOLVER_MODULES = ("search", "reduction", "bounds", "constructions", "corpus")


def modules_after(script, *argv):
    """Every module loaded once `script` has run in a fresh interpreter."""
    src = os.path.dirname(os.path.dirname(twomilton.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    probe = script + "\nimport json, sys\nprint(json.dumps(sorted(sys.modules)))"
    proc = subprocess.run([sys.executable, "-c", probe, *argv], env=dict(os.environ, PYTHONPATH=path),
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def loaded_after(script, *argv):
    """The twomilton modules loaded once `script` has run in a fresh interpreter."""
    return [m for m in modules_after(script, *argv) if m.split(".")[0] == "twomilton"]


def test_package_import_loads_no_submodule():
    assert loaded_after("import twomilton") == ["twomilton"]


def test_cli_import_loads_only_graphs_and_limits():
    assert loaded_after("import twomilton.cli") == [
        "twomilton", "twomilton.cli", "twomilton.graphs", "twomilton.limits",
    ]


def test_alpha_command_loads_no_other_layer(tmp_path):
    path = tmp_path / "c9.json"
    path.write_text(serialize_family(FamilyDocument(9, (standard_cycle(9),))))
    script = "import sys, twomilton.cli\nassert twomilton.cli.main(['alpha', '--input', sys.argv[1]]) == 0"
    loaded = loaded_after(script, str(path))
    assert "twomilton.independence" in loaded
    assert not [m for m in loaded if m.rpartition(".")[2] in SOLVER_MODULES]


def test_construct_loads_no_solver():
    script = "import twomilton.cli\nassert twomilton.cli.main(['construct', 'triple8']) == 0"
    assert loaded_after(script) == [
        "twomilton", "twomilton.cli", "twomilton.constructions", "twomilton.graphs", "twomilton.limits",
    ]


def test_search_f_loads_no_bounds_or_constructions():
    # the constructions serve the lower-bound mode alone
    script = "import twomilton.cli\nassert twomilton.cli.main(['search-f', '--n', '8', '--k', '2']) == 0"
    loaded = loaded_after(script)
    assert "twomilton.search" in loaded
    assert [m for m in ("twomilton.bounds", "twomilton.constructions") if m in loaded] == []


# the records are NamedTuples: dataclasses would load inspect, ast, dis and
# tokenize, and compile each record's methods, in every CLI process
@pytest.mark.parametrize("argv", [
    None, ["alpha", "--input", "{doc}"], ["reduce", "--input", "{doc}"], ["bounds"],
    ["search-f", "--n", "8", "--k", "2"],
], ids=["import", "alpha", "reduce", "bounds", "search-f"])
def test_cli_loads_no_dataclasses(argv, tmp_path):
    doc = tmp_path / "s4.json"
    doc.write_text(serialize_family(FamilyDocument(16, k4_strip(4))))
    script = "import twomilton.cli"
    if argv is not None:
        script += f"\nassert twomilton.cli.main({[a.format(doc=doc) for a in argv]!r}) == 0"
    loaded = modules_after(script)
    assert [m for m in ("dataclasses", "inspect") if m in loaded] == []


def test_no_module_imports_dataclasses():
    offenders = []
    for path in sorted(Path(twomilton.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]  # None for `from . import x`
            else:
                continue
            offenders += [path.name for name in names if name.split(".")[0] == "dataclasses"]
    assert offenders == []


def test_every_export_is_its_submodules_object():
    wrong = []
    for name in twomilton.__all__:
        obj = getattr(twomilton, name)
        module = importlib.import_module(inspect.getmodule(obj).__name__)
        if not module.__name__.startswith("twomilton.") or getattr(module, name) is not obj:
            wrong.append(name)
    assert not wrong


def test_star_import_binds_every_export():
    namespace = {}
    exec("from twomilton import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == twomilton.__all__
    assert len(namespace) == 39


def test_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'alpha_exactly'"):
        twomilton.alpha_exactly  # noqa: B018
    with pytest.raises(ImportError):
        from twomilton import alpha_exactly  # noqa: F401
