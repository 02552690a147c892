"""The package and each CLI process load only the modules they use.

`import twomilton` binds its public names lazily (PEP 562), and each CLI
command imports its solvers where it calls them, so a process pays to
compile only what its command runs.  The load checks run in a fresh
interpreter, since this one has imported every module already.
"""

import importlib
import inspect
import json
import os
import subprocess
import sys

import pytest

import twomilton
from twomilton.graphs import FamilyDocument, serialize_family, standard_cycle

SOLVER_MODULES = ("search", "reduction", "bounds", "constructions", "corpus")


def loaded_after(script, *argv):
    """The twomilton modules loaded once `script` has run in a fresh interpreter."""
    src = os.path.dirname(os.path.dirname(twomilton.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    probe = script + (
        "\nimport json, sys\n"
        "print(json.dumps(sorted(m for m in sys.modules if m.split('.')[0] == 'twomilton')))"
    )
    proc = subprocess.run([sys.executable, "-c", probe, *argv], env=dict(os.environ, PYTHONPATH=path),
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


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
    assert len(namespace) == 42


def test_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'alpha_exactly'"):
        twomilton.alpha_exactly  # noqa: B018
    with pytest.raises(ImportError):
        from twomilton import alpha_exactly  # noqa: F401
