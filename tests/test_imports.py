"""The package and each CLI process load only the modules they use.

`import twomilton` binds its public names lazily (PEP 562), and the CLI
reaches every solver as `twomilton.<name>`, so a process pays to compile only
what its command runs.  The load checks run in a fresh interpreter, since
this one has imported every module already.
"""

import ast
import importlib
import inspect
import json
from pathlib import Path

import pytest

import twomilton
from twomilton import cli
from twomilton.constructions import circulant_family, counterexample_strip, k4_strip
from twomilton.graphs import FamilyDocument, serialize_family, standard_cycle

from runners import fresh_python

SOLVER_MODULES = ("search", "reduction", "bounds", "constructions", "corpus")


def modules_after(script, *argv):
    """Every module loaded once `script` has run in a fresh interpreter."""
    proc = fresh_python("-c", script + "\nimport json, sys\nprint(json.dumps(sorted(sys.modules)))", *argv)
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


# each command's twomilton modules besides the four that every command loads
@pytest.mark.parametrize("argv, solvers", [
    (["verify", "--input", "{c9}", "--claim", "pairwise-triangle-covered"], ["independence", "k4"]),
    (["verify", "--input", "{c9}", "--claim", "pairwise-alpha<=3"], ["independence"]),
    (["verify", "--input", "{strip}"], ["independence"]),
    (["cover", "--input", "{strip}"], ["independence", "k4"]),
    (["nothree", "--n", "8"], ["independence", "k4", "search"]),
    (["construct", "exceptional"], ["independence", "k4", "search"]),
    (["corpus", "--kind", "pair", "--count", "2", "--seed", "x"], ["corpus", "independence", "k4"]),
    (["corpus", "--kind", "johnson", "--count", "2", "--seed", "x"], ["corpus", "independence", "k4"]),
    (["bounds"], ["bounds", "independence", "k4"]),
    (["reduce", "--input", "{strip}"], ["independence", "k4", "reduction"]),
    (["reduce", "--diagnose", "--input", "{cx}"], ["independence", "k4", "reduction"]),
], ids=["verify-cover", "verify-alpha", "verify-certificate", "cover", "nothree", "exceptional",
        "corpus-pair", "corpus-johnson", "bounds", "reduce", "reduce-diagnose"])
def test_command_loads_only_its_solvers(argv, solvers, tmp_path):
    docs = {
        "c9": FamilyDocument(9, circulant_family(9)),
        "strip": FamilyDocument(16, k4_strip(4), {"alpha": {"value": 4, "vertices": [0, 4, 8, 12]}}),
        # the diagnosis fails on this strip, so the CLI reads its StructureViolation
        "cx": FamilyDocument(24, (), edges=tuple(counterexample_strip(3).edges())),
    }
    for name, doc in docs.items():
        (tmp_path / f"{name}.json").write_text(serialize_family(doc))
    argv = [a.format(**{name: tmp_path / f"{name}.json" for name in docs}) for a in argv]
    script = f"import twomilton.cli\nassert twomilton.cli.main({argv!r}) == 0"
    every = ["cli", "graphs", "limits"]
    assert loaded_after(script) == ["twomilton"] + [f"twomilton.{m}" for m in sorted(every + solvers)]


def test_cli_reaches_solvers_only_through_exports():
    # a misspelt export would surface only when its command runs, as an
    # uncaught AttributeError whose exit code 1 reads as a falsified claim
    tree = ast.parse(Path(cli.__file__).read_text())
    submodules = [
        (node.module, node in tree.body) for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and (node.level or (node.module or "").startswith("twomilton."))
    ] + [
        (alias.name, node in tree.body) for node in ast.walk(tree) if isinstance(node, ast.Import)
        for alias in node.names if alias.name.startswith("twomilton.")
    ]
    # (module, imported at the top level)
    assert sorted(submodules) == [("graphs", True), ("limits", True)]
    attrs = {
        node.attr for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id == "twomilton"
    }
    names = set(cli._QUANTITIES.values()) | {export for export, _ in cli._COVERS.values()}
    assert sorted((attrs | names) - set(twomilton.__all__)) == []


def test_cli_writes_stdout_only_from_main():
    # each command returns its report and exit code, and main writes them:
    # --out first, then stdout, so a failed write leaves stdout empty
    tree = ast.parse(Path(cli.__file__).read_text())
    in_main = {id(node) for top in tree.body if getattr(top, "name", None) == "main" for node in ast.walk(top)}
    writers = [
        node.lineno for node in ast.walk(tree) if id(node) not in in_main and (
            isinstance(node, ast.Attribute) and node.attr == "stdout"
            or isinstance(node, ast.Call) and getattr(node.func, "id", None) == "print"
            and not any(k.arg == "file" for k in node.keywords)
        )
    ]
    pathlib = [
        node.lineno for node in ast.walk(tree)
        if isinstance(node, ast.Import) and any(a.name.split(".")[0] == "pathlib" for a in node.names)
        or isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "pathlib"
    ]
    assert (writers, pathlib) == ([], [])


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
    assert len(namespace) == 46


def test_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'alpha_exactly'"):
        twomilton.alpha_exactly  # noqa: B018
    with pytest.raises(ImportError):
        from twomilton import alpha_exactly  # noqa: F401
