"""Every parameter with a default is set by some caller in the package or the benchmark.

A default that no caller overrides is a constant with extra steps: the branch
behind the other values runs only in tests.  A call site counts when it names
the function (as f(...) or x.f(...)) and passes the parameter by keyword, by
position, or through *args / **kwargs.  A caller that only passes on a
defaulted parameter of its own sets nothing unless that parameter is set in
turn.  The few parameters kept without a caller are listed in ALLOWED, each
with its reason.
"""

import ast
from pathlib import Path

import twomilton

PACKAGE = Path(twomilton.__file__).parent
CALLER_DIRS = (PACKAGE, PACKAGE.parent.parent / "benchmarks")

ALLOWED = {
    ("cli", "main", "argv"): "the entry point: the console script calls main() with no argument",
}


def _own_defaults(node, module):
    """{parameter: (module, function, parameter)} for the defaulted parameters of node."""
    a = node.args
    positional = a.posonlyargs + a.args
    named = positional[len(positional) - len(a.defaults):]
    named += [arg for arg, d in zip(a.kwonlyargs, a.kw_defaults) if d is not None]
    return {arg.arg: (module, node.name, arg.arg) for arg in named}


def _defaulted(tree, module):
    """(key, call name, positional index or None) per defaulted parameter."""
    out = []

    def visit(body, in_class=None):
        for node in body:
            if isinstance(node, ast.ClassDef):
                visit(node.body, node.name)
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                positional = [arg.arg for arg in node.args.posonlyargs + node.args.args]
                static = any(getattr(d, "id", None) == "staticmethod" for d in node.decorator_list)
                offset = 1 if in_class and not static else 0
                name = in_class if node.name == "__init__" else node.name
                for param, key in _own_defaults(node, module).items():
                    index = positional.index(param) - offset if param in positional else None
                    out.append((key, name, index))
                visit(node.body)

    visit(tree.body)
    return out


def _calls():
    """call name -> [(positional sources or None for *args, keyword sources or None for **)].

    A source is None for a value of the caller's own, or the key of the
    caller's defaulted parameter that it passes on unchanged.
    """
    calls = {}

    def visit(node, module, own):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            own = _own_defaults(node, module) if module else {}
        if isinstance(node, ast.Call):
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)

            def source(value):
                return own.get(value.id) if isinstance(value, ast.Name) else None

            starred = any(isinstance(a, ast.Starred) for a in node.args)
            double = any(k.arg is None for k in node.keywords)
            calls.setdefault(name, []).append((
                None if starred else [source(a) for a in node.args],
                None if double else {k.arg: source(k.value) for k in node.keywords},
            ))
        for child in ast.iter_child_nodes(node):
            visit(child, module, own)

    for folder in CALLER_DIRS:
        for path in sorted(folder.glob("*.py")):
            tree = ast.parse(path.read_text(), filename=str(path))
            visit(tree, path.stem if folder == PACKAGE else None, {})
    return calls


def _sources(call, param, index):
    positional, keywords = call
    if keywords is None:
        return [None]
    if param in keywords:
        return [keywords[param]]
    if index is None:
        return []
    if positional is None:
        return [None]
    return positional[index:index + 1]


def test_every_default_has_a_caller():
    params = []
    for path in sorted(PACKAGE.glob("*.py")):
        params += _defaulted(ast.parse(path.read_text(), filename=str(path)), path.stem)
    stale = [key for key in ALLOWED if key not in {key for key, _, _ in params}]
    assert not stale, f"allow-listed parameters that no longer exist: {stale}"
    calls = _calls()
    is_set = set(ALLOWED)
    grew = True
    while grew:
        grew = False
        for key, name, index in params:
            if key in is_set:
                continue
            for call in calls.get(name, ()):
                if any(s is None or s in is_set for s in _sources(call, key[2], index)):
                    is_set.add(key)
                    grew = True
                    break
    unset = [f"{m}.{f}({p}=)" for (m, f, p), _, _ in params if (m, f, p) not in is_set]
    assert not unset, (
        f"{len(unset)} of {len(params)} defaulted parameters are set by no caller "
        f"in src/ or benchmarks/: {unset}"
    )
