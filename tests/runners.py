"""Two ways to run the package from a test: the CLI in this process, or a fresh interpreter."""

import contextlib
import io
import os
import subprocess
import sys
from unittest import mock

import twomilton
from twomilton.cli import main


def run_cli(argv, stdin=""):
    """(exit code, stdout, stderr) of `twomilton argv`; an argparse refusal gives its SystemExit code."""
    out, err = io.StringIO(), io.StringIO()
    with mock.patch("sys.stdin", io.StringIO(stdin)), \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def fresh_python(*args, timeout=60):
    """The CompletedProcess of `python *args` in a new interpreter that imports this package."""
    src = os.path.dirname(os.path.dirname(twomilton.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], env=dict(os.environ, PYTHONPATH=path),
                          capture_output=True, text=True, timeout=timeout)
