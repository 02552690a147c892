"""The repository's pytest settings report a failing Hypothesis property as a
plain failure.

With every warning an error, the import that Hypothesis makes on a failure
(libcst, which warns about mypy_extensions.TypedDict) once turned the failure
into an INTERNALERROR that hid the falsifying example and stopped the session.
"""

import subprocess
import sys
from pathlib import Path

INI = Path(__file__).resolve().parents[1] / "pyproject.toml"

PROPERTY = '''\
from hypothesis import given, settings, strategies as st


@settings(database=None, deadline=None)
@given(st.integers())
def test_fails(x):
    assert x < 10


def test_passes():
    pass
'''


def test_failing_property_is_a_plain_failure(tmp_path):
    (tmp_path / "test_property.py").write_text(PROPERTY)
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(INI), "--rootdir", str(tmp_path),
         "-p", "no:cacheprovider", "test_property.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    out = proc.stdout + proc.stderr
    assert proc.returncode == 1, out
    assert "1 failed, 1 passed" in out, out
    assert "INTERNALERROR" not in out, out
    assert "Falsifying example" in out, out
