"""Malformed family documents: parse_family raises ValueError and the CLI exits 2.

Two generators: arbitrary JSON values, and valid documents with one field
(top-level or nested) replaced by an arbitrary JSON value.  The inputs that
once ended in a traceback or were silently truncated are pinned as examples.
"""

import contextlib
import copy
import io
import json
from unittest import mock

from hypothesis import example, given, settings, strategies as st

from twomilton.cli import main
from twomilton.graphs import FamilyDocument, parse_family

JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=5) | st.dictionaries(st.text(max_size=6), inner, max_size=5),
    max_leaves=16,
)

CYCLES_DOC = {
    "format_version": 1, "n": 8,
    "cycles": [[0, 1, 2, 3, 4, 5, 6, 7], [0, 2, 4, 6, 1, 3, 5, 7]],
    "certificates": {"alpha": {"value": 2, "vertices": [0, 4]}},
    "meta": {"construction": "fuzz"},
}
EDGES_DOC = {
    "format_version": 1, "n": 6, "cycles": [],
    "edges": [[0, 1], [1, 2], [2, 0], [3, 4], [4, 5]],
    "certificates": {"alpha": {"value": 2, "vertices": [0, 3]}},
    "meta": {},
}
TOP = ("format_version", "n", "certificates", "meta")
NESTED = (("certificates", "alpha"), ("certificates", "alpha", "vertices"),
          ("certificates", "alpha", "value"))
FIELDS = (
    [("cycles", p) for p in TOP + ("cycles", "edges") + NESTED + (("cycles", 0),)]
    + [("edges", p) for p in TOP + ("cycles", "edges") + NESTED + (("edges", 0),)]
)
BASES = {"cycles": CYCLES_DOC, "edges": EDGES_DOC}


def replaced(base, path, value):
    doc = copy.deepcopy(BASES[base])
    path = path if isinstance(path, tuple) else (path,)
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return json.dumps(doc)


# the malformed fields that used to crash, be truncated or be accepted
BROKEN = [
    ("cycles", "cycles", 5), ("cycles", "cycles", [5]), ("edges", "edges", 5),
    ("cycles", "certificates", []), ("cycles", ("certificates", "alpha"), 5),
    ("cycles", ("cycles", 0), [0.5, 1.2, 2, 3, 4, 5, 6, 7]),
    ("cycles", ("cycles", 0), [0, True, 2, 3, 4, 5, 6, 7]),
    ("edges", ("edges", 0), [0, 9]), ("edges", ("edges", 0), [1, 1]),
    ("edges", ("certificates", "alpha", "vertices"), 5),
]


def with_examples(test):
    for base, path, value in BROKEN:
        test = example(field=(base, path), value=value)(test)
    return test


def parses_or_refuses(text):
    try:
        doc = parse_family(text)
    except ValueError:
        return None
    assert isinstance(doc, FamilyDocument)
    return doc


# documents with a valid header and arbitrary values in the other fields
HEADED = st.fixed_dictionaries(
    {"format_version": st.just(1), "n": st.integers(3, 9)},
    optional={key: JSON for key in ("cycles", "edges", "certificates", "meta")},
)


@settings(max_examples=300, deadline=None)
@given(value=JSON | HEADED)
def test_parse_arbitrary_json(value):
    parses_or_refuses(json.dumps(value))


@settings(max_examples=300, deadline=None)
@given(field=st.sampled_from(FIELDS), value=JSON)
@with_examples
def test_parse_document_with_one_field_replaced(field, value):
    parses_or_refuses(replaced(*field, value))


def run_cli(argv, text):
    out, err = io.StringIO(), io.StringIO()
    with mock.patch("sys.stdin", io.StringIO(text)), \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(argv)
    return rc, out.getvalue(), err.getvalue()


@settings(max_examples=150, deadline=None)
@given(field=st.sampled_from(FIELDS), value=JSON)
@with_examples
def test_cli_on_document_with_one_field_replaced(field, value):
    text = replaced(*field, value)
    valid = parses_or_refuses(text) is not None
    for argv in (["verify", "--input", "-", "--claim", "zeta>=0", "--claim", "pairwise-alpha<=4"],
                 ["zeta", "--input", "-"], ["reduce", "--diagnose", "--input", "-"]):
        rc, out, err = run_cli(argv, text)
        assert rc in (0, 1, 2), argv
        if not valid:
            assert (rc, out) == (2, "") and err.startswith("error: "), argv
