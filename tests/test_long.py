"""The long tier: exhaustive runs too slow for tier-1, selected by --run-long.

Each test states its cost, measured on 2 cores under Python 3.11, and writes
a document under tmp_path that `verify` checks.
"""

import json

import pytest

from twomilton import search
from twomilton.cli import main
from twomilton.graphs import FamilyDocument, canonical_key, make_cycle, serialize_family, standard_cycle
from twomilton.search import window_partners


@pytest.mark.long
def test_window_partners_are_the_survivors_at_n16(tmp_path, capsys):
    # the pinned scan at (16, 4) keeps 13 orbits and 192 survivors, and they
    # are exactly the window partners: about 16 s of CPU, and the pytest
    # session peaks at 66 MB RSS
    reps, count = search._survivors(16, 4)
    assert (len(reps), count) == (13, 192)
    orders = [order for order, _, _ in search._expand_orbits(16, reps)]
    assert set(orders) == {canonical_key(c) for c in window_partners(16)}
    path = tmp_path / "n16.json"
    path.write_text(serialize_family(FamilyDocument(16, (standard_cycle(16), make_cycle(orders[0])))))
    assert main(["verify", "--input", str(path), "--claim", "pairwise-k4-covered"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["ok"] and report["claims"][0]["ok"]
