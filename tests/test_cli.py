"""End-to-end command-line behavior: exit codes, documents, determinism."""

import json
import os
import shlex
import subprocess
import sys
from decimal import Decimal
from math import factorial
from pathlib import Path
from random import Random

import pytest

import twomilton
from twomilton import cli, search
from twomilton.cli import main
from twomilton.constructions import k4_strip
from twomilton.corpus import planted_pair, random_cycle, random_pair
from twomilton.graphs import FamilyDocument, cycle_graph, serialize_family, union


def run(capsys, *argv):
    rc = main(list(argv))
    out = capsys.readouterr().out
    return rc, out


def run_json(capsys, *argv):
    rc, out = run(capsys, *argv)
    return rc, json.loads(out)


@pytest.fixture
def triple8_doc(tmp_path, capsys):
    path = tmp_path / "t8.json"
    rc, _ = run(capsys, "construct", "triple8", "--out", str(path))
    assert rc == 0
    return str(path)


@pytest.fixture
def strip4_doc(tmp_path, capsys):
    path = tmp_path / "s4.json"
    rc, _ = run(capsys, "construct", "strip", "--k", "4", "--out", str(path))
    assert rc == 0
    return str(path)


def test_alpha_on_triple_pair(capsys, triple8_doc):
    rc, rep = run_json(capsys, "alpha", "--input", triple8_doc, "--pair", "1", "2")
    assert rc == 0
    assert rep["value"] == 2
    assert len(rep["certificate"]) == 2


def test_zeta_on_strip(capsys, strip4_doc):
    rc, rep = run_json(capsys, "zeta", "--input", strip4_doc)
    assert rc == 0
    assert rep["value"] == 4
    assert len(rep["k4s"]) == 4


def test_psi_on_edge_payload(capsys, tmp_path):
    doc = {
        "format_version": 1, "n": 4, "cycles": [],
        "edges": [[a, b] for a in range(4) for b in range(a + 1, 4)], "meta": {},
    }
    path = tmp_path / "k4.json"
    path.write_text(json.dumps(doc))
    rc, rep = run_json(capsys, "psi", "--input", str(path))
    assert rc == 0 and rep["value"] == 0


def test_cover_exit_codes(capsys, triple8_doc, tmp_path):
    rc, rep = run_json(capsys, "cover", "--input", triple8_doc, "--pair", "0", "1")
    assert rc == 0 and rep["found"]
    # a bare cycle has no K4 cover: falsified, exit 1
    doc = {"format_version": 1, "n": 6, "cycles": [[0, 1, 2, 3, 4, 5]], "meta": {}}
    path = tmp_path / "c6.json"
    path.write_text(json.dumps(doc))
    rc, rep = run_json(capsys, "cover", "--input", str(path))
    assert rc == 1 and not rep["found"]


def test_verify_circulant_claims(capsys, tmp_path):
    path = tmp_path / "c9.json"
    assert run(capsys, "construct", "circulant", "--n", "9", "--out", str(path))[0] == 0
    rc, rep = run_json(
        capsys, "verify", "--input", str(path),
        "--claim", "pairwise-alpha<=3", "--claim", "pairwise-triangle-covered",
    )
    assert rc == 0 and rep["ok"]
    assert all(c["ok"] for c in rep["claims"])


def test_verify_triple8_k4_covered(capsys, triple8_doc):
    rc, rep = run_json(
        capsys, "verify", "--input", triple8_doc,
        "--claim", "pairwise-k4-covered", "--claim", "pairwise-alpha=2",
    )
    assert rc == 0 and rep["ok"]


def test_verify_falsified_claim(capsys, strip4_doc):
    rc, rep = run_json(capsys, "verify", "--input", strip4_doc, "--claim", "alpha<=3")
    assert rc == 1 and not rep["ok"]
    bad = [c for c in rep["claims"] if not c["ok"]]
    assert "alpha is 4" in bad[0]["detail"]


def test_verify_builds_each_pairwise_union_when_it_checks_it(capsys, tmp_path, monkeypatch):
    rng = Random("six-cycles")
    path = tmp_path / "six.json"
    path.write_text(serialize_family(FamilyDocument(12, tuple(random_cycle(12, rng) for _ in range(6)))))
    built = []
    monkeypatch.setattr(cli, "union", lambda parts: built.append(parts) or union(parts))
    rc, rep = run_json(capsys, "verify", "--input", str(path), "--claim", "pairwise-alpha<=1")
    assert rc == 1 and rep["claims"][0]["detail"].startswith("pair (0,1): ")
    assert len(built) == 1
    rc, rep = run_json(capsys, "verify", "--input", str(path), "--claim", "pairwise-alpha>=1")
    assert rc == 0 and rep["claims"][0]["detail"] == "alpha>=1 on 15 graph(s)"
    assert len(built) == 16


def test_verify_tampered_certificate(capsys, strip4_doc, tmp_path):
    doc = json.loads(Path(strip4_doc).read_text())
    doc["certificates"]["alpha"]["vertices"] = [0, 1, 4, 8]  # 0-1 is an edge
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    rc, rep = run_json(capsys, "verify", "--input", str(path))
    assert rc == 1
    assert rep["claims"][0]["claim"] == "embedded-alpha-certificate"
    assert not rep["claims"][0]["ok"]


def test_verify_states_what_an_embedded_certificate_proves(capsys, tmp_path):
    # an independent set smaller than alpha is a valid certificate of a lower bound
    path = tmp_path / "c8.json"
    path.write_text(json.dumps({"format_version": 1, "n": 8, "cycles": [list(range(8))], "meta": {},
                                "certificates": {"alpha": {"value": 1, "vertices": [0]}}}))
    rc, rep = run_json(capsys, "verify", "--input", str(path))
    assert rc == 0
    assert rep["claims"] == [{"claim": "embedded-alpha-certificate", "ok": True, "detail": "alpha>=1, 1 vertices"}]
    rc, rep = run_json(capsys, "verify", "--input", str(path), "--claim", "alpha=1")
    assert rc == 1 and rep["claims"][1]["detail"] == "graph: alpha is 4, claim was alpha=1"


def test_verify_unparseable_claim(capsys, strip4_doc):
    # a malformed claim is a usage error: exit 2, a message and no report
    rc = main(["verify", "--input", strip4_doc, "--claim", "gamma=1"])
    out, err = capsys.readouterr()
    assert rc == 2
    assert out == ""
    assert err.startswith("error: ") and "unknown quantity" in err


def test_verify_with_nothing_to_check(capsys, triple8_doc):
    # no --claim and no embedded certificate: a usage error, not a vacuous pass
    rc = main(["verify", "--input", triple8_doc])
    out, err = capsys.readouterr()
    assert (rc, out) == (2, "")
    assert err.startswith("error: nothing to verify")


@pytest.mark.parametrize("claim", ["zeta=>3", "alpha<=x", "k4-covered", "pairwise-cover", "psi"])
def test_verify_rejects_malformed_claims_before_work(capsys, monkeypatch, strip4_doc, claim):
    # the good claim comes first, but nothing is evaluated or printed
    def evaluated(g):
        raise AssertionError("a claim was evaluated before all claims were parsed")

    monkeypatch.setattr(twomilton, "alpha_value", evaluated)
    rc = main(["verify", "--input", strip4_doc, "--claim", "alpha<=4", "--claim", claim])
    out, err = capsys.readouterr()
    assert rc == 2
    assert out == ""
    assert err.startswith("error: ") and repr(claim) in err


def test_reduce_strip(capsys, strip4_doc):
    rc, rep = run_json(capsys, "reduce", "--input", strip4_doc)
    assert rc == 0
    assert rep["zeta"] == 4
    assert rep["lift_demo"]["size"] == 4
    assert all(rep["postconditions"].values())


def test_reduce_rejects_small_n(capsys, tmp_path):
    path = tmp_path / "s3.json"
    assert run(capsys, "construct", "strip", "--k", "3", "--out", str(path))[0] == 0
    rc, _ = run(capsys, "reduce", "--input", str(path))
    assert rc == 2


def test_reduce_refuses_an_edge_payload_other_than_the_union(capsys, tmp_path):
    # zeta and alpha read the payload, so reduce must not reduce another graph
    c1, c2 = k4_strip(4)
    path = tmp_path / "doc.json"

    def write(edges):
        path.write_text(json.dumps({
            "format_version": 1, "n": 16, "cycles": [list(c1.order), list(c2.order)], "meta": {},
            "edges": [list(e) for e in edges],
        }))

    write(cycle_graph(c1).edges())
    assert run_json(capsys, "zeta", "--input", str(path))[1]["value"] == 0
    rc = main(["reduce", "--input", str(path)])
    out, err = capsys.readouterr()
    assert (rc, out) == (2, "")
    assert "edge payload" in err
    write(union([c1, c2]).edges())
    rc, rep = run_json(capsys, "reduce", "--input", str(path))
    assert (rc, rep["zeta"]) == (0, 4)


@pytest.mark.parametrize("cycles, argv, message", [
    ([list(range(9))], ["reduce"], "reduce needs a document with two cycles"),
    ([list(range(9)), [0, 2, 4, 6, 8, 1, 3, 5, 7], [0, 3, 6, 1, 4, 7, 2, 5, 8]], ["reduce"],
     "reduce needs a document with two cycles"),
    ([], ["alpha"], "document has neither cycles nor an edge payload"),
    ([], ["verify", "--claim", "alpha<=1"], "document has neither cycles nor an edge payload"),
    ([], ["verify", "--claim", "pairwise-alpha<=1"],
     "pairwise claim on a document with fewer than two cycles"),
    ([], ["reduce", "--diagnose"], "document has neither cycles nor an edge payload"),
], ids=["reduce-one-cycle", "reduce-three-cycles", "alpha-empty", "verify-empty",
        "verify-pairwise-empty", "diagnose-empty"])
def test_document_input_errors(capsys, tmp_path, cycles, argv, message):
    # every command takes the graph through one reader, which names the fault
    path = tmp_path / "doc.json"
    path.write_text(json.dumps({"format_version": 1, "n": 9, "cycles": cycles, "meta": {}}))
    rc = main(argv + ["--input", str(path)])
    out, err = capsys.readouterr()
    assert (rc, out) == (2, "")
    assert message in err


def test_reduce_diagnose_counterexample(capsys, tmp_path):
    path = tmp_path / "cx.json"
    assert run(capsys, "construct", "counterexample", "--units", "3", "--out", str(path))[0] == 0
    rc, rep = run_json(capsys, "reduce", "--input", str(path), "--diagnose")
    assert rc == 0
    assert not rep["ok"]
    assert rep["failed_step"] == "small"
    assert rep["artifact"]["n"] == 24


def test_reduce_diagnose_refuses_a_route_off_the_edge_payload(capsys, tmp_path):
    # 10 moved to follow 18 in the first cycle: (10,18), (4,10) and (6,16) are
    # not edges of the union that the document's edge payload carries
    c1, c2 = planted_pair(20, 4, "sc:6")
    route = [0, 18, 10, 4, 12, 17, 1, 3, 11, 15, 6, 16, 7, 2, 8, 13, 9, 5, 14, 19]
    path = tmp_path / "moved.json"
    path.write_text(json.dumps({
        "format_version": 1, "n": 20, "cycles": [route, list(c2.order)], "meta": {},
        "edges": [list(e) for e in union([c1, c2]).edges()],
    }))
    rc = main(["reduce", "--input", str(path), "--diagnose"])
    out, err = capsys.readouterr()
    assert (rc, out) == (2, "")
    assert "Hamiltonian cycle" in err


def _diagnose_doc(tmp_path, cycles):
    """A document with the edges of planted_pair(40, 6, "s2")'s union and the given cycles."""
    c1, c2 = planted_pair(40, 6, "s2")
    path = tmp_path / "doc.json"
    path.write_text(json.dumps({
        "format_version": 1, "n": 40, "cycles": [list(c.order) for c in cycles], "meta": {},
        "edges": [list(e) for e in union([c1, c2]).edges()],
    }))
    return str(path)


def test_reduce_diagnose_routes_along_a_single_cycle(capsys, tmp_path):
    # the union needs a "connect" step, and the one cycle the document holds routes it
    c1, _ = planted_pair(40, 6, "s2")
    rc, rep = run_json(capsys, "reduce", "--input", _diagnose_doc(tmp_path, [c1]), "--diagnose")
    assert (rc, rep["ok"], rep["failed_step"]) == (0, True, None)


def test_reduce_diagnose_checks_every_cycle_of_three(capsys, tmp_path):
    # the third cycle is no cycle of the graph, so the document is refused
    c1, c2 = planted_pair(40, 6, "s2")
    rc = main(["reduce", "--input", _diagnose_doc(tmp_path, [c1, c2, random_pair(40, "zz")[0]]), "--diagnose"])
    out, err = capsys.readouterr()
    assert (rc, out) == (2, "")
    assert err == "error: each cycle must be a Hamiltonian cycle of the graph\n"


def test_reduce_diagnose_overlapping_k4s(capsys, tmp_path):
    path = tmp_path / "k5e.json"
    path.write_text(json.dumps({
        "format_version": 1, "n": 5, "cycles": [], "meta": {},
        "edges": [[a, b] for a in range(5) for b in range(a + 1, 5) if (a, b) != (3, 4)],
    }))
    rc, rep = run_json(capsys, "reduce", "--input", str(path), "--diagnose")
    assert rc == 0
    assert not rep["ok"]
    assert rep["failed_step"] == "archipelagos"
    assert len(rep["artifact"]["edges"]) == 9


def test_counterexample_document_claims(capsys, tmp_path):
    path = tmp_path / "cx.json"
    assert run(capsys, "construct", "counterexample", "--units", "3", "--out", str(path))[0] == 0
    rc, rep = run_json(capsys, "verify", "--input", str(path),
                       "--claim", "alpha=6", "--claim", "zeta=3")
    assert rc == 0 and rep["ok"]


def test_search_f_small(capsys):
    rc, rep = run_json(capsys, "search-f", "--n", "8", "--k", "2")
    assert rc == 0
    assert rep["value"] == 3 and rep["mode"] == "exhaustive"
    assert rep["examined"] == 2520
    assert len(rep["witnesses"]["cycles"]) == 3


def test_search_f_refuses_dense_search(capsys):
    rc = main(["search-f", "--n", "10", "--k", "4"])
    out, err = capsys.readouterr()
    assert (rc, out) == (2, "")
    assert err.startswith("error: ") and "180000 survivors" in err


def test_search_f_out_of_range(capsys):
    rc = main(["search-f", "--n", "14", "--k", "3"])
    out, err = capsys.readouterr()
    assert (rc, out) == (2, "")
    assert err == "error: n > 12 is out of exhaustive range; pass --lower-bound for a labeled bound\n"


@pytest.mark.parametrize("argv, message", [
    ("--n 2 --k -1", "need n >= 3"),
    ("--n 20 --k -1", "need k >= 0"),
    # past the document cap the witness document could not be parsed back
    ("--n 70000 --k 35000", "need n <= 65536, the largest n a witness document may declare"),
    ("--n 70000 --k 100 --lower-bound", "need n <= 65536, the largest n a witness document may declare"),
])
def test_search_f_checks_its_input_before_the_range(capsys, argv, message):
    # a bad input is named as such, not refused as out of exhaustive range
    rc = main(["search-f", *argv.split()])
    out, err = capsys.readouterr()
    assert (rc, out, err) == (2, "", f"error: {message}\n")


def test_search_f_has_no_workers_option(capsys):
    # the scan runs in one process, so the option is gone and argparse refuses it
    with pytest.raises(SystemExit) as exc:
        main(["search-f", "--n", "8", "--k", "2", "--workers", "2"])
    out, err = capsys.readouterr()
    assert (exc.value.code, out) == (2, "")
    assert "unrecognized arguments: --workers 2" in err


def test_search_f_refuses_before_it_builds(capsys, monkeypatch):
    def built(*args):
        raise AssertionError("a lower bound was built for a refused search")

    monkeypatch.setattr(search, "_construction_lower_bound", built)
    rc = main(["search-f", "--n", "3003", "--k", "1001"])
    out, err = capsys.readouterr()
    assert (rc, out) == (2, "")
    assert err == "error: n > 12 is out of exhaustive range; pass --lower-bound for a labeled bound\n"


def test_search_f_closed_form_beyond_enum_limit(capsys):
    # k >= n/2 is answered exactly at any n, so no --lower-bound is needed
    rc, rep = run_json(capsys, "search-f", "--n", "14", "--k", "7")
    assert rc == 0 and rep["mode"] == "exhaustive" and rep["value"] == 3113510400


def test_search_f_closed_form_past_the_digit_cap(capsys):
    # (n-1)!/2 has 5,732 digits: the report prints it, and the cap that
    # guards parsing is back in place afterwards
    cap = getattr(sys, "get_int_max_str_digits", lambda: 0)
    before = cap()
    rc, out = run(capsys, "search-f", "--n", "2000", "--k", "1000")
    assert rc == 0 and cap() == before
    rep = json.loads(out, parse_int=Decimal)
    assert rep["value"] == rep["witnesses"]["meta"]["f"] == Decimal(factorial(1999) // 2)
    assert rep["log"][-1].startswith(f"f(2000,1000) = {Decimal(factorial(1999) // 2)}: ")


def test_search_f_refuses_unknown_limit_key(capsys, monkeypatch):
    monkeypatch.setenv("TWOMILTON_LIMITS", "alpah=1")
    rc = main(["search-f", "--n", "8", "--k", "2"])
    out, err = capsys.readouterr()
    assert (rc, out) == (2, "")
    assert "unknown TWOMILTON_LIMITS key 'alpah'" in err


def test_search_f_lower_bound_mode(capsys):
    rc, rep = run_json(capsys, "search-f", "--n", "16", "--k", "4", "--lower-bound")
    assert rc == 0 and rep["mode"] == "lower-bound"


def test_strip_beyond_recursion_depth(capsys, tmp_path):
    # 1,000 K4 blocks: the cover and transversal searches go 1,000 levels deep
    path = str(tmp_path / "s1000.json")
    assert run(capsys, "construct", "strip", "--k", "1000", "--out", path)[0] == 0
    rc, rep = run_json(capsys, "cover", "--input", path)
    assert rc == 0 and len(rep["blocks"]) == 1000
    rc, rep = run_json(capsys, "verify", "--input", path, "--claim", "pairwise-k4-covered")
    assert rc == 0 and rep["ok"]
    rc, rep = run_json(capsys, "reduce", "--input", path)
    assert rc == 0 and rep["zeta"] == 1000 and rep["lift_demo"]["size"] == 1000
    rc, rep = run_json(capsys, "reduce", "--input", path, "--diagnose")
    assert rc == 0 and rep["ok"]


def test_nothree_n12(capsys):
    rc, rep = run_json(capsys, "nothree", "--n", "12")
    assert rc == 0 and rep["triples_found"] == 0


def test_nothree_takes_no_seed():
    # every pair is counted, so there is nothing to sample
    with pytest.raises(SystemExit) as err:
        main(["nothree", "--n", "8", "--seed", "3"])
    assert err.value.code == 2


def test_corpus_deterministic(capsys):
    args = ("corpus", "--kind", "pair", "--count", "3", "--n-min", "14",
            "--n-max", "20", "--seed", "cli")
    _, first = run(capsys, *args)
    _, second = run(capsys, *args)
    assert first == second
    docs = [json.loads(line) for line in first.splitlines()]
    assert len(docs) == 3
    assert all(14 <= d["n"] <= 20 and len(d["cycles"]) == 2 for d in docs)


def test_corpus_requires_seed(capsys):
    with pytest.raises(SystemExit) as err:
        main(["corpus", "--kind", "pair", "--count", "1"])
    assert err.value.code == 2


def test_corpus_johnson_kind(capsys):
    rc, out = run(capsys, "corpus", "--kind", "johnson", "--count", "2",
                  "--n-min", "40", "--n-max", "48", "--seed", "j")
    assert rc == 0
    for line in out.splitlines():
        rec = json.loads(line)
        assert rec["kind"] == "johnson" and rec["sets"]


@pytest.mark.parametrize("n, eps", [("0", "1/2"), ("-3", "1/2"), ("40", "3/2")])
def test_corpus_johnson_refuses_empty_ground_set_and_eps_over_1(capsys, n, eps):
    # at n <= 0 only empty sets qualify, and past eps = 1 the cap is negative
    rc = main(["corpus", "--kind", "johnson", "--count", "1", "--n-min", n, "--n-max", n,
               "--eps", eps, "--seed", "x"])
    out, err = capsys.readouterr()
    assert (rc, out) == (2, "")
    assert err.startswith("error: ")


@pytest.mark.parametrize("n", ["0", "2", "-3"])
def test_corpus_k4free_needs_three_vertices(capsys, n):
    # the generator starts from a Hamiltonian cycle, which needs 3 vertices
    rc = main(["corpus", "--kind", "k4free", "--count", "1", "--n-min", n, "--n-max", n, "--seed", "s"])
    out, err = capsys.readouterr()
    assert (rc, out) == (2, "")
    assert err == "error: need n >= 3\n"


@pytest.mark.parametrize("kind", ["pair", "k4free"])
@pytest.mark.parametrize("options", [["--x", "1/3"], ["--eps", "7"], ["--x", "1/4", "--eps", "1/2"]])
def test_corpus_johnson_options_are_johnson_only(capsys, kind, options):
    rc = main(["corpus", "--kind", kind, "--count", "1", "--seed", "g", *options])
    out, err = capsys.readouterr()
    assert (rc, out) == (2, "")
    assert err.startswith("error: ") and "--kind johnson" in err


def test_corpus_johnson_defaults_are_x_1_4_and_eps_1_2(capsys):
    argv = ("corpus", "--kind", "johnson", "--count", "1", "--n-min", "40", "--n-max", "40", "--seed", "d")
    rc, out = run(capsys, *argv)
    assert rc == 0 and out
    assert run(capsys, *argv, "--x", "1/4", "--eps", "1/2") == (rc, out)


def test_corpus_johnson_eps_1_gives_disjoint_sets(capsys):
    rc, out = run(capsys, "corpus", "--kind", "johnson", "--count", "1",
                  "--n-min", "40", "--n-max", "40", "--eps", "1", "--seed", "x")
    sets = json.loads(out)["sets"]
    assert rc == 0 and len(sets) > 1
    assert sum(map(len, sets)) == len(set().union(*sets))


def test_corpus_refuses_documents_over_the_reader_cap(capsys):
    # parse_family refuses n > 65,536, so the writer does too
    rc = main(["corpus", "--kind", "pair", "--count", "1", "--n-min", "65537", "--n-max", "65537",
               "--seed", "x"])
    out, err = capsys.readouterr()
    assert (rc, out) == (2, "")
    assert err.startswith("error: ")


def test_readme_commands_parse(capsys, monkeypatch, tmp_path):
    # every command line README.md shows is accepted by today's parser, and
    # in order (later lines read the files earlier ones write) each exits 0
    readme = Path(twomilton.__file__).parents[2] / "README.md"
    lines = [line for line in readme.read_text().splitlines() if line.startswith("twomilton ")]
    assert len(lines) >= 18
    parser = cli.build_parser()
    for line in lines:
        parser.parse_args(shlex.split(line)[1:])
    monkeypatch.chdir(tmp_path)
    for line in lines:
        assert (line, main(shlex.split(line)[1:])) == (line, 0)
    capsys.readouterr()


@pytest.mark.parametrize("name, default_n", [("exceptional", 8), ("circulant", 9)])
def test_construct_size_defaults_per_construction(capsys, name, default_n):
    rc, out = run(capsys, "construct", name)
    assert rc == 0
    assert json.loads(out)["n"] == default_n
    assert run(capsys, "construct", name, "--n", str(default_n)) == (0, out)


@pytest.mark.parametrize("n", [8, 12])
def test_exceptional_document_verifies(tmp_path, capsys, n):
    # the exceptional union carries an alpha certificate of n/4 vertices and
    # has n/4 - 1 K4s, so it has alpha = n/4 and no K4 cover
    path = str(tmp_path / f"exc{n}.json")
    assert run(capsys, "construct", "exceptional", "--n", str(n), "--out", path)[0] == 0
    rc, rep = run_json(capsys, "verify", "--input", path)
    assert rc == 0 and [r["claim"] for r in rep["claims"]] == ["embedded-alpha-certificate"]
    rc, rep = run_json(capsys, "verify", "--input", path,
                       "--claim", f"alpha={n // 4}", "--claim", f"zeta={n // 4 - 1}")
    assert rc == 0 and len(rep["claims"]) == 3 and rep["ok"]
    rc, rep = run_json(capsys, "verify", "--input", path, "--claim", "pairwise-k4-covered")
    assert rc == 1 and not rep["ok"] and not rep["claims"][-1]["ok"]


def test_amplify_requires_seed(capsys):
    with pytest.raises(SystemExit) as err:
        main(["construct", "amplify"])
    assert err.value.code == 2
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("argv", [
    "construct strip --n 12",
    "construct triple8 --k 5",
    "construct circulant --seed x",
    "construct counterexample --k 2",
    "construct exceptional --units 3",
    "construct amplify --seed x --n 9",
])
def test_construct_refuses_options_of_other_constructions(capsys, argv):
    # each construction reads only its own options; a foreign one is a usage error
    with pytest.raises(SystemExit) as err:
        main(argv.split())
    assert err.value.code == 2
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("argv", [
    "search-f --n 20 --k 5 --lower",
    "search-f --n 8 --k 2 --wor 2",
    "corpus --kind pair --cou 1 --n-mi 14 --n-ma 14 --seed x",
    "construct amplify --seed x --eps 1/0",
    "corpus --kind johnson --count 1 --x 1/0 --seed x",
])
def test_abbreviations_and_bad_fractions_are_usage_errors(capsys, argv):
    # no option is abbreviated, and a fraction option that divides by zero is
    # refused by the parser, not left to raise ZeroDivisionError (exit 1)
    with pytest.raises(SystemExit) as err:
        main(argv.split())
    assert err.value.code == 2
    assert capsys.readouterr().out == ""


def test_corpus_refuses_an_empty_size_range(capsys):
    rc = main("corpus --kind pair --count 1 --n-min 10 --n-max 5 --seed x".split())
    out, err = capsys.readouterr()
    assert (rc, out) == (2, "")
    assert "--n-min" in err and "--n-max" in err


@pytest.mark.parametrize("argv", [["bounds"], ["construct", "triple8"]])
def test_failed_out_write_leaves_stdout_empty(capsys, tmp_path, argv):
    rc = main(argv + ["--out", str(tmp_path / "missing" / "x")])
    out, err = capsys.readouterr()
    assert (rc, out) == (2, "")
    assert err.startswith("error: ")


@pytest.mark.parametrize("argv", [
    "corpus --kind pair --count -1 --seed x",
    "construct amplify --family-size -3 --seed x",
])
def test_negative_counts_are_usage_errors(capsys, argv):
    rc = main(argv.split())
    out, err = capsys.readouterr()
    assert (rc, out) == (2, "")
    assert err.startswith("error: ")


@pytest.mark.parametrize("argv", [
    "construct amplify --n0 9 --blocks 4 --family-size 3 --eps=-3/10 --seed x",
    "construct amplify --n0 9 --blocks 2 --family-size 10 --eps 3 --seed x",
    "construct amplify --eps 4/5 --seed x",
])
def test_amplify_eps_outside_its_range_is_refused(capsys, argv):
    # below 0 the bound would be false; from 1 - 1/k0 = 4/5 a chain may repeat
    rc = main(argv.split())
    out, err = capsys.readouterr()
    assert (rc, out) == (2, "")
    assert "eps must lie in [0, 1 - 1/k0)" in err


@pytest.mark.parametrize("extra, size", [([], 6), (["--eps", "0", "--family-size", "3"], 3)])
def test_amplify_eps_default_and_zero(capsys, extra, size):
    # at eps = 0 the cap is 4/5, so chains may not agree anywhere: at most
    # five of them fit on five base cycles
    rc, out = run(capsys, "construct", "amplify", "--seed", "x", *extra)
    assert rc == 0 and len(json.loads(out)["cycles"]) == size


def test_corpus_count_zero_is_an_empty_corpus(capsys):
    assert run(capsys, "corpus", "--kind", "pair", "--count", "0", "--seed", "x") == (0, "")


def test_bounds_table(capsys):
    rc, out = run(capsys, "bounds")
    assert rc == 0
    assert "45/169" in out and "0.26627" in out
    assert "11/30" in out and "0.36667" in out


def test_main_reads_sys_argv_by_default(capsys, monkeypatch):
    # the console script calls main() with no argument
    monkeypatch.setattr(sys, "argv", ["twomilton", "bounds"])
    assert main() == 0
    out = capsys.readouterr().out
    assert run(capsys, "bounds") == (0, out)


def test_bad_input_file(capsys, tmp_path):
    path = tmp_path / "junk.json"
    path.write_text("{not json")
    rc, _ = run(capsys, "alpha", "--input", str(path))
    assert rc == 2
    rc, _ = run(capsys, "alpha", "--input", str(tmp_path / "missing.json"))
    assert rc == 2


def assert_alpha_and_verify_refuse(capsys, path):
    # verify gets a claim, so that only a refused document can make it exit 2
    for argv in (["alpha"], ["verify", "--claim", "alpha>=0"]):
        rc = main([*argv, "--input", str(path)])
        out, err = capsys.readouterr()
        assert (rc, out) == (2, ""), argv[0]
        assert err.startswith("error: ") and "nothing to verify" not in err, argv[0]


# one malformed field each, put into an otherwise valid document
MALFORMED = {
    "cycles-number": {"cycles": 5},
    "cycle-number": {"cycles": [5]},
    "edges-number": {"edges": 5},
    "certificates-list": {"certificates": []},
    "certificate-alpha-number": {"certificates": {"alpha": 5}},
    "cycle-floats": {"cycles": [[0.5, 1.2, 2, 3]]},
    "cycle-bool": {"cycles": [[0, True, 2, 3]]},
    "edge-out-of-range": {"edges": [[0, 9]]},
    "edge-loop": {"edges": [[1, 1]]},
    "certificate-value-bool": {"certificates": {"alpha": {"value": True, "vertices": [0]}}},
    "certificate-value-float": {"certificates": {"alpha": {"value": 1.0, "vertices": [0]}}},
    "certificate-value-string": {"certificates": {"alpha": {"value": "1", "vertices": [0]}}},
    "certificate-no-value": {"certificates": {"alpha": {"vertices": [0, 2]}}},
    "certificate-no-vertices": {"certificates": {"alpha": {"value": 2}}},
    "certificate-vertex-out-of-range": {"certificates": {"alpha": {"value": 2, "vertices": [0, 4]}}},
}


@pytest.mark.parametrize("name", list(MALFORMED))
def test_malformed_document_is_an_input_error(capsys, tmp_path, name):
    doc = {"format_version": 1, "n": 4, "cycles": [[0, 1, 2, 3]], "meta": {}, **MALFORMED[name]}
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    assert_alpha_and_verify_refuse(capsys, path)


def test_huge_number_in_a_document_is_an_input_error(capsys, tmp_path):
    # the int-to-str digit cap stays on while a document is parsed
    path = tmp_path / "huge.json"
    path.write_text('{"format_version": 1, "n": ' + "9" * 5000 + ', "cycles": []}')
    assert_alpha_and_verify_refuse(capsys, path)


def test_deeply_nested_document_is_an_input_error(capsys, tmp_path):
    # json.loads raises RecursionError on this; parse_family makes it a ValueError
    path = tmp_path / "deep.json"
    path.write_text('{"format_version": 1, "n": 4, "cycles": [[0, 1, 2, 3]], "meta": '
                    + "[" * 100_000 + "]" * 100_000 + "}")
    assert_alpha_and_verify_refuse(capsys, path)


def test_corpus_pair_needs_four_vertices():
    # the triangle is the only cycle on 3 vertices, so no distinct pair exists;
    # a subprocess with a timeout, so that an endless search for one fails
    # instead of hanging
    src = os.path.dirname(os.path.dirname(twomilton.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    argv = ["corpus", "--kind", "pair", "--count", "1", "--n-min", "3", "--n-max", "3", "--seed", "x"]
    proc = subprocess.run([sys.executable, "-m", "twomilton.cli", *argv],
                          env=dict(os.environ, PYTHONPATH=path), capture_output=True, text=True, timeout=60)
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr.startswith("error: ")


def test_pair_out_of_range(capsys, triple8_doc):
    rc, _ = run(capsys, "alpha", "--input", triple8_doc, "--pair", "0", "9")
    assert rc == 2


def test_cli_import_loads_no_process_pool():
    # the scan runs in one process: neither importing the CLI nor a scan
    # that is passed workers=2 loads a process pool
    script = """
import contextlib, io, sys
import twomilton.cli
from twomilton.search import compute_f

compute_f(12, 3, workers=2)
with contextlib.redirect_stdout(io.StringIO()):
    rc = twomilton.cli.main(["search-f", "--n", "12", "--k", "3"])
print(rc, sorted(m for m in sys.modules if m.split(".")[0] in ("concurrent", "multiprocessing")))
"""
    src = os.path.dirname(os.path.dirname(twomilton.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", script], env=dict(os.environ, PYTHONPATH=path),
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "0 []"
