"""The benchmark's answers and checks, run against this tree's package.

benchmarks/workloads.py verifies every answer the benchmark gets and compares
it with benchmarks/expected.json.  Running a few of its queries here means a
package change that breaks the benchmark's imports, its checks or its pinned
answers fails the test suite too.  The benchmark files are only read.
"""

import importlib.util
import json
import sys
from pathlib import Path

import twomilton

BENCH = Path(twomilton.__file__).parents[2] / "benchmarks"


def _load(name, monkeypatch):
    # no bytecode cache is written next to the benchmark files
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    # dataclasses looks the module up by name while the class is built
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def test_benchmark_answers_match_expected(monkeypatch):
    workloads = _load("workloads", monkeypatch)
    tracer = _load("tracing", monkeypatch).Tracer(False)
    expected = json.loads((BENCH / "expected.json").read_text())["answers"]
    fam = workloads.circulant_family(45)
    for i in range(len(fam)):
        for j in range(i + 1, len(fam)):
            g = workloads.union([fam[i], fam[j]])
            assert workloads.alpha_answer(tracer, g, "c45") == expected[f"circulant:45:{i}-{j}"]
    for n, k in ((7, 2), (8, 2)):
        assert workloads.f_answer(tracer, n, k, 1) == expected[f"f:{n}:{k}"]


def test_benchmark_structure_answers_match_expected(monkeypatch):
    # the structure workload as the benchmark builds it at seed 0 (its
    # set-up draws every planted pair), then a few of its queries of each
    # kind, and the f(11, 3) scan, whose workers=2 selects nothing: the scan
    # runs in one process
    workloads = _load("workloads", monkeypatch)
    tracer = _load("tracing", monkeypatch).Tracer(False)
    expected = json.loads((BENCH / "expected.json").read_text())["answers"]
    queries = workloads.build_structure(0, 12).queries
    wanted = {"planted": 5, "partner": 1, "triangle": 1, "bounds": 1, "amplify": 1}
    for q in queries:
        kind = q.qid.split(":")[0]
        if wanted[kind]:
            wanted[kind] -= 1
            assert workloads.canonical(q.run(tracer)) == workloads.canonical(expected[q.qid]), q.qid
    assert not any(wanted.values()), wanted
    assert workloads.f_answer(tracer, 11, 3, 2) == expected["f:11:3"]
