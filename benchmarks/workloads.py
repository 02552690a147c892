"""The four benchmark workloads: seeded inputs, the calls each query makes, and
the checks that verify every answer.

A workload's `build(seed, seconds, smoke)` does the set-up (input generation)
and returns its queries.  Each query is closed-loop: the runner sends the
next one only after the previous answer has been verified.  A query's `run`
makes its calls through the tracer, raises `CheckFailed` when a check fails
and returns its answer as plain JSON data.  Answers are compared with the
pinned values in expected.json by query id; the id names the whole input, so
a pin applies to every seed that generates that input.

The amount of work grows with `seconds`: each workload repeats a round of
queries (fresh seeded inputs per round) as many times as fit the nominal
round time measured at the seed commit (2 cores, Python 3.11), so a run does
the same work on every commit and a faster program finishes sooner.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import subprocess
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations
from pathlib import Path
from typing import Callable

from twomilton.bounds import family_stats, iterating_check, step_check
from twomilton.constructions import amplify, circulant_family, k4_strip, triple_n8
from twomilton.corpus import planted_pair, random_pair
from twomilton.graphs import (
    FamilyDocument,
    distinct_cycles,
    parse_family,
    serialize_family,
    standard_cycle,
    union,
)
from twomilton.independence import (
    AlphaSolver,
    alpha_exact,
    alpha_value,
    has_independent_set,
    verify_independent,
)
from twomilton.k4 import (
    check_cover,
    find_k4_cover,
    find_k4s,
    find_triangle_cover,
    psi_exact,
    zeta,
)
from twomilton.reduction import lift_independent, technical_reduce
from twomilton.search import compute_f, window_partners

WORKERS = min(2, os.cpu_count() or 1)


class CheckFailed(Exception):
    """A benchmark verdict failed: the program's answer is wrong."""


def check(ok: bool, what: str) -> None:
    if not ok:
        raise CheckFailed(what)


@dataclass
class Query:
    qid: str
    run: Callable  # run(tracer) -> answer
    # exact counters read outside the timed pass: () -> {name: count}
    untimed_counts: Callable | None = None


@dataclass
class Workload:
    queries: list[Query]
    env: dict = field(default_factory=dict)
    # run the passes on one processor, child processes included
    one_cpu: bool = False


def rounds_for(seconds: float, round_seconds: float) -> int:
    return max(1, round(seconds / round_seconds))


def canonical(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


# -- alpha-ladder -------------------------------------------------------------
# Why: independence does nearly all the work and the size ladder shows its
# exponential growth; search, k4 and reduction are not called, so a clique or
# scan change should leave this workload unchanged.

# queries per round by n.  An n=80 query costs 1 to 4.5 s, n=64 0.2 to 0.5 s
# and n=48 ~0.045 s; the 20 circulant unions (~3.4 s: n=45 10 to 80 ms, n=63
# 40 ms to 1.5 s) are the same in every run.  Below the n=48 pairs sit the
# n=45 unions, above them most n=63 unions and the n=64 and n=80 pairs, 21
# queries in all, so with 60 n=48 pairs per round the median query falls a
# little above the middle of the n=48 pairs and the tail (the 11th slowest)
# near the middle of the n=63/n=64 group: neither sits on the edge between
# two sizes or in the sparse top of a size.
ALPHA_LADDER_ROUND = ((48, 60), (64, 10), (80, 1))
ALPHA_LADDER_ROUND_S = 11.0
# The n=80 pair is the same for every seed: between random pairs its cost
# varies by 3x (the solver made 2.0M to 5.6M Python calls on five seeds), so
# a seeded one would move a run's wall_s and peak_rss_mb by up to a third.
ALPHA_LADDER_UNSEEDED = (80,)


def alpha_answer(tr, g, label: str) -> dict:
    """alpha_exact with its certificate checked, then both decision directions."""
    cert = tr.call(f"independence.alpha_exact.{label}", alpha_exact, g)
    check(cert.value == len(cert.vertices), "certificate size differs from value")
    check(verify_independent(g, cert.vertices), "certificate is not independent")
    check(tr.call("independence.has_independent_set", has_independent_set, g, cert.value),
          f"has_independent_set(g, {cert.value}) is false")
    check(not tr.call("independence.has_independent_set", has_independent_set, g, cert.value + 1),
          f"has_independent_set(g, {cert.value + 1}) is true")
    return {"alpha": cert.value, "certificate": list(cert.vertices)}


def memo_entries(g) -> dict:
    solver = AlphaSolver(g)
    solver.alpha()
    return {"independence.memo_entries": len(solver.memo)}


def _alpha_query(qid: str, g, label: str) -> Query:
    return Query(qid, lambda tr: alpha_answer(tr, g, label), lambda: memo_entries(g))


def build_alpha_ladder(seed: int, seconds: float, smoke: bool = False) -> Workload:
    queries = []
    circ_sizes = (45,) if smoke else (45, 63)
    for n in circ_sizes:
        fam = circulant_family(n)
        pairs = list(combinations(range(len(fam)), 2))[: 2 if smoke else None]
        for i, j in pairs:
            queries.append(_alpha_query(f"circulant:{n}:{i}-{j}", union([fam[i], fam[j]]), f"c{n}"))
    ladder = ((48, 1),) if smoke else ALPHA_LADDER_ROUND
    for r in range(1 if smoke else rounds_for(seconds, ALPHA_LADDER_ROUND_S)):
        for n, count in ladder:
            for i in range(count):
                tag = f"{r}:{i}" if n in ALPHA_LADDER_UNSEEDED else f"{seed}:{r}:{i}"
                queries.append(_alpha_query(f"pair:{n}:{tag}", union(random_pair(n, tag)), f"n{n}"))
    random.Random(f"alpha-ladder:{seed}").shuffle(queries)
    # the documented override: alpha_exact supports n <= 64 by default
    return Workload(queries, env={"TWOMILTON_LIMITS": "alpha=80"})


# -- fsearch ------------------------------------------------------------------
# Why: the entries with n <= 8 are bound by the max clique, those with n >= 10
# by the pinned-cycle scan, so a change to one shows on half the table only;
# the witness re-checks call alpha on tiny graphs (per-call overhead).

# (n, k, workers): n <= 8 is clique-bound, n >= 10 scan-bound.  f(4,1) = 3,
# f(8,2) = 3 and f(12,3) = 2 are the README's values; the others are pinned
# regression values, verified only from below by their witness families.
# The order is fixed.  f(10,2) (~0.19 s) is asked 20 times, spread over the
# run, and the clique-bound f(4,1), f(7,2) and f(8,2) (<= 11 ms) three times
# each: of the 32 queries the median and the tail (the 22nd, with ten beyond
# it) are then both order statistics of the f(10,2) samples, not one short
# sample or the single 27 s f(6,2) call.
F_BLOCK = ((4, 1, 1), (10, 2, 1), (7, 2, 1), (10, 2, 1), (8, 2, 1),
           (10, 2, 1), (10, 2, 1), (10, 2, 1), (10, 2, 1))
F_TABLE = (*F_BLOCK, (6, 2, 1), *F_BLOCK, (11, 3, WORKERS), *F_BLOCK, (12, 3, WORKERS),
           (10, 2, 1), (10, 2, 1))
F_SMOKE = ((7, 2, 1), (8, 2, 1))
F_TABLE_S = 47.0
SCAN_BOUND_MIN_N = 10


def f_answer(tr, n: int, k: int, workers: int) -> dict:
    res = tr.call(f"search.f_{n}_{k}", compute_f, n, k, workers=workers)
    check(res.mode == "exhaustive", f"mode {res.mode!r}")
    check(res.value == len(res.witnesses), "witness family size differs from f")
    check(all(c.n == n for c in res.witnesses), "witness on the wrong vertex count")
    check(distinct_cycles(res.witnesses), "witness cycles repeat")
    for a, b in combinations(res.witnesses, 2):
        g = tr.call("graphs.union", union, [a, b])
        check(tr.call("independence.alpha_value", alpha_value, g) <= k,
              "witness pair has alpha > k")
    tr.count("search.examined", res.examined)
    if n >= SCAN_BOUND_MIN_N:
        tr.count("search.scan_examined", res.examined)
    return {
        "f": res.value,
        "witnesses": [list(c.order) for c in res.witnesses],
        "examined": res.examined,
    }


def build_fsearch(seed: int, seconds: float, smoke: bool = False) -> Workload:
    queries = []
    table = F_SMOKE if smoke else F_TABLE
    # the table is the input; the seed changes nothing here
    for _ in range(1 if smoke else rounds_for(seconds, F_TABLE_S)):
        for n, k, w in table:
            queries.append(Query(f"f:{n}:{k}",
                                 lambda tr, n=n, k=k, w=w: f_answer(tr, n, k, w)))
    return Workload(queries)


# -- structure ----------------------------------------------------------------
# Why: k4, reduction and bounds do their work only here, and alpha runs on
# K4-free remainders and mid-size graphs, unlike the random unions of
# alpha-ladder.

# A round: ten planted pairs, two window partners and one circulant triangle
# cover; amplify every AMPLIFY_EVERY rounds and the bounds checkers on
# circulant_family(45) (~0.1 s, seed-independent) every BOUNDS_EVERY rounds,
# so that reduction and alpha on the remainders carry most of the time.  The
# slowest queries are planted pairs with a large remainder (0.1 s to 0.3 s),
# just above the bounds checkers; with ten planted pairs a round there are
# about twenty of them, so the tail (the 11th slowest query) falls among them
# rather than on the edge between them and the bounds checkers.
STRUCTURE_ROUND_S = 0.11
PLANTED_PER_ROUND = 10
PARTNERS_PER_ROUND = 2
AMPLIFY_EVERY = 4
BOUNDS_EVERY = 10
TRIANGLE_SIZES = (9, 15, 21, 45, 63)
STEP_EPS = Fraction(1, 10)
ITER_X, ITER_EPS = Fraction(1, 4), Fraction(1, 2)
AMPLIFY_BLOCKS, AMPLIFY_SIZE = 4, 6


def planted_answer(tr, c1, c2, planted: int) -> dict:
    g = tr.call("graphs.union", union, [c1, c2])
    k4s = tr.call("k4.find_k4s", find_k4s, g)
    tr.count("k4.k4s_found", len(k4s))
    check(len(k4s) >= planted, f"{len(k4s)} K4s found, {planted} planted")
    res = tr.call("reduction.technical_reduce", technical_reduce, c1, c2)
    check(res.zeta == len(k4s), "reduction removed a different number of K4s")
    check(bool(res.postconditions) and all(res.postconditions.values()),
          f"postconditions {res.postconditions}")
    check(res.h.n == g.n - 4 * res.zeta, "remainder size is not n - 4 zeta")
    for step in res.trace:
        tr.count("reduction.steps." + step.step.split("-")[0])
    tr.count("reduction.k4s_removed", res.zeta)
    tr.count("reduction.remainder_vertices", res.h.n)
    ah = alpha_answer(tr, res.h, "remainder")
    lifted = tr.call("reduction.lift_independent", lift_independent, res, ah["certificate"])
    check(len(lifted) == ah["alpha"] + res.zeta, "lift size is not |I_h| + zeta")
    check(verify_independent(g, lifted), "lifted set is not independent")
    return {"zeta": res.zeta, "h_n": res.h.n, "alpha_h": ah["alpha"]}


def partner_answer(tr, std, partner) -> dict:
    g = tr.call("graphs.union", union, [std, partner])
    z = tr.call("k4.zeta", zeta, g)
    check(z == g.n // 4, f"zeta {z} of a window-partner union is not n/4")
    cover = tr.call("k4.find_k4_cover", find_k4_cover, g)
    check(cover is not None and check_cover(g, cover, 4), "no valid K4 cover")
    psi = tr.call("k4.psi_exact", psi_exact, g)
    return {"zeta": z, "k4_cover": True, "psi": psi}


def triangle_answer(tr, n: int, i: int, j: int) -> dict:
    fam = tr.call("constructions.circulant_family", circulant_family, n)
    g = tr.call("graphs.union", union, [fam[i], fam[j]])
    cover = tr.call("k4.find_triangle_cover", find_triangle_cover, g)
    check(cover is not None and check_cover(g, cover, 3), "no valid triangle cover")
    return {"triangle_cover": True}


def bounds_answer(tr) -> dict:
    fam = tr.call("constructions.circulant_family", circulant_family, 45)
    stats = tr.call("bounds.family_stats", family_stats, fam)
    check(all(a <= 15 for *_, a in stats.table), "a circulant pair has alpha > n/3")
    step = tr.call("bounds.step_check", step_check, stats, STEP_EPS)
    check(step.ok, "step_check conclusion fails")
    it = tr.call("bounds.iterating_check", iterating_check, stats, ITER_X, ITER_EPS)
    check(it.ok, "iterating_check conclusion fails")
    return {
        "table": [list(row) for row in stats.table],
        "step": [step.hypothesis_holds, list(step.subfamily), step.ok],
        "iterating": [it.hypothesis_holds, it.alpha_aux, str(it.alpha_cap),
                      list(it.dense_subfamily), it.ok],
    }


def amplify_answer(tr, tag: str) -> dict:
    base = tr.call("constructions.circulant_family", circulant_family, 9)
    res = tr.call("constructions.amplify", amplify, base, AMPLIFY_BLOCKS, AMPLIFY_SIZE, seed=tag)
    check(len(res.cycles) == AMPLIFY_SIZE and distinct_cycles(res.cycles), "family size")
    check(all(c.n == res.n == 9 * AMPLIFY_BLOCKS for c in res.cycles), "cycle size")
    alphas = []
    for a, b in combinations(res.cycles, 2):
        g = tr.call("graphs.union", union, [a, b])
        alphas.append(tr.call("independence.alpha_value", alpha_value, g))
    check(max(alphas) <= res.bound, f"pairwise alpha {max(alphas)} above bound {res.bound}")
    return {"chains": [list(c) for c in res.chains], "alphas": alphas, "bound": str(res.bound)}


def build_structure(seed: int, seconds: float, smoke: bool = False) -> Workload:
    partners = window_partners(24)
    std = standard_cycle(24)
    queries = []
    rounds = 1 if smoke else rounds_for(seconds, STRUCTURE_ROUND_S)
    for r in range(rounds):
        tag = f"{seed}:{r}"
        rng = random.Random(f"structure:{tag}")
        # The sizes do not depend on the seed, only the graphs do: alpha on
        # the remainder grows exponentially with n - 4k, so a seed that drew
        # a few more large remainders would change the run's work by ~15%.
        sizes = random.Random(f"structure-sizes:{r}")
        for i in range(PLANTED_PER_ROUND):
            n = sizes.randint(14, 64)
            k = sizes.randint(1, n // 6)
            c1, c2 = planted_pair(n, k, f"{tag}:{i}")
            queries.append(Query(f"planted:{n}:{k}:{tag}:{i}",
                                 lambda tr, c1=c1, c2=c2, k=k: planted_answer(tr, c1, c2, k)))
        for _ in range(PARTNERS_PER_ROUND):
            idx = rng.randrange(len(partners))
            queries.append(Query(f"partner:24:{idx}",
                                 lambda tr, p=partners[idx]: partner_answer(tr, std, p)))
        n = TRIANGLE_SIZES[r % len(TRIANGLE_SIZES)]
        i, j = rng.sample(range(5), 2)
        queries.append(Query(f"triangle:{n}:{min(i, j)}-{max(i, j)}",
                             lambda tr, n=n, i=i, j=j: triangle_answer(tr, n, i, j)))
        if r % BOUNDS_EVERY == 0:
            queries.append(Query("bounds:circulant45", bounds_answer))
        if r % AMPLIFY_EVERY == 0:
            queries.append(Query(f"amplify:9:{AMPLIFY_BLOCKS}:{AMPLIFY_SIZE}:{tag}",
                                 lambda tr, tag=tag: amplify_answer(tr, f"bench:{tag}")))
    random.Random(f"structure-order:{seed}").shuffle(queries)
    return Workload(queries)


# -- cli ----------------------------------------------------------------------
# Why: interpreter start and `import twomilton` are most of each ~0.25 s
# call, so import, parse and emit changes move this workload and solver
# changes do not.

CLI_ROUND_S = 3.3
CLI_TIMEOUT_S = 120
# malformed documents: each must be refused with exit code 2 and no output
MALFORMED = {
    "not-json": "{\"format_version\": 1, \"n\": 8,",
    "bad-version": "{\"format_version\": 7, \"n\": 8, \"cycles\": []}",
    "short-cycle": "{\"format_version\": 1, \"n\": 8, \"cycles\": [[0, 1, 2, 3]]}",
    "not-permutation": "{\"format_version\": 1, \"n\": 4, \"cycles\": [[0, 1, 1, 3]]}",
}


def cli_documents() -> dict[str, FamilyDocument]:
    return {
        "t8": FamilyDocument(8, triple_n8(), {}, {"construction": "triple8"}),
        "c9": FamilyDocument(9, circulant_family(9), {}, {"construction": "circulant"}),
        "s4": FamilyDocument(16, k4_strip(4), {}, {"construction": "strip"}),
    }


def _stdout_json(text: str) -> dict:
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise CheckFailed(f"stdout is not JSON: {exc}") from None


def _check_construct(tr, out: str, doc_check) -> None:
    doc = tr.call("graphs.parse_family", parse_family, out)
    check(tr.call("graphs.serialize_family", serialize_family, doc) == out,
          "construct output is not in canonical form")
    doc_check(doc)


def _check_alpha(g):
    def chk(tr, out: str):
        rep = _stdout_json(out)
        check(rep["value"] == len(rep["certificate"]), "alpha value differs from certificate size")
        check(verify_independent(g, rep["certificate"]), "alpha certificate is not independent")
        check(has_independent_set(g, rep["value"] + 1) is False, "alpha is not maximum")
    return chk


def _check_zeta(tr, out: str) -> None:
    rep = _stdout_json(out)
    check(rep["value"] == len(rep["k4s"]) == 4, "zeta of strip 4 is not 4")


def _check_cover(g):
    def chk(tr, out: str):
        rep = _stdout_json(out)
        check(rep["found"] and check_cover(g, rep["blocks"], 4), "K4 cover is not valid")
    return chk


def _check_verify(expect_ok: bool):
    def chk(tr, out: str):
        rep = _stdout_json(out)
        check(rep["ok"] is expect_ok, f"verify reported ok={rep['ok']}")
    return chk


def _check_reduce(tr, out: str) -> None:
    rep = _stdout_json(out)
    check(all(rep["postconditions"].values()), "reduce postconditions")
    demo = rep["lift_demo"]
    check(demo["size"] == len(demo["remainder_set"]) + rep["zeta"], "lift size")


def _check_search_f(tr, out: str) -> None:
    rep = _stdout_json(out)
    check(rep["value"] == 3 and rep["mode"] == "exhaustive", "f(8,2) is not 3")
    check(len(rep["witnesses"]["cycles"]) == 3, "witness family size")


def _check_bounds(tr, out: str) -> None:
    check("45/169" in out and "11/30" in out, "threshold constants missing")


def _no_check(tr, out: str) -> None:
    check(out == "", "refused input produced output")


def stdout_digest(subcommand: str, out: str) -> str:
    """sha256 of stdout; search-f's elapsed_seconds is a timing, so it is dropped."""
    if subcommand == "search-f":
        rep = json.loads(out)
        rep.pop("elapsed_seconds", None)
        out = canonical(rep)
    return hashlib.sha256(out.encode()).hexdigest()


def cli_answer(tr, argv, expect_code: int, out_check, child_env, cwd) -> dict:
    sub = argv[0]
    proc = tr.call(
        f"cli.{sub}", subprocess.run,
        [sys.executable, "-m", "twomilton.cli", *argv],
        capture_output=True, text=True, env=child_env, cwd=cwd, timeout=CLI_TIMEOUT_S,
    )
    check(proc.returncode == expect_code,
          f"exit code {proc.returncode}, expected {expect_code}: {proc.stderr.strip()[-200:]}")
    out_check(tr, proc.stdout)
    return {"exit": proc.returncode, "stdout_sha256": stdout_digest(sub, proc.stdout)}


def child_environment(src: Path) -> dict:
    env = dict(os.environ)
    env.pop("TWOMILTON_LIMITS", None)
    env["PYTHONPATH"] = str(src)
    return env


def build_cli(seed: int, seconds: float, smoke: bool = False, *, src: Path, workdir: Path) -> Workload:
    docs = cli_documents()
    workdir.mkdir(parents=True, exist_ok=True)
    for name, doc in docs.items():
        (workdir / f"{name}.json").write_text(serialize_family(doc))
    for name, text in MALFORMED.items():
        (workdir / f"bad-{name}.json").write_text(text)
    child_env = child_environment(src)

    def path(name):
        return str(workdir / f"{name}.json")

    constructs = [
        (["construct", "triple8"], lambda d: check(len(d.cycles) == 3, "triple8 size")),
        (["construct", "circulant", "--n", "9"], lambda d: check(len(d.cycles) == 5, "circulant size")),
        (["construct", "strip", "--k", "4"],
         lambda d: check(verify_independent(d.graph(), d.certificates["alpha"]["vertices"]),
                         "strip certificate")),
        (["construct", "counterexample", "--units", "3"],
         lambda d: check(verify_independent(d.graph(), d.certificates["alpha"]["vertices"]),
                         "counterexample certificate")),
    ]
    queries = []
    rounds = 1 if smoke else rounds_for(seconds, CLI_ROUND_S)
    for r in range(rounds):
        rng = random.Random(f"cli:{seed}:{r}")
        commands = []  # (display argv, real argv, expected exit code, output check)
        for argv, doc_check in constructs:
            commands.append((argv, argv, 0,
                             lambda tr, out, dc=doc_check: _check_construct(tr, out, dc)))
        ai, aj = sorted(rng.sample(range(5), 2))
        ci, cj = sorted(rng.sample(range(3), 2))
        pair_cmds = [("alpha", "c9", ai, aj, _check_alpha), ("cover", "t8", ci, cj, _check_cover)]
        for sub, doc, i, j, make_check in pair_cmds:
            g = union([docs[doc].cycles[i], docs[doc].cycles[j]])
            tail = ["--pair", str(i), str(j)]
            commands.append(([sub, doc, *tail], [sub, "--input", path(doc), *tail], 0, make_check(g)))
        commands.append((["zeta", "s4"], ["zeta", "--input", path("s4")], 0, _check_zeta))
        holds = ["--claim", "pairwise-alpha<=3", "--claim", "pairwise-triangle-covered"]
        fails = ["--claim", "pairwise-alpha<=2"]
        commands.append((["verify", "c9", *holds], ["verify", "--input", path("c9"), *holds],
                         0, _check_verify(True)))
        commands.append((["verify", "c9", *fails], ["verify", "--input", path("c9"), *fails],
                         1, _check_verify(False)))
        bad = rng.choice(sorted(MALFORMED))
        commands.append((["alpha", f"bad-{bad}"], ["alpha", "--input", path(f"bad-{bad}")],
                         2, _no_check))
        commands.append((["reduce", "s4"], ["reduce", "--input", path("s4")], 0, _check_reduce))
        commands.append((["search-f", "--n", "8", "--k", "2"], ["search-f", "--n", "8", "--k", "2"],
                         0, _check_search_f))
        commands.append((["bounds"], ["bounds"], 0, _check_bounds))
        for shown, argv, code, chk in commands:
            queries.append(Query(
                "cli:" + " ".join(shown),
                lambda tr, argv=argv, code=code, chk=chk: cli_answer(
                    tr, argv, code, chk, child_env, workdir),
            ))
    random.Random(f"cli-order:{seed}").shuffle(queries)
    # every query is a child process (see run.one_cpu)
    return Workload(queries, one_cpu=True)

