"""Command-line toolkit over family documents.

Exit codes: 0 = all claims verified, 1 = a claim falsified (a reproducer is
printed), 2 = usage or input errors.  Family documents go to stdout in the
canonical JSON form; reports are plain JSON.  All randomness sits behind a
mandatory --seed, so every run reproduces from its command line.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from itertools import combinations

import twomilton

# every command parses documents and build_parser reads DEFAULTS, so only these
# load with this module; each command reaches its solvers through the package's
# exports, which load their submodule on first use, so a process loads no module
# that its command does not use.  The package's records are NamedTuples, so no
# process loads the standard library's data-class machinery (and the inspect,
# ast, dis and tokenize it imports)
from .graphs import FamilyDocument, VerificationError, family_payload, parse_family, serialize_family, union
from .limits import DEFAULTS, limit


def _load_doc(path: str) -> FamilyDocument:
    if path == "-":
        return parse_family(sys.stdin.read())
    with open(path) as f:
        return parse_family(f.read())


def _graph_for(doc: FamilyDocument, pair):
    if pair is not None:
        i, j = pair
        if not (0 <= i < len(doc.cycles) and 0 <= j < len(doc.cycles)) or i == j:
            raise ValueError(f"bad pair ({i},{j}) for a document with {len(doc.cycles)} cycles")
        return union([doc.cycles[i], doc.cycles[j]])
    if not doc.cycles and doc.edges is None:
        raise ValueError("document has neither cycles nor an edge payload")
    return doc.graph()


def _fraction(text):
    """An exact fraction option such as 1/4 or 0.25; anything else is a usage error."""
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"not a fraction: {text!r}") from None


def _alpha(g, args):
    cert = twomilton.alpha_exact(g)
    return {"value": cert.value, "certificate": list(cert.vertices)}, 0


def _zeta(g, args):
    k4s = twomilton.find_k4s(g)
    return {"value": len(k4s), "k4s": [list(q) for q in k4s]}, 0


def _psi(g, args):
    return {"value": twomilton.psi_exact(g)}, 0


def _cover(g, args):
    blocks = twomilton.find_triangle_cover(g) if args.triangles else twomilton.find_k4_cover(g)
    kind = "triangle" if args.triangles else "k4"
    if blocks is None:
        return {"kind": kind, "found": False, "blocks": None}, 1
    return {"kind": kind, "found": True, "blocks": [list(b) for b in blocks]}, 0


# name -> (help, function of (graph, args) giving the report's own fields and the exit code)
_GRAPH_COMMANDS = {
    "alpha": ("exact alpha of a document graph", _alpha),
    "zeta": ("exact zeta of a document graph", _zeta),
    "psi": ("exact psi of a document graph", _psi),
    "cover": ("find a K4 (or triangle) cover", _cover),
}


def cmd_graph(args):
    g = _graph_for(_load_doc(args.input), args.pair)
    fields, code = _GRAPH_COMMANDS[args.command][1](g, args)
    return {"command": args.command, "n": g.n, "pair": args.pair, **fields}, code


def cmd_reduce(args):
    doc = _load_doc(args.input)
    if args.diagnose:
        payload = {"command": "reduce", "diagnose": True, "ok": True, "failed_step": None, "reason": None}
        try:
            twomilton.diagnose_reduction(_graph_for(doc, None), doc.cycles or None)
        except twomilton.StructureViolation as exc:
            payload.update(ok=False, failed_step=exc.step, reason=exc.reason,
                           artifact=family_payload(exc.artifact))
        return payload, 0
    if len(doc.cycles) != 2:
        raise ValueError("reduce needs a document with two cycles")
    if doc.graph() != union(doc.cycles):
        raise ValueError("the edge payload must be the union of the two cycles")
    result = twomilton.technical_reduce(doc.cycles[0], doc.cycles[1])
    cert = twomilton.alpha_exact(result.h)
    lifted = twomilton.lift_independent(result, cert.vertices)
    return {
        "command": "reduce", "n": result.g.n, "zeta": result.zeta,
        "remainder_vertices": result.h.n, "remainder_edges": result.h.edge_count(),
        "trace": [
            {"step": t.step, "archipelago": list(t.archipelago),
             "added_edge": None if t.added_edge is None else list(t.added_edge)}
            for t in result.trace
        ],
        "postconditions": result.postconditions,
        "lift_demo": {"remainder_set": list(cert.vertices), "lifted_set": list(lifted), "size": len(lifted)},
    }, 0


def _doc_with_alpha(n, cycles, vertices, meta, edges=None):
    vertices = sorted(vertices)
    certificates = {"alpha": {"value": len(vertices), "vertices": vertices}}
    doc = FamilyDocument(n, tuple(cycles), certificates, meta, edges)
    if not twomilton.verify_independent(doc.graph(), vertices):
        raise VerificationError(f"alpha certificate {vertices} is not independent")
    return doc


def _strip(args):
    meta = {"construction": "strip", "k": args.k}
    return _doc_with_alpha(4 * args.k, twomilton.k4_strip(args.k), range(0, 4 * args.k, 4), meta)


def _triple8(args):
    return FamilyDocument(8, twomilton.triple_n8(), {}, {"construction": "triple8"})


def _circulant(args):
    meta = {"construction": "circulant", "pairwise_alpha_at_most": args.n // 3}
    return FamilyDocument(args.n, twomilton.circulant_family(args.n), {}, meta)


def _counterexample(args):
    g = twomilton.counterexample_strip(args.units)
    return _doc_with_alpha(
        g.n, (), [b for i in range(args.units) for b in (8 * i, 8 * i + 6)],
        {"construction": "counterexample", "units": args.units},
        edges=tuple(g.edges()),
    )


def _amplify(args):
    res = twomilton.amplify(twomilton.circulant_family(args.n0), args.blocks, args.family_size,
                            seed=args.seed, eps=args.eps)
    return FamilyDocument(
        res.n, res.cycles, {},
        {
            "construction": "amplify", "base": f"circulant-{args.n0}",
            "blocks": args.blocks, "seed": args.seed, "eps": str(args.eps),
            "agreement_cap": res.agreement_cap, "pairwise_alpha_bound": str(res.bound),
            "chains": [list(c) for c in res.chains],
        },
    )


def _exceptional(args):
    cycles = twomilton.find_exceptional(args.n)
    g = union(cycles)
    meta = {"construction": "exceptional", "zeta": twomilton.zeta(g)}
    return _doc_with_alpha(args.n, cycles, twomilton.alpha_exact(g).vertices, meta)


# the construct command's constructions: name -> (help, builder, the options
# it reads as {flag: add_argument keywords}); each gets its own subparser, so
# an option of another construction is a usage error
_CONSTRUCTIONS = {
    "strip": ("k disjoint K4s in a ring on 4k vertices, alpha = k", _strip, {
        "--k": {"type": int, "default": 3, "help": "block count (default 3)"},
    }),
    "triple8": ("three cycles on 8 vertices, every pairwise union K4-covered", _triple8, {}),
    "circulant": ("five cycles, every pairwise union triangle-covered", _circulant, {
        "--n": {"type": int, "default": 9, "help": "size: odd, divisible by 3, >= 9 (default 9)"},
    }),
    "counterexample": ("a 4-regular graph, not two cycles, that the K4 reduction fails on",
                       _counterexample, {
        "--units": {"type": int, "default": 2, "help": "unit count, >= 2 (default 2)"},
    }),
    "amplify": ("chain products of the circulant family", _amplify, {
        "--n0": {"type": int, "default": 9, "help": "circulant base size (default 9)"},
        "--blocks": {"type": int, "default": 4, "help": "block count, even (default 4)"},
        "--family-size": {"type": int, "default": 6, "help": "output family size (default 6)"},
        "--eps": {"type": _fraction, "default": "1/4", "help": "agreement slack (default 1/4)"},
        "--seed": {"required": True, "help": "mandatory: the chain draws follow it"},
    }),
    "exceptional": ("a union with alpha = n/4 but only n/4 - 1 K4s", _exceptional, {
        "--n": {"type": int, "default": 8, "help": "8 or 12 (default 8)"},
    }),
}


def cmd_construct(args):
    return serialize_family(_CONSTRUCTIONS[args.name][1](args)), 0


# claim keys -> the package export that evaluates them on a graph (and a cover's label)
_QUANTITIES = {"alpha": "alpha_value", "zeta": "zeta", "psi": "psi_exact"}
_COVERS = {"k4-covered": ("find_k4_cover", "K4"), "triangle-covered": ("find_triangle_cover", "triangle")}


def _parse_claim(claim: str):
    """(pairwise, key, op, want) for one claim string; ValueError if it is none.

    A cover claim has key "k4-covered" or "triangle-covered" and op None; a
    value claim has key alpha, zeta or psi and op one of <=, >=, =.
    """
    pairwise = claim.startswith("pairwise-")
    body = claim[len("pairwise-"):] if pairwise else claim
    if pairwise and body in _COVERS:
        return pairwise, body, None, None
    for op in ("<=", ">=", "="):
        if op in body:
            key, _, raw = body.partition(op)
            try:
                want = int(raw)
            except ValueError:
                raise ValueError(f"claim {claim!r}: bad claim value {raw!r}") from None
            if key not in _QUANTITIES:
                raise ValueError(f"claim {claim!r}: unknown quantity {key!r}")
            return pairwise, key, op, want
    raise ValueError(f"unparseable claim {claim!r}")


def _check_claim(doc: FamilyDocument, parsed):
    """Returns (ok, detail) for one claim parsed by _parse_claim."""
    pairwise, key, op, want = parsed
    if pairwise:
        m = len(doc.cycles)
        count = m * (m - 1) // 2
        # one union at a time: a claim that fails early builds no more of them
        targets = ((f"pair ({i},{j})", union([a, b])) for (i, a), (j, b) in combinations(enumerate(doc.cycles), 2))
    else:
        count, targets = 1, [("graph", _graph_for(doc, None))]
    if op is None:
        export, label = _COVERS[key]
        find_cover = getattr(twomilton, export)
        for name, g in targets:
            if find_cover(g) is None:
                return False, f"{name} has no {label} cover"
        return True, f"{count} pairs {label}-covered"
    fn = getattr(twomilton, _QUANTITIES[key])
    for name, g in targets:
        got = fn(g)
        ok = got <= want if op == "<=" else got >= want if op == ">=" else got == want
        if not ok:
            return False, f"{name}: {key} is {got}, claim was {key}{op}{want}"
    return True, f"{key}{op}{want} on {count} graph(s)"


def cmd_verify(args):
    # every claim is parsed before any work: a malformed one is a usage error
    claims = [(claim, _parse_claim(claim)) for claim in args.claim or []]
    doc = _load_doc(args.input)
    if len(doc.cycles) < 2 and any(pairwise for _, (pairwise, *_) in claims):
        raise ValueError("pairwise claim on a document with fewer than two cycles")
    cert = doc.certificates.get("alpha")
    if cert is None and not claims:
        raise ValueError("nothing to verify: pass --claim or a document with an alpha certificate")
    results = []
    if cert is not None:
        value, vs = cert["value"], cert["vertices"]
        good = len(vs) == value and twomilton.verify_independent(_graph_for(doc, None), vs)
        results.append({"claim": "embedded-alpha-certificate", "ok": good,
                        "detail": f"alpha>={value}, {len(vs)} vertices"})
    for claim, parsed in claims:
        ok, detail = _check_claim(doc, parsed)
        results.append({"claim": claim, "ok": ok, "detail": detail})
    ok_all = all(r["ok"] for r in results)
    if not ok_all:
        sys.stderr.write("falsified; reproducer document follows\n")
        sys.stderr.write(serialize_family(doc))
    return {"command": "verify", "ok": ok_all, "claims": results}, 0 if ok_all else 1


def cmd_search_f(args):
    from time import perf_counter

    if not (twomilton.exact_range(args.n, args.k) or args.lower_bound):
        raise ValueError(
            f"n > {limit('enum')} is out of exhaustive range; pass --lower-bound for a labeled bound"
        )
    t0 = perf_counter()
    res = twomilton.compute_f(args.n, args.k)
    elapsed = perf_counter() - t0
    witnesses = FamilyDocument(args.n, res.witnesses, {}, {"f": res.value, "mode": res.mode})
    return {
        "command": "search-f", "n": args.n, "k": args.k, "workers": 1,
        "value": res.value, "mode": res.mode, "examined": res.examined,
        "elapsed_seconds": round(elapsed, 3), "log": list(res.log),
        "witnesses": family_payload(witnesses),
    }, 0


def cmd_nothree(args):
    rep = twomilton.verify_nothree(args.n)
    # every pair of partners is counted, so the mode is always exhaustive
    return {
        "command": "nothree", "n": args.n, "partners": rep.partners,
        "pairs_checked": rep.partners * (rep.partners - 1) // 2, "mode": "exhaustive",
        "triples_found": rep.triples_found,
    }, 0


def _corpus_pair(n, tag, args):
    return serialize_family(FamilyDocument(n, twomilton.random_pair(n, tag), {}, {"kind": "pair", "seed": tag}))


def _corpus_k4free(n, tag, args):
    edges = tuple(twomilton.random_k4free(n, tag).edges())
    return serialize_family(FamilyDocument(n, (), {}, {"kind": "k4free", "seed": tag}, edges=edges))


def _corpus_johnson(n, tag, args):
    x = Fraction(1, 4) if args.x is None else args.x
    eps = Fraction(1, 2) if args.eps is None else args.eps
    sets = twomilton.random_johnson_system(n, x, eps, tag)
    return json.dumps({
        "kind": "johnson", "n": n, "x": str(x), "eps": str(eps),
        "seed": tag, "sets": sorted(sorted(s) for s in sets),
    }, sort_keys=True, separators=(",", ":")) + "\n"


# the corpus command's --kind choices and dispatch: (n, seed tag, args) -> one line
_CORPUS = {"pair": _corpus_pair, "k4free": _corpus_k4free, "johnson": _corpus_johnson}


def cmd_corpus(args):
    from random import Random

    if args.count < 0:
        raise ValueError(f"--count must be >= 0, got {args.count}")
    if args.n_min > args.n_max:
        raise ValueError(f"--n-min must be <= --n-max, got {args.n_min} > {args.n_max}")
    if args.kind != "johnson" and (args.x is not None or args.eps is not None):
        raise ValueError(f"--x and --eps apply only to --kind johnson, not {args.kind}")
    rng = Random(f"corpus:{args.kind}:{args.seed}")
    lines = []
    for i in range(args.count):
        n = rng.randrange(args.n_min, args.n_max + 1)
        lines.append(_CORPUS[args.kind](n, f"{args.seed}:{i}", args))
    return "".join(lines), 0


def cmd_bounds(args):
    lower = twomilton.threshold_lower()
    rows = [
        ("threshold lower bound", lower.value),
        ("threshold upper bound (limit)", twomilton.semirandom_rate(None, Fraction(1, 3), 5)),
        ("quality base rate", lower.base),
        (f"penalty minimum at z = {lower.minimizer}", lower.minimum),
        ("johnson q(1/4, 1/2)", twomilton.johnson_q(Fraction(1, 4), Fraction(1, 2))),
        ("delta(1, 1)", twomilton.delta_fn(1, 1)),
        ("semirandom rate (n0=9, c0=1/3, k0=5)", twomilton.semirandom_rate(9, Fraction(1, 3), 5)),
    ]
    width = max(len(r[0]) for r in rows)
    out = [f"{'quantity'.ljust(width)}  exact      decimal"]
    for label, value in rows:
        out.append(f"{label.ljust(width)}  {str(value).ljust(9)}  {float(value):.5f}")
    return "\n".join(out) + "\n", 0


def build_parser() -> argparse.ArgumentParser:
    # no option is abbreviated: a prefix such as --lower would silently stand
    # for another option (--lower-bound), and amplify would read --n as --n0
    top = argparse.ArgumentParser(prog="twomilton", description=__doc__, allow_abbrev=False)
    sub = top.add_subparsers(dest="command", required=True)
    # options shared by several commands, each declared once
    out = argparse.ArgumentParser(add_help=False)
    out.add_argument("--out", default=None)
    doc = argparse.ArgumentParser(add_help=False)
    doc.add_argument("--input", required=True, help="family document path or - for stdin")
    graph = argparse.ArgumentParser(add_help=False, parents=[doc, out])
    graph.add_argument("--pair", nargs=2, type=int, metavar=("I", "J"), default=None,
                       help="indices of the two cycles to union (default: whole document)")

    for name, (text, _) in _GRAPH_COMMANDS.items():
        sub.add_parser(name, help=text, parents=[graph], allow_abbrev=False).set_defaults(func=cmd_graph)
    sub.choices["cover"].add_argument("--triangles", action="store_true")

    p = sub.add_parser("reduce", help="K4 removal pipeline with trace and lift demo", parents=[doc, out],
                       allow_abbrev=False)
    p.add_argument("--diagnose", action="store_true",
                   help="report the failing step instead of raising")
    p.set_defaults(func=cmd_reduce)

    p = sub.add_parser("construct", allow_abbrev=False,
                       help="emit a family document for a named construction (NAME -h lists its options)")
    names = p.add_subparsers(dest="name", required=True, metavar="NAME")
    for name, (text, _, options) in _CONSTRUCTIONS.items():
        q = names.add_parser(name, help=text, parents=[out], allow_abbrev=False)
        for flag, keywords in options.items():
            q.add_argument(flag, **keywords)
    p.set_defaults(func=cmd_construct)

    p = sub.add_parser("verify", help="check claims against a document", parents=[doc, out], allow_abbrev=False)
    p.add_argument("--claim", action="append",
                   help="e.g. pairwise-alpha<=3, pairwise-k4-covered, zeta=4")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("search-f", help="exact f(n, k) by exhaustive pinned search", parents=[out],
                       allow_abbrev=False)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--lower-bound", action="store_true",
                   help="accept a cover-certified construction lower bound when n exceeds "
                        f"the enum limit (default {DEFAULTS['enum']}) and k < n/2")
    p.set_defaults(func=cmd_search_f)

    p = sub.add_parser("nothree", help="search for pairwise K4-covered triples", parents=[out], allow_abbrev=False)
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(func=cmd_nothree)

    p = sub.add_parser("corpus", help="emit seeded random documents, one per line", parents=[out],
                       allow_abbrev=False)
    p.add_argument("--kind", choices=list(_CORPUS), required=True)
    p.add_argument("--count", type=int, required=True)
    p.add_argument("--n-min", type=int, default=14)
    p.add_argument("--n-max", type=int, default=40)
    p.add_argument("--x", type=_fraction, default=None, help="johnson only: set density (default 1/4)")
    p.add_argument("--eps", type=_fraction, default=None,
                   help="johnson only: intersection slack (default 1/2)")
    p.add_argument("--seed", required=True)
    p.set_defaults(func=cmd_corpus)

    p = sub.add_parser("bounds", help="exact threshold constants with decimals", parents=[out], allow_abbrev=False)
    p.set_defaults(func=cmd_bounds)
    return top


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        report, code = args.func(args)
        if not isinstance(report, str):
            # a closed-form f(n, k) may exceed Python's int-to-str digit cap, which
            # guards parsing; 0 is no cap, as on an interpreter without the setting
            cap = getattr(sys, "get_int_max_str_digits", lambda: 0)()
            if cap:
                sys.set_int_max_str_digits(0)
            try:
                report = json.dumps(report, indent=2, sort_keys=True) + "\n"
            finally:
                if cap:
                    sys.set_int_max_str_digits(cap)
        # the file first, so a failed write leaves stdout empty
        if args.out:
            with open(args.out, "w") as f:
                f.write(report)
        sys.stdout.write(report)
        return code
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
