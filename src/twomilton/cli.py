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
from pathlib import Path
from random import Random

from .bounds import delta_fn, johnson_q, semirandom_rate, threshold_lower
from .constructions import (
    amplify,
    circulant_family,
    counterexample_strip,
    k4_strip,
    triple_n8,
)
from .corpus import random_johnson_system, random_k4free, random_pair
from .graphs import (
    FamilyDocument,
    VerificationError,
    parse_family,
    serialize_family,
    union,
)
from .independence import alpha_exact, alpha_value, verify_independent
from .k4 import find_k4_cover, find_triangle_cover, find_k4s, psi_exact, zeta
from .reduction import diagnose_reduction, lift_independent, technical_reduce
from .search import compute_f, find_exceptional, verify_nothree


def _load_doc(path: str) -> FamilyDocument:
    text = sys.stdin.read() if path == "-" else Path(path).read_text()
    return parse_family(text)


def _graph_for(doc: FamilyDocument, pair):
    if pair is not None:
        i, j = pair
        if not (0 <= i < len(doc.cycles) and 0 <= j < len(doc.cycles)) or i == j:
            raise ValueError(f"bad pair ({i},{j}) for a document with {len(doc.cycles)} cycles")
        return union([doc.cycles[i], doc.cycles[j]])
    if not doc.cycles and doc.edges is None:
        raise ValueError("document has neither cycles nor an edge payload")
    return doc.graph()


def _emit(args, payload) -> None:
    text = payload if isinstance(payload, str) else json.dumps(payload, indent=2, sort_keys=True) + "\n"
    sys.stdout.write(text)
    out = getattr(args, "out", None)
    if out:
        Path(out).write_text(text)


def cmd_alpha(args) -> int:
    doc = _load_doc(args.input)
    g = _graph_for(doc, args.pair)
    cert = alpha_exact(g)
    _emit(args, {
        "command": "alpha", "n": g.n, "pair": args.pair,
        "value": cert.value, "certificate": list(cert.vertices),
    })
    return 0


def cmd_zeta(args) -> int:
    doc = _load_doc(args.input)
    g = _graph_for(doc, args.pair)
    _emit(args, {
        "command": "zeta", "n": g.n, "pair": args.pair,
        "value": zeta(g), "k4s": [list(q) for q in find_k4s(g)],
    })
    return 0


def cmd_psi(args) -> int:
    doc = _load_doc(args.input)
    g = _graph_for(doc, args.pair)
    _emit(args, {"command": "psi", "n": g.n, "pair": args.pair, "value": psi_exact(g)})
    return 0


def cmd_cover(args) -> int:
    doc = _load_doc(args.input)
    g = _graph_for(doc, args.pair)
    blocks = find_triangle_cover(g) if args.triangles else find_k4_cover(g)
    kind = "triangle" if args.triangles else "k4"
    _emit(args, {
        "command": "cover", "n": g.n, "kind": kind, "pair": args.pair,
        "found": blocks is not None,
        "blocks": None if blocks is None else [list(b) for b in blocks],
    })
    return 0 if blocks is not None else 1


def cmd_reduce(args) -> int:
    doc = _load_doc(args.input)
    if args.diagnose:
        report = diagnose_reduction(doc.graph(), doc.cycles if len(doc.cycles) == 2 else None)
        payload = {
            "command": "reduce", "diagnose": True, "ok": report.ok,
            "failed_step": report.failed_step, "reason": report.reason,
        }
        if report.artifact is not None:
            payload["artifact"] = json.loads(serialize_family(report.artifact))
        _emit(args, payload)
        return 0
    if len(doc.cycles) < 2:
        raise ValueError("reduce needs a document with two cycles")
    result = technical_reduce(doc.cycles[0], doc.cycles[1])
    cert = alpha_exact(result.h)
    lifted = lift_independent(result, cert.vertices)
    _emit(args, {
        "command": "reduce", "n": result.g.n, "zeta": result.zeta,
        "remainder_vertices": result.h.n, "remainder_edges": result.h.edge_count(),
        "trace": [
            {"step": t.step, "archipelago": list(t.archipelago),
             "added_edge": None if t.added_edge is None else list(t.added_edge)}
            for t in result.trace
        ],
        "postconditions": result.postconditions,
        "lift_demo": {
            "remainder_set": list(cert.vertices),
            "lifted_set": list(lifted),
            "size": len(lifted),
        },
    })
    return 0


def _doc_with_alpha(n, cycles, vertices, meta, edges=None):
    doc = FamilyDocument(
        n=n,
        cycles=tuple(cycles),
        certificates={"alpha": {"value": len(vertices), "vertices": sorted(vertices)}},
        meta=meta,
        edges=edges,
    )
    if not verify_independent(doc.graph(), doc.certificates["alpha"]["vertices"]):
        raise VerificationError(f"alpha certificate {sorted(vertices)} is not independent")
    return doc


def cmd_construct(args) -> int:
    name = args.name
    if name == "strip":
        pair = k4_strip(args.k)
        doc = _doc_with_alpha(
            4 * args.k, pair, [4 * i for i in range(args.k)],
            {"construction": "strip", "k": args.k},
        )
    elif name == "triple8":
        doc = FamilyDocument(8, triple_n8(), {}, {"construction": "triple8"})
    elif name == "circulant":
        fam = circulant_family(args.n)
        doc = FamilyDocument(args.n, fam, {}, {"construction": "circulant", "pairwise_alpha_at_most": args.n // 3})
    elif name == "counterexample":
        g = counterexample_strip(args.units)
        doc = _doc_with_alpha(
            g.n, (), [b for i in range(args.units) for b in (8 * i, 8 * i + 6)],
            {"construction": "counterexample", "units": args.units},
            edges=tuple(g.edges()),
        )
    elif name == "amplify":
        if args.seed is None:
            raise ValueError("construct amplify needs --seed")
        base = circulant_family(args.n0)
        res = amplify(base, args.blocks, args.family_size, seed=args.seed, eps=Fraction(args.eps))
        doc = FamilyDocument(
            res.n, res.cycles, {},
            {
                "construction": "amplify", "base": f"circulant-{args.n0}",
                "blocks": args.blocks, "seed": args.seed, "eps": str(Fraction(args.eps)),
                "agreement_cap": res.agreement_cap, "pairwise_alpha_bound": str(res.bound),
                "chains": [list(c) for c in res.chains],
            },
        )
    elif name == "exceptional":
        found = find_exceptional(args.n)
        doc = FamilyDocument(
            args.n, found.cycles,
            {"alpha": {"value": found.alpha, "vertices": list(alpha_exact(found.graph).vertices)}},
            {"construction": "exceptional", "zeta": found.zeta},
        )
    else:
        raise ValueError(f"unknown construction {name!r}")
    _emit(args, serialize_family(doc))
    return 0


def _check_claim(doc: FamilyDocument, claim: str):
    """Returns (ok, detail) for one claim string."""
    pairwise = claim.startswith("pairwise-")
    body = claim[len("pairwise-"):] if pairwise else claim
    if pairwise and len(doc.cycles) < 2:
        return False, "pairwise claim on a document with fewer than two cycles"
    pairs = [
        (i, j)
        for i in range(len(doc.cycles))
        for j in range(i + 1, len(doc.cycles))
    ]
    if pairwise and body == "k4-covered":
        for i, j in pairs:
            if find_k4_cover(union([doc.cycles[i], doc.cycles[j]])) is None:
                return False, f"pair ({i},{j}) has no K4 cover"
        return True, f"{len(pairs)} pairs K4-covered"
    if pairwise and body == "triangle-covered":
        for i, j in pairs:
            if find_triangle_cover(union([doc.cycles[i], doc.cycles[j]])) is None:
                return False, f"pair ({i},{j}) has no triangle cover"
        return True, f"{len(pairs)} pairs triangle-covered"
    for op in ("<=", ">=", "="):
        if op in body:
            key, _, raw = body.partition(op)
            try:
                want = int(raw)
            except ValueError:
                return False, f"bad claim value {raw!r}"
            fns = {"alpha": alpha_value, "zeta": zeta, "psi": psi_exact}
            if key not in fns:
                return False, f"unknown quantity {key!r}"
            fn = fns[key]
            targets = (
                [(f"pair ({i},{j})", union([doc.cycles[i], doc.cycles[j]])) for i, j in pairs]
                if pairwise
                else [("graph", doc.graph())]
            )
            for label, g in targets:
                got = fn(g)
                ok = got <= want if op == "<=" else got >= want if op == ">=" else got == want
                if not ok:
                    return False, f"{label}: {key} is {got}, claim was {key}{op}{want}"
            return True, f"{key}{op}{want} on {len(targets)} graph(s)"
    return False, f"unparseable claim {claim!r}"


def cmd_verify(args) -> int:
    doc = _load_doc(args.input)
    results = []
    ok_all = True
    cert = doc.certificates.get("alpha")
    if cert is not None:
        vs = cert.get("vertices", [])
        good = (
            isinstance(cert.get("value"), int)
            and len(set(vs)) == cert["value"]
            and verify_independent(doc.graph(), vs)
        )
        results.append({"claim": "embedded-alpha-certificate", "ok": good,
                        "detail": f"value {cert.get('value')}, {len(vs)} vertices"})
        ok_all &= good
    for claim in args.claim or []:
        ok, detail = _check_claim(doc, claim)
        results.append({"claim": claim, "ok": ok, "detail": detail})
        ok_all &= ok
    _emit(args, {"command": "verify", "ok": ok_all, "claims": results})
    if not ok_all:
        sys.stderr.write("falsified; reproducer document follows\n")
        sys.stderr.write(serialize_family(doc))
    return 0 if ok_all else 1


def cmd_search_f(args) -> int:
    if args.n > 12 and not args.lower_bound:
        raise ValueError("n > 12 is out of exhaustive range; pass --lower-bound for a labeled bound")
    res = compute_f(args.n, args.k, workers=args.workers)
    witness_doc = FamilyDocument(args.n, res.witnesses, {}, {"f": res.value, "mode": res.mode})
    _emit(args, {
        "command": "search-f", "n": args.n, "k": args.k, "workers": args.workers,
        "value": res.value, "mode": res.mode, "examined": res.examined,
        "elapsed_seconds": round(res.elapsed, 3), "log": list(res.log),
        "witnesses": json.loads(serialize_family(witness_doc)),
    })
    return 0


def cmd_nothree(args) -> int:
    rep = verify_nothree(args.n, seed=args.seed or 0)
    _emit(args, {
        "command": "nothree", "n": args.n, "partners": rep.partners,
        "pairs_checked": rep.pairs_checked, "mode": rep.mode,
        "triples_found": rep.triples_found,
    })
    return 0


def cmd_corpus(args) -> int:
    lines = []
    rng = Random(f"corpus:{args.kind}:{args.seed}")
    for i in range(args.count):
        n = rng.randrange(args.n_min, args.n_max + 1)
        tag = f"{args.seed}:{i}"
        if args.kind == "pair":
            c1, c2 = random_pair(n, tag)
            doc = FamilyDocument(n, (c1, c2), {}, {"kind": "pair", "seed": tag})
            lines.append(serialize_family(doc))
        elif args.kind == "k4free":
            g = random_k4free(n, tag)
            doc = FamilyDocument(n, (), {}, {"kind": "k4free", "seed": tag}, edges=tuple(g.edges()))
            lines.append(serialize_family(doc))
        elif args.kind == "johnson":
            sets = random_johnson_system(n, Fraction(args.x), Fraction(args.eps), tag)
            lines.append(json.dumps({
                "kind": "johnson", "n": n, "x": args.x, "eps": args.eps,
                "seed": tag, "sets": sorted(sorted(s) for s in sets),
            }, sort_keys=True, separators=(",", ":")) + "\n")
        else:
            raise ValueError(f"unknown corpus kind {args.kind!r}")
    _emit(args, "".join(lines))
    return 0


def cmd_bounds(args) -> int:
    rows = [
        ("threshold lower bound", threshold_lower().value),
        ("threshold upper bound (limit)", semirandom_rate(None, Fraction(1, 3), 5)),
        ("quality base rate", Fraction(7, 26)),
        ("penalty minimum at z = 1/13", threshold_lower().minimum),
        ("johnson q(1/4, 1/2)", johnson_q(Fraction(1, 4), Fraction(1, 2))),
        ("delta(1, 1)", delta_fn(1, 1)),
        ("semirandom rate (n0=9, c0=1/3, k0=5)", semirandom_rate(9, Fraction(1, 3), 5)),
    ]
    width = max(len(r[0]) for r in rows)
    out = [f"{'quantity'.ljust(width)}  exact      decimal"]
    for label, value in rows:
        out.append(f"{label.ljust(width)}  {str(value).ljust(9)}  {float(value):.5f}")
    _emit(args, "\n".join(out) + "\n")
    return 0


def _pair_arg(parser):
    parser.add_argument("--pair", nargs=2, type=int, metavar=("I", "J"), default=None,
                        help="indices of the two cycles to union (default: whole document)")


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(prog="twomilton", description=__doc__)
    sub = top.add_subparsers(dest="command", required=True)

    for name, fn in (("alpha", cmd_alpha), ("zeta", cmd_zeta), ("psi", cmd_psi)):
        p = sub.add_parser(name, help=f"exact {name} of a document graph")
        p.add_argument("--input", required=True, help="family document path or - for stdin")
        p.add_argument("--out", default=None)
        _pair_arg(p)
        p.set_defaults(func=fn)

    p = sub.add_parser("cover", help="find a K4 (or triangle) cover")
    p.add_argument("--input", required=True)
    p.add_argument("--out", default=None)
    p.add_argument("--triangles", action="store_true")
    _pair_arg(p)
    p.set_defaults(func=cmd_cover)

    p = sub.add_parser("reduce", help="K4 removal pipeline with trace and lift demo")
    p.add_argument("--input", required=True)
    p.add_argument("--out", default=None)
    p.add_argument("--diagnose", action="store_true",
                   help="report the failing step instead of raising")
    p.set_defaults(func=cmd_reduce)

    p = sub.add_parser("construct", help="emit a family document for a named construction")
    p.add_argument("name", choices=["strip", "triple8", "circulant", "counterexample", "amplify", "exceptional"])
    p.add_argument("--k", type=int, default=3, help="strip block count")
    p.add_argument("--n", type=int, default=9, help="circulant or exceptional size")
    p.add_argument("--units", type=int, default=2, help="counterexample unit count")
    p.add_argument("--n0", type=int, default=9, help="amplify base size")
    p.add_argument("--blocks", type=int, default=4, help="amplify block count")
    p.add_argument("--family-size", type=int, default=6, help="amplify output family size")
    p.add_argument("--eps", default="1/4", help="amplify agreement slack")
    p.add_argument("--seed", default=None, help="mandatory for amplify")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_construct)

    p = sub.add_parser("verify", help="check claims against a document")
    p.add_argument("--input", required=True)
    p.add_argument("--claim", action="append",
                   help="e.g. pairwise-alpha<=3, pairwise-k4-covered, zeta=4")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("search-f", help="exact f(n, k) by exhaustive pinned search")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--lower-bound", action="store_true",
                   help="allow n > 12 and report a construction lower bound")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_search_f)

    p = sub.add_parser("nothree", help="search for pairwise K4-covered triples")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_nothree)

    p = sub.add_parser("corpus", help="emit seeded random documents, one per line")
    p.add_argument("--kind", choices=["pair", "k4free", "johnson"], required=True)
    p.add_argument("--count", type=int, required=True)
    p.add_argument("--n-min", type=int, default=14)
    p.add_argument("--n-max", type=int, default=40)
    p.add_argument("--x", default="1/4", help="johnson set density")
    p.add_argument("--eps", default="1/2", help="johnson intersection slack")
    p.add_argument("--seed", required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_corpus)

    p = sub.add_parser("bounds", help="exact threshold constants with decimals")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_bounds)

    return top


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
