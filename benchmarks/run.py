"""twomilton benchmark: seeded closed-loop workloads with verified answers.

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see workloads.py for why each one exists):
  alpha-ladder  alpha_exact plus both decision directions, n in {45, 48, 63, 64, 80}
  fsearch       the f(n, k) table f(4,1) .. f(12,3), witnesses re-verified
  structure     reduction + lift, K4/triangle covers, psi, bounds checkers, amplify
  cli           sequential `python -m twomilton.cli` processes

One client sends each query only after the previous answer is verified; a
wrong answer, failed check, exception or wrong exit code counts as a failed
query.  The library is imported from src/ of the checkout that holds this
file; without it the benchmark exits with code 2 and prints no result.

With --trace 0 the last stdout line carries the end-to-end metrics, with
--trace 1 the per-layer metrics of a traced pass (the same inputs are first
run untraced, which gives tracing_overhead_s).  The line before it is the
full record (environment, tail percentile, output digest, failures, the
unscaled times), also written to .bench_out/.  Exit code: 0 when every answer
verified, 1 otherwise.

Times are reported at a fixed reference speed: each measured interval is
scaled by how fast the host ran a fixed reference computation around it
(see reference.py).  The record keeps the unscaled times too.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from contextlib import contextmanager
from pathlib import Path

from reference import NOMINAL_S, Reference

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
OUT = ROOT / ".bench_out"
EXPECTED = HERE / "expected.json"
DEFAULT_SEED = 0
SETUP_REPEATS = 7
IMPORT_PROBE = (
    "import time; t = time.perf_counter(); import twomilton.cli; "
    "print(time.perf_counter() - t)"
)
INTERPRETER_PROBE = "pass"
WORKLOADS = ("alpha-ladder", "fsearch", "structure", "cli")
SCAN_SPANS = ("search.f_10_2", "search.f_11_3", "search.f_12_3")
END_TO_END = (
    ("wall_s", "s"), ("cpu_s", "s"), ("queries_per_s", "1/s"), ("query_p50_ms", "ms"),
    ("query_tail_ms", "ms"), ("setup_s", "s"), ("peak_rss_mb", "MB"),
)
PER_LAYER_TIMES = (
    "independence.alpha_exact.n48", "independence.alpha_exact.n64",
    "independence.alpha_exact.n80", "independence.alpha_exact.c45",
    "independence.alpha_exact.c63", "independence.alpha_exact.remainder",
    "independence.has_independent_set", "independence.alpha_value",
    "search.f_4_1", "search.f_6_2", "search.f_7_2", "search.f_8_2",
    "search.f_10_2", "search.f_11_3", "search.f_12_3",
    "reduction.technical_reduce", "reduction.lift_independent",
    "k4.find_k4s", "k4.zeta", "k4.find_k4_cover", "k4.find_triangle_cover", "k4.psi_exact",
    "bounds.family_stats", "bounds.step_check", "bounds.iterating_check",
    "constructions.amplify", "constructions.circulant_family",
    "graphs.union", "graphs.parse_family", "graphs.serialize_family",
    "cli.construct", "cli.alpha", "cli.zeta", "cli.cover", "cli.verify",
    "cli.reduce", "cli.search-f", "cli.bounds",
)
PER_LAYER_COUNTS = (
    "independence.memo_entries", "search.examined",
    "reduction.steps.small", "reduction.steps.connect", "reduction.steps.three",
    "reduction.steps.final", "reduction.k4s_removed", "reduction.remainder_vertices",
    "k4.k4s_found",
)
PER_LAYER_OTHER = (
    ("search.scan_rate", "1/s"), ("cli.interpreter_s", "s"), ("cli.import_s", "s"),
    ("tracing_overhead_s", "s"),
)


def per_layer_units() -> dict[str, str]:
    units = {f"{name}.s": "s" for name in PER_LAYER_TIMES}
    units.update({name: "count" for name in PER_LAYER_COUNTS})
    units.update(dict(PER_LAYER_OTHER))
    return units


def source_ready() -> str | None:
    """None when src/twomilton of this checkout is importable, else the reason."""
    if not (SRC / "twomilton" / "__init__.py").is_file():
        return f"no twomilton sources under {SRC.relative_to(ROOT)}/"
    sys.path.insert(0, str(SRC))
    import twomilton

    if Path(twomilton.__file__).resolve().parent != (SRC / "twomilton").resolve():
        return f"twomilton was imported from {twomilton.__file__}, not from this checkout"
    return None


@contextmanager
def environ(overrides: dict):
    saved = {k: os.environ.get(k) for k in overrides}
    os.environ.update(overrides)
    try:
        yield
    finally:
        for k, v in saved.items():
            if v is None:
                os.environ.pop(k, None)
            else:
                os.environ[k] = v


@contextmanager
def one_cpu(pinned: bool):
    """Keep this process and the children it starts on one processor when
    pinned, so that the speed reference, timed in this process, measures the
    processor a child process runs on."""
    saved = os.sched_getaffinity(0)
    if pinned:
        os.sched_setaffinity(0, {min(saved)})
    try:
        yield
    finally:
        os.sched_setaffinity(0, saved)


def probe(code: str, env: dict, in_process: bool, ref: Reference) -> float:
    """A probe's own timing (in_process) or its wall time, in a fresh interpreter."""
    t0, paused0 = time.perf_counter(), ref.paused
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=env, check=True, timeout=120)
    wall = -(ref.paused - paused0) + time.perf_counter() - t0
    return float(proc.stdout) if in_process else wall


def probe_seconds(code: str, env: dict, repeats: int, in_process: bool, ref: Reference) -> float:
    """Median of `repeats` probes, at the reference speed."""
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        seconds = probe(code, env, in_process, ref)
        times.append(seconds * ref.speed(t0, time.perf_counter()))
    return statistics.median(times)


def cpu_seconds() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


def tail(latencies: list[float]) -> tuple[float, float, int]:
    """(value, percentile, samples beyond): the highest percentile with at
    least ten samples beyond it, or the maximum when there are too few."""
    xs = sorted(latencies)
    n = len(xs)
    if n <= 10:
        return xs[-1], 100.0, 0
    return xs[n - 11], 100.0 * (n - 10) / n, 10


def run_pass(queries, tracer, expected: dict, failures: list, ref: Reference):
    """Run every query once; returns (answers by qid, (wall, cpu) seconds per
    query at the reference speed, unscaled (wall, cpu) seconds per query)."""
    from workloads import CheckFailed, canonical

    answers: dict = {}
    spans = []
    gc.collect()
    for q in queries:
        # the reference's pauses are taken out; the reads are ordered so that
        # a pause between them can only be left in, never taken out twice
        cpu0, paused_cpu0 = cpu_seconds(), ref.paused_cpu
        t0, paused0 = time.perf_counter(), ref.paused
        try:
            answer = q.run(tracer)
            want = expected.get(q.qid)
            if want is not None and canonical(answer) != canonical(want):
                raise CheckFailed(f"answer differs from the pinned value: {canonical(answer)[:200]}")
            seen = answers.setdefault(q.qid, answer)
            if canonical(seen) != canonical(answer):
                raise CheckFailed("answer differs between repeats of the same input")
        except Exception as exc:  # every failure is counted, the run goes on
            failures.append({"qid": q.qid, "error": f"{type(exc).__name__}: {exc}"})
        paused = ref.paused - paused0
        t1 = time.perf_counter()
        paused_cpu = ref.paused_cpu - paused_cpu0
        cpu = cpu_seconds() - cpu0 - paused_cpu
        spans.append((t0, t1, t1 - t0 - paused, cpu))
    raw = [(wall, cpu) for _, _, wall, cpu in spans]
    factors = [ref.speed(t0, t1) for t0, t1, _, _ in spans]
    return answers, [(w * k, c * k) for (w, c), k in zip(raw, factors)], raw


def digest(answers: dict) -> str:
    from workloads import canonical

    return hashlib.sha256(canonical(answers).encode()).hexdigest()


def build(name: str, seed: int, seconds: float, smoke: bool, workdir: Path):
    import workloads

    if name == "cli":
        return workloads.build_cli(seed, seconds, smoke, src=SRC, workdir=workdir)
    make = {
        "alpha-ladder": workloads.build_alpha_ladder,
        "fsearch": workloads.build_fsearch,
        "structure": workloads.build_structure,
    }[name]
    return make(seed, seconds, smoke)


def load_expected() -> dict:
    return json.loads(EXPECTED.read_text())


def environment(name: str, seed: int, trace: bool) -> dict:
    from workloads import WORKERS

    sha = None
    if (ROOT / ".git").exists() and shutil.which("git"):
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        sha = proc.stdout.strip() or None
    h = hashlib.sha256()
    for path in sorted((SRC / "twomilton").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "workload": name, "seed": seed, "trace": trace,
        "git_sha": sha, "source_sha256": h.hexdigest(),
        "nproc": os.cpu_count(), "python": platform.python_version(),
        "TWOMILTON_LIMITS": os.environ.get("TWOMILTON_LIMITS"),
        "workers_per_query": WORKERS if name == "fsearch" else 1,
    }


def setup(name: str, seed: int, seconds: float, smoke: bool, workdir: Path, ref: Reference):
    """(workload, set-up seconds at the reference speed, unscaled (import,
    generation) seconds of the median set-up).

    A set-up is an import of twomilton.cli in a fresh interpreter plus the
    input generation in this one; it is done SETUP_REPEATS times."""
    from workloads import child_environment

    env = child_environment(SRC)
    times = []
    for _ in range(1 if smoke else SETUP_REPEATS):
        t0 = time.perf_counter()
        import_s = probe(IMPORT_PROBE, env, True, ref)
        t1, paused0 = time.perf_counter(), ref.paused
        wl = build(name, seed, seconds, smoke, workdir)
        generate_s = -(ref.paused - paused0) + time.perf_counter() - t1
        t2 = time.perf_counter()
        times.append(((import_s + generate_s) * ref.speed(t0, t2), import_s, generate_s))
    setup_s, import_s, generate_s = sorted(times)[len(times) // 2]
    return wl, setup_s, (import_s, generate_s)


def execute(name: str, seed: int, seconds: float, trace: bool, smoke: bool = False,
            expected: dict | None = None) -> tuple[dict, dict]:
    """Set up, run and verify one workload; returns (record, answers by query id).

    Untraced, the metrics are the end-to-end ones.  Traced, the same queries
    run once untraced and then once traced, and the metrics are per-layer."""
    from tracing import Tracer

    pins = load_expected() if expected is None else expected
    failures: list = []
    workdir = WORK / f"{name}-{os.getpid()}"
    try:
        with Reference() as ref:
            with one_cpu(True):  # the import probe is a child process, see one_cpu
                wl, setup_s, (import_s, generate_s) = setup(name, seed, seconds, smoke, workdir, ref)
            with environ(wl.env), one_cpu(wl.one_cpu):
                record = {"environment": environment(name, seed, trace)}
                answers, times, raw = run_pass(wl.queries, Tracer(False), pins["answers"], failures, ref)
                rss = peak_rss_mb()
                attempted = len(wl.queries)
                if trace:
                    tr = Tracer(True, paused=lambda: ref.paused)
                    t0 = time.perf_counter()
                    traced, traced_times, _ = run_pass(wl.queries, tr, pins["answers"], failures, ref)
                    k = ref.speed(t0, time.perf_counter())
                    attempted += len(wl.queries)
                    if digest(traced) != digest(answers):
                        failures.append({"qid": "*", "error": "traced answers differ from untraced"})
                    for q in wl.queries:
                        if q.untimed_counts is not None:
                            tr.counts.update(q.untimed_counts())
                    overhead = sum(w for w, _ in traced_times) - sum(w for w, _ in times)
                    metrics = per_layer(tr, k, overhead, name, ref)
            ref_seconds = [s for _, s in ref.samples]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        if WORK.is_dir() and not any(WORK.iterdir()):
            WORK.rmdir()
    out_digest = digest(answers)
    pin = pins["digests"].get(name, {})
    pinned = (seed, seconds) == (DEFAULT_SEED, pin.get("seconds")) and not smoke
    if pinned and pin["sha256"] != out_digest:
        failures.append({"qid": "*", "error": f"output digest {out_digest} != pinned {pin['sha256']}"})
    lat = [w for w, _ in times]
    wall = sum(lat)
    value, pct, beyond = tail(lat)
    if not trace:
        metrics = {
            "wall_s": wall, "cpu_s": sum(c for _, c in times), "queries_per_s": len(lat) / wall,
            "query_p50_ms": 1000 * statistics.median(lat), "query_tail_ms": 1000 * value,
            "setup_s": setup_s, "peak_rss_mb": rss,
        }
    raw_lat = [w for w, _ in raw]
    record.update({
        "attempted": attempted, "failed": len(failures),
        "fail_ratio": len(failures) / attempted,
        "failures": failures[:20],
        "queries_per_pass": len(wl.queries),
        "output_digest": out_digest, "digest_pinned": pinned,
        "tail": {"percentile": pct, "samples": len(lat), "beyond": beyond},
        "setup": {"import_s": import_s, "generate_s": generate_s},
        "reference": {"nominal_s": NOMINAL_S, "samples": len(ref_seconds),
                      "median_s": statistics.median(ref_seconds)},
        "unscaled": {"wall_s": sum(raw_lat), "cpu_s": sum(c for _, c in raw),
                     "query_p50_ms": 1000 * statistics.median(raw_lat),
                     "query_tail_ms": 1000 * tail(raw_lat)[0]},
        "metrics": metrics,
    })
    return record, answers


def per_layer(tr, k: float, overhead: float, name: str, ref: Reference) -> dict:
    """Per-layer metrics of a traced pass whose times scale by `k` to the reference speed."""
    from workloads import child_environment

    secs = {n: s * k for n, s in tr.seconds.items()}
    out = {f"{n}.s": secs.get(n, 0.0) for n in PER_LAYER_TIMES}
    out.update({n: tr.counts.get(n, 0) for n in PER_LAYER_COUNTS})
    scan_s = sum(secs.get(n, 0.0) for n in SCAN_SPANS)
    out["search.scan_rate"] = tr.counts.get("search.scan_examined", 0) / scan_s if scan_s else 0.0
    if name == "cli":
        env = child_environment(SRC)
        out["cli.interpreter_s"] = probe_seconds(INTERPRETER_PROBE, env, SETUP_REPEATS, False, ref)
        out["cli.import_s"] = probe_seconds(IMPORT_PROBE, env, SETUP_REPEATS, True, ref)
    else:
        out["cli.interpreter_s"] = out["cli.import_s"] = 0.0
    out["tracing_overhead_s"] = overhead
    return out


def result_line(record: dict, trace: bool) -> dict:
    units = per_layer_units() if trace else dict(END_TO_END)
    return {
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {k: {"value": record["metrics"][k], "unit": u} for k, u in units.items()},
    }


def exit_code(record: dict) -> int:
    return 0 if record["failed"] == 0 else 1


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    problem = source_ready()
    if problem is not None:
        print(f"error: {problem}", file=sys.stderr)
        return 2
    record, _ = execute(args.workload, args.seed, args.seconds, bool(args.trace))
    OUT.mkdir(exist_ok=True)
    label = f"BENCH_{args.workload}_seed{args.seed}_trace{args.trace}.json"
    (OUT / label).write_text(json.dumps(record, indent=1) + "\n")
    result = result_line(record, bool(args.trace))
    for k, m in result["metrics"].items():
        print(f"{k:40s} {m['value']:.6g} {m['unit']}")
    print(json.dumps(record, sort_keys=True))
    print(json.dumps(result))
    return exit_code(record)


if __name__ == "__main__":
    sys.exit(main())
