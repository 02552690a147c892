"""Self-test of the benchmark itself.

    python3 benchmarks/selftest.py

Checks, each at minimal size:
1. every workload runs untraced with every answer verified;
2. a run against a deliberately wrong pinned value counts a failed query and
   gives a non-zero exit code;
3. the exact counters (search.examined, independence.memo_entries,
   reduction.steps.*, k4.k4s_found, ...) repeat exactly across two traced
   runs, and each workload moves the counters of the layers it exercises;
4. in a directory holding only BENCHMARK.json and benchmarks/, the benchmark
   exits non-zero without printing a result.
Prints one line per check and exits 1 if any fails.
"""

from __future__ import annotations

import copy
import json
import shutil
import subprocess
import sys

import run

SEED = run.DEFAULT_SEED
EXERCISED = {
    "alpha-ladder": ("independence.memo_entries",),
    "fsearch": ("search.examined",),
    "structure": ("k4.k4s_found", "reduction.k4s_removed", "reduction.steps.final"),
    "cli": (),
}


def smoke(name: str, trace: bool, expected=None) -> dict:
    record, _ = run.execute(name, SEED, 1, trace, smoke=True, expected=expected)
    return record


def bare_directory_refuses() -> str | None:
    bare = run.WORK / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(run.HERE, bare / run.HERE.name,
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        command = json.loads((run.ROOT / "BENCHMARK.json").read_text())["command"]
        proc = subprocess.run(
            [sys.executable, *command[1:], "--workload", "structure", "--seed", str(SEED),
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180,
        )
    finally:
        shutil.rmtree(bare, ignore_errors=True)
        if run.WORK.is_dir() and not any(run.WORK.iterdir()):
            run.WORK.rmdir()
    if proc.returncode == 0:
        return "exit code 0"
    if proc.stdout.strip():
        return f"printed {proc.stdout.strip()[:200]!r}"
    return None


def main() -> int:
    problem = run.source_ready()
    if problem is not None:
        print(f"error: {problem}", file=sys.stderr)
        return 2
    results = []

    for name in run.WORKLOADS:
        rec = smoke(name, False)
        results.append((f"smoke {name}", rec["failed"] == 0 and rec["attempted"] > 0,
                        f"{rec['attempted']} attempted, failures {rec['failures']}"))

    wrong = copy.deepcopy(run.load_expected())
    wrong["answers"]["f:8:2"]["f"] += 1
    rec = smoke("fsearch", False, expected=wrong)
    results.append(("wrong pinned value fails", rec["fail_ratio"] > 0 and run.exit_code(rec) != 0,
                    f"fail_ratio {rec['fail_ratio']}, exit code {run.exit_code(rec)}"))

    for name in run.WORKLOADS:
        first, second = smoke(name, True), smoke(name, True)
        counts = [{k: r["metrics"][k] for k in run.PER_LAYER_COUNTS} for r in (first, second)]
        moved = all(counts[0][k] > 0 for k in EXERCISED[name])
        ok = counts[0] == counts[1] and moved and first["failed"] == second["failed"] == 0
        results.append((f"exact counters repeat {name}", ok, f"{counts[0]} vs {counts[1]}"))

    reason = bare_directory_refuses()
    results.append(("refuses without sources", reason is None, reason or "exit code non-zero, no output"))

    for label, ok, detail in results:
        print(f"{'PASS' if ok else 'FAIL'}  {label}: {detail}")
    return 0 if all(ok for _, ok, _ in results) else 1


if __name__ == "__main__":
    sys.exit(main())
