"""Regenerate expected.json from the default-seed answers of this checkout.

    python3 benchmarks/pin.py

Runs every workload at BENCHMARK.json's run_seconds, the length whose output
digest each later default-seed run is compared with.  Only pin after the
values have been checked independently: the benchmark compares every later
run against these answers.  Refuses to pin when any query fails its own
checks.
"""

from __future__ import annotations

import json
import sys

import run


def main() -> int:
    seconds = json.loads((run.ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    problem = run.source_ready()
    if problem is not None:
        print(f"error: {problem}", file=sys.stderr)
        return 2
    from workloads import canonical

    answers, digests = {}, {}
    for name in run.WORKLOADS:
        record, got = run.execute(name, run.DEFAULT_SEED, seconds, False,
                                  expected={"answers": {}, "digests": {}})
        if record["failed"]:
            print(f"error: {name}: {record['failures']}", file=sys.stderr)
            return 1
        answers.update(got)
        digests[name] = {"seconds": seconds, "sha256": record["output_digest"]}
        print(f"{name}: {len(got)} answers, digest {record['output_digest']}")
    # one answer per line keeps the file small and its diffs readable
    lines = ",\n".join(f"  {json.dumps(k)}: {canonical(v)}" for k, v in sorted(answers.items()))
    run.EXPECTED.write_text(
        f"{{\"seed\": {run.DEFAULT_SEED},\n \"digests\": {canonical(digests)},\n"
        f" \"answers\": {{\n{lines}\n }}}}\n"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
