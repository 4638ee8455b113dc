"""Self-check of the trace: it must see every call, and see it the same way.

    python3 perfbench/selfcheck.py [--cli-seed N]

Makes two traced runs of each workload, one round each (suite at its
corpus seed 7, census, cli at --cli-seed), and checks that
- every per-layer count repeats exactly between the two runs of a seed;
- the counts reproduce figures taken with a profiler at the commit the
  benchmark was written against, which shows the wrappers see every
  call: 10,907 principal_congruence calls on suite, 53,878 isomorphic
  calls and 5,233 Lattice constructions on census;
- layer self times cover all but bench.SELF_TIME_MARGIN of each traced
  rep's wall time, and every oracle passed.
Exits 1 on any mismatch.
"""

from __future__ import annotations

import argparse
import sys

from all import run_one

EXPECTED = {
    "suite": {"congruence.principal_calls": 10_907},
    "census": {"verify.iso_calls": 53_878,
               ("core.built", "core.rejected"): 5_233},
}


def counts(record):
    return {k: v for k, (v, unit, _) in record["per_layer"].items()
            if unit != "s"}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--cli-seed", type=int, default=1)
    args = p.parse_args(argv)
    problems = []
    for workload, seed in (("suite", 7), ("census", 7), ("cli", args.cli_seed)):
        first, second = (run_one(workload, seed, 0, True, None)
                         for _ in range(2))
        if first is None or second is None:
            problems.append(f"{workload}: a traced run failed")
            continue
        a, b = counts(first), counts(second)
        differ = [f"{workload}: {name} = {a[name]} then {b.get(name)}"
                  for name in sorted(a) if a[name] != b.get(name)]
        print(f"{workload}: {len(a) - len(differ)} of {len(a)} per-layer "
              f"counts repeat between two traced runs")
        problems += differ
        for names, want in EXPECTED.get(workload, {}).items():
            names = names if isinstance(names, tuple) else (names,)
            got = sum(a[n] for n in names)
            status = "ok" if got == want else "MISMATCH"
            print(f"{workload}: {' + '.join(names)} = {got:,} "
                  f"(expected {want:,}) {status}")
            if got != want:
                problems.append(f"{workload}: {' + '.join(names)} = {got}, "
                                f"expected {want}")
        for rec in (first, second):
            problems += [f"{workload}: {p}" for p in rec["trace_problems"]]
            problems += [f"{workload}: wrong output: {w}" for w in rec["wrong"]]
    for p in problems:
        print(f"FAIL {p}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
