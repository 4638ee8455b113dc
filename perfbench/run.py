"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload suite|census|cli --seed N \
        --seconds S --trace 0|1 [--out results.jsonl]

Prints each metric by name with its unit and sample count, then, as the
last line, one JSON object with the keys correct, attempted, failed and
metrics: the end-to-end metrics of BENCHMARK.json with --trace 0, its
per-layer metrics with --trace 1. `correct` is false when an oracle finds
a wrong output; `failed` also counts ops that ended in an exception
escaping latkit. --out appends the full record (metadata, every metric,
sample counts, failure kinds) as one JSON line.
"""

from __future__ import annotations

import argparse
import json
import sys

from bench import NoSource, describe, result_line, run


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out", help="append the full record to this JSONL file")
    args = p.parse_args(argv)
    try:
        record = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except (NoSource, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    for line in describe(record):
        print(line)
    if args.out:
        with open(args.out, "a") as fh:
            fh.write(json.dumps(record) + "\n")
    print(result_line(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
