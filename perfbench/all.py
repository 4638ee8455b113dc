"""Run every workload, untraced and then traced, each in a fresh process.

    python3 perfbench/all.py [--seed N] [--seconds S] [--out results.jsonl]

Prints, per workload, every end-to-end metric by name with its unit and
sample count, failed_ratio with its failure kinds, and every per-layer
metric of the traced run, the tracing overhead (trace.overhead_s) among
them. Exits 1 when any oracle fails: a wrong output, an op that failed,
or a trace self-check (counts repeating between traced reps, layer self
times covering the traced wall time).
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile

from bench import BENCHMARK, OUT, ROOT, describe

HERE = os.path.dirname(os.path.abspath(__file__))


def run_one(workload, seed, seconds, trace, out_path):
    """One run.py process; returns its record, or None if it failed."""
    OUT.mkdir(exist_ok=True)
    with tempfile.NamedTemporaryFile("r", suffix=".jsonl", dir=OUT) as tmp:
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"),
             "--workload", workload, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(int(trace)),
             "--out", tmp.name],
            cwd=ROOT, capture_output=True, text=True)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            return None
        line = tmp.read().strip()
    if out_path:
        with open(out_path, "a") as fh:
            fh.write(line + "\n")
    return json.loads(line)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=BENCHMARK["run_seconds"])
    p.add_argument("--out", help="append every record to this JSONL file")
    args = p.parse_args(argv)
    ok = True
    for w in BENCHMARK["workloads"]:
        plain = run_one(w["name"], args.seed, args.seconds, False, args.out)
        traced = run_one(w["name"], args.seed, args.seconds, True, args.out)
        if plain is None or traced is None:
            print(f"# {w['name']}: run failed")
            ok = False
            continue
        for line in describe(plain) + describe(traced):
            print(line)
        print(f"spans written to {traced['spans_file']}")
        for rec in (plain, traced):
            ok &= not (rec["wrong"] or rec["failed"] or rec.get("trace_problems"))
        print()
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
