"""Compare two result sets, one row per (workload, end-to-end metric).

    python3 perfbench/compare.py BASE.jsonl NEW.jsonl

Each file holds records appended by `run.py --out` (or `all.py --out`).
Runs of one workload are paired in file order, so record the parent and
the change alternately, with the same seeds and run length. Each row
gives both sides' median and quartiles, the run count, and a verdict of
better, worse, unchanged or unresolved under the bound BENCHMARK.json
fixes for the metric (see `stats.verdict`). Exits 1 when any row is
worse.
"""

from __future__ import annotations

import argparse
import json
import sys

from bench import BENCHMARK
from stats import quartiles, verdict


def load(path):
    """workload -> list of untraced records, in file order."""
    out = {}
    with open(path) as fh:
        for line in fh:
            if line.strip():
                rec = json.loads(line)
                if not rec["trace"]:
                    out.setdefault(rec["workload"], []).append(rec)
    return out


def rows(base, new):
    for workload in [w["name"] for w in BENCHMARK["workloads"]]:
        if workload not in base or workload not in new:
            continue
        a, b = base[workload], new[workload]
        for metric in BENCHMARK["end_to_end"]:
            name = metric["name"]
            va = [r["end_to_end"][name][0] for r in a]
            vb = [r["end_to_end"][name][0] for r in b]
            yield (workload, name, metric["unit"], va, vb,
                   verdict(va, vb, metric["bound"], metric["better"]))
        fa = sum(r["failed"] for r in a) / sum(r["attempted"] for r in a)
        fb = sum(r["failed"] for r in b) / sum(r["attempted"] for r in b)
        yield workload, "failed_ratio", "ratio", [fa], [fb], (
            "worse" if fb > fa else "better" if fb < fa else "unchanged")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="compare two benchmark result sets")
    p.add_argument("base")
    p.add_argument("new")
    args = p.parse_args(argv)
    base, new = load(args.base), load(args.new)
    print(f"{'workload':8s} {'metric':12s} {'unit':5s} "
          f"{'base q1 / median / q3':>32s} {'new q1 / median / q3':>32s}  runs  verdict")
    worse = False
    for workload, name, unit, va, vb, v in rows(base, new):
        qa = " / ".join(f"{x:.4g}" for x in quartiles(va))
        qb = " / ".join(f"{x:.4g}" for x in quartiles(vb))
        print(f"{workload:8s} {name:12s} {unit:5s} {qa:>32s} {qb:>32s}  "
              f"{len(va)}/{len(vb)}  {v}")
        worse |= v == "worse"
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main())
