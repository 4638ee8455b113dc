"""Set-up, the timed phase and the metrics of one workload run.

latkit is imported from `src/` of the checkout that holds this directory,
never from an installed copy.
"""

from __future__ import annotations

import gc
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from probe import SpeedProbe
from stats import percentile
from tracer import Tracer, layer_metrics
from workloads import WORKLOADS, fixture_dir

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
# Everything a run leaves behind: fixture files while it runs, spans after.
OUT = ROOT / "perfbench" / "out"
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
SETUPS = 7
# Layer self times must cover at least this share of a traced rep's wall
# time; the rest is the benchmark's own loop and output capture.
SELF_TIME_MARGIN = 0.05

perf = time.perf_counter


class NoSource(Exception):
    """The checkout has no latkit sources to benchmark."""


def import_latkit():
    """A fresh import of latkit (and latkit.cli) from this checkout."""
    if not (SRC / "latkit" / "__init__.py").is_file():
        raise NoSource(f"no latkit package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    for name in [m for m in sys.modules if m == "latkit" or m.startswith("latkit.")]:
        del sys.modules[name]
    latkit = importlib.import_module("latkit")
    importlib.import_module("latkit.cli")
    if Path(latkit.__file__).resolve().parent != (SRC / "latkit").resolve():
        raise NoSource(f"latkit imported from {latkit.__file__}, not {SRC}")
    return latkit


def git_commit():
    """The checked-out commit, or None outside a git clone.

    git runs only where the checkout has its own .git, so that it never
    searches the directories above the checkout.
    """
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True)
    except OSError:
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def metadata(workload, seed, seconds, trace):
    return {
        "workload": workload, "seed": seed, "seconds": seconds,
        "trace": trace, "python": platform.python_version(),
        "nproc": os.cpu_count(), "commit": git_commit(),
    }


def setup(workload, seed, workdir):
    """Import latkit and set the workload up SETUPS times.

    Returns (the workload, the (start, end) time of each set-up).
    """
    spans = []
    for _ in range(SETUPS):
        t0 = perf()
        latkit = import_latkit()
        wl = WORKLOADS[workload]()
        wl.setup(latkit, seed, workdir)
        spans.append((t0, perf()))
    return wl, spans


def timed_phase(wl, seconds, probe, tracer=None):
    """Reps until the next would end after `seconds`; at least one.

    With a tracer each round is an untraced rep and then a traced one.
    Returns (untraced reps, traced reps, per-layer metrics of each traced
    rep, peak RSS in MB after the first rep).
    """
    reps, traced, layers = [], [], []
    start = perf()
    while True:
        # garbage left by the previous rep is not this rep's cost
        gc.collect()
        reps.append(wl.rep())
        if len(reps) == 1:
            # later reps add only fragmentation, more of it the more reps
            # a run fits, so the peak is read once the work has run once
            rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        if tracer is not None:
            gc.collect()
            tracer.reset()
            tracer.install()
            try:
                traced.append(wl.rep(tracer))
            finally:
                tracer.uninstall()
            layers.append(layer_metrics(tracer))
        elapsed = perf() - start
        if elapsed * (len(reps) + 1) / len(reps) > seconds:
            return reps, traced, layers, rss


def outside_ops(r, probe):
    """A rep's time outside its ops (run_suite's own work around its
    checks), at the reference speed; none where the wall is the ops' sum."""
    if r.wall <= sum(r.latencies):
        return 0.0
    op_work = sum(lat - probe.inside(t0, t0 + lat)
                  for t0, lat in zip(r.starts, r.latencies))
    return probe.clean(r.start, r.start + r.wall, extra=op_work)


def rep_time(r, probe):
    """A rep's time at the reference speed."""
    return outside_ops(r, probe) + sum(
        probe.clean(t0, t0 + lat) for t0, lat in zip(r.starts, r.latencies))


def end_to_end(reps, setups, rss, probe):
    """Every end-to-end metric: name -> (value, unit, sample count).

    Times are at the probe's reference speed (see probe.py). Every rep
    runs the same ops in the same order. Each op's latency, and the rep's
    time outside its ops, are taken as medians over the reps; `wall_s` is
    their sum.
    """
    per_op = [statistics.median(x) for x in zip(*(
        [probe.clean(t0, t0 + lat) for t0, lat in zip(r.starts, r.latencies)]
        for r in reps))]
    between = statistics.median(outside_ops(r, probe) for r in reps)
    setup_s = statistics.median(probe.clean(t0, t1) for t0, t1 in setups)
    wall = sum(per_op) + between
    completed = len(per_op) - statistics.median(r.failed for r in reps)
    n = f"{len(per_op)} ops x {len(reps)} reps"
    return {
        "wall_s": (wall, "s", n),
        "ops_per_s": (completed / wall, "1/s", n),
        "op_p50_ms": (percentile(per_op, 50) * 1e3, "ms", n),
        "op_p95_ms": (percentile(per_op, 95) * 1e3, "ms", n),
        "setup_s": (setup_s, "s", f"{SETUPS} set-ups"),
        "peak_rss_mb": (rss, "MB", "set-ups and 1 rep"),
    }


def per_layer(reps, traced, layers, tracer, probe):
    """Per-layer metrics of the traced reps, and the trace's self-checks.

    Counts must repeat exactly between traced reps; times are medians, not
    scaled, and include the speed probe's samples (about 1%). The tracing
    overhead compares traced and untraced reps at the reference speed.
    Returns (metrics name -> (value, unit, samples), problems).
    """
    problems = []
    out = {}
    for name, (value, unit) in layers[0].items():
        values = [m[name][0] for m in layers]
        if unit == "s":
            value = statistics.median(values)
        elif any(v != value for v in values):
            problems.append(f"{name} differs between traced reps: {values}")
        out[name] = (value, unit, len(values))
    out["trace.wall_s"] = (statistics.median(r.wall for r in traced), "s",
                           len(traced))
    overhead = (statistics.median(rep_time(r, probe) for r in traced)
                - statistics.median(rep_time(r, probe) for r in reps))
    out["trace.overhead_s"] = (overhead, "s", len(traced))
    out["trace.spans"] = (tracer.next_span, "count", 1)
    for rep, m in zip(traced, layers):
        covered = sum(v for k, (v, _) in m.items() if k.endswith(".self_s"))
        if covered < (1 - SELF_TIME_MARGIN) * rep.wall:
            problems.append(f"layer self times {covered:.4f} s cover less than "
                            f"{1 - SELF_TIME_MARGIN:.0%} of traced wall "
                            f"{rep.wall:.4f} s")
    return out, problems


def run(workload, seed, seconds, trace):
    """One run of one workload in this process; returns the full record."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; "
                         f"known: {', '.join(WORKLOADS)}")
    if not (SRC / "latkit" / "__init__.py").is_file():
        raise NoSource(f"no latkit package under {SRC}")
    workdir = fixture_dir(OUT, workload, seed)
    try:
        with SpeedProbe() as probe:
            wl, setups = setup(workload, seed, workdir)
            tracer = Tracer() if trace else None
            reps, traced, layers, rss = timed_phase(wl, seconds, probe, tracer)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    record = metadata(workload, seed, seconds, trace)
    record["end_to_end"] = end_to_end(reps, setups, rss, probe)
    record["raw_wall_s"] = statistics.median(r.wall for r in reps)
    record["host_speed"] = probe.speed()
    all_reps = reps + traced
    record["attempted"] = sum(len(r.latencies) for r in all_reps)
    record["failed"] = sum(r.failed for r in all_reps)
    record["wrong"] = sorted({w for r in all_reps for w in r.wrong})
    failures = {}
    for r in all_reps:
        for k, v in r.failures.items():
            failures[k] = failures.get(k, 0) + v
    record["failures"] = failures
    if hasattr(wl, "traceback_prone"):
        record["traceback_prone_share"] = (wl.traceback_prone
                                           / len(wl.commands))
    if trace:
        record["per_layer"], record["trace_problems"] = per_layer(
            reps, traced, layers, tracer, probe)
        spans = OUT / f"spans-{workload}-seed{seed}.tsv.gz"
        tracer.write_spans(spans)
        record["spans_file"] = str(spans.relative_to(ROOT))
    return record


def result_line(record):
    """The contract's last line: correct, attempted, failed, metrics."""
    if record["trace"]:
        names = [m["name"] for m in BENCHMARK["per_layer"]]
        source = record["per_layer"]
    else:
        names = [m["name"] for m in BENCHMARK["end_to_end"]]
        source = record["end_to_end"]
    metrics = {n: {"value": source[n][0], "unit": source[n][1]} for n in names}
    return json.dumps({
        "correct": not record["wrong"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": metrics,
    })


def describe(record):
    """Human-readable lines for a record: metrics with units and samples."""
    lines = [f"# {record['workload']} seed={record['seed']} "
             f"trace={record['trace']} python={record['python']} "
             f"nproc={record['nproc']} commit={record['commit'] or 'unknown'}"]
    section = "per_layer" if record["trace"] else "end_to_end"
    for name, (value, unit, samples) in record[section].items():
        lines.append(f"{name:40s} {value:14.6g} {unit:6s} n={samples}")
    if not record["trace"]:
        lines.append(f"{'(unscaled median rep)':40s} {record['raw_wall_s']:14.6g} s")
        lines.append(f"{'(host speed, 1 = reference)':40s} "
                     f"{record['host_speed']:14.6g}")
    ratio = record["failed"] / record["attempted"]
    lines.append(f"{'failed_ratio':40s} {ratio:14.6g} ratio  "
                 f"n={record['attempted']} ({record['failed']} failed)")
    if "traceback_prone_share" in record:
        lines.append(f"  share of traceback-prone input kinds in the batch: "
                     f"{record['traceback_prone_share']:.6g}")
    for kind, count in sorted(record["failures"].items()):
        lines.append(f"  failed: {count} x {kind}")
    for w in record["wrong"]:
        lines.append(f"  WRONG: {w}")
    for p in record.get("trace_problems", ()):
        lines.append(f"  TRACE: {p}")
    return lines
