"""The three workloads: suite, census and cli.

A workload is set up once per import of latkit (`setup`), then runs in
reps (`rep`). A rep times each op and checks every output against the
workload's oracle, outside the timing. It returns a `Rep`.
"""

from __future__ import annotations

import contextlib
import io
import os
import random
import time
from typing import NamedTuple

import clibatch

perf = time.perf_counter


class Rep(NamedTuple):
    start: float        # perf_counter time the rep's timed work began
    wall: float         # seconds of the rep's timed work, oracles excluded
    starts: list        # perf_counter time each op began
    latencies: list     # seconds per op
    failed: int         # ops that failed, see each workload
    wrong: list         # oracle violations: wrong outputs, not just failures
    failures: dict      # failure kind -> count


class Suite:
    """`run_suite(seed=7, count=100, max_size=12)`; one op per check call.

    The corpus seed stays 7, the library default, whatever the benchmark
    seed: over run_suite seeds 100..159 one call took 1.35 s to 72 s
    (median 3.2 s), which no run length could make steady.
    """

    name = "suite"
    CONFIG = {"seed": 7, "count": 100, "max_size": 12}
    CHECKS = ("check_prime_equivalences", "check_irreducibility",
              "check_hsum_counts", "check_spechsum", "check_cghsum",
              "check_multi_hsum", "check_dilate", "check_b2_hsum_simple")

    def setup(self, latkit, seed, workdir):
        self.verify = latkit.verify
        self.expected = None

    def rep(self, tracer=None):
        verify = self.verify
        starts, latencies = [], []

        def timed(fn):
            def op(*args, **kwargs):
                if tracer is not None:
                    tracer.op = len(latencies)
                t0 = perf()
                try:
                    return fn(*args, **kwargs)
                finally:
                    starts.append(t0)
                    latencies.append(perf() - t0)
            return op

        originals = {name: getattr(verify, name) for name in self.CHECKS}
        for name, fn in originals.items():
            setattr(verify, name, timed(fn))
        try:
            t0 = perf()
            reports = verify.run_suite(**self.CONFIG)
            wall = perf() - t0
        finally:
            for name, fn in originals.items():
                setattr(verify, name, fn)
        listing = [(r.check_name, r.instance_descr, r.status) for r in reports]
        wrong = []
        fails = sum(1 for _, _, status in listing if status == "FAIL")
        if fails:
            wrong.append(f"{fails} FAIL reports")
        if self.expected is None:
            self.expected = listing
        elif listing != self.expected:
            wrong.append("report list differs from the first rep's")
        if len(latencies) != len(reports):
            wrong.append(f"{len(latencies)} check calls for {len(reports)} reports")
        return Rep(t0, wall, starts, latencies, fails, wrong,
                   {"FAIL report": fails} if fails else {})


class Census:
    """`enumerate_lattices(8)`; one op per call. The seed has no effect."""

    name = "census"
    # Lattices with 1..8 elements up to isomorphism (OEIS A006966).
    EXPECTED = (1, 1, 1, 2, 5, 15, 53, 222)

    def setup(self, latkit, seed, workdir):
        self.verify = latkit.verify

    def rep(self, tracer=None):
        if tracer is not None:
            tracer.op = 0
        t0 = perf()
        classes = self.verify.enumerate_lattices(8)
        wall = perf() - t0
        counts = [0] * 8
        for lat in classes:
            counts[lat.n - 1] += 1
        wrong = []
        if tuple(counts) != self.EXPECTED:
            wrong.append(f"class counts {counts}, expected {list(self.EXPECTED)}")
        return Rep(t0, wall, [t0], [wall], len(wrong), wrong,
                   {"wrong class counts": 1} if wrong else {})


class Cli:
    """A seeded batch of in-process `latkit.cli.main(argv)` calls."""

    name = "cli"

    def setup(self, latkit, seed, workdir):
        self.cli = latkit.cli
        self.commands, fixtures = clibatch.make_batch(random.Random(seed),
                                                      workdir)
        self.traceback_prone = sum(cmd.kind in clibatch.TRACEBACK_PRONE
                                   for cmd in self.commands)
        for path, text in fixtures.items():
            with open(path, "w") as fh:
                fh.write(text)

    def rep(self, tracer=None):
        main = self.cli.main  # looked up now: the tracer may have wrapped it
        starts, latencies = [], []
        failed = 0
        wrong = []
        failures = {}
        for i, cmd in enumerate(self.commands):
            if tracer is not None:
                tracer.op = i
            out, err = io.StringIO(), io.StringIO()
            escaped = None
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                t0 = perf()
                try:
                    code = main(cmd.argv)
                except SystemExit as e:
                    code = e.code
                except Exception as e:  # an escape is a failed op, not a crash
                    code, escaped = None, type(e).__name__
                latencies.append(perf() - t0)
                starts.append(t0)
            # checked at once, so no output outlives its command
            if escaped is not None:
                problem = f"{escaped} escaped cli.main"
            elif code != cmd.exit_code:
                problem = f"exit {code}, expected {cmd.exit_code}"
                wrong.append(f"{cmd.kind}: {problem}")
            else:
                problem = cmd.check(out.getvalue(), err.getvalue())
                if problem:
                    wrong.append(f"{cmd.kind}: {problem}")
            if problem:
                failed += 1
                key = f"{cmd.kind}: {problem}"
                failures[key] = failures.get(key, 0) + 1
        return Rep(starts[0], sum(latencies), starts, latencies, failed,
                   wrong, failures)


WORKLOADS = {w.name: w for w in (Suite, Census, Cli)}


def fixture_dir(out_dir, workload, seed):
    path = os.path.join(out_dir, f"work-{workload}-{seed}-{os.getpid()}")
    os.makedirs(path, exist_ok=True)
    return path
