"""Command-line front end.

Exit codes: 0 success (and all checks passed), 1 check failures,
2 usage/parse/input errors, 3 size caps exceeded.
"""

from __future__ import annotations

import argparse
import sys

from .congruence import DEFAULT_CON_CAP, all_congruences
from .errors import LatticeError, SizeCapExceeded
from .expr import evaluate, parse
from .filters import all_filters, all_ideals, prime_filters, prime_ideals
from .dot import con_dot, lattice_dot
from .verify import SUITES, reports_to_json, run_suite


def _eval_arg(text):
    return evaluate(parse(text))


def _set_text(lat, indices):
    return "{" + ",".join(lat.labels[i] for i in sorted(indices)) + "}"


def _family_lines(lat, family):
    members = sorted(family.members, key=lambda m: lat.labels[m.generator])
    out = []
    for m in members:
        line = f"{lat.labels[m.generator]}: {_set_text(lat, m.elements)}"
        if m.prime:
            line += "  P"
        out.append(line)
    return out


def _spectra_lines(lat):
    out = ["Spec_Filt:"]
    for m in sorted(prime_filters(lat).members,
                    key=lambda m: lat.labels[m.generator]):
        out.append("  " + _set_text(lat, m.elements))
    out.append("Spec_Id:")
    for m in sorted(prime_ideals(lat).members,
                    key=lambda m: lat.labels[m.generator]):
        out.append("  " + _set_text(lat, m.elements))
    return out


def _cmd_analyze(args) -> int:
    lat = _eval_arg(args.expr)
    print(f"expr: {args.expr}")
    print(f"elements ({lat.n}): {' '.join(lat.labels)}")
    print(f"bottom={lat.labels[lat.bottom]} top={lat.labels[lat.top]}")
    print(f"|L|={lat.n}")
    print(f"|Filt|={len(all_filters(lat))}")
    print(f"|Id|={len(all_ideals(lat))}")
    for line in _spectra_lines(lat):
        print(line)
    if lat.n > args.con_cap:
        print(f"|Con|=? ({lat.n} elements exceeds --con-cap {args.con_cap})")
        return 0
    con = all_congruences(lat, args.con_cap)
    print(f"|Con|={len(con.members)}")
    print(f"|Con01|={len(con.con01_indices())}")
    simple = len(con.members) == 2 and lat.n >= 2
    print(f"simple={'true' if simple else 'false'}")
    monolith = con.monolith()
    si = monolith is not None
    print(f"subdirectly_irreducible={'true' if si else 'false'}")
    if si:
        print(f"monolith: {monolith.render(lat.labels)}")
    return 0


def _cmd_congruences(args) -> int:
    lat = _eval_arg(args.expr)
    con = all_congruences(lat, args.con_cap)
    if args.dot:
        print(con_dot(con), end="")
        return 0
    print(f"|Con|={len(con.members)}")
    for m in con.members:
        print(m.render(lat.labels))
    return 0


def _cmd_family(args, kind) -> int:
    lat = _eval_arg(args.expr)
    family = all_filters(lat) if kind == "filter" else all_ideals(lat)
    for line in _family_lines(lat, family):
        print(line)
    return 0


def _cmd_spectra(args) -> int:
    lat = _eval_arg(args.expr)
    for line in _spectra_lines(lat):
        print(line)
    return 0


def _cmd_iso(args) -> int:
    from .verify import isomorphic

    a = _eval_arg(args.left)
    b = _eval_arg(args.right)
    mapping = isomorphic(a, b)
    if mapping is None:
        print("not isomorphic")
        return 1
    print("isomorphic")
    for i, j in enumerate(mapping):
        print(f"{a.labels[i]} -> {b.labels[j]}")
    return 0


def _cmd_export(args) -> int:
    lat = _eval_arg(args.expr)
    if args.format == "json":
        print(lat.to_json(indent=2))
    else:
        print(lattice_dot(lat), end="")
    return 0


def _cmd_verify(args) -> int:
    suites = []
    for chunk in args.suite:
        suites.extend(s for s in chunk.split(",") if s)
    if not suites:
        suites = ["all"]
    reports = run_suite(
        suites=tuple(suites),
        seed=args.seed,
        count=args.count,
        max_size=args.max_size,
        con_cap=args.con_cap,
        inject_fault=args.inject_fault,
        census=args.census,
    )
    failed = [r for r in reports if not r.passed and not r.skipped]
    skipped = [r for r in reports if r.skipped]
    for r in reports:
        if not args.quiet or (not r.passed and not r.skipped):
            print(r.line())
    print(
        f"{len(reports) - len(failed) - len(skipped)} passed, "
        f"{len(failed)} failed, {len(skipped)} skipped"
    )
    if args.json:
        with open(args.json, "w") as fh:
            fh.write(reports_to_json(reports))
        print(f"report written to {args.json}")
    return 1 if failed else 0


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--con-cap", type=int, default=DEFAULT_CON_CAP,
                        help="max lattice size for congruence enumeration")
    common.add_argument("--seed", type=int, default=7)
    common.add_argument("--quiet", action="store_true")
    parser = argparse.ArgumentParser(
        prog="latkit",
        description="Finite bounded-lattice computations: congruences, "
                    "filters, ideals, spectra, sum constructions and a "
                    "verification suite.",
        parents=[common],
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", parents=[common],
                       help="sizes, spectra, congruence summary")
    p.add_argument("expr")
    p = sub.add_parser("congruences", parents=[common],
                       help="list every congruence")
    p.add_argument("expr")
    p.add_argument("--dot", action="store_true",
                   help="emit the congruence order as DOT instead")
    p = sub.add_parser("filters", parents=[common],
                       help="list all filters, primes flagged P")
    p.add_argument("expr")
    p = sub.add_parser("ideals", parents=[common],
                       help="list all ideals, primes flagged P")
    p.add_argument("expr")
    p = sub.add_parser("spectra", parents=[common],
                       help="prime filters and prime ideals")
    p.add_argument("expr")
    p = sub.add_parser("iso", parents=[common],
                       help="search for an isomorphism")
    p.add_argument("left")
    p.add_argument("right")
    p = sub.add_parser("export", parents=[common],
                       help="write the lattice as JSON or DOT")
    p.add_argument("expr")
    p.add_argument("--format", choices=("json", "dot"), default="json")
    p = sub.add_parser("verify", parents=[common],
                       help="run the theorem-checking suites")
    p.add_argument("--suite", action="append", default=[],
                   help=f"comma-separated from: all, {', '.join(SUITES)}")
    p.add_argument("--count", type=int, default=25)
    p.add_argument("--max-size", type=int, default=9)
    p.add_argument("--json", metavar="FILE",
                   help="also write the report array as JSON")
    p.add_argument("--census", type=int, default=0, metavar="N",
                   help="also sweep every lattice with up to N elements "
                        "(exhaustive, N <= 8)")
    p.add_argument("--inject-fault", action="store_true",
                   help="self-test: corrupt one instance and expect a failure")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "analyze":
            return _cmd_analyze(args)
        if args.command == "congruences":
            return _cmd_congruences(args)
        if args.command == "filters":
            return _cmd_family(args, "filter")
        if args.command == "ideals":
            return _cmd_family(args, "ideal")
        if args.command == "spectra":
            return _cmd_spectra(args)
        if args.command == "iso":
            return _cmd_iso(args)
        if args.command == "export":
            return _cmd_export(args)
        if args.command == "verify":
            return _cmd_verify(args)
        parser.error(f"unknown command {args.command!r}")
    except SizeCapExceeded as e:
        print(f"error: {e}", file=sys.stderr)
        return 3
    except LatticeError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except OSError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    return 2


if __name__ == "__main__":
    sys.exit(main())
