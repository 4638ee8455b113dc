"""Command-line front end.

Exit codes: 0 success (and all checks passed), 1 check failures,
2 usage/parse/input errors, 3 size caps exceeded.
"""

from __future__ import annotations

import argparse
import sys
from contextlib import nullcontext
from functools import cache
from itertools import compress

from .congruence import all_congruences, con_summary
from .errors import LatticeError, SizeCapExceeded
from .expr import evaluate, parse
from .filters import all_filters, all_ideals
from .dot import con_dot, lattice_dot
from .verify import SUITES, isomorphic, reports_to_json, run_suite


def _eval_arg(text):
    return evaluate(parse(text))


_BIT = bytes.maketrans(b"01", b"\0\1")


def _set_text(labels, mask):
    """The set of `mask` in braces, its labels in ascending index order:
    the binary digits of `mask`, least first, select the labels."""
    picks = bin(mask)[:1:-1].encode().translate(_BIT)
    return "{" + ",".join(compress(labels, picks)) + "}"


def _by_label(lat, family):
    """(generator label, mask, prime flag) of each member, by label."""
    return sorted(zip(map(lat.labels.__getitem__, family.generators),
                      family.masks, family.prime_flags))


def _family_lines(lat, family):
    return [f"{g}: {_set_text(lat.labels, m)}{'  P' if p else ''}"
            for g, m, p in _by_label(lat, family)]


def _spectra_lines(lat, filters, ideals):
    out = []
    for title, family in (("Spec_Filt:", filters), ("Spec_Id:", ideals)):
        out.append(title)
        out += ["  " + _set_text(lat.labels, m)
                for _, m, p in _by_label(lat, family) if p]
    return out


def _cmd_analyze(args) -> int:
    lat = _eval_arg(args.expr)
    filters, ideals = all_filters(lat), all_ideals(lat)
    lines = [
        f"expr: {args.expr}",
        f"elements ({lat.n}): {' '.join(lat.labels)}",
        f"bottom={lat.labels[lat.bottom]} top={lat.labels[lat.top]}",
        f"|L|={lat.n}",
        f"|Filt|={len(filters)}",
        f"|Id|={len(ideals)}",
        *_spectra_lines(lat, filters, ideals),
    ]
    con = con_summary(lat)
    lines += [
        f"|Con|={con.size}",
        f"|Con01|={con.size01}",
        f"simple={'true' if con.simple else 'false'}",
        f"subdirectly_irreducible="
        f"{'false' if con.monolith is None else 'true'}",
    ]
    if con.monolith is not None:
        lines.append(f"monolith: {con.monolith.render(lat.labels)}")
    # every fact is in hand before the first line goes out
    print("\n".join(lines))
    return 0


def _cmd_congruences(args) -> int:
    lat = _eval_arg(args.expr)
    con = all_congruences(lat)
    if args.dot:
        print(con_dot(con), end="")
        return 0
    print(f"|Con|={len(con)}")
    for text in con.line_chunks():  # one print a line costs more
        sys.stdout.write(text)
    return 0


def _cmd_family(args, family) -> int:
    lat = _eval_arg(args.expr)
    print("\n".join(_family_lines(lat, family(lat))))
    return 0


def _cmd_spectra(args) -> int:
    lat = _eval_arg(args.expr)
    print("\n".join(_spectra_lines(lat, all_filters(lat), all_ideals(lat))))
    return 0


def _cmd_iso(args) -> int:
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
    # an unwritable report path is refused before any check runs
    with open(args.json, "w") if args.json else nullcontext() as fh:
        reports = run_suite(
            suites=tuple(suites or ["all"]),
            seed=args.seed,
            count=args.count,
            max_size=args.max_size,
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
        if fh is not None:
            fh.write(reports_to_json(reports))
    if args.json:
        print(f"report written to {args.json}")
    return 1 if failed else 0


@cache
def build_parser() -> argparse.ArgumentParser:
    """The latkit parser, built once per process: parsing keeps no state
    in it, so every call of `main` can share it."""
    parser = argparse.ArgumentParser(
        prog="latkit",
        description="Finite bounded-lattice computations: congruences, "
                    "filters, ideals, spectra, sum constructions and a "
                    "verification suite.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="sizes, spectra, congruence summary")
    p.set_defaults(func=_cmd_analyze)
    p.add_argument("expr")
    p = sub.add_parser("congruences", help="list every congruence")
    p.set_defaults(func=_cmd_congruences)
    p.add_argument("expr")
    p.add_argument("--dot", action="store_true",
                   help="emit the congruence order as DOT instead")
    p = sub.add_parser("filters", help="list all filters, primes flagged P")
    p.set_defaults(func=lambda args: _cmd_family(args, all_filters))
    p.add_argument("expr")
    p = sub.add_parser("ideals", help="list all ideals, primes flagged P")
    p.set_defaults(func=lambda args: _cmd_family(args, all_ideals))
    p.add_argument("expr")
    p = sub.add_parser("spectra", help="prime filters and prime ideals")
    p.set_defaults(func=_cmd_spectra)
    p.add_argument("expr")
    p = sub.add_parser("iso", help="search for an isomorphism")
    p.set_defaults(func=_cmd_iso)
    p.add_argument("left")
    p.add_argument("right")
    p = sub.add_parser("export", help="write the lattice as JSON or DOT")
    p.set_defaults(func=_cmd_export)
    p.add_argument("expr")
    p.add_argument("--format", choices=("json", "dot"), default="json")
    p = sub.add_parser("verify", help="run the theorem-checking suites")
    p.set_defaults(func=_cmd_verify)
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--quiet", action="store_true")
    p.add_argument("--suite", action="append", default=[],
                   help=f"comma-separated from: all, {', '.join(SUITES)}")
    p.add_argument("--count", type=int, default=25)
    p.add_argument("--max-size", type=int, default=9)
    p.add_argument("--json", metavar="FILE",
                   help="also write the report array as JSON")
    p.add_argument("--census", type=int, default=0, metavar="N",
                   help="also sweep every lattice with up to N elements "
                        "(exhaustive, N <= 10)")
    p.add_argument("--inject-fault", action="store_true",
                   help="self-test: corrupt one instance and expect a failure")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except SizeCapExceeded as e:
        print(f"error: {e}", file=sys.stderr)
        return 3
    except (LatticeError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
