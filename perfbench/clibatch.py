"""The cli workload: a seeded batch of latkit commands with their oracles.

The batch is a fixed recipe of command templates. The seed picks each
template's concrete input among variants of equal cost: how a chain is
split into an ordinal sum of chains, the order of summands, which
isomorphic or same-sized partner an `iso` command gets, which divisor
lattice, which oversized chain, which malformed text. So inputs differ
between seeds while the work a batch asks for stays nearly the same.

Every command carries the exit code it must end with (the documented one:
0 success, 1 `iso` found no isomorphism, 2 parse and input errors, 3 size
caps) and a check of its output built from `model`, never from latkit.
"""

from __future__ import annotations

import json
import os
import random
from typing import Callable, NamedTuple, Optional

import model as m

# Input kinds that escape `latkit.cli.main` as an exception at the commit
# this benchmark was written against: a JSON file without "covers"
# (KeyError), a file that is not JSON (JSONDecodeError) and an expression
# nested 3000 deep (RecursionError). They are documented to exit 2 and are
# kept in the batch, so their share shows in the failed count.
TRACEBACK_PRONE = ("file-no-covers", "file-not-json", "deep-nesting")


class Command(NamedTuple):
    argv: list
    kind: str
    exit_code: int
    check: Callable[[str, str], Optional[str]]


# -- shapes -------------------------------------------------------------------

def chain_shape(rng, n):
    """An n-element chain as chain(n) or an ordinal sum of two or three chains."""
    r = rng.random()
    if r < 1 / 3 or n < 4:
        return m.chain(n)
    if r < 2 / 3:
        a = rng.randint(2, n - 1)
        return m.osum(m.chain(a), m.chain(n - a + 1))
    a = rng.randint(2, n - 2)
    b = rng.randint(2, n - a)
    c = n - a - b + 2
    if rng.random() < 0.5:
        return m.osum(m.osum(m.chain(a), m.chain(b)), m.chain(c))
    return m.osum(m.chain(a), m.osum(m.chain(b), m.chain(c)))


def split_chain(rng, n):
    """An n-element chain as osum(chain(a), chain(n - a + 1)), a near n/2.

    The form costs the same for every a in the range: latkit builds both
    summands and then the sum, and the labels have the same shape.
    """
    a = rng.randint(max(2, n // 3), max(2, 2 * n // 3))
    return m.osum(m.chain(a), m.chain(n - a + 1))


def two_chain_hsum(rng, a, b, shape=chain_shape):
    pair = [shape(rng, a), shape(rng, b)]
    rng.shuffle(pair)
    return m.hsum(*pair)


# Interchangeable summands for iso pairs, by size: same-sized entries of
# different shape give non-isomorphic sums.
_SUMMANDS = {
    4: (m.B2, lambda: m.chain(4)),
    5: (m.M3, m.N5, lambda: m.chain(5), lambda: m.osum(m.B2(), m.chain(2))),
    6: (m.K, lambda: m.chain(6), lambda: m.osum(m.B2(), m.chain(3)),
        lambda: m.osum(m.chain(3), m.B2())),
}


def _summand(rng, size):
    return rng.choice(_SUMMANDS[size])()


# -- output checks ----------------------------------------------------------------

def _lines(out):
    return out.splitlines()


def check_analyze(shape):
    def check(out, err):
        want = [f"|L|={shape.n}", f"|Filt|={shape.n}", f"|Id|={shape.n}"]
        if shape.con_size is not None:
            want.append(f"|Con|={shape.con_size}")
        if shape.dilation:
            want.append("simple=true")
        lines = set(_lines(out))
        missing = [w for w in want if w not in lines]
        return f"analyze lacks {missing}" if missing else None
    return check


def check_congruences(shape):
    def check(out, err):
        lines = _lines(out)
        if not lines or not lines[0].startswith("|Con|="):
            return "no |Con|= line"
        k = int(lines[0][len("|Con|="):])
        if len(lines) != k + 1:
            return f"|Con|={k} followed by {len(lines) - 1} lines"
        if shape.con_size is not None and k != shape.con_size:
            return f"|Con|={k}, expected {shape.con_size}"
        if not all(line.startswith("{") for line in lines[1:]):
            return "a congruence line is not in block notation"
        return None
    return check


def _dot_counts(out):
    lines = _lines(out)
    if not lines or not lines[0].startswith("digraph") or lines[-1] != "}":
        return None
    edges = sum(1 for line in lines if '" -> "' in line)
    nodes = sum(1 for line in lines[3:-1] if '" -> "' not in line)
    return nodes, edges


def check_con_dot(shape):
    """Con of an n-chain is the Boolean lattice 2^(n-1): known nodes, edges."""
    def check(out, err):
        counts = _dot_counts(out)
        if counts is None:
            return "not a DOT digraph"
        if shape.chain:
            k = shape.n - 1
            want = (2 ** k, k * 2 ** (k - 1))
            if counts != want:
                return f"Con DOT has (nodes, edges) {counts}, expected {want}"
        return None
    return check


def check_family(shape):
    def check(out, err):
        lines = _lines(out)
        if len(lines) != shape.n:
            return f"{len(lines)} members for {shape.n} elements"
        primes = sum(1 for line in lines if line.endswith("  P"))
        if shape.primes is not None and primes != shape.primes:
            return f"{primes} primes flagged, expected {shape.primes}"
        return None
    return check


def check_spectra(shape):
    def check(out, err):
        p = shape.primes
        lines = _lines(out)
        want = ["Spec_Filt:"] + ["  {"] * p + ["Spec_Id:"] + ["  {"] * p
        if len(lines) != len(want) or not all(
                line.startswith(w) for line, w in zip(lines, want)):
            return f"spectra do not list {p} prime filters and ideals"
        return None
    return check


def check_iso(a, b, isomorphic):
    def check(out, err):
        lines = _lines(out)
        if not isomorphic:
            return None if lines == ["not isomorphic"] else "expected 'not isomorphic'"
        if not lines or lines[0] != "isomorphic":
            return "expected 'isomorphic'"
        mapping = {}
        for line in lines[1:]:
            left, sep, right = line.partition(" -> ")
            if not sep:
                return f"bad mapping line {line!r}"
            mapping[left] = right
        if len(mapping) != len(lines) - 1 or \
                not m.is_order_isomorphism(a, b, mapping):
            return "mapping is not an order isomorphism"
        return None
    return check


def check_export(shape, fmt):
    def check(out, err):
        if fmt == "json":
            try:
                data = json.loads(out)
            except ValueError:
                return "export is not JSON"
            counts = (len(data.get("elements", ())), len(data.get("covers", ())))
        else:
            counts = _dot_counts(out)
        want = (shape.n, len(shape.covers))
        return None if counts == want else f"export counts {counts}, expected {want}"
    return check


def check_refused(out, err):
    if out or not err.startswith("error:"):
        return "a refusal must print only an error line on stderr"
    return None


# -- the batch --------------------------------------------------------------------

def _cmd(verb, shape, check, kind, *flags):
    return Command([verb, *flags, shape.expr], kind, 0, check)


def _refusal(argv, kind, exit_code):
    return Command(argv, kind, exit_code, check_refused)


def _file_atom(path):
    # latkit's strings take backslash escapes, not JSON's \uXXXX ones
    return f"file({json.dumps(path, ensure_ascii=False)})"


def _iso_pair(rng, isomorphic):
    sizes = [rng.choice((4, 5, 6)) for _ in range(rng.choice((3, 4)))]
    left = [_summand(rng, s) for s in sizes]
    while True:
        if isomorphic:
            right = list(left)
            rng.shuffle(right)
        else:
            right = list(left)
            k = rng.randrange(len(right))
            right[k] = _summand(rng, sizes[k])
            rng.shuffle(right)
        a, b = m.hsum(*left), m.hsum(*right)
        if rng.random() < 0.5:
            top = chain_shape(rng, rng.randint(3, 5))
            a, b = m.osum(a, top), m.osum(b, top)
        # a non-isomorphic pair must be told apart by an invariant here
        if isomorphic or m.degree_profile(a) != m.degree_profile(b):
            return a, b


def _ihsum(rng, n_base, insert):
    base = split_chain(rng, n_base)
    order = _chain_order(base)
    i = rng.randrange(0, n_base - 2)
    j = rng.randrange(i + 2, n_base)
    return m.ihsum(base, order[i], order[j], insert)


def _chain_order(shape):
    """Labels of a chain shape from bottom to top."""
    nxt = dict(shape.covers)
    out = [shape.bottom]
    while out[-1] in nxt:
        out.append(nxt[out[-1]])
    return out


# div(n) for n near 1.2 million with many divisors; cost is dominated by
# trial division up to n, so it is near-equal between them.
_DIVS = (1_179_360, 1_188_000, 1_197_504, 1_201_200, 1_209_600,
         1_215_000, 1_224_720, 1_234_800, 1_241_856, 1_247_400)


def make_batch(rng: random.Random, fixture_dir: str):
    """The command list of one batch, and the fixture files it reads.

    Returns (commands, fixtures) where fixtures maps path -> text. The
    commands stay in recipe order: when the seed shuffled them, peak RSS
    moved between 76 and 91 MB with what the largest command found left
    in memory before it.
    """
    cmds = []
    fixtures = {}

    # The costly commands, which set op_p95_ms, use split_chain so that
    # their cost does not depend on the seed.

    # Congruence lattices with 2^11..2^16 members.
    for n in (12, 14, 16, 17):
        s = split_chain(rng, n)
        cmds.append(_cmd("congruences", s, check_congruences(s), "con-chain"))
    for n in (13, 15):
        s = split_chain(rng, n)
        cmds.append(_cmd("analyze", s, check_analyze(s), "analyze-chain"))

    # Sums, dilations and interval sums of 12..60 elements.
    for _ in range(4):
        s = two_chain_hsum(rng, 8, 8, split_chain)
        cmds.append(_cmd("analyze", s, check_analyze(s), "analyze-sum"))
        s = two_chain_hsum(rng, 7, 7, split_chain)
        cmds.append(_cmd("congruences", s, check_congruences(s), "con-sum"))
    for n in (5, 5, 6, 6, 8):
        s = m.dilate(split_chain(rng, n))
        cmds.append(_cmd("analyze", s, check_analyze(s), "analyze-dilation"))
    for n in (5, 6, 7):
        s = m.dilate(split_chain(rng, n))
        cmds.append(_cmd("congruences", s, check_congruences(s),
                         "con-dilation"))
    for _ in range(4):
        s = _ihsum(rng, 12, m.N5() if rng.random() < 0.5 else m.M3())
        cmds.append(_cmd("congruences", s, check_congruences(s), "con-ihsum"))
        s = _ihsum(rng, 10, m.B2())
        cmds.append(_cmd("analyze", s, check_analyze(s), "analyze-ihsum"))

    # Congruence lattices drawn as DOT, |Con| <= 256.
    for n in (4, 5, 6, 7, 8, 9):
        s = split_chain(rng, n)
        cmds.append(_cmd("congruences", s, check_con_dot(s), "con-dot",
                         "--dot"))
    for _ in range(4):
        s = two_chain_hsum(rng, 5, 5)
        cmds.append(_cmd("congruences", s, check_con_dot(s), "con-dot",
                         "--dot"))

    # Filters, ideals and spectra of 100..300 elements and of div(n).
    s = split_chain(rng, 100)
    cmds.append(_cmd("spectra", s, check_spectra(s), "spectra"))
    s = two_chain_hsum(rng, 100, 100, split_chain)
    cmds.append(_cmd("spectra", s, check_spectra(s), "spectra"))
    for verb in ("filters", "ideals"):
        s = split_chain(rng, 130)
        cmds.append(_cmd(verb, s, check_family(s), "family"))
    s = two_chain_hsum(rng, 100, 200, split_chain)
    cmds.append(_cmd(rng.choice(("filters", "ideals")), s, check_family(s),
                     "family"))
    for verb in ("spectra", "filters"):
        s = m.div(rng.choice(_DIVS))
        check = check_spectra(s) if verb == "spectra" else check_family(s)
        cmds.append(_cmd(verb, s, check, "div"))

    # Isomorphism: summands permuted, or one summand swapped for another
    # of the same size.
    for i in range(50):
        a, b = _iso_pair(rng, isomorphic=i % 2 == 0)
        cmds.append(Command(["iso", a.expr, b.expr], "iso", 0 if i % 2 == 0
                            else 1, check_iso(a, b, i % 2 == 0)))

    # Export to JSON and DOT.
    for i in range(12):
        fmt = "json" if i % 2 == 0 else "dot"
        s = (chain_shape(rng, rng.randint(40, 80)) if i < 6 else
             two_chain_hsum(rng, rng.randint(20, 40), rng.randint(20, 40)))
        cmds.append(_cmd("export", s, check_export(s, fmt), "export",
                         "--format", fmt))
    s = split_chain(rng, 400)
    cmds.append(_cmd("export", s, check_export(s, "json"), "export"))

    # Small lattices: the common interactive case.
    for _ in range(80):
        r = rng.random()
        if r < 0.4:
            s = chain_shape(rng, rng.randint(3, 9))
        elif r < 0.7:
            s = m.hsum(*[_summand(rng, rng.choice((4, 5, 6)))
                         for _ in range(rng.choice((2, 3)))])
        else:
            s = m.osum(_summand(rng, rng.choice((4, 5, 6))),
                       _summand(rng, rng.choice((4, 5, 6))))
        cmds.append(_cmd("analyze", s, check_analyze(s), "analyze-small"))

    # Inputs that must be refused.
    verbs = ("analyze", "congruences", "filters", "spectra", "export")
    # latkit builds an oversized chain before it refuses it, so the
    # largest one sets the batch's peak RSS: it is always 20000, so that
    # the peak does not move with the seed.
    for n in [20_000] + [rng.randint(501, 19_500) for _ in range(7)]:
        cmds.append(_refusal([rng.choice(verbs), f"chain({n})"],
                             "construction-cap", 3))
    for _ in range(8):
        s = chain_shape(rng, rng.randint(61, 150))
        cmds.append(_refusal(["congruences", s.expr], "congruence-cap", 3))
    bad = ("osum(B2", "chain()", "chain(3", "hsum(B2)", "D(B2,B2)",
           "frob(3)", "B2)", "@B2", "osum(B2,,M3)", 'file("x', "div(-4)",
           "ihsum(B2,0,1,M3)")
    for _ in range(8):
        cmds.append(_refusal([rng.choice(verbs), rng.choice(bad)],
                             "parse-error", 2))
    for i in range(4):
        labels = chain_shape(rng, rng.randint(3, 9)).labels
        path = os.path.join(fixture_dir, f"no-covers-{i}.json")
        fixtures[path] = json.dumps({"elements": labels})
        cmds.append(_refusal([rng.choice(verbs), _file_atom(path)],
                             "file-no-covers", 2))
        path = os.path.join(fixture_dir, f"not-json-{i}.txt")
        fixtures[path] = " < ".join(labels) + "\n"
        cmds.append(_refusal([rng.choice(verbs), _file_atom(path)],
                             "file-not-json", 2))
    for _ in range(4):
        depth = 3000 + rng.randrange(50)
        text = rng.choice((
            "osum(" * depth + "B2" + ",B2)" * depth,
            "D(" * depth + "B2" + ")" * depth,
        ))
        cmds.append(_refusal([rng.choice(verbs), text], "deep-nesting", 2))

    return cmds, fixtures
