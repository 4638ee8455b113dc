"""Theorem-checking harness.

Each check_* procedure compares a brute-force computation against a
predicted closed form on one finite instance and returns a CheckReport.
Brute force is always the arbiter; the closed form is the hypothesis
under test. Every check reports the same way, whether it is called
directly or through `run_suite`: failed reports carry a serializable
witness (the lattice as JSON plus the offending objects); an instance
outside a size cap, wherever the cap is hit, or outside the check's
scope is reported as skipped, never as passed; and any other
`LatticeError` is reported as a failure carrying the error.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
import random

from .core import Lattice, bits, mask_of, named
from .congruence import DEFAULT_MEMBER_CAP, all_congruences, is_simple
from .construct import dilate, fat_intervals, horizontal_sum, hsum_congruences
from .equiv import Partition, is_congruence
from .errors import BadConfig, LatticeError, SizeCapExceeded
from .filters import all_filters, all_ideals, is_filter, is_ideal, \
    is_prime_filter, is_prime_ideal, prime_filters, prime_ideals
from . import expr as expr_mod

DEFAULT_DILATE_INPUT_CAP = 8
DEFAULT_SUMMAND_CAP = 10
CENSUS_CAP = 10
COUNT_CAP = 10_000


class CheckReport:
    """Outcome of one check on one instance."""

    def __init__(self, check_name, instance_descr, passed, details=None,
                 skipped=False):
        self.check_name = check_name
        self.instance_descr = instance_descr
        self.passed = passed
        self.details = details if details is not None else {}
        self.skipped = skipped

    @property
    def status(self) -> str:
        if self.skipped:
            return "SKIP"
        return "PASS" if self.passed else "FAIL"

    def line(self) -> str:
        return f"[{self.status}] {self.check_name}: {self.instance_descr}"

    def to_dict(self) -> dict:
        return {
            "check": self.check_name,
            "instance": self.instance_descr,
            "status": self.status,
            "details": self.details,
        }

    def __repr__(self):
        return f"CheckReport({self.line()!r})"


def reports_to_json(reports) -> str:
    return json.dumps([r.to_dict() for r in reports], indent=2)


def _instance(lat: Lattice) -> str:
    return lat.name or f"<{lat.n} elements>"


class _Skip(Exception):
    """Raised by a check body when the instance lies outside the check."""


def _check(name, arity):
    """Give a check body the report policy that every check shares.

    The body's first `arity` arguments are the summands that name the
    instance; with arity 0 its first argument is a list of them. It
    returns (lattice, problems, details). Non-empty problems give FAIL
    with the lattice and the first eight problems as witness. A
    `SizeCapExceeded` or `_Skip` raised anywhere in it gives SKIP with
    the reason, and any other `LatticeError` gives FAIL with the error,
    plus the lattice when there is one summand.
    """
    def wrap(body):
        @functools.wraps(body)
        def check(*args):
            if not arity:
                args = (list(args[0]),) + args[1:]
            summands = args[:arity] or args[0]
            inst = " (+) ".join(_instance(lat) for lat in summands)
            try:
                lat, problems, details = body(*args)
            except (SizeCapExceeded, _Skip) as e:
                return CheckReport(name, inst, False, {"reason": str(e)},
                                   skipped=True)
            except LatticeError as e:
                details = {"error": f"{type(e).__name__}: {e}"}
                if arity == 1:
                    details["lattice"] = summands[0].to_dict()
                return CheckReport(name, inst, False, details)
            if problems:
                details["lattice"] = lat.to_dict()
                details["witness"] = problems[:8]
            return CheckReport(name, inst, not problems, details)
        return check
    return wrap


# -- isomorphism ---------------------------------------------------------------

def _heights(lat, covers_down):
    """Longest chain down from each element, given its lower covers."""
    order = sorted(range(lat.n), key=lambda i: bin(lat.down[i]).count("1"))
    h = [0] * lat.n
    for i in order:
        below = covers_down[i]
        h[i] = 1 + max((h[j] for j in below), default=-1)
    return h


def _invariants(lat):
    """Per-element isomorphism-invariant colors, stabilized by refinement."""
    n = lat.n
    ups = [[] for _ in range(n)]
    downs = [[] for _ in range(n)]
    for i, j in lat.cover_pairs:
        ups[i].append(j)
        downs[j].append(i)
    height = _heights(lat, downs)
    depth = _heights(lat.dual(), ups)
    inv = [(len(ups[i]), len(downs[i]), height[i], depth[i]) for i in range(n)]
    classes = len(set(inv))
    while True:
        keys = [
            (inv[i],
             tuple(sorted(inv[j] for j in ups[i])),
             tuple(sorted(inv[j] for j in downs[i])))
            for i in range(n)
        ]
        rank = {k: r for r, k in enumerate(sorted(set(keys)))}
        inv = [rank[k] for k in keys]
        if len(rank) == classes:
            return inv
        classes = len(rank)


def isomorphic(a: Lattice, b: Lattice):
    """An order isomorphism a -> b as an index list, or None.

    Backtracking over invariant-compatible candidates, trying elements in
    index order and candidates ascending, so the witness returned is the
    lexicographically least isomorphism.
    """
    if a.n != b.n:
        return None
    return _isomorphism(a, b, _invariants(a), _invariants(b))


def _isomorphism(a, b, ia, ib):
    """`isomorphic` for equal-sized lattices with their invariants given."""
    if sorted(ia) != sorted(ib):
        return None
    n = a.n
    cand = [[j for j in range(n) if ib[j] == ia[i]] for i in range(n)]
    f = [-1] * n
    used = [False] * n
    aup, bup = a.up, b.up

    def consistent(i, j):
        for k in range(i):
            fk = f[k]
            if ((aup[k] >> i) & 1) != ((bup[fk] >> j) & 1):
                return False
            if ((aup[i] >> k) & 1) != ((bup[j] >> fk) & 1):
                return False
        return True

    def backtrack(i):
        if i == n:
            return True
        for j in cand[i]:
            if not used[j] and consistent(i, j):
                f[i] = j
                used[j] = True
                if backtrack(i + 1):
                    return True
                used[j] = False
        f[i] = -1
        return False

    return list(f) if backtrack(0) else None


# -- corpus ---------------------------------------------------------------------

_ATOM_POOL = (
    [("chain", k) for k in (2, 3, 4, 5)]
    + [("B2", None), ("M3", None), ("N5", None), ("K", None)]
    + [("div", k) for k in (4, 6, 8, 12)]
)


def _named_baseline():
    out = [named("chain", k) for k in (2, 3, 4, 5)]
    out += [named("B2"), named("M3"), named("N5"), named("K")]
    out += [named("div", k) for k in (4, 6, 8, 12, 16, 24, 30, 36)]
    return out


def _random_expr(rng, depth):
    if depth <= 0 or rng.random() < 0.4:
        kind, arg = rng.choice(_ATOM_POOL)
        return expr_mod.NamedAtom(kind, arg)
    if rng.random() < 0.5:
        return expr_mod.OSum(_random_expr(rng, depth - 1),
                             _random_expr(rng, depth - 1))
    width = rng.choice((2, 2, 3))
    return expr_mod.HSum(tuple(_random_expr(rng, depth - 1)
                               for _ in range(width)))


def _subset_closure(rng) -> Lattice:
    """Random union/intersection-closed family of subsets: distributive."""
    k = rng.choice((3, 3, 4))
    full = (1 << k) - 1
    fam = {0, full}
    for _ in range(rng.randint(2, 4)):
        fam.add(rng.randrange(1 << k))
    changed = True
    while changed:
        changed = False
        items = sorted(fam)
        for i, s in enumerate(items):
            for t in items[i + 1:]:
                for c in (s & t, s | t):
                    if c not in fam:
                        fam.add(c)
                        changed = True
    items = sorted(fam)
    letters = "abcd"
    labels = ["{" + ",".join(letters[i] for i in bits(s)) + "}" for s in items]
    up = []
    for s in items:
        row = 0
        for j, t in enumerate(items):
            if s | t == t:
                row |= 1 << j
        up.append(row)
    name = f"closure({k};{','.join(map(str, items))})"
    return Lattice(labels, up, name=name)


def _chain_product_top(rng) -> Lattice:
    """Product of two chains with one new top adjoined above everything."""
    p = rng.randint(2, 4)
    q = rng.randint(2, 4)
    labels = [f"({i},{j})" for i in range(p) for j in range(q)] + ["T"]
    covers = []
    for i in range(p):
        for j in range(q):
            if i + 1 < p:
                covers.append((f"({i},{j})", f"({i + 1},{j})"))
            if j + 1 < q:
                covers.append((f"({i},{j})", f"({i},{j + 1})"))
    covers.append((f"({p - 1},{q - 1})", "T"))
    return Lattice.from_covers(labels, covers, name=f"chainprodtop({p},{q})")


def _check_count(count: int) -> None:
    if count < 0:
        raise BadConfig("count must be non-negative")
    if count > COUNT_CAP:
        raise BadConfig(f"count capped at {COUNT_CAP}")


def corpus(seed: int, count: int, max_size: int):
    """Deterministic-by-seed mix of named and random lattices, size-capped;
    `count` may not exceed COUNT_CAP."""
    if max_size < 2:
        raise BadConfig("max_size must be at least 2")
    _check_count(count)
    out = [lat for lat in _named_baseline() if lat.n <= max_size]
    rng = random.Random(seed)
    for _ in range(count):
        lat = None
        for _attempt in range(64):
            r = rng.random()
            if r < 0.55:
                lat = expr_mod.evaluate(_random_expr(rng, 2))
            elif r < 0.8:
                lat = _subset_closure(rng)
            else:
                lat = _chain_product_top(rng)
            if lat.n <= max_size:
                break
            lat = None
        if lat is not None:
            out.append(lat)
    return out


def _coatom_extensions(lat):
    """(up, down) masks of each lattice that is `lat` plus a new coatom.

    `lat` is labelled along a linear extension with its top last. For
    each down-closed set D holding the bottom but not the top, the new
    coatom c goes above exactly D; c takes the old top's index and the
    top moves one up, so the labelling stays a linear extension. The
    result is a lattice iff the join in `lat` of any two members of D
    lies in D or is the top. If so, c is the join of each such pair
    whose old join is the top, every other pair keeps its join, and a
    finite bounded poset with all joins is a lattice, so no meet needs
    a test of its own (D meets each principal ideal outside D in a
    principal ideal). The sets D are grown in index order, each with
    the mask of its pairwise joins; a set is dropped once one of those
    joins is decided outside it, since a later element never lies below
    an earlier one.
    """
    m = lat.n
    downsets = [(1, 1)]  # (D, the mask of the joins of pairs in D)
    for i in range(1, m - 1):
        below, bit, row = lat.down[i] & ~(1 << i), 1 << i, lat.join_t[i]
        grown = []
        for d, joins in downsets:
            if not below & ~d:
                for y in bits(d):
                    joins |= 1 << row[y]
                grown.append((d | bit, joins | bit))
        downsets = [e for e in downsets if not e[1] & bit] + grown
    c, keep = 1 << (m - 1), (1 << (m - 1)) - 1
    top = c << 1
    for d, _ in downsets:
        up = tuple((u & keep) | (c if (d >> i) & 1 else 0) | top
                   for i, u in enumerate(lat.up[:-1])) + (c | top, top)
        yield up, lat.down[:-1] + (d | c, (top << 1) - 1)


def _least_lows(up, down):
    """The least (lows[0], ..., lows[n-1]) over linear extensions of an order.

    The order is a lattice given by its up and down masks. lows[j] is
    the mask of the positions strictly below the element placed at
    position j. The tuple fixes the lattice up to isomorphism.
    Backtracking fills positions in order with elements whose lower
    elements are all placed. It follows only the candidates of least
    code, drops a prefix that already exceeds the best, and of two
    candidates with the same strict upset and downset (swapped by an
    automorphism) tries one.
    """
    n = len(up)
    below = [down[x] & ~(1 << x) for x in range(n)]
    twin = [(below[x], up[x] & ~(1 << x)) for x in range(n)]
    pos = [0] * n
    lows = [0] * n
    best = None

    def rec(j, placed):
        nonlocal best
        if j == n:
            best = lows[:]
            return
        codes = {}
        for x in bits(~placed & ((1 << n) - 1)):
            if below[x] & ~placed:
                continue
            c = 0
            for y in bits(below[x]):
                c |= 1 << pos[y]
            codes.setdefault(c, []).append(x)
        least = min(codes)
        lows[j] = least
        if best is not None and lows[:j + 1] > best[:j + 1]:
            return
        seen = set()
        for x in codes[least]:
            if twin[x] not in seen:
                seen.add(twin[x])
                pos[x] = j
                rec(j + 1, placed | (1 << x))

    rec(0, 0)
    return tuple(best)


def _up_of_lows(lows):
    """The up masks of the order whose element j lies above lows[j]."""
    n = len(lows)
    return tuple(1 << i | mask_of(k for k in range(i + 1, n)
                                  if lows[k] >> i & 1)
                 for i in range(n))


def enumerate_lattices(max_n: int):
    """Census of all lattices with up to max_n elements, one per iso class.

    Opt-in and exponential. Removing a coatom c != 0 from a lattice
    leaves a lattice, so every class of size n is a class of size n - 1
    with a coatom added (McKay, "Isomorph-free exhaustive generation",
    1998; Heitzig and Reinhold, "Counting finite lattices", 2002).
    `_coatom_extensions` tests each such child on its parent's join
    table, as order masks, and each child that is a lattice is keyed by
    its least lows tuple over linear extensions (`_least_lows`), which
    is equal for two children exactly when they are isomorphic. Only
    then is each class built, with full validation, as a `Lattice` on
    e0..e{n-1} from that tuple; the classes of each size are listed by
    it.
    """
    if max_n < 1:
        raise BadConfig("max_n must be at least 1")
    if max_n > CENSUS_CAP:
        raise BadConfig(f"census capped at {CENSUS_CAP} elements")
    out = [Lattice(("e0",), (1,), name="census(1)#0"),
           Lattice(("e0", "e1"), (3, 2), name="census(2)#0")][:max_n]
    level = out[1:]
    for n in range(3, max_n + 1):
        labels = tuple(f"e{i}" for i in range(n))
        found = {_least_lows(up, down) for parent in level
                 for up, down in _coatom_extensions(parent)}
        level = [Lattice(labels, _up_of_lows(lows), name=f"census({n})#{k}")
                 for k, lows in enumerate(sorted(found))]
        out += level
    return out


# -- shared helpers for the horizontal-sum checks --------------------------------

def _pair_images(embeddings, A, B):
    """Index sets of A minus bottom/top and B minus bottom/top in their sum."""
    e_a, e_b = embeddings
    def image(lat, e, exclude):
        return frozenset(e[i] for i in range(lat.n) if i != exclude)
    return {
        "A0": image(A, e_a, A.bottom),  # A minus its bottom
        "A1": image(A, e_a, A.top),
        "B0": image(B, e_b, B.bottom),
        "B1": image(B, e_b, B.top),
    }


def _two_block(H, left, right) -> Partition:
    return Partition.from_blocks(H.n, [sorted(left), sorted(right)])


def _con01_product(lats):
    """(Con of each summand, its con01 members, the predicted con01 of
    their horizontal sum): one assembled member per choice of con01
    members, skipped when there would be too many."""
    cons = [all_congruences(lat) for lat in lats]
    con01s = [con.con01_members() for con in cons]
    if math.prod(map(len, con01s)) > DEFAULT_MEMBER_CAP:
        raise _Skip("predicted congruence product too large")
    predicted = {hsum_congruences(zip(lats, combo))
                 for combo in itertools.product(*con01s)}
    return cons, con01s, predicted


# -- checks ----------------------------------------------------------------------

@_check("prime-filter-equivalences", 1)
def check_prime_equivalences(lat: Lattice) -> CheckReport:
    """Five-way prime-filter equivalence and the two-class characterization."""
    con = all_congruences(lat)
    coatoms = {con.members[i] for i in con.coatoms()}
    carrier = frozenset(range(lat.n))
    problems = []
    fam = all_filters(lat)
    for member in fam.members:
        fset = member.elements
        if fset == carrier:
            continue
        comp = sorted(carrier - fset)
        flags = [
            member.prime,
            is_ideal(lat, comp),
        ]
        flags.append(bool(flags[1] and is_prime_ideal(lat, comp)))
        part = Partition.from_blocks(lat.n, [sorted(fset), comp])
        flags.append(is_congruence(lat, part))
        flags.append(part in coatoms)
        if len(set(flags)) != 1:
            problems.append({
                "filter": [lat.labels[i] for i in sorted(fset)],
                "flags": flags,
            })
    pf_sets = set(prime_filters(lat).prime_sets())
    pid_sets = set(prime_ideals(lat).prime_sets())
    nab = Partition.nabla(lat.n)
    for m in con.members:
        two = m.num_blocks == 2
        zero_class = m.block(lat.bottom)
        one_class = m.block(lat.top)
        alt = (
            m != nab
            and len(zero_class) + len(one_class) == lat.n
            and m == Partition.from_blocks(lat.n, [zero_class, one_class])
        )
        if two != alt:
            problems.append({"congruence": m.render(lat.labels),
                             "two_blocks": two, "bound_cover": alt})
        if two and (frozenset(one_class) not in pf_sets
                    or frozenset(zero_class) not in pid_sets):
            problems.append({"congruence": m.render(lat.labels),
                             "reason": "classes not prime filter/ideal"})
    return lat, problems, {"filters": len(fam.members),
                           "congruences": len(con.members)}


@_check("bound-irreducibility", 1)
def check_irreducibility(lat: Lattice) -> CheckReport:
    """Bound irreducibility against filters, spectra and congruences."""
    if lat.trivial:
        raise _Skip("needs a non-trivial lattice")
    con = all_congruences(lat)
    coatoms = {con.members[i] for i in con.coatoms()}
    n = lat.n
    problems = []

    # Congruences and the coatoms of Con are self-dual, so the top is
    # checked as the bottom of the dual.
    for bound, side in (("bottom", lat), ("top", lat.dual())):
        b = side.bottom
        rest = sorted(set(range(n)) - {b})
        flags = [side.is_meet_irreducible(b), is_filter(side, rest)]
        flags.append(bool(flags[1] and is_prime_filter(side, rest)))
        flags.append(is_prime_ideal(side, [b]))
        part = Partition.from_blocks(n, [[b], rest])
        flags.append(is_congruence(side, part))
        flags.append(part in coatoms)
        if len(set(flags)) != 1:
            problems.append({"bound": bound, "flags": flags})

    if n > 2:
        both = lat.is_meet_irreducible(lat.bottom) and \
            lat.is_join_irreducible(lat.top)
        interior = [x for x in range(n) if x not in (lat.bottom, lat.top)]
        closed = all(
            lat.meet(x, y) in interior and lat.join(x, y) in interior
            for x in interior for y in interior
        )
        part = Partition.from_blocks(n, [[lat.bottom], interior, [lat.top]])
        cong = is_congruence(lat, part)
        if not (both == closed == cong):
            problems.append({"bound": "interior",
                             "flags": [both, closed, cong]})
    return lat, problems, {}


@_check("hsum-counts", 2)
def check_hsum_counts(A: Lattice, B: Lattice) -> CheckReport:
    """Size and filter/ideal count identities of the two-summand sum."""
    H, _ = horizontal_sum([A, B])
    problems = []
    if H.n != A.n + B.n - 2:
        problems.append({"size": [H.n, A.n, B.n]})
    fa, fb, fh = len(all_filters(A)), len(all_filters(B)), len(all_filters(H))
    if fh != fa + fb - 2:
        problems.append({"filters": [fh, fa, fb]})
    ia, ib, ih = len(all_ideals(A)), len(all_ideals(B)), len(all_ideals(H))
    if ih != ia + ib - 2:
        problems.append({"ideals": [ih, ia, ib]})
    return H, problems, {}


@_check("hsum-spectra", 2)
def check_spechsum(A: Lattice, B: Lattice) -> CheckReport:
    """Prime spectra of a two-summand sum against the predicted candidates."""
    if A.n <= 2 or B.n <= 2:
        raise _Skip("summands must have more than two elements")
    H, embeddings = horizontal_sum([A, B])
    img = _pair_images(embeddings, A, B)
    pf = set(prime_filters(H).prime_sets())
    pid = set(prime_ideals(H).prime_sets())
    problems = []
    if not pf <= {img["A0"], img["B0"]}:
        problems.append({"unexpected_prime_filters": sorted(
            sorted(H.labels[i] for i in s)
            for s in pf - {img["A0"], img["B0"]})})
    if not pid <= {img["A1"], img["B1"]}:
        problems.append({"unexpected_prime_ideals": sorted(
            sorted(H.labels[i] for i in s)
            for s in pid - {img["A1"], img["B1"]})})
    con = all_congruences(H)
    coatoms = {con.members[i] for i in con.coatoms()}
    for first, second, f_key, i_key in (
        (A, B, "A0", "B1"),
        (B, A, "B0", "A1"),
    ):
        part = _two_block(H, img[f_key], img[i_key])
        flags = [
            first.is_meet_irreducible(first.bottom)
            and second.is_join_irreducible(second.top),
            img[f_key] in pf,
            img[i_key] in pid,
            is_congruence(H, part),
            part in coatoms,
        ]
        if len(set(flags)) != 1:
            problems.append({"side": f_key, "flags": flags})
    return H, problems, {"prime_filters": len(pf), "prime_ideals": len(pid)}


@_check("hsum-congruence-trichotomy", 2)
def check_cghsum(A: Lattice, B: Lattice) -> CheckReport:
    """Two-summand congruence trichotomy, product decomposition, order iso."""
    if A.n <= 2 or B.n <= 2:
        raise _Skip("summands must have more than two elements")
    H, embeddings = horizontal_sum([A, B])
    conH = all_congruences(H)
    (conA, conB), (con01A, con01B), predicted01 = _con01_product([A, B])
    img = _pair_images(embeddings, A, B)
    taus = []
    if A.is_meet_irreducible(A.bottom) and B.is_join_irreducible(B.top):
        taus.append(_two_block(H, img["A0"], img["B1"]))
    if B.is_meet_irreducible(B.bottom) and A.is_join_irreducible(A.top):
        taus.append(_two_block(H, img["B0"], img["A1"]))
    predicted = predicted01 | set(taus) | {Partition.nabla(H.n)}
    computed = set(conH.members)
    problems = []
    if computed != predicted:
        extra = [m.render(H.labels) for m in sorted(
            computed - predicted, key=lambda p: p.block_of)]
        missing = [m.render(H.labels) for m in sorted(
            predicted - computed, key=lambda p: p.block_of)]
        problems.append({"extra": extra, "missing": missing})
    two_class = {m for m in conH.members if m.num_blocks == 2}
    if two_class != set(taus):
        problems.append({
            "case_index": len(taus),
            "two_class_found": [m.render(H.labels) for m in two_class],
        })
    con01H = conH.con01_members()
    if set(con01H) != predicted01 or \
            len(con01H) != len(con01A) * len(con01B):
        problems.append({
            "con01": len(con01H),
            "expected": len(con01A) * len(con01B),
        })
    # order isomorphism with the componentwise order, via restriction
    idx_a, idx_b = embeddings
    set_a, set_b = set(con01A), set(con01B)
    trips = []
    for theta in con01H:
        ra = theta.restrict(idx_a)
        rb = theta.restrict(idx_b)
        if ra not in set_a or rb not in set_b:
            problems.append({"restriction_escapes": theta.render(H.labels)})
            continue
        if hsum_congruences([(A, ra), (B, rb)]) != theta:
            problems.append({"reassembly_differs": theta.render(H.labels)})
        trips.append((theta, conA.index_of(ra), conB.index_of(rb)))
    for theta, a1, b1 in trips:
        for theta2, a2, b2 in trips:
            if theta.leq(theta2) != (conA.leq(a1, a2) and conB.leq(b1, b2)):
                problems.append({
                    "order_mismatch": [theta.render(H.labels),
                                       theta2.render(H.labels)],
                })
                break
        else:
            continue
        break
    # ordinal-sum shape: two-class members sit above all of con01, pairwise
    # incomparable, with nabla strictly on top
    for tau in taus:
        if not all(th.leq(tau) for th in con01H):
            problems.append({"tau_not_above_con01": tau.render(H.labels)})
    if len(taus) == 2 and (taus[0].leq(taus[1]) or taus[1].leq(taus[0])):
        problems.append({"taus_comparable": True})
    return H, problems, {"case": len(taus), "con": len(conH.members),
                         "con01": len(con01H)}


@_check("multi-hsum-collapse", 0)
def check_multi_hsum(lats) -> CheckReport:
    """Three or more summands: empty spectra and pure product congruences."""
    if len(lats) < 3 or any(lat.n <= 2 for lat in lats):
        raise _Skip("needs three or more summands, each above two elements")
    H, _ = horizontal_sum(lats)
    conH = all_congruences(H)
    _, con01s, predicted = _con01_product(lats)
    expected_size = math.prod(map(len, con01s))
    problems = []
    if prime_filters(H).prime_sets() or prime_ideals(H).prime_sets():
        problems.append({"spectra_not_empty": True})
    if any(m.num_blocks == 2 for m in conH.members):
        problems.append({"two_class_congruence_found": True})
    predicted |= {Partition.nabla(H.n)}
    computed = set(conH.members)
    if computed != predicted:
        problems.append({
            "extra": [m.render(H.labels) for m in computed - predicted][:4],
            "missing": [m.render(H.labels) for m in predicted - computed][:4],
        })
    if len(conH.members) != expected_size + 1:
        problems.append({"con_size": len(conH.members),
                         "expected": expected_size + 1})
    return H, problems, {"con": len(conH.members)}


@_check("dilation-simplicity", 1)
def check_dilate(lat: Lattice) -> CheckReport:
    """Dilation: simplicity, with `is_simple` held to the listing of Con,
    plus the size and filter/ideal count identities."""
    if lat.trivial:
        raise _Skip("needs a non-trivial lattice")
    D, _ = dilate(lat)
    # listed first, so that a dilation past the listing cap skips before
    # any other work
    listed = len(all_congruences(D))
    fats = fat_intervals(lat)
    problems = []
    if D.n != lat.n + 2 * len(fats):
        problems.append({"size": [D.n, lat.n, len(fats)]})
    simple = is_simple(D)
    if not simple:
        problems.append({"not_simple": True})
    if simple != (listed == 2):
        problems.append({"is_simple": simple, "congruences": listed})
    if len(all_filters(D)) != len(all_filters(lat)) + 2 * len(fats):
        problems.append({"filters": [len(all_filters(D)),
                                     len(all_filters(lat)), len(fats)]})
    if len(all_ideals(D)) != len(all_ideals(lat)) + 2 * len(fats):
        problems.append({"ideals": [len(all_ideals(D)),
                                    len(all_ideals(lat)), len(fats)]})
    return D, problems, {"dilated_size": D.n, "fat_intervals": len(fats)}


@_check("b2-hsum-simplicity", 1)
def check_b2_hsum_simple(S: Lattice) -> CheckReport:
    """Summing with the four-element Boolean lattice leaves con01 plus top.

    When S has no proper congruence isolating both bounds, the sum is
    simple; in every case |Con(sum)| = |con01(S)| + 1. `is_simple` is held
    to the listings of Con(S) and Con(sum), either way.
    """
    if S.n <= 2:
        raise _Skip("needs more than two elements")
    conS = all_congruences(S)
    con01S = conS.con01_members()
    H, _ = horizontal_sum([S, named("B2")])
    conH = all_congruences(H)
    problems = []
    if len(conH.members) != len(con01S) + 1:
        problems.append({"con_size": len(conH.members),
                         "con01_of_summand": len(con01S)})
    for side, lat, con in (("summand", S, conS), ("sum", H, conH)):
        simple = is_simple(lat)
        if simple != (len(con.members) == 2):
            problems.append({"is_simple": simple, "of": side,
                             "congruences": len(con.members)})
    trivial01 = len(con01S) == 1
    if trivial01 and not simple:
        problems.append({"expected_simple": True})
    return H, problems, {"con01": len(con01S), "simple_case": trivial01}


# -- suite runner ------------------------------------------------------------------

SUITES = ("prime", "irred", "counts", "spechsum", "cghsum", "multi",
          "dilate", "b2hsum")


def _corrupted_pentagon() -> Lattice:
    """Pentagon with a tampered meet table, for harness self-tests."""
    lat = named("N5").renamed("N5-corrupted")
    rows = [list(r) for r in lat.meet_t]
    x, top = lat.index("x"), lat.top
    rows[x][top] = rows[top][x] = lat.bottom
    lat.meet_t = tuple(tuple(r) for r in rows)
    return lat


def run_suite(suites=("all",), seed: int = 7, count: int = 25,
              max_size: int = 9, inject_fault: bool = False, census: int = 0):
    """Run the selected checks over the named + random corpus.

    Deterministic by seed. `census=n` additionally sweeps every lattice
    with up to n elements (opt-in: exhaustive, n <= 10); `count` may not
    exceed COUNT_CAP. Returns the full report list; failures are
    whatever reports carry status FAIL.
    """
    if isinstance(suites, str):
        suites = (suites,)
    chosen = set()
    for s in suites:
        if s == "all":
            chosen.update(SUITES)
        elif s in SUITES:
            chosen.add(s)
        else:
            raise BadConfig(
                f"unknown suite {s!r}; valid: all, {', '.join(SUITES)}"
            )
    _check_count(count)
    if max_size < 2:
        raise BadConfig("max_size must be at least 2")
    if census < 0 or census > CENSUS_CAP:
        raise BadConfig(f"census must lie between 0 and {CENSUS_CAP}")
    pool = corpus(seed, count, max_size)
    if census:
        pool.extend(enumerate_lattices(min(census, max_size)))
    rng = random.Random(seed ^ 0x5EED)

    def each(keep):
        return ((lat,) for lat in pool if keep(lat))

    def pairs(source):
        for _ in range(max(count, 10) if source else 0):
            yield rng.choice(source), rng.choice(source)

    def families(source):
        for _ in range(max(count // 2, 5) if source else 0):
            yield ([rng.choice(source) for _ in range(rng.choice((3, 3, 4)))],)

    # One row per suite, in SUITES order: (suite, check, instances). Built
    # per call, so that the checks are looked up now, and the instances
    # are generators, so that the rng draws happen as each chosen suite
    # runs.
    wide = [lat for lat in pool if lat.n > 2]
    table = (
        ("prime", check_prime_equivalences, each(lambda lat: True)),
        ("irred", check_irreducibility, each(lambda lat: True)),
        ("counts", check_hsum_counts,
         pairs([lat for lat in pool if lat.n >= 2])),
        ("spechsum", check_spechsum, pairs(wide)),
        ("cghsum", check_cghsum,
         pairs([lat for lat in wide if lat.n <= DEFAULT_SUMMAND_CAP])),
        ("multi", check_multi_hsum,
         families([lat for lat in wide if lat.n <= 6])),
        ("dilate", check_dilate,
         each(lambda lat: 2 <= lat.n <= DEFAULT_DILATE_INPUT_CAP)),
        ("b2hsum", check_b2_hsum_simple, each(lambda lat: lat.n > 2)),
    )
    reports = [check(*args) for suite, check, instances in table
               if suite in chosen for args in instances]
    if inject_fault:
        reports.append(check_prime_equivalences(_corrupted_pentagon()))
    return reports
