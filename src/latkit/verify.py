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
from .construct import _B2, dilate, fat_intervals, horizontal_sum, \
    hsum_congruences
from .equiv import Partition, _canon, _refines, block_renderer, is_congruence
from .errors import BadConfig, LatticeError, SizeCapExceeded
from .filters import all_filters, all_ideals, is_filter, is_ideal, \
    is_prime_filter, is_prime_ideal, prime_filters, prime_ideals
from . import expr as expr_mod

DEFAULT_DILATE_INPUT_CAP = 8
DEFAULT_SUMMAND_CAP = 10
CENSUS_CAP = 10
COUNT_CAP = 10_000
ISO_NODE_CAP = 1_000_000  # a few seconds of search


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

def _invariants(lat):
    """Per-element isomorphism-invariant colours: (upper covers, lower
    covers, |↓x|, |↑x|), refined by the covers' colours until stable
    (McKay and Piperno, "Practical graph isomorphism, II", 2014)."""
    n = lat.n
    ups = [[] for _ in range(n)]
    downs = [[] for _ in range(n)]
    for i, j in lat.cover_pairs:
        ups[i].append(j)
        downs[j].append(i)
    inv = [(len(ups[i]), len(downs[i]), lat.down[i].bit_count(),
            lat.up[i].bit_count()) for i in range(n)]
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

    Backtracking over same-coloured candidates (`_invariants`, which
    every isomorphism keeps), trying elements in index order and
    candidates ascending, so the witness returned is the
    lexicographically least isomorphism. The colours cannot tell some
    pairs apart (a crown whose atom-coatom covers form one cycle against
    one whose covers form two), and their search grows exponentially,
    so it raises SizeCapExceeded past ISO_NODE_CAP partial maps.
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
    nodes = 0

    def consistent(i, j):
        for k in range(i):
            fk = f[k]
            if ((aup[k] >> i) & 1) != ((bup[fk] >> j) & 1):
                return False
            if ((aup[i] >> k) & 1) != ((bup[j] >> fk) & 1):
                return False
        return True

    def backtrack(i):
        nonlocal nodes
        if i == n:
            return True
        for j in cand[i]:
            if not used[j] and consistent(i, j):
                nodes += 1
                if nodes > ISO_NODE_CAP:
                    raise SizeCapExceeded(
                        f"isomorphism search past {ISO_NODE_CAP} nodes")
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
    pool = _ATOM_POOL + [("div", k) for k in (16, 24, 30, 36)]
    return [named(kind) if arg is None else named(kind, arg)
            for kind, arg in pool]


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
    while (grown := {s & t for s in fam for t in fam}  # holds s & s = s
            | {s | t for s in fam for t in fam}) != fam:
        fam = grown
    items = sorted(fam)
    letters = "abcd"
    labels = ["{" + ",".join(letters[i] for i in bits(s)) + "}" for s in items]
    up = [mask_of(j for j, t in enumerate(items) if s | t == t) for s in items]
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


def _need_int(name, value):
    """Refuse a `value` that is not an int (a bool included)."""
    if type(value) is not int:
        raise BadConfig(f"{name} must be an int, not {type(value).__name__}")


def corpus(seed: int, count: int, max_size: int):
    """Deterministic-by-seed mix of named and random lattices, size-capped;
    `count` may not exceed COUNT_CAP."""
    _need_int("count", count)
    _need_int("max_size", max_size)
    if max_size < 2:
        raise BadConfig("max_size must be at least 2")
    if count < 0:
        raise BadConfig("count must be non-negative")
    if count > COUNT_CAP:
        raise BadConfig(f"count capped at {COUNT_CAP}")
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


def _coatom_extensions(lat, twins):
    """Each down-set D of `lat` above which a new coatom makes a lattice,
    one per orbit of the permutations of `lat`'s twins.

    `lat` is labelled along a linear extension with its top last, and
    `twins` are its earlier-twin masks (see `_tables`). For each
    down-closed set D holding the bottom but not the top, the new coatom
    c goes above exactly D; c takes the old top's index and the top
    moves one up, so the labelling stays a linear extension. The result
    is a lattice iff the join in `lat` of any two members of D lies in D
    or is the top. If so, c is the join of each such pair whose old join
    is the top, every other pair keeps its join, and a finite bounded
    poset with all joins is a lattice, so no meet needs a test of its
    own (D meets each principal ideal outside D in a principal ideal).
    An element joins D only when D holds its earlier twins, so of the
    down-sets that a permutation of twins carries onto each other (an
    automorphism of `lat`, which gives isomorphic children, all lattices
    or none) only the one holding a prefix of each twin class is grown.
    The sets D are grown in index order, each with the mask of its
    pairwise joins; a set is dropped once one of those joins is decided
    outside it, since a later element never lies below an earlier one.
    The census keeps the D that `_greatest_new_coatom` passes.
    """
    m = lat.n
    downsets = [(1, 1)]  # (D, the mask of the joins of pairs in D)
    for i in range(1, m - 1):
        bit, row = 1 << i, lat.join_t[i]
        below = lat.down[i] & ~bit | twins[i]
        grown = []
        for d, joins in downsets:
            if not below & ~d:
                for y in bits(d):
                    joins |= 1 << row[y]
                grown.append((d | bit, joins | bit))
        downsets = [e for e in downsets if not e[1] & bit] + grown
    return [d for d, _ in downsets]


def _tables(up, down):
    """(above, wait, twins), the tables `_search` reads, of the order with
    these up and down masks: above[x], the elements strictly above x in
    ascending order; wait[x], the number strictly below x; twins[x], the
    mask of the elements of smaller index with x's strict upset and
    strict downset (swapped with x by an automorphism)."""
    n = len(up)
    above = [tuple(bits(up[x] & ~(1 << x))) for x in range(n)]
    wait = [(down[x] & ~(1 << x)).bit_count() for x in range(n)]
    seen, twins = {}, []
    for x in range(n):
        twin = (down[x] & ~(1 << x), up[x] & ~(1 << x))
        twins.append(seen.get(twin, 0))
        seen[twin] = twins[x] | 1 << x
    return above, wait, twins


def _child_tables(lat, tables, downsets):
    """The `_tables` of `lat` plus a new coatom above each D in
    `downsets`, handed down from `tables`, those of `lat`, which the
    census builds once per parent; no child mask is built.

    In the child (see `_coatom_extensions`) c = m - 1 takes the old
    top's index and the top is m. An element x below the old top keeps
    its strict downset, and its strict upset gains c if x is in D and
    the top in any case, so above[x] is `lat`'s, whose last entry is the
    old top, with that entry kept as c or not and the top appended. c
    waits for |D| elements and the top for m. Two elements below the
    old top are twins in the child iff they are in `lat` and both lie in
    D or both outside it. c's twins are the coatoms of `lat` whose strict
    downset is D, and the top has none.
    """
    m = lat.n
    above, wait, twins = tables
    pairs = [(a[:-1] + (m,), a + (m,)) for a in above[:-1]]
    wait, twins, top = wait[:-1], twins[:-1], (m,)
    coatoms = {}
    for y in range(m - 1):
        if len(above[y]) == 1:  # only the old top above y
            strict = lat.down[y] & ~(1 << y)
            coatoms[strict] = coatoms.get(strict, 0) | 1 << y
    for d in downsets:
        inside = [d >> x & 1 for x in range(m - 1)]
        yield ([p[i] for p, i in zip(pairs, inside)] + [top, ()],
               wait + [d.bit_count(), m],
               [t & d if i else t & ~d for t, i in zip(twins, inside)]
               + [coatoms.get(d, 0), 0])


def _search(above, wait, twins):
    """The least (lows[0], ..., lows[n-1]) over linear extensions of a
    lattice given by its `_tables`; `wait` is used as scratch and left as
    it was.

    lows[j] is the mask of the positions strictly below the element
    placed at position j. Backtracking fills positions in order. Each
    element x keeps its code, the mask of the positions of its placed
    lower elements, and its wait, the count of its lower elements not
    yet placed; placing x at position j adds bit j to the code of each
    element strictly above x and takes one from its wait, and the
    elements whose wait reaches 0 join the mask of candidates handed
    down (undone on return). Only the candidates of least code are
    followed. A frame is tight while its prefix equals the best tuple's
    prefix; otherwise the prefix is below it (or there is no best yet),
    and nothing is pruned. A tight frame whose least code exceeds the
    best's at its position is dropped, and one whose least code is below
    it is no longer tight. Each frame returns whether it replaced the
    best; the new best shares the frame's prefix, so the frame is tight
    again for its later children. Of the candidates with the same strict
    upset and downset (twins), only the one of least index is tried.
    """
    n = len(above)
    code = [0] * n
    lows = [0] * n
    best = None

    def rec(j, avail, tight):
        nonlocal best
        if j == n:
            best = lows[:]
            return True
        group, least, a = [], -1, avail  # the candidates of least code
        while a:
            low = a & -a
            a ^= low
            x = low.bit_length() - 1
            if code[x] == least:
                group.append(x)
            elif code[x] < least or least < 0:
                group, least = [x], code[x]
        if tight:
            if least > best[j]:
                return False
            tight = least == best[j]
        lows[j] = least
        bit, replaced = 1 << j, False
        for x in group:
            if avail & twins[x]:
                continue
            rest = avail ^ 1 << x
            for y in above[x]:
                code[y] |= bit
                wait[y] -= 1
                if not wait[y]:
                    rest |= 1 << y
            if rec(j + 1, rest, tight):
                replaced = tight = True
            for y in above[x]:
                code[y] ^= bit
                wait[y] += 1
        return replaced

    rec(0, 1 << wait.index(0), False)  # a lattice's one minimal element
    return tuple(best)


def _coatom_invariants(lat):
    """(invariant, bit) of each coatom y of `lat`, greatest first.

    The invariant is (|↓y|, the sorted |↓z| for z in ↓y), which an
    isomorphism keeps.
    """
    size = [d.bit_count() for d in lat.down]
    top = 1 << lat.top
    coatoms = [y for y in bits(lat.down[lat.top] & ~top)
               if lat.up[y] == top | 1 << y]
    return sorted((((size[y], sorted(size[z] for z in bits(lat.down[y]))),
                    1 << y) for y in coatoms), reverse=True)


def _greatest_new_coatom(lat):
    """The test on D that `lat` plus a coatom above D passes when the new
    coatom's invariant is the greatest among the child's coatoms (ties
    pass). The child's other coatoms are those of `lat` outside D, with
    the same invariants, so the test reads only `lat`."""
    size = [d.bit_count() for d in lat.down]
    rivals = _coatom_invariants(lat)

    def keep(d):
        for invariant, bit in rivals:
            if not d & bit:
                k = d.bit_count() + 1
                return (k, sorted([k, *(size[y] for y in bits(d))])) \
                    >= invariant
        return True
    return keep


def _up_of_lows(lows):
    """The up masks of the order whose element j lies above lows[j]."""
    up = [1 << i for i in range(len(lows))]
    for k, low in enumerate(lows):
        for i in bits(low):
            up[i] |= 1 << k
    return tuple(up)


def enumerate_lattices(max_n: int):
    """Census of all lattices with up to max_n elements, one per iso class.

    Opt-in and exponential. Removing a coatom c != 0 from a lattice
    leaves a lattice, so every class of size n is a class of size n - 1
    with a coatom added (McKay, "Isomorph-free exhaustive generation",
    1998; Heitzig and Reinhold, "Counting finite lattices", 2002).
    Each parent's `_tables` are built once. `_coatom_extensions` tests
    each child on its parent's join table, as the down-set D below its
    new coatom, growing one D per orbit of the permutations of the
    parent's twins, and the census keeps the D that pass
    `_greatest_new_coatom`: those whose child's new coatom has the
    greatest invariant among its coatoms, read off the parent and D.
    No class is lost: take any class L of size n and a coatom c of L
    with the greatest invariant; L - c is isomorphic to a class P of
    size n - 1, and P plus a coatom above the image of ↓c - {c} is
    isomorphic to L, with c as its new coatom, so it passes. A
    permutation of P's twins, an automorphism of P, carries that image
    onto the D grown for its orbit, so the child above D is isomorphic
    to L with c's image as its new coatom, and passes too. Each kept
    child is keyed by its least lows tuple over linear extensions
    (`_search`), which is equal for two children exactly when they are
    isomorphic, and the keys in a set drop the duplicates (ties and
    isomorphic siblings). The search reads the parent's tables handed
    down to each child (`_child_tables`), so no child's masks are built.
    Each class is built unvalidated on e0..e{n-1} from that tuple, as a
    lattice by construction; the classes of each size are listed by it.
    """
    _need_int("max_n", max_n)
    if max_n < 1:
        raise BadConfig("max_n must be at least 1")
    if max_n > CENSUS_CAP:
        raise BadConfig(f"census capped at {CENSUS_CAP} elements")
    out = [Lattice(("e0",), (1,), name="census(1)#0"),
           Lattice(("e0", "e1"), (3, 2), name="census(2)#0")][:max_n]
    level = out[1:]
    for n in range(3, max_n + 1):
        labels = tuple(f"e{i}" for i in range(n))
        found = set()
        for parent in level:
            tables = _tables(parent.up, parent.down)
            kept = filter(_greatest_new_coatom(parent),
                          _coatom_extensions(parent, tables[2]))
            found.update(_search(*child)
                         for child in _child_tables(parent, tables, kept))
        level = [Lattice._unchecked(
                     labels, _up_of_lows(lows),
                     tuple(low | 1 << j for j, low in enumerate(lows)),
                     0, n - 1, f"census({n})#{k}")
                 for k, lows in enumerate(sorted(found))]
        out += level
    return out


# -- shared helpers for the horizontal-sum checks --------------------------------

def _sides(A, B, embeddings):
    """(side, allowed, filter mask, ideal mask) per side of the sum of A
    and B: on "A0", A's image less 0 and B's less the top, the classes
    of a congruence iff A's bottom is meet- and B's top join-irreducible."""
    top = embeddings[0][A.top]
    pairs = list(zip((A, B), embeddings))
    for side, (X, eX), (Y, eY) in (("A0", *pairs), ("B0", *pairs[::-1])):
        yield (side, X.is_meet_irreducible(X.bottom)
               and Y.is_join_irreducible(Y.top),
               mask_of(eX) & ~1, mask_of(eY) & ~(1 << top))


def _product_problems(lats, H, embeddings, conH, taus):
    """Con(H), H the horizontal sum of `lats`, against the theorem: Con(H)
    is nabla, the two-class `taus`, and one member assembled per choice of
    Con01 members of the summands; Con01(H) is the assembled set, of
    product size. Each choice is assembled once, keyed by its place in the
    product, so assembly is a bijection onto Con01(H), and an order
    isomorphism when (1) restriction to each summand gives back the
    members assembled and (2) each summand's `ConLattice.leq` agrees with
    refinement on its Con01, compared for every pair of its members. No
    class of a member of Con01(H) meets two summands' interiors: x and y
    from two of them have x ∧ y = 0, so x ≡ y would give
    x = x ∧ x ≡ x ∧ y = 0, while the class of 0 is {0}. So a member is
    the union of its restrictions, θ refines φ iff each restriction of θ
    refines that of φ, and by (1) and (2) that is the product order.
    Refinement is the arbiter.

    The pass compares block maps: Con(H), its two-class members and
    Con01(H) (`ConLattice.con01`) as the listing's `block_maps`, against
    those of the Partitions `hsum_congruences` assembles, and each
    restriction as the canonical block map of the assembled one's indexed
    entries. Partitions are built only for the summands' Con01 members,
    which `hsum_congruences` assembles and `Partition.leq` orders."""
    cons = [all_congruences(lat) for lat in lats]
    indices = [con.con01() for con in cons]
    con01s = [[Partition._of_canonical(con.block_maps[i]) for i in ix]
              for con, ix in zip(cons, indices)]
    size = math.prod(map(len, con01s))
    if size > DEFAULT_MEMBER_CAP:
        raise _Skip("predicted congruence product too large")
    assembled = {key: hsum_congruences(zip(lats, [c[k] for c, k in
                                                  zip(con01s, key)])).block_of
                 for key in itertools.product(*map(range, map(len, con01s)))}
    predicted01 = set(assembled.values())
    two_class = {tau.block_of for tau in taus}
    predicted = predicted01 | two_class | {(0,) * H.n}
    computed, problems = set(conH.block_maps), []
    render = block_renderer(H.labels)

    def rendered(maps):
        return [render(m) for m in sorted(maps)]

    if computed != predicted:
        problems.append({"extra": rendered(computed - predicted),
                         "missing": rendered(predicted - computed)})
    found = {m for m in conH.block_maps if len(set(m)) == 2}
    if found != two_class:
        problems.append({"case_index": len(taus),
                         "two_class_found": rendered(found)})
    con01H = conH.con01()
    if {conH.block_maps[i] for i in con01H} != predicted01 \
            or len(con01H) != size:
        problems.append({"con01": len(con01H), "expected": size})
    for lat, con, ix, con01 in zip(lats, cons, indices, con01s):
        if len(con01) == 1:
            continue  # delta alone, with nothing to order
        mismatch = next(([p, q] for a, p in zip(ix, con01)
                         for b, q in zip(ix, con01)
                         if con.leq(a, b) != p.leq(q)), None)
        if mismatch:
            problems.append({"order_mismatch": [
                p.render(lat.labels) for p in mismatch]})
    for key, theta in assembled.items():
        if any(_canon([theta[x] for x in e]) != con01[k].block_of
               for e, con01, k in zip(embeddings, con01s, key)):
            problems.append({"restriction_differs": render(theta)})
    return problems


def _partition_of(n, *masks):
    """The partition of 0..n-1 into these blocks, given as disjoint
    non-empty masks that cover it, built as its least-member block map
    by one test per index in each mask's span."""
    block_of = [0] * n
    for m in masks:
        least = (m & -m).bit_length() - 1
        for x in range(least, m.bit_length()):
            if m >> x & 1:
                block_of[x] = least
    return Partition._of_canonical(tuple(block_of))


# -- checks ----------------------------------------------------------------------

@_check("prime-filter-equivalences", 1)
def check_prime_equivalences(lat: Lattice) -> CheckReport:
    """Five-way prime-filter equivalence and the two-class characterization."""
    con = all_congruences(lat)
    coatoms = {con.block_maps[i] for i in con.coatoms()}
    full = (1 << lat.n) - 1
    problems = []
    fam = all_filters(lat)
    for prime, fmask in zip(fam.prime_flags, fam.masks):
        if fmask == full:
            continue
        comp = list(bits(full ^ fmask))
        flags = [
            prime,
            is_ideal(lat, comp),
        ]
        flags.append(bool(flags[1] and is_prime_ideal(lat, comp)))
        part = _partition_of(lat.n, fmask, full ^ fmask)
        flags.append(is_congruence(lat, part))
        flags.append(part.block_of in coatoms)
        if len(set(flags)) != 1:
            problems.append({
                "filter": [lat.labels[i] for i in bits(fmask)],
                "flags": flags,
            })
    pf_masks = set(prime_filters(lat).masks)
    pid_masks = set(prime_ideals(lat).masks)
    n, bottom, top = lat.n, lat.bottom, lat.top
    nab = (0,) * n
    render = block_renderer(lat.labels)
    for m in con.block_maps:
        classes = {}  # block id -> the mask of its block
        for x, b in enumerate(m):
            classes[b] = classes.get(b, 0) | 1 << x
        two = len(classes) == 2
        zero_class, one_class = classes[m[bottom]], classes[m[top]]
        alt = (
            m != nab
            and zero_class.bit_count() + one_class.bit_count() == n
            and m == _partition_of(n, zero_class, one_class).block_of
        )
        if two != alt:
            problems.append({"congruence": render(m),
                             "two_blocks": two, "bound_cover": alt})
        if two and (one_class not in pf_masks
                    or zero_class not in pid_masks):
            problems.append({"congruence": render(m),
                             "reason": "classes not prime filter/ideal"})
    return lat, problems, {"filters": len(fam), "congruences": len(con)}


@_check("bound-irreducibility", 1)
def check_irreducibility(lat: Lattice) -> CheckReport:
    """Bound irreducibility against filters, spectra and congruences."""
    if lat.trivial:
        raise _Skip("needs a non-trivial lattice")
    con = all_congruences(lat)
    coatoms = {con.block_maps[i] for i in con.coatoms()}
    n = lat.n
    full = (1 << n) - 1
    problems = []

    # Congruences and the coatoms of Con are self-dual, so the top is
    # checked as the bottom of the dual.
    for bound, side in (("bottom", lat), ("top", lat.dual())):
        b = side.bottom
        rest = full & ~(1 << b)
        flags = [side.is_meet_irreducible(b), is_filter(side, bits(rest))]
        flags.append(bool(flags[1] and is_prime_filter(side, bits(rest))))
        flags.append(is_prime_ideal(side, [b]))
        part = _partition_of(n, 1 << b, rest)
        flags.append(is_congruence(side, part))
        flags.append(part.block_of in coatoms)
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
        part = _partition_of(n, 1 << lat.bottom, mask_of(interior),
                             1 << lat.top)
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
    for kind, family in (("filters", all_filters), ("ideals", all_ideals)):
        counts = [len(family(H)), len(family(A)), len(family(B))]
        if counts[0] != counts[1] + counts[2] - 2:
            problems.append({kind: counts})
    return H, problems, {}


@_check("hsum-spectra", 2)
def check_spechsum(A: Lattice, B: Lattice) -> CheckReport:
    """Prime spectra of a two-summand sum against the predicted candidates."""
    if A.n <= 2 or B.n <= 2:
        raise _Skip("summands must have more than two elements")
    H, embeddings = horizontal_sum([A, B])
    sides = list(_sides(A, B, embeddings))
    pf = set(prime_filters(H).masks)
    pid = set(prime_ideals(H).masks)
    problems = []
    for key, found, candidates in (
            ("unexpected_prime_filters", pf, {f for _, _, f, _ in sides}),
            ("unexpected_prime_ideals", pid, {i for _, _, _, i in sides})):
        if not found <= candidates:
            problems.append({key: sorted(sorted(H.labels[x] for x in bits(s))
                                         for s in found - candidates)})
    con = all_congruences(H)
    coatoms = {con.block_maps[i] for i in con.coatoms()}
    for side, allowed, f, i in sides:
        part = _partition_of(H.n, f, i)
        flags = [allowed, f in pf, i in pid, is_congruence(H, part),
                 part.block_of in coatoms]
        if len(set(flags)) != 1:
            problems.append({"side": side, "flags": flags})
    return H, problems, {"prime_filters": len(pf), "prime_ideals": len(pid)}


@_check("hsum-congruence-trichotomy", 2)
def check_cghsum(A: Lattice, B: Lattice) -> CheckReport:
    """Two-summand congruence trichotomy, with the product decomposition,
    restriction and Con01 order isomorphism of `_product_problems`."""
    if A.n <= 2 or B.n <= 2:
        raise _Skip("summands must have more than two elements")
    H, embeddings = horizontal_sum([A, B])
    conH = all_congruences(H)
    taus = [_partition_of(H.n, f, i)
            for _, allowed, f, i in _sides(A, B, embeddings) if allowed]
    problems = _product_problems([A, B], H, embeddings, conH, taus)
    # the two-class members sit above all of con01, pairwise incomparable
    con01H = [conH.block_maps[i] for i in conH.con01()]
    for tau in taus:
        if not all(_refines(th, tau.block_of) for th in con01H):
            problems.append({"tau_not_above_con01": tau.render(H.labels)})
    if len(taus) == 2 and (taus[0].leq(taus[1]) or taus[1].leq(taus[0])):
        problems.append({"taus_comparable": True})
    return H, problems, {"case": len(taus), "con": len(conH),
                         "con01": len(con01H)}


@_check("multi-hsum-collapse", 0)
def check_multi_hsum(lats) -> CheckReport:
    """Three or more summands: empty spectra, no two-class members, and
    the product checks of `_product_problems`."""
    if len(lats) < 3 or any(lat.n <= 2 for lat in lats):
        raise _Skip("needs three or more summands, each above two elements")
    H, embeddings = horizontal_sum(lats)
    conH = all_congruences(H)
    problems = _product_problems(lats, H, embeddings, conH, [])
    if len(prime_filters(H)) or len(prime_ideals(H)):
        problems.append({"spectra_not_empty": True})
    return H, problems, {"con": len(conH)}


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
    for kind, family in (("filters", all_filters), ("ideals", all_ideals)):
        counts = [len(family(D)), len(family(lat)), len(fats)]
        if counts[0] != counts[1] + 2 * len(fats):
            problems.append({kind: counts})
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
    con01S = conS.con01()
    H, _ = horizontal_sum([S, _B2])
    conH = all_congruences(H)
    problems = []
    if len(conH) != len(con01S) + 1:
        problems.append({"con_size": len(conH),
                         "con01_of_summand": len(con01S)})
    for side, lat, con in (("summand", S, conS), ("sum", H, conH)):
        simple = is_simple(lat)
        if simple != (len(con) == 2):
            problems.append({"is_simple": simple, "of": side,
                             "congruences": len(con)})
    trivial01 = len(con01S) == 1
    if trivial01 and not simple:
        problems.append({"expected_simple": True})
    return H, problems, {"con01": len(con01S), "simple_case": trivial01}


# -- suite runner ------------------------------------------------------------------

SUITES = ("prime", "irred", "counts", "spechsum", "cghsum", "multi",
          "dilate", "b2hsum")


def _corrupted_pentagon() -> Lattice:
    """Pentagon with a tampered meet table, for harness self-tests."""
    n5 = named("N5")
    lat = Lattice(n5.labels, n5.up, name="N5-corrupted")
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
    _need_int("census", census)
    if census < 0 or census > CENSUS_CAP:
        raise BadConfig(f"census must lie between 0 and {CENSUS_CAP}")
    pool = corpus(seed, count, max_size)
    if census:
        pool.extend(enumerate_lattices(min(census, max_size)))
    rng = random.Random(seed ^ 0x5EED)

    def pairs(source):
        for _ in range(max(count, 10) if source else 0):
            yield rng.choice(source), rng.choice(source)

    def families(source):
        for _ in range(max(count // 2, 5) if source else 0):
            yield ([rng.choice(source) for _ in range(rng.choice((3, 3, 4)))],)

    # The suites that draw their instances from the rng run first, in
    # SUITES order, each drawing as it runs. The one-lattice suites draw
    # nothing, so they then run lattice by lattice: each lattice computes
    # its dual and its Con listing once for all its checks, and is
    # dropped, with them, once they are done. The checks are looked up
    # per call of run_suite, and the reports come out in SUITES order.
    wide = [lat for lat in pool if lat.n > 2]
    drawn = (
        ("counts", check_hsum_counts,
         pairs([lat for lat in pool if lat.n >= 2])),
        ("spechsum", check_spechsum, pairs(wide)),
        ("cghsum", check_cghsum,
         pairs([lat for lat in wide if lat.n <= DEFAULT_SUMMAND_CAP])),
        ("multi", check_multi_hsum,
         families([lat for lat in wide if lat.n <= 6])),
    )
    out = {suite: [check(*args) for args in instances]
           for suite, check, instances in drawn if suite in chosen}
    del wide, drawn  # the pool holds the last reference to each lattice
    singles = [row for row in (
        ("prime", check_prime_equivalences, lambda lat: True),
        ("irred", check_irreducibility, lambda lat: True),
        ("dilate", check_dilate,
         lambda lat: 2 <= lat.n <= DEFAULT_DILATE_INPUT_CAP),
        ("b2hsum", check_b2_hsum_simple, lambda lat: lat.n > 2),
    ) if row[0] in chosen]
    for suite, _, _ in singles:
        out[suite] = []
    pool.reverse()
    while pool:
        lat = pool.pop()
        for suite, check, keep in singles:
            if keep(lat):
                out[suite].append(check(lat))
    reports = [r for suite in SUITES if suite in out for r in out[suite]]
    if inject_fault:
        reports.append(check_prime_equivalences(_corrupted_pentagon()))
    return reports
