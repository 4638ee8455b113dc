"""Finite bounded lattices: construction, validation and order queries.

Elements are dense indices into `labels`. The order is stored as one upset
bitmask per element, so comparisons, intervals and bound searches are plain
integer bit operations. `Lattice()` and `from_covers` validate the
lattice axioms (a partial order with a unique bottom and top, and a
unique lub for every pair, which in a bounded order gives every glb too),
so downstream code may assume a genuine bounded lattice. They see what
comes from outside the program, quotients and the corpus generators.
The named small lattices (B2, M3, N5, K) are validated once, at import,
and `named` copies them unvalidated. Chains, `div(n)`, duals, the census
classes and every sum construction are lattices by construction (a sum
is the union of its summands' orders, closed through its glue points):
they are built by `Lattice._unchecked` from both order tables,
unvalidated, and a differential test checks their tables against
`Lattice()`'s.

Validation builds no table: one pass over the comparable pairs checks
antisymmetry and transitivity and collects the downsets, and the join of
a comparable pair is its larger element, so only each incomparable pair
needs a lookup of its join among the upsets. The join table `join_t` is
built whole on first read. The meet side is read through `dual()`, by the
duality principle: the meet table is the dual's join table, and x is
meet-irreducible when it is join-irreducible in the dual. A lattice
builds its dual once and holds it, and the dual links back weakly, so
`lat.dual().dual() is lat`, each table is built once for the pair, and
no reference cycle keeps either alive once the lattice is dropped.
"""

from __future__ import annotations

import json
import weakref
from functools import cached_property
from graphlib import CycleError, TopologicalSorter
from math import isqrt

from .errors import (
    BadInput,
    BadParam,
    CycleDetected,
    DuplicateLabel,
    NoBounds,
    NotALattice,
    NotComparable,
    SizeCapExceeded,
    UnknownLabel,
    UnknownName,
)

SIZE_CAP = 500
DIV_CAP = 10**12  # div(n) trial-divides up to sqrt(n): 10**6 steps at the cap


def bits(mask: int):
    """Iterate the set-bit indices of `mask`, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def mask_of(indices) -> int:
    m = 0
    for i in indices:
        m |= 1 << i
    return m


def _check_size(n: int):
    if n > SIZE_CAP:
        raise SizeCapExceeded(f"{n} elements exceeds construction cap {SIZE_CAP}")


def _check_indices(n: int, indices):
    for x in indices:
        if type(x) is not int:  # a bool or a float indexes no element
            raise UnknownLabel(f"element index {x!r} is not an int")
        if not 0 <= x < n:
            raise UnknownLabel(f"element index {x} out of range")


def _check_labels(labels):
    _check_size(len(labels))
    if len(set(labels)) != len(labels):
        dup = sorted({x for x in labels if labels.count(x) > 1})
        raise DuplicateLabel(f"duplicate labels: {dup}")


def _quote(text: str) -> str:
    """`text` as a quoted string, as the expression grammar and DOT read
    one: only backslash and quote are escaped, backslash first."""
    return '"' + text.replace("\\", "\\\\").replace('"', '\\"') + '"'


def _op_table(masks):
    """The join table of the order with these up masks: its (i, j) entry
    is the element with up mask masks[i] & masks[j]."""
    of = {m: i for i, m in enumerate(masks)}
    return tuple(tuple([of[m & o] for o in masks]) for m in masks)


class Lattice:
    """Immutable finite bounded lattice.

    `name` is descriptive metadata only; it does not take part in equality.
    Instances are treated as immutable after construction and are safe to
    share freely.
    """

    def __init__(self, labels, up, name: str = ""):
        labels = tuple(labels)
        up = tuple(up)
        for row in up:
            if type(row) is not int:  # a bool, a float or a string is no mask
                raise BadInput(f"up mask {row!r} is not an int")
        n = len(labels)
        if n == 0:
            raise NoBounds("empty carrier")
        _check_labels(labels)
        if len(up) != n:
            raise BadInput("labels and up masks differ in length")
        full = (1 << n) - 1
        for i in range(n):
            row = up[i]
            if row & ~full:
                raise BadInput("up mask references out-of-range elements")
            if not (row >> i) & 1:
                raise NotALattice(labels[i], labels[i], "order not reflexive")
        down = [0] * n
        for i in range(n):
            bit = 1 << i
            for j in bits(up[i]):
                if j != i and (up[j] >> i) & 1:
                    raise CycleDetected(
                        f"{labels[i]!r} and {labels[j]!r} are mutually comparable"
                    )
                if up[j] & ~up[i]:
                    raise NotALattice(labels[i], labels[j], "order not transitive")
                down[j] |= bit
        bottoms = [i for i in range(n) if up[i] == full]
        tops = [i for i in range(n) if down[i] == full]
        if len(bottoms) != 1 or len(tops) != 1:
            raise NoBounds(
                f"need unique bottom and top, found {len(bottoms)} bottom(s) "
                f"and {len(tops)} top(s)"
            )
        # A comparable pair's join is its larger element, by transitivity,
        # so only the incomparable pairs need a lookup. A bounded order
        # with every join has every meet.
        up_id = {m: i for i, m in enumerate(up)}
        for i in range(n):  # j runs over the j > i incomparable to i
            for j in bits(full & ~(up[i] | down[i]) & -(2 << i)):
                if up[i] & up[j] not in up_id:
                    raise NotALattice(labels[i], labels[j], "no unique least upper bound")
        self.labels = labels
        self.up = up
        self.down = tuple(down)
        self.bottom = bottoms[0]
        self.top = tops[0]
        self.name = name

    @classmethod
    def _unchecked(cls, labels, up, down, bottom, top, name):
        """The lattice with these order tables, taken as they are: only for
        builds that are lattices by construction."""
        out = object.__new__(cls)
        out.labels, out.up, out.down = tuple(labels), tuple(up), tuple(down)
        out.bottom, out.top, out.name = bottom, top, name
        return out

    @cached_property
    def meet_t(self):
        """meet_t[i][j] is the meet of i and j: the dual's join table, one
        table for the pair, built on first read of either."""
        return self.dual().join_t

    @cached_property
    def join_t(self):
        """join_t[i][j] is the join of i and j: the element whose upset is
        the intersection of theirs. Built on first read."""
        return _op_table(self.up)

    # -- basic queries ----------------------------------------------------

    @property
    def n(self) -> int:
        return len(self.labels)

    @property
    def trivial(self) -> bool:
        return len(self.labels) == 1

    def leq(self, i: int, j: int) -> bool:
        return bool((self.up[i] >> j) & 1)

    def meet(self, i: int, j: int) -> int:
        return self.meet_t[i][j]

    def join(self, i: int, j: int) -> int:
        return self.join_t[i][j]

    @cached_property
    def _index(self):
        return {x: i for i, x in enumerate(self.labels)}

    def index(self, label: str) -> int:
        try:
            return self._index[label]
        except KeyError:
            raise UnknownLabel(f"no element labelled {label!r}") from None

    def interval(self, a: int, b: int):
        """Elements x with a <= x <= b; `a` must lie below `b`."""
        _check_indices(self.n, (a, b))
        if not self.leq(a, b):
            raise NotComparable(
                f"{self.labels[a]!r} does not lie below {self.labels[b]!r}"
            )
        return tuple(bits(self.up[a] & self.down[b]))

    @cached_property
    def cover_pairs(self):
        """All pairs (i, j) where j covers i, in (i, j) order.

        Each step tests the lowest j left above i and then drops all of
        j's upset, so a cover is dropped only when it is tested itself;
        where the index order extends the lattice order every j tested is
        a cover. The j rise, so the pairs come out sorted.
        """
        out = []
        for i, row in enumerate(self.up):
            strict = left = row & ~(1 << i)
            while left:
                low = left & -left
                j = low.bit_length() - 1
                if self.down[j] & strict == low:
                    out.append((i, j))
                left &= ~self.up[j]
        return tuple(out)

    def is_meet_irreducible(self, x: int) -> bool:
        """True iff x has at most one upper cover, that is, x is
        join-irreducible in the dual; the top has none."""
        return self.dual().is_join_irreducible(x)

    def is_join_irreducible(self, x: int) -> bool:
        """True iff x has at most one lower cover, a y < x whose upset meets
        {z : z < x} in y alone; the bottom has none."""
        below = self.down[x] & ~(1 << x)
        return sum(self.up[y] & below == 1 << y for y in bits(below)) <= 1

    # -- value semantics ----------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, Lattice):
            return NotImplemented
        return self.labels == other.labels and self.up == other.up

    def __hash__(self):
        return hash((self.labels, self.up))

    def __repr__(self):
        tag = self.name or f"{self.n} elements"
        return f"Lattice({tag})"

    def __getstate__(self):
        """Pickled without its dual, whose weak link back to it pickle
        cannot carry; the copy builds its own."""
        return {k: v for k, v in self.__dict__.items() if k != "_dual"}

    def dual(self) -> "Lattice":
        """The same carrier under the reversed order, unvalidated since the
        dual of a lattice is a lattice. Built on first call and held; it
        links back to this lattice weakly, so `lat.dual().dual() is lat`
        while lat lives, with no reference cycle. The dual builds its own
        cached values, such as `cover_pairs`, on first read, and its join
        table is this lattice's meet table."""
        got = self.__dict__.get("_dual")
        if type(got) is weakref.ref:  # self is the dual of got
            got = got()
        if got is None:
            got = self._dual = Lattice._unchecked(
                self.labels, self.down, self.up, self.top, self.bottom,
                self.name)
            got._dual = weakref.ref(self)
        return got

    # -- interchange --------------------------------------------------------

    def to_dict(self) -> dict:
        pairs = sorted(
            [self.labels[i], self.labels[j]] for i, j in self.cover_pairs
        )
        return {"elements": list(self.labels), "covers": pairs}

    def to_json(self, indent=None) -> str:
        return json.dumps(self.to_dict(), indent=indent)

    @classmethod
    def from_dict(cls, data: dict, name: str = "") -> "Lattice":
        """Lattice from {"elements": [label, ..], "covers": [[low, high], ..]}.

        Labels are strings that strict UTF-8 can encode. Fails with
        BadInput when `data` does not have that shape, or names a label
        or cover endpoint holding a lone surrogate (JSON "\\ud800").
        """
        if not isinstance(data, dict):
            raise BadInput("lattice document must be a JSON object")
        elements, covers = data.get("elements"), data.get("covers")
        if not isinstance(elements, list) or not all(
                isinstance(x, str) for x in elements):
            raise BadInput('"elements" must be a list of string labels')
        if not isinstance(covers, list) or not all(
                isinstance(c, list) and len(c) == 2
                and all(isinstance(x, str) for x in c) for c in covers):
            raise BadInput('"covers" must be a list of [low, high] label pairs')
        for what, xs in (("label", elements),
                         ("cover endpoint", [x for c in covers for x in c])):
            for x in xs:
                try:
                    x.encode()
                except UnicodeEncodeError:
                    raise BadInput(
                        f"{what} {x!r} cannot be encoded as UTF-8") from None
        return cls.from_covers(elements, covers, name=name)

    @classmethod
    def from_json(cls, text: str, name: str = "") -> "Lattice":
        try:
            data = json.loads(text)
        except (json.JSONDecodeError, RecursionError) as e:
            raise BadInput(f"not JSON: {e}") from None
        return cls.from_dict(data, name=name)

    # -- construction ---------------------------------------------------------

    @classmethod
    def from_covers(cls, labels, covers, name: str = "") -> "Lattice":
        """Lattice whose order is the reflexive-transitive closure of `covers`.

        `covers` is an iterable of (low, high) label pairs. The order is
        closed along a `graphlib` topological order, highest first, each
        up mask the union of its upper covers'. Fails with CycleDetected
        on a cyclic declaration and NotALattice / NoBounds when the closed
        order is not a bounded lattice.
        """
        labels = tuple(labels)
        _check_labels(labels)
        ix = {x: i for i, x in enumerate(labels)}
        n = len(labels)
        adj = [[] for _ in range(n)]
        graph = TopologicalSorter()
        for i in range(n):
            graph.add(i)
        for a, b in covers:
            if a not in ix:
                raise UnknownLabel(f"cover endpoint {a!r} is not an element")
            if b not in ix:
                raise UnknownLabel(f"cover endpoint {b!r} is not an element")
            adj[ix[a]].append(ix[b])
            graph.add(ix[b], ix[a])
        # graphlib's cycle search (the same code in Python 3.10 to 3.13)
        # runs depth first from the nodes in the order they were added,
        # along edges in the order they were added: the declared order.
        # So the cycle it reports starts at the first back-edge target of
        # a depth-first search in that order.
        try:
            order = list(graph.static_order())
        except CycleError as e:
            raise CycleDetected(
                f"declared covers cycle through {labels[e.args[1][0]]!r}"
            ) from None
        up = [0] * n
        for x in reversed(order):
            m = 1 << x
            for s in adj[x]:
                m |= up[s]
            up[x] = m
        return cls(labels, up, name=name)

def _divisor_lattice(k, divisors):
    """div(k) from its ascending divisors, unvalidated: divisibility is a
    lattice order (meet gcd, join lcm). The multiples of d are d and the
    multiples of each d·p for a prime p, so one descending pass builds the
    up masks. d ↦ k/d reverses the order and the list of divisors, so the
    down mask of d is the up mask of k/d mirrored."""
    primes = []
    for d in divisors[1:]:  # prime when no smaller prime divides it
        if all(d % p for p in primes):
            primes.append(d)
    n, at = len(divisors), {d: i for i, d in enumerate(divisors)}
    up = [0] * n
    for i in range(n - 1, -1, -1):
        m = 1 << i
        for e in (divisors[i] * p for p in primes):
            if e in at:
                m |= up[at[e]]
        up[i] = m
    down = [int(f"{m:0{n}b}"[::-1], 2) for m in reversed(up)]
    return Lattice._unchecked([str(d) for d in divisors], up, down, 0, n - 1,
                              name=f"div({k})")


def _chain_labels(k: int):
    if k == 1:
        return ("0",)
    if k == 2:
        return ("0", "1")
    if k == 3:
        return ("0", "m", "1")
    if k == 4:
        return ("0", "a", "b", "1")
    return ("0",) + tuple(f"m{i}" for i in range(1, k - 1)) + ("1",)


# The parameterless named lattices, validated once, at import: labels,
# and covers as two-letter strings, low label then high. `named` hands
# out unvalidated copies, so no table a caller builds lands on these.
_SMALL = {name: Lattice.from_covers(labels, covers, name=name)
          for name, labels, covers in (
    ("B2", ("0", "a", "b", "1"), ("0a", "0b", "a1", "b1")),
    ("M3", ("0", "u", "v", "w", "1"), ("0u", "0v", "0w", "u1", "v1", "w1")),
    ("N5", ("0", "x", "y", "z", "1"), ("0x", "x1", "0y", "yz", "z1")),
    ("K", ("0", "m", "n", "p", "q", "1"),
     ("0m", "m1", "0n", "np", "0q", "qp", "p1")),
)}

def named(name: str, *params: int) -> Lattice:
    """Canonical small lattices used throughout the test corpus.

    chain(k) is the k-element chain, B2 the four-element Boolean lattice,
    M3 the diamond, N5 the pentagon, K a six-element lattice glueing a
    3-chain and a diamond-with-stem at shared bounds, div(n) the divisors
    of n ordered by divisibility (meet = gcd, join = lcm).
    """
    def want(count):
        if len(params) != count:
            raise BadParam(f"{name} takes {count} parameter(s), got {len(params)}")
        for p in params:
            if type(p) is not int:
                raise BadParam(f"{name} parameter must be an int, not "
                               f"{type(p).__name__}")

    if name in _SMALL:
        want(0)
        t = _SMALL[name]
        return Lattice._unchecked(t.labels, t.up, t.down, t.bottom, t.top,
                                  name)
    if name == "chain":
        want(1)
        k = params[0]
        if k < 1:
            raise BadParam("chain size must be >= 1")
        _check_size(k)
        return Lattice._unchecked(
            _chain_labels(k), [(1 << k) - (1 << i) for i in range(k)],
            [(2 << i) - 1 for i in range(k)], 0, k - 1, name=f"chain({k})")
    if name == "div":
        want(1)
        k = params[0]
        if k < 1:
            raise BadParam("div parameter must be >= 1")
        if k > DIV_CAP:
            raise SizeCapExceeded(f"div({k}) exceeds parameter cap {DIV_CAP}")
        small = [d for d in range(1, isqrt(k) + 1) if k % d == 0]
        divisors = small + [k // d for d in reversed(small) if d * d != k]
        _check_size(len(divisors))
        return _divisor_lattice(k, divisors)
    raise UnknownName(f"no lattice named {name!r}")
