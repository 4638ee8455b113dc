"""Congruences of a finite bounded lattice, as sets of join-irreducibles.

For a join-irreducible k with lower cover k₋, write j D k when j != k
and some x has j <= k v x but not j <= k₋ v x. Collapsing k₋ with k then
collapses k₋ v x with k v x, and so j₋ with j. Following Day (1979) and
Freese, "Computing congruences efficiently", Algebra Universalis 59
(2008), a congruence is fixed by the set S of join-irreducibles j that it
collapses with j₋; the sets that arise are exactly those closed under D
(k in S and j D k give j in S), and refinement is inclusion.

`_dependency` indexes the join-irreducibles 0..|J|-1 and returns two
lists of J-indexed bitmasks: `jbelow[x]`, the join-irreducibles below
x, and `closure[t]`, the D*-closure of {t}, which is the set that
con(t₋, t) collapses. A closed set S is a union of closures, and its
congruence identifies x and y exactly when `jbelow[x] & ~S` equals
`jbelow[y] & ~S`. Joins and meets in Con(L) are ORs and ANDs of these
masks. The closed sets are the downsets of the preorder "t lies in
closure[u]", so a cover adds one D*-class (the join-irreducibles that
force each other), and a coatom drops one class that nothing outside it
forces. Con(L) is distributive, so its prime members are its
meet-irreducibles: one per class, J(L) without the join-irreducibles
that force the class. `prime_congruences` reads them off the closures,
so it lists no other member.

What `latkit analyze` reports is read off the closures, without listing
Con(L) (`con_summary`):
- |Con(L)| counts the closed sets by a two-way split: a join-irreducible
  t is either out, and so is every u that forces t, or in, and so is
  closure[t]. The count is memoised on the undecided set, multiplied
  over its connected components, and refused past DEFAULT_MEMBER_CAP
  states, so that no input runs without limit.
- A closed set keeps the 0-class a singleton iff it holds no atom, and
  the 1-class iff it holds J(L) without jbelow[c] for no coatom c. Both
  survive shrinking the set, so con01 is the interval below μ, the OR of
  the closures that pass both tests, and |Con01| counts the closed sets
  inside μ.
- Every closed set but the empty one holds a closure, so the monolith is
  the AND of the closures, non-empty exactly when L is subdirectly
  irreducible; L is simple exactly when every closure is all of J(L).

The closure readers take no size cap: they cost O(n²) table reads and
O(|J|²) mask operations, so they answer on any lattice that can be built.

Listing Con(L) is `all_congruences`'s job alone, and its caps bind only
the listings. It refuses a lattice above DEFAULT_CON_CAP elements before
it builds a join table, so that a refusal costs no work, and it compares
the count with DEFAULT_MEMBER_CAP before it enumerates. It OR-folds the
closures, keys each mask once by its block map and sorts the members
into a fixed canonical order (more blocks first, then by block map), so
that listings and goldens are deterministic. A ConLattice keeps each
member's mask and block map and builds the tuple of Partitions only when
`members` is first read. It answers what needs the members or their
order (con01, covers, coatoms); |Con|, μ, the monolith, simplicity and
the primes have one reader each among the functions below, which read
the closures.
"""

from __future__ import annotations

from functools import cached_property, reduce
from math import prod
from operator import and_, or_
from typing import NamedTuple, Optional

from .core import Lattice, bits, mask_of
from .equiv import Partition, is_congruence
from .errors import NotACongruence, SizeCapExceeded

DEFAULT_CON_CAP = 60
DEFAULT_MEMBER_CAP = 200_000


def _dependency(lat):
    """(jbelow, closure) of lat, as described in the module docstring."""
    n, up, down, jt = lat.n, lat.up, lat.down, lat.join_t
    down_id = {d: x for x, d in enumerate(down)}
    # k is join-irreducible iff what lies strictly below k is a principal
    # down-set, that of k's one lower cover k₋ (never so for the bottom)
    joins = [k for k in range(n) if down[k] ^ (1 << k) in down_id]
    jbelow = [0] * n
    for t, j in enumerate(joins):
        for x in bits(up[j]):
            jbelow[x] |= 1 << t
    closure = []
    for t, k in enumerate(joins):
        row, row_minus = jt[k], jt[down_id[down[k] ^ (1 << k)]]
        dep = 0  # x = bottom puts t itself in, making the closure reflexive
        for x in range(n):
            dep |= jbelow[row[x]] & ~jbelow[row_minus[x]]
        closure.append(dep)
    for t, ct in enumerate(closure):  # Warshall: close under D transitively
        bit = 1 << t
        for s, cs in enumerate(closure):
            if cs & bit:
                closure[s] = cs | ct
    return jbelow, closure


def _forcing(closure):
    """forcing[t]: the join-irreducibles whose closure holds t."""
    forcing = [0] * len(closure)
    for u, c in enumerate(closure):
        for t in bits(c):
            forcing[t] |= 1 << u
    return forcing


def _count_closed(closure, free: int) -> int:
    """Number of closed sets inside the closed set `free`, by the two-way
    split of the module docstring."""
    forcing = _forcing(closure)
    near = [c | f for c, f in zip(closure, forcing)]
    memo = {0: 1}

    def count(free):
        got = memo.get(free)
        if got is not None:
            return got
        parts, rest = [], free
        while rest:  # the connected components of free
            part = grow = rest & -rest
            while grow:
                reach = 0
                for t in bits(grow):
                    reach |= near[t]
                grow = reach & rest & ~part
                part |= grow
            parts.append(part)
            rest &= ~part
        if len(parts) > 1:
            got = prod(map(count, parts))
        else:
            t = (free & -free).bit_length() - 1
            got = count(free & ~closure[t]) + count(free & ~forcing[t])
        if len(memo) >= DEFAULT_MEMBER_CAP:
            raise SizeCapExceeded(
                f"counting congruences took more than {DEFAULT_MEMBER_CAP} states")
        memo[free] = got
        return got

    return count(free)


def _mu(lat, jbelow, closure) -> int:
    """Closed set of μ, the largest congruence whose 0- and 1-classes are
    singletons (module docstring)."""
    full = (1 << len(closure)) - 1
    top = lat.top
    atoms, rests = 0, []
    for x, jb in enumerate(jbelow):
        if jb and not jb & (jb - 1):  # x is an atom
            atoms |= jb
        if x != top and lat.up[x] == 1 << x | 1 << top:  # x is a coatom
            rests.append(full & ~jb)
    mu = 0
    for c in closure:
        if not c & atoms and all(r & ~c for r in rests):
            mu |= c
    return mu


def _monolith(closure) -> int:
    """Closed set of the monolith: 0 when there is none."""
    return reduce(and_, closure, (1 << len(closure)) - 1)


def _partition(jbelow, s: int) -> Partition:
    """The congruence of the closed set `s`."""
    return Partition([jb & ~s for jb in jbelow])


def principal_congruence(lat, a: int, b: int) -> Partition:
    """Least congruence of lat identifying a and b."""
    return congruence_generated(lat, [(a, b)])


def congruence_generated(lat, pairs) -> Partition:
    """Least congruence containing all the given element pairs.

    con(a, b) = con(a ^ b, a v b) collapses exactly the closures of the
    join-irreducibles below a v b and not below a ^ b.
    """
    jbelow, closure = _dependency(lat)
    mt, jt = lat.meet_t, lat.join_t
    s = 0
    for a, b in pairs:
        for t in bits(jbelow[jt[a][b]] & ~jbelow[mt[a][b]]):
            s |= closure[t]
    return _partition(jbelow, s)


class ConLattice:
    """All congruences of a lattice, ordered by refinement.

    The members come in the canonical order: more blocks first, then by
    block map. `masks[i]` is the closed set of join-irreducibles of the
    i-th member (see the module docstring), so member i refines member j
    iff masks[i] is a subset of masks[j]. `closure[t]` is the D*-closure
    of the t-th join-irreducible. `block_maps[i]` is the least-member block
    map of the i-th member; `members`, the tuple of members as Partitions,
    is built from the block maps on first read.
    """

    def __init__(self, base: Lattice, jbelow, closure, masks, block_maps):
        self.base = base
        self.closure = tuple(closure)
        self.masks = tuple(masks)
        self._jbelow = jbelow
        self.block_maps = tuple(block_maps)
        # delta alone has |L| blocks and nabla alone one
        self.delta_ix, self.nabla_ix = 0, len(self.masks) - 1

    def __len__(self):
        return len(self.masks)

    @cached_property
    def members(self):
        return tuple(map(Partition._of_canonical, self.block_maps))

    @cached_property
    def _map_index(self):
        return {m: i for i, m in enumerate(self.block_maps)}

    def index_of(self, p: Partition) -> int:
        return self._map_index[p.block_of]

    @cached_property
    def _mask_index(self):
        return {s: i for i, s in enumerate(self.masks)}

    @cached_property
    def _classes(self):
        """(forcing, cls): forcing[t] holds the join-irreducibles whose
        closure holds t, and cls[t] = forcing[t] & closure[t] is the
        D*-class of t."""
        forcing = _forcing(self.closure)
        return forcing, [f & c for f, c in zip(forcing, self.closure)]

    @cached_property
    def order(self):
        """Bitmask rows of the refinement order: row i has bit j iff m_i <= m_j."""
        masks = self.masks
        rows = []
        for s in masks:
            row = 0
            for j, t in enumerate(masks):
                if not s & ~t:
                    row |= 1 << j
            rows.append(row)
        return tuple(rows)

    def leq(self, i: int, j: int) -> bool:
        return not self.masks[i] & ~self.masks[j]

    def con01_members(self):
        """Members whose 0- and 1-classes are singletons: those below μ."""
        mu = _mu(self.base, self._jbelow, self.closure)
        return [m for m, s in zip(self.members, self.masks) if not s & ~mu]

    def covers(self):
        """Pairs (i, j) where members[j] covers members[i].

        S | closure[t] covers S exactly when what it adds, closure[t] & ~S,
        lies inside the class of t; one t per class is tried.
        """
        _, cls = self._classes
        ix = self._mask_index
        firsts = [(t, c) for t, c in enumerate(self.closure)
                  if cls[t] & -cls[t] == 1 << t]
        out = []
        for i, s in enumerate(self.masks):
            for t, c in firsts:
                if not s >> t & 1 and not c & ~s & ~cls[t]:
                    out.append((i, ix[s | c]))
        return out

    def coatoms(self):
        """Members covered by nabla, ascending: all of J(L) but one class
        that no join-irreducible outside it forces."""
        forcing, cls = self._classes
        full = (1 << len(self.closure)) - 1
        ix = self._mask_index
        return sorted({ix[full & ~c] for f, c in zip(forcing, cls) if f == c})


def all_congruences(lat) -> ConLattice:
    """Enumerate Con(lat) as the unions of the closures con(j₋, j).

    Refuses a lattice above DEFAULT_CON_CAP elements, or one with more
    than DEFAULT_MEMBER_CAP congruences, before it lists any."""
    if lat.n > DEFAULT_CON_CAP:
        raise SizeCapExceeded(
            f"{lat.n} elements exceeds congruence cap {DEFAULT_CON_CAP}")
    jbelow, closure = _dependency(lat)
    gens = set(closure)  # one per D*-class, so at most 2^|gens| members
    if 1 << len(gens) > DEFAULT_MEMBER_CAP and \
            _count_closed(closure, (1 << len(closure)) - 1) > DEFAULT_MEMBER_CAP:
        raise SizeCapExceeded(f"more than {DEFAULT_MEMBER_CAP} congruences")
    masks = {0}
    for g in gens:
        masks |= {m | g for m in masks}
    # Key each mask once by its block map, grouped by block count.
    by_blocks = {}
    for s in masks:
        first = {}
        least = first.setdefault
        ns = ~s
        bo = tuple([least(jb & ns, x) for x, jb in enumerate(jbelow)])
        by_blocks.setdefault(len(first), []).append((bo, s))
    keyed = []
    for k in sorted(by_blocks, reverse=True):
        keyed += sorted(by_blocks.pop(k))
    return ConLattice(lat, jbelow, closure, [s for _, s in keyed],
                      [bo for bo, _ in keyed])


class ConSummary(NamedTuple):
    """Facts about Con(L) read off the closures (see the module docstring)."""

    size: int        # |Con(L)|
    size01: int      # |Con01(L)|, the members below μ
    simple: bool
    monolith: Optional[Partition]  # None unless L is subdirectly irreducible


def con_summary(lat) -> ConSummary:
    """|Con|, |Con01|, simplicity and the monolith without listing Con(lat).

    Refuses a count past DEFAULT_MEMBER_CAP states, but not a large
    Con(lat)."""
    jbelow, closure = _dependency(lat)
    full = (1 << len(closure)) - 1
    mono = _monolith(closure)
    return ConSummary(
        _count_closed(closure, full),
        _count_closed(closure, _mu(lat, jbelow, closure)),
        lat.n >= 2 and all(c == full for c in closure),
        _partition(jbelow, mono) if mono else None,
    )


def mu_con01(lat) -> Partition:
    """Largest congruence keeping the 0- and 1-classes singletons."""
    jbelow, closure = _dependency(lat)
    return _partition(jbelow, _mu(lat, jbelow, closure))


def prime_congruences(lat):
    """Members t != nabla such that p ^ q <= t forces p <= t or q <= t.

    Con(L) is distributive, so these are its meet-irreducibles: one per
    D*-class, all of J(L) but the join-irreducibles that force the class.
    They come in the canonical order of `all_congruences`. There are at
    most |J(L)| of them, so no cap limits the call.
    """
    jbelow, closure = _dependency(lat)
    full = (1 << len(closure)) - 1
    primes = [_partition(jbelow, full & ~f) for f in set(_forcing(closure))]
    return sorted(primes, key=lambda p: (-p.num_blocks, p.block_of))


def quotient(lat, p: Partition):
    """Quotient lattice and the projection element -> block index."""
    if p.n != lat.n or not is_congruence(lat, p):
        raise NotACongruence("quotient requires a congruence of the lattice")
    blocks = p.blocks()
    pos = {block[0]: k for k, block in enumerate(blocks)}
    projection = tuple(pos[b] for b in p.block_of)
    labels = [lat.labels[block[0]] if len(block) == 1 else
              "{" + ",".join(lat.labels[i] for i in block) + "}"
              for block in blocks]
    up = []
    for block in blocks:  # below block y iff some member is below one of y
        above = reduce(or_, (lat.up[i] for i in block))
        up.append(mask_of(projection[j] for j in bits(above)))
    name = f"{lat.name}/~" if lat.name else ""
    return Lattice(labels, up, name=name), projection


def is_simple(lat) -> bool:
    """True iff the only congruences are the identity and the full relation.

    Equivalent to every closure con(j₋, j) holding every join-irreducible:
    any congruence above the identity contains one of them.
    """
    if lat.n < 2:
        return False
    _, closure = _dependency(lat)
    full = (1 << len(closure)) - 1
    return all(c == full for c in closure)


def is_subdirectly_irreducible(lat):
    """(flag, monolith): monolith is the least congruence above the identity."""
    jbelow, closure = _dependency(lat)
    mono = _monolith(closure)
    return (True, _partition(jbelow, mono)) if mono else (False, None)
