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
`jbelow[y] & ~S`, the key from which each partition is built once.
Con(L) is enumerated by OR-folding the closures, and its order, joins
and meets are subset tests, ORs and ANDs of these masks. The closed
sets are the downsets of the preorder "t lies in closure[u]", so a
cover adds one D*-class (the join-irreducibles that force each other),
and a coatom drops one class that nothing outside it forces. ConLattice
carries the members in a fixed canonical order so that listings and
goldens are deterministic.
"""

from __future__ import annotations

from functools import cached_property, reduce
from operator import and_

from .core import Lattice, bits
from .equiv import Partition, is_congruence
from .errors import NotACongruence, SizeCapExceeded

DEFAULT_CON_CAP = 60
DEFAULT_MEMBER_CAP = 200_000
PRIME_MEMBER_CAP = 200


def _dependency(lat):
    """(jbelow, closure) of lat, as described in the module docstring."""
    n, up, down, jt = lat.n, lat.up, lat.down, lat.join_t
    down_id = {d: x for x, d in enumerate(down)}
    joins = [j for j in range(n)
             if j != lat.bottom and lat.is_join_irreducible(j)]
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

    `masks[i]` is the closed set of join-irreducibles of members[i] (see
    the module docstring), so members[i] <= members[j] iff masks[i] is a
    subset of masks[j]. `closure[t]` is the D*-closure of the t-th
    join-irreducible.
    """

    def __init__(self, base: Lattice, members, masks, closure):
        self.base = base
        self.members = tuple(members)
        self.masks = tuple(masks)
        self.closure = tuple(closure)
        self.delta_ix = self.masks.index(0)
        self.nabla_ix = self.masks.index((1 << len(self.closure)) - 1)

    def __len__(self):
        return len(self.members)

    @cached_property
    def _member_index(self):
        return {m: i for i, m in enumerate(self.members)}

    def index_of(self, p: Partition) -> int:
        return self._member_index[p]

    def __contains__(self, p):
        return p in self._member_index

    @cached_property
    def _mask_index(self):
        return {s: i for i, s in enumerate(self.masks)}

    @cached_property
    def _classes(self):
        """(forcing, cls): forcing[t] holds the join-irreducibles whose
        closure holds t, and cls[t] = forcing[t] & closure[t] is the
        D*-class of t."""
        forcing = [0] * len(self.closure)
        for u, c in enumerate(self.closure):
            for t in bits(c):
                forcing[t] |= 1 << u
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

    def con01_indices(self):
        bot, top = self.base.bottom, self.base.top
        return [
            i for i, m in enumerate(self.members)
            if m.singleton(bot) and m.singleton(top)
        ]

    def con01_members(self):
        return [self.members[i] for i in self.con01_indices()]

    def mu_con01(self) -> Partition:
        """Largest congruence keeping the 0- and 1-classes singletons."""
        mask = 0
        for i in self.con01_indices():
            mask |= self.masks[i]
        return self.members[self.masks.index(mask)]

    def monolith(self):
        """Least member above the identity, or None when there is none."""
        proper = [s for s in self.masks if s]
        mono = reduce(and_, proper) if proper else 0
        return self.members[self.masks.index(mono)] if mono else None

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


def all_congruences(lat, cap: int = DEFAULT_CON_CAP,
                    member_cap: int = DEFAULT_MEMBER_CAP) -> ConLattice:
    """Enumerate Con(lat) as the unions of the closures con(j₋, j)."""
    if lat.n > cap:
        raise SizeCapExceeded(f"{lat.n} elements exceeds congruence cap {cap}")
    jbelow, closure = _dependency(lat)
    masks = {0}
    for g in set(closure):
        masks |= {m | g for m in masks}
        if len(masks) > member_cap:
            raise SizeCapExceeded(
                f"more than {member_cap} congruences; raise member_cap to continue"
            )
    keyed = []
    for s in masks:
        first = {}
        bo = tuple([first.setdefault(jb & ~s, i) for i, jb in enumerate(jbelow)])
        keyed.append((-len(first), bo, s))
    keyed.sort()
    return ConLattice(lat, [Partition._of_canonical(bo) for _, bo, _ in keyed],
                      [s for _, _, s in keyed], closure)


def con01(lat, cap: int = DEFAULT_CON_CAP):
    """Congruences whose bottom and top classes are singletons."""
    return all_congruences(lat, cap).con01_members()


def mu_con01(lat, cap: int = DEFAULT_CON_CAP) -> Partition:
    return all_congruences(lat, cap).mu_con01()


def maximal_congruences(lat, cap: int = DEFAULT_CON_CAP):
    """Coatoms of the congruence lattice."""
    con = all_congruences(lat, cap)
    return [con.members[i] for i in con.coatoms()]


def prime_congruences(lat, cap: int = DEFAULT_CON_CAP,
                      member_cap: int = PRIME_MEMBER_CAP):
    """Members t != nabla such that p ^ q <= t forces p <= t or q <= t.

    Quantifies over the enumerated members, so the cost is cubic in |Con|;
    `member_cap` guards against runaway instances.
    """
    con = all_congruences(lat, cap)
    ms = con.members
    m = len(ms)
    if m > member_cap:
        raise SizeCapExceeded(f"|Con| = {m} exceeds prime scan cap {member_cap}")
    idx = con.index_of
    order = con.order
    meet_ix = [[0] * m for _ in range(m)]
    for i in range(m):
        for j in range(i, m):
            k = idx(ms[i].meet(ms[j]))
            meet_ix[i][j] = meet_ix[j][i] = k
    out = []
    for t in range(m):
        if t == con.nabla_ix:
            continue
        below_t = [(order[i] >> t) & 1 for i in range(m)]
        above = [i for i in range(m) if not below_t[i]]
        prime = True
        for ai, a in enumerate(above):
            row = meet_ix[a]
            for b in above[ai:]:
                if below_t[row[b]]:
                    prime = False
                    break
            if not prime:
                break
        if prime:
            out.append(ms[t])
    return out


def two_class_congruences(lat, cap: int = DEFAULT_CON_CAP):
    con = all_congruences(lat, cap)
    return [m for m in con.members if m.num_blocks == 2]


def quotient(lat, p: Partition):
    """Quotient lattice and the projection element -> block index."""
    if p.n != lat.n or not is_congruence(lat, p):
        raise NotACongruence("quotient requires a congruence of the lattice")
    blocks = p.blocks()
    pos = {block[0]: k for k, block in enumerate(blocks)}
    labels = []
    for block in blocks:
        if len(block) == 1:
            labels.append(lat.labels[block[0]])
        else:
            labels.append("{" + ",".join(lat.labels[i] for i in block) + "}")
    masks = []
    for block in blocks:
        m = 0
        for i in block:
            m |= 1 << i
        masks.append(m)
    k = len(blocks)
    up = []
    for x, bx in enumerate(blocks):
        row = 0
        for y in range(k):
            if any(lat.up[i] & masks[y] for i in bx):
                row |= 1 << y
        up.append(row)
    name = f"{lat.name}/~" if lat.name else ""
    result = Lattice(labels, up, name=name)
    projection = tuple(pos[p.block_of[i]] for i in range(lat.n))
    return result, projection


def is_simple(lat, cap: int = DEFAULT_CON_CAP) -> bool:
    """True iff the only congruences are the identity and the full relation.

    Equivalent to every closure con(j₋, j) holding every join-irreducible:
    any congruence above the identity contains one of them.
    """
    if lat.n > cap:
        raise SizeCapExceeded(f"{lat.n} elements exceeds congruence cap {cap}")
    if lat.n < 2:
        return False
    _, closure = _dependency(lat)
    full = (1 << len(closure)) - 1
    return all(c == full for c in closure)


def is_subdirectly_irreducible(lat, cap: int = DEFAULT_CON_CAP):
    """(flag, monolith): monolith is the least congruence above the identity."""
    monolith = all_congruences(lat, cap).monolith()
    return monolith is not None, monolith
