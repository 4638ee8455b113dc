"""Congruences of a finite bounded lattice.

Principal congruences are computed by worklist closure over a union-find
state. The full congruence set is the join-closure of the principal
congruences of cover pairs, enumerated by folding one generator at a time
(any congruence is the join of the cover principals it contains, so the
fold reaches everything). ConLattice carries the members in a fixed
canonical order so that listings and goldens are deterministic.
"""

from __future__ import annotations

from functools import cached_property, reduce

from .equiv import Partition, is_congruence
from .errors import NotACongruence, SizeCapExceeded
from .core import Lattice

DEFAULT_CON_CAP = 60
DEFAULT_MEMBER_CAP = 200_000
PRIME_MEMBER_CAP = 200


def principal_congruence(lat, a: int, b: int) -> Partition:
    """Least congruence of lat identifying a and b."""
    n = lat.n
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(x, y):
        rx, ry = find(x), find(y)
        if rx == ry:
            return False
        if rx < ry:
            parent[ry] = rx
        else:
            parent[rx] = ry
        return True

    mt, jt = lat.meet_t, lat.join_t
    work = []
    if union(a, b):
        work.append((a, b))
    while work:
        x, y = work.pop()
        mx, my, jx, jy = mt[x], mt[y], jt[x], jt[y]
        for z in range(n):
            u, v = mx[z], my[z]
            if find(u) != find(v):
                union(u, v)
                work.append((u, v))
            u, v = jx[z], jy[z]
            if find(u) != find(v):
                union(u, v)
                work.append((u, v))
    return Partition(tuple(find(i) for i in range(n)))


def congruence_generated(lat, pairs) -> Partition:
    """Least congruence containing all the given element pairs."""
    out = Partition.delta(lat.n)
    for a, b in pairs:
        if not out.same(a, b):
            out = out.join(principal_congruence(lat, a, b))
    return out


class ConLattice:
    """All congruences of a lattice, ordered by refinement."""

    def __init__(self, base: Lattice, members):
        self.base = base
        self.members = tuple(members)
        self.delta_ix = self.members.index(Partition.delta(base.n))
        self.nabla_ix = self.members.index(Partition.nabla(base.n))

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
    def order(self):
        """Bitmask rows of the refinement order: row i has bit j iff m_i <= m_j."""
        ms = self.members
        rows = []
        for p in ms:
            row = 0
            for j, q in enumerate(ms):
                if p.leq(q):
                    row |= 1 << j
            rows.append(row)
        return tuple(rows)

    def leq(self, i: int, j: int) -> bool:
        return self.members[i].leq(self.members[j])

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
        sel = self.con01_members()
        mu = reduce(lambda p, q: p.join(q), sel, Partition.delta(self.base.n))
        return mu

    def coatoms(self):
        order = self.order
        nab_bit = 1 << self.nabla_ix
        out = []
        for i in range(len(self.members)):
            if i == self.nabla_ix:
                continue
            if order[i] & ~(1 << i) == nab_bit:
                out.append(i)
        return out


def all_congruences(lat, cap: int = DEFAULT_CON_CAP,
                    member_cap: int = DEFAULT_MEMBER_CAP) -> ConLattice:
    """Enumerate Con(lat) by join-closing the cover principal congruences."""
    if lat.n > cap:
        raise SizeCapExceeded(f"{lat.n} elements exceeds congruence cap {cap}")
    gens = {principal_congruence(lat, i, j) for i, j in lat.cover_pairs}
    members = {Partition.delta(lat.n)}
    for g in sorted(gens, key=lambda p: p.block_of):
        members |= {m.join(g) for m in members}
        if len(members) > member_cap:
            raise SizeCapExceeded(
                f"more than {member_cap} congruences; raise member_cap to continue"
            )
    ordered = sorted(members, key=lambda p: (-p.num_blocks, p.block_of))
    return ConLattice(lat, ordered)


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

    Equivalent to every cover principal congruence collapsing the whole
    lattice: any congruence above the identity contains a cover pair.
    """
    if lat.n > cap:
        raise SizeCapExceeded(f"{lat.n} elements exceeds congruence cap {cap}")
    if lat.n < 2:
        return False
    return all(
        principal_congruence(lat, i, j).num_blocks == 1 for i, j in lat.cover_pairs
    )


def is_subdirectly_irreducible(lat, cap: int = DEFAULT_CON_CAP):
    """(flag, monolith): monolith is the least congruence above the identity."""
    con = all_congruences(lat, cap)
    delta = Partition.delta(lat.n)
    proper = [m for m in con.members if m != delta]
    if not proper:
        return False, None
    mono = reduce(lambda p, q: p.meet(q), proper)
    if mono == delta:
        return False, None
    return True, mono
