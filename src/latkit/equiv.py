"""Equivalence relations on a lattice carrier, stored as partitions.

A Partition keeps one canonical block id per element: the least index in
the block. Two partitions are equal exactly when their block maps are
identical, which makes deduplication of congruence sets a matter of
hashing. Partitions remember only the carrier size, not the lattice;
operations that need meets and joins take the lattice explicitly.
"""

from __future__ import annotations

from .core import _check_indices
from .errors import (
    CarrierMismatch,
    EmptySubset,
    OverlappingBlocks,
)


def _canon(assign):
    """Relabel an arbitrary block assignment to least-member block ids."""
    first = {}
    out = []
    for i, b in enumerate(assign):
        out.append(first.setdefault(b, i))
    return tuple(out)


def _join_pairs(n: int, pairs) -> "Partition":
    """Least partition of {0, .., n-1} joining each pair (i, j).

    Union-find with min roots: every root is its block's least member, so
    the block map comes out canonical.
    """
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for i, j in pairs:
        ri, rj = find(i), find(j)
        if ri < rj:
            parent[rj] = ri
        elif rj < ri:
            parent[ri] = rj
    return Partition._of_canonical(tuple(find(i) for i in range(n)))


def _refines(p, q) -> bool:
    """Whether the least-member block map p refines the block map q on the
    same carrier: each element shares q's block with its p-block's least
    member."""
    for i, b in enumerate(p):
        if q[i] != q[b]:
            return False
    return True


def block_renderer(labels):
    """The block notation of a least-member block map over these labels.

    Blocks come by least member, each listed ascending: a stable sort of
    the elements by block id groups them so, and an element opens a new
    block exactly when it is its block's least member.
    """
    opens = ["}{" + lab for lab in labels]
    joins = ["," + lab for lab in labels]

    def render(block_of) -> str:
        order = sorted(range(len(block_of)), key=block_of.__getitem__)
        text = "".join([opens[i] if block_of[i] == i else joins[i]
                        for i in order])
        return text[1:] + "}" if text else ""

    return render


class Partition:
    """Equivalence relation on {0, .., n-1} in least-member canonical form."""

    __slots__ = ("n", "block_of", "_hash")

    def __init__(self, block_of):
        bo = _canon(block_of)
        self.n = len(bo)
        self.block_of = bo
        self._hash = hash(bo)

    @classmethod
    def _of_canonical(cls, bo: tuple) -> "Partition":
        """Partition of a block map already in least-member form."""
        p = cls.__new__(cls)
        p.n, p.block_of, p._hash = len(bo), bo, hash(bo)
        return p

    @classmethod
    def delta(cls, n: int) -> "Partition":
        return cls(range(n))

    @classmethod
    def nabla(cls, n: int) -> "Partition":
        return cls([0] * n)

    @classmethod
    def from_blocks(cls, n: int, blocks) -> "Partition":
        """Partition with the given blocks; unlisted elements are singletons."""
        assign = list(range(n))
        seen = set()
        for block in blocks:
            block = list(block)
            _check_indices(n, block)  # before a sort could compare non-ints
            block.sort()
            for i in block:
                if i in seen:
                    raise OverlappingBlocks(f"element index {i} listed twice")
                seen.add(i)
                assign[i] = block[0]
        return cls(assign)

    # -- queries ----------------------------------------------------------

    def same(self, i: int, j: int) -> bool:
        _check_indices(self.n, (i, j))
        return self.block_of[i] == self.block_of[j]

    @property
    def num_blocks(self) -> int:
        return len(set(self.block_of))

    def blocks(self):
        """Blocks as lists of ascending indices, ordered by least member:
        a block first appears at its least member, so index order is that
        order."""
        groups = {}
        for i, b in enumerate(self.block_of):
            groups.setdefault(b, []).append(i)
        return list(groups.values())

    def block(self, i: int):
        _check_indices(self.n, (i,))
        b = self.block_of[i]
        return tuple(j for j, bj in enumerate(self.block_of) if bj == b)

    def singleton(self, i: int) -> bool:
        _check_indices(self.n, (i,))
        b = self.block_of[i]
        return all(bj != b for j, bj in enumerate(self.block_of) if j != i)

    def render(self, labels) -> str:
        """Block notation, blocks by least member (`block_renderer`)."""
        return block_renderer(labels)(self.block_of)

    # -- lattice structure of Eq ------------------------------------------

    def _check(self, other: "Partition"):
        if self.n != other.n:
            raise CarrierMismatch(f"carriers differ: {self.n} vs {other.n}")

    def leq(self, other: "Partition") -> bool:
        """Refinement order: every block of self lies inside a block of other."""
        self._check(other)
        return _refines(self.block_of, other.block_of)

    def join(self, other: "Partition") -> "Partition":
        """Least common coarsening (transitive closure of the union)."""
        self._check(other)
        return _join_pairs(self.n, (*enumerate(self.block_of),
                                    *enumerate(other.block_of)))

    def meet(self, other: "Partition") -> "Partition":
        """Common refinement."""
        self._check(other)
        return Partition(zip(self.block_of, other.block_of))

    def restrict(self, indices) -> "Partition":
        """Partition induced on the given element sequence (positional)."""
        indices = list(indices)
        if not indices:
            raise EmptySubset("cannot restrict to an empty subset")
        _check_indices(self.n, indices)
        return Partition(self.block_of[i] for i in indices)

    # -- value semantics ----------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, Partition):
            return NotImplemented
        return self.block_of == other.block_of

    def __hash__(self):
        return self._hash

    def __repr__(self):
        body = "".join("{" + ",".join(map(str, b)) + "}" for b in self.blocks())
        return f"Partition({body})"


# -- operations on a lattice carrier ----------------------------------------

def eq_from_blocks(lat, blocks) -> Partition:
    """Partition of lat's carrier from disjoint blocks given as label sets."""
    index_blocks = []
    for block in blocks:
        index_blocks.append([lat.index(x) for x in block])
    return Partition.from_blocks(lat.n, index_blocks)


# `Partition.leq` and `Partition.join` under the names the benchmark's
# tracer (`perfbench/tracer.py`, GROUPS) times them by; nothing in latkit
# calls these, and they go once that tracer no longer names them.
def eq_leq(p: Partition, q: Partition) -> bool:
    return p.leq(q)


def eq_join(p: Partition, q: Partition) -> Partition:
    return p.join(q)


def is_congruence(lat, p: Partition) -> bool:
    """Compatibility with meet and join, checked by substitution.

    Only consecutive pairs inside each block are tested: compatibility for
    the remaining pairs follows by transitivity. One walk of the block map
    finds them, pairing each element with the last one seen in its block.
    """
    if p.n != lat.n:
        raise CarrierMismatch(f"partition on {p.n} elements, lattice has {lat.n}")
    mt, jt = lat.meet_t, lat.join_t
    b = p.block_of
    rng = range(lat.n)
    last = {}
    for y, block in enumerate(b):
        x = last.get(block)
        last[block] = y
        if x is None:
            continue
        mx, my, jx, jy = mt[x], mt[y], jt[x], jt[y]
        for z in rng:
            if b[mx[z]] != b[my[z]] or b[jx[z]] != b[jy[z]]:
                return False
    return True


def are_blocks_convex(lat, p: Partition) -> bool:
    """True iff every block is an order-convex sublattice of lat."""
    if p.n != lat.n:
        raise CarrierMismatch(f"partition on {p.n} elements, lattice has {lat.n}")
    up, down = lat.up, lat.down
    mt, jt = lat.meet_t, lat.join_t
    for block in p.blocks():
        bmask = 0
        for i in block:
            bmask |= 1 << i
        for i in block:
            for j in block:
                if mt[i][j] not in block or jt[i][j] not in block:
                    return False
                if lat.leq(i, j) and (up[i] & down[j]) & ~bmask:
                    return False
    return True
