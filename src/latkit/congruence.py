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
con(t₋, t) collapses. D is read off the arrow relations, not the join
table: j D k or j = k iff some meet-irreducible m, with upper cover m*,
lies above k₋ but not above k, and j lies below m* but not below m. A
closed set S is a union of closures, and its congruence identifies x
and y exactly when `jbelow[x] & ~S` equals `jbelow[y] & ~S`. Joins and
meets in Con(L) are ORs and ANDs of these masks. The closed sets are
the downsets of the preorder "t lies in closure[u]", so a cover adds
one D*-class (the join-irreducibles that force each other), and a
coatom drops one class that nothing outside it forces. Con(L) is distributive, so its prime members are its
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

The closure readers take no size cap: they cost O(|J|·|M|) mask
operations for D, over the meet-irreducibles M, and O(|J|²) for its
transitive closure, so they answer on any lattice that can be built,
and build no operation table.

Listing Con(L) is `all_congruences`'s job alone, and its caps bind only
the listings. It refuses a lattice above DEFAULT_CON_CAP elements before
it builds a join table, so that a refusal costs no work, and it compares
the count with DEFAULT_MEMBER_CAP before it enumerates. It OR-folds the
closures and keys each member by one bytes row: 255 minus its number of
blocks, its least-member block map, then its mask. Sorting the rows once
puts the members in a fixed canonical order (more blocks first, then by
block map), so that listings and goldens are deterministic. From three
members per element of L on, the rows are built for all members at
once, bit-sliced: each big int holds one 8-bit lane per member, and x's
block id is the least y whose jbelow[y] ^ jbelow[x] the member holds,
an AND of lanes over a few join-irreducibles. `ConLattice.line_chunks()`
renders the rows in block notation in the same way, a chunk of members
at a time, as one byte code per printed piece. It writes the text by
byte planes: each piece is encoded as UTF-8 with `surrogatepass` and
padded with 0xFF, which UTF-8 never produces, to the widest piece's
width W, and byte k of every piece is one `bytes.translate` of the
codes, written to every W-th byte from k; deleting the pad and decoding
gives the text. Smaller listings are keyed and rendered one member at a
time. A lattice keeps its listing, as it keeps its closures, so it is
listed once; the listing keeps the labels and name it reads, and the
μ it computes once, not the lattice.
DEFAULT_CON_CAP keeps every value in a lane below 128, so no lane
carries into the next. A ConLattice keys its rows, and reads the masks,
the block maps and the Partitions off them, only when first asked for.
It answers what needs the members or their order as member indices:
`con01` is the one reader of Con01 in a listing (`con01_members` wraps
its indices as Partitions), and `covers` and `coatoms` read the order;
|Con|, μ, the monolith, simplicity and the primes have one reader each
among the functions below, which read the closures.
"""

from __future__ import annotations

import sys
from array import array
from functools import cached_property, reduce
from itertools import count
from math import prod
from operator import and_, or_
from typing import NamedTuple, Optional

from .construct import _extended
from .core import Lattice, _check_indices, bits, mask_of
from .equiv import Partition, block_renderer, is_congruence
from .errors import NotACongruence, SizeCapExceeded

# The listing keys and renders its members in 8-bit lanes and bytes rows,
# one byte per element index, block count and position, so this cap must
# stay below 128, where no lane carries into the next. It must also stay
# at most 65: a member's mask, over at most n - 1 join-irreducibles,
# fills the _WIDTH bytes of its row.
DEFAULT_CON_CAP = 60
DEFAULT_MEMBER_CAP = 200_000
_WIDTH = 8
# A listing keys and renders its members lane-wise from this many members
# per element of the lattice on; below it, one member at a time costs less.
# Keying plus byte-plane render, member-wise vs lane-wise (best of 15 x
# 1,000 calls, Python 3.11.7): 36 vs 46 us at 2 members per element
# (chain(4)), 92 vs 88 at 2.5 (osum(N5,B2)), 140 vs 112 at 2.86
# (osum(N5,chain(3))), 62 vs 48 at 3.2 (chain(5)), 168 vs 104 at 3.56
# (osum(M3,chain(5))); at 25 elements the two tie near 2.6. Keying and
# render each cross between 2 and 2.6, a little below this threshold.
_LANES_PER_ELEMENT = 3
_CHUNK = 4096  # members rendered per pass of `ConLattice.line_chunks`


def _dependency(lat):
    """(jbelow, closure) of lat, as described in the module docstring.

    Computed once per Lattice and kept in its __dict__ beside the tables
    that `cached_property` keeps there; a `dual` computes its own."""
    got = lat.__dict__.get("_dependency")
    if got is None:
        got = lat.__dict__["_dependency"] = _closures(lat)
    return got


def _closures(lat):
    """(jbelow, closure) of lat, computed afresh, with D read off the
    arrow relations (module docstring): before the Warshall pass, the
    closure of the t-th join-irreducible k is the OR of
    jbelow[m*] & ~jbelow[m] over the meet-irreducibles m above k₋ but
    not above k."""
    n, up, down = lat.n, lat.up, lat.down
    down_id = {d: x for x, d in enumerate(down)}
    up_id = {u: x for x, u in enumerate(up)}
    # k is join-irreducible iff what lies strictly below k is a principal
    # down-set, that of k's one lower cover k₋ (never so for the bottom);
    # dually, m is meet-irreducible iff ↑m - {m} is ↑m*
    joins = [k for k in range(n) if down[k] ^ (1 << k) in down_id]
    jbelow = [0] * n
    for t, j in enumerate(joins):
        for x in bits(up[j]):
            jbelow[x] |= 1 << t
    arrow, meets = [0] * n, 0  # arrow[m]: the j with j <= m* but not j <= m
    for m in range(n):
        star = up_id.get(up[m] ^ (1 << m))
        if star is not None:
            arrow[m] = jbelow[star] & ~jbelow[m]
            meets |= 1 << m
    closure = []
    for k in joins:
        dep = 0  # a greatest m above k₋ but not k has k <= m*, putting k in
        for m in bits(up[down_id[down[k] ^ (1 << k)]] & ~up[k] & meets):
            dep |= arrow[m]
        closure.append(dep)
    for t, ct in enumerate(closure):  # Warshall: close under D transitively
        bit = 1 << t
        for s, cs in enumerate(closure):
            if cs & bit:
                closure[s] = cs | ct
    return tuple(jbelow), tuple(closure)


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


def _mu(up, top, jbelow, closure) -> int:
    """Closed set of μ, the largest congruence whose 0- and 1-classes are
    singletons (module docstring), for the lattice with these up masks
    and top."""
    full = (1 << len(closure)) - 1
    atoms, rests = 0, []
    for x, jb in enumerate(jbelow):
        if jb and not jb & (jb - 1):  # x is an atom
            atoms |= jb
        if x != top and up[x] == 1 << x | 1 << top:  # x is a coatom
            rests.append(full & ~jb)
    mu = 0
    for c in closure:
        if not c & atoms and all(r & ~c for r in rests):
            mu |= c
    return mu


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
    pairs = list(pairs)
    _check_indices(lat.n, [x for pair in pairs for x in pair])
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
    block map. `rows[i]` is the i-th member as bytes: 255 minus its
    number of blocks, its least-member block map, and its mask in
    little-endian order, so that sorting the rows sorts the members.
    `masks[i]` is the closed set of join-irreducibles of the i-th member
    (see the module docstring), so member i refines member j iff masks[i]
    is a subset of masks[j]. `closure[t]` is the D*-closure of the t-th
    join-irreducible. The rows are keyed from the closed sets on first
    read, and `masks`, `block_maps` (the least-member block maps) and
    `members` (the members as Partitions) are read off them on first use;
    `line_chunks()` renders the rows without any of them. `con01()`,
    `coatoms()` and `covers()` answer with member indices, so a reader of
    the masks or block maps builds no Partition; `con01()` is the one
    reader of the members below μ.

    A listing keeps what it reads of its lattice, not the lattice: its
    `labels` and `name`, which the rendered lines and `dot.con_dot` bear,
    and the closed set of μ, computed once, which `con01` reads. So the
    lattice, which keeps its listing (`all_congruences`), is in no
    reference cycle with it, and a listing pickles as a plain value.
    """

    def __init__(self, base: Lattice, jbelow, closure, closed):
        self.labels, self.name = base.labels, base.name
        self.closure = tuple(closure)
        self._mu = _mu(base.up, base.top, jbelow, closure)
        self._jbelow = jbelow
        self._closed, self._size = closed, len(closed)

    def __len__(self):
        return self._size

    @cached_property
    def rows(self):
        closed, self._closed = self._closed, None  # the rows hold the masks
        key = _rows_by_lanes if _by_lanes(len(closed), len(self.labels)) \
            else _rows_by_member
        return tuple(sorted(key(self._jbelow, self.closure, closed)))

    @cached_property
    def masks(self):
        end = len(self.labels) + 1  # where the block map ends
        return tuple([int.from_bytes(r[end:], "little") for r in self.rows])

    @cached_property
    def block_maps(self):
        end = len(self.labels) + 1
        return tuple([tuple(r[1:end]) for r in self.rows])

    @cached_property
    def members(self):
        return tuple(map(Partition._of_canonical, self.block_maps))

    def line_chunks(self):
        """Each member in block notation (`equiv.block_renderer`), in
        order, as lists of lines. From _LANES_PER_ELEMENT members per
        element on, each list holds the next _CHUNK members, rendered
        lane-wise (`_render_codes`) as one text that is split at a
        character in no label and none of `,{}`. A smaller listing, of
        fewer than _LANES_PER_ELEMENT * DEFAULT_CON_CAP members, comes
        as one list from `block_renderer`.

        The lane-wise text is built by byte planes. Each code's piece is
        encoded as UTF-8 with `surrogatepass`, so that a label holding a
        lone surrogate is kept, and padded with 0xFF, a byte UTF-8 never
        produces, to the widest piece's W bytes. Byte k of every piece is
        then one `bytes.translate` of the codes, written to every W-th
        byte from k; deleting the 0xFF pad and decoding gives the text."""
        labels = self.labels
        n = len(labels)
        if not _by_lanes(len(self.rows), n):
            yield list(map(block_renderer(labels), self.block_maps))
            return
        used = set(",{}" + "".join(labels))
        sep = next(c for c in map(chr, count(10)) if c not in used)
        # the pieces of codes 0..n-1, 128..127+n and 255, in that order;
        # element 0 opens the first block of every member
        pieces = [*("," + lab for lab in labels), "{" + labels[0],
                  *("}{" + lab for lab in labels[1:]), "}" + sep]
        pieces = [p.encode("utf-8", "surrogatepass") for p in pieces]
        width = max(map(len, pieces))
        padded = b"".join(p.ljust(width, b"\xff") for p in pieces)
        in_use = bytes([*range(n), *range(128, 128 + n), 255])
        # tables[k][code]: byte k of the code's padded piece
        tables = [bytes.maketrans(in_use, padded[k::width])
                  for k in range(width)]
        for start in range(0, len(self.rows), _CHUNK):
            codes = _render_codes(self.rows[start:start + _CHUNK], n)
            buf = bytearray(len(codes) * width)
            for k, table in enumerate(tables):
                buf[k::width] = codes.translate(table)
            lines = buf.translate(None, b"\xff").decode(
                "utf-8", "surrogatepass").split(sep)
            del codes, buf  # released before the next chunk is rendered
            lines.pop()  # the empty text after the last separator
            yield lines

    @cached_property
    def _map_index(self):
        return {m: i for i, m in enumerate(self.block_maps)}

    def index_of(self, p: Partition) -> int:
        try:
            return self._map_index[p.block_of]
        except KeyError:
            raise NotACongruence(
                f"{p!r} is not a member of this listing") from None

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

    def con01(self):
        """Indices, ascending, of the members whose 0- and 1-classes are
        singletons: those below μ. The one reader of Con01 in a listing."""
        return [i for i, s in enumerate(self.masks) if not s & ~self._mu]

    def con01_members(self):
        """The members `con01` indexes, as Partitions."""
        return [self.members[i] for i in self.con01()]

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
    than DEFAULT_MEMBER_CAP congruences, before it lists any. The listing
    is memoised on lat, as `_dependency` is, and a refusal is not; a
    `dual` lists afresh.
    """
    got = lat.__dict__.get("_congruences")
    if got is not None:
        return got
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
    got = lat.__dict__["_congruences"] = ConLattice(lat, jbelow, closure,
                                                    list(masks))
    return got


def _by_lanes(members: int, n: int) -> bool:
    return members >= _LANES_PER_ELEMENT * n


def _rows_by_member(jbelow, closure, masks):
    """The unsorted rows of `ConLattice` for these masks, keyed one member
    at a time: x opens a block unless an earlier element has its
    `jbelow[x] & ~s`."""
    rows = []
    for s in masks:
        first = {}
        least = first.setdefault
        ns = ~s
        bo = [least(jb & ns, x) for x, jb in enumerate(jbelow)]
        rows.append(bytes([255 - len(first), *bo]) + s.to_bytes(_WIDTH, "little"))
    return rows


def _rows_by_lanes(jbelow, closure, masks):
    """The rows of `_rows_by_member`, in the order of `masks`, keyed for
    all members at once.

    Each big int holds one 8-bit lane per member, member i in byte i.
    y and x share a block exactly when the member holds jbelow[x] ^
    jbelow[y], and a member holding t holds closure[t], so the test is an
    AND of the lanes of a few join-irreducibles. x's block id is the least
    such y; x opens a block when no y < x qualifies. Every value in a lane
    stays below 256, so no lane carries into the next.
    """
    m, n = len(masks), len(jbelow)
    ones = int.from_bytes(b"\1" * m, "little")
    packed = array("Q", masks)  # 8 bytes a mask, as in the rows
    if sys.byteorder == "big":
        packed.byteswap()
    packed = packed.tobytes()
    # byte[k]: byte k of each mask, a lane each; holds[t]: 255 in the
    # lanes of the members that hold t
    byte = [int.from_bytes(packed[k::_WIDTH], "little") for k in range(_WIDTH)]
    holds = [(byte[t >> 3] >> (t & 7) & ones) * 255 for t in range(len(closure))]
    full, ids = ones * 255, [y * ones for y in range(n)]
    row = n + 1 + _WIDTH
    buf = bytearray(m * row)
    blocks = 0
    for x in range(n):
        bid, joined = ids[x], 0
        for y in range(x - 1, -1, -1):  # the least such y is set last
            same, rest = full, jbelow[x] ^ jbelow[y]
            while rest:
                t = (rest & -rest).bit_length() - 1
                same &= holds[t]
                rest &= ~closure[t]
            bid ^= (bid ^ ids[y]) & same
            joined |= same
        blocks += ones & ~joined
        buf[x + 1::row] = bid.to_bytes(m, "little")
    buf[0::row] = (255 * ones - blocks).to_bytes(m, "little")
    for k in range(_WIDTH):
        buf[n + 1 + k::row] = packed[k::_WIDTH]
    data = bytes(buf)
    return [data[i:i + row] for i in range(0, len(data), row)]


def _render_codes(rows, n):
    """For each row, n + 1 bytes: the piece codes of `ConLattice.line_chunks`
    in the order they are printed, then 255 (the closing brace).

    An element is printed in its block, blocks by least member and each
    ascending, so its position is the number of elements whose (block
    id, index) is smaller. Its code is its index, plus 128 when it opens
    its block. Both are computed lane-wise, as in `_rows_by_lanes`: with
    every value below 128, (a | 128) - b has its top bit set exactly when
    a >= b, so lanes compare without a borrow into the next.
    """
    m, row = len(rows), len(rows[0])
    data = b"".join(rows)
    ones = int.from_bytes(b"\1" * m, "little")
    high = ones << 7
    ids = [y * ones for y in range(n)]
    bids = [int.from_bytes(data[k::row], "little") for k in range(1, n + 1)]
    rank, codes = [0] * n, []
    for x, bx in enumerate(bids):
        bx |= high
        for z in range(x):  # z comes first iff its block id is not larger
            first = (bx - bids[z]) >> 7 & ones
            rank[x] += first
            rank[z] += ones ^ first
        # x opens its block iff its block id reaches x, its largest value
        codes.append(ids[x] | ((bx - ids[x]) & high))
    at = [None] * n
    moving = []
    for x, r in enumerate(rank):
        if r == (r & 255) * ones:  # at the same position in every member
            at[r & 255] = codes[x]
        else:
            moving.append(x)
    buf = bytearray(m * (n + 1))
    for p in range(n):
        if at[p] is None:
            at[p] = 0
            for x in moving:
                v = rank[x] ^ ids[p]
                hit = ((v | high) - ones) & high ^ high  # 128 where v is 0
                at[p] |= codes[x] & (hit >> 7) * 255
        buf[p::n + 1] = at[p].to_bytes(m, "little")
    buf[n::n + 1] = b"\xff" * m
    return bytes(buf)


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
    return ConSummary(
        _count_closed(closure, (1 << len(closure)) - 1),
        _count_closed(closure, _mu(lat.up, lat.top, jbelow, closure)),
        is_simple(lat),
        is_subdirectly_irreducible(lat)[1],
    )


def mu_con01(lat) -> Partition:
    """Largest congruence keeping the 0- and 1-classes singletons."""
    jbelow, closure = _dependency(lat)
    return _partition(jbelow, _mu(lat.up, lat.top, jbelow, closure))


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
    # a singleton keeps its label; a brace label is primed until fresh
    singles = [lat.labels[b[0]] for b in blocks if len(b) == 1]
    braced = iter(_extended(singles, [
        "{" + ",".join(lat.labels[i] for i in b) + "}"
        for b in blocks if len(b) > 1])[len(singles):])
    labels = [lat.labels[b[0]] if len(b) == 1 else next(braced)
              for b in blocks]
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
    mono = reduce(and_, closure, (1 << len(closure)) - 1)  # 0: none
    return (True, _partition(jbelow, mono)) if mono else (False, None)
