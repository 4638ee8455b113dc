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
once, bit-sliced: each big int holds one 8-bit lane per member, and y
and x share a block iff the member holds jbelow[y] ^ jbelow[x], an AND
of lanes over a few join-irreducibles. The keying follows the covers of
L, not every pair of elements. A block is a convex sublattice (Grätzer,
"The Congruences of a Finite Lattice"), so x shares a block with an
element below it iff it shares one with a lower cover, whose block id
x then takes; taken in a linear extension, one AND chain per cover
settles x's block. Otherwise x is the least element of its block, and
its id, the least index in the block, is x or an "early" element above
x with a smaller index; only those are tested, and where the index
order is a linear extension (chains, ordinal and horizontal sums, the
census) there are none. The covers and the early elements are read
off jbelow with O(n²) mask operations. `ConLattice.line_chunks()`
renders the rows in block notation in the same way, a chunk of members
at a time, as one byte code per printed piece, and yields each chunk
as one text, every member's line ended by "\n". An element's printed
position is its index, corrected by the pairs of elements printed out
of index order, and only an element whose block id lies below a block
id before it, in some member, is compared pairwise: in a chain, none
is. It writes the text by byte planes: each piece is encoded as UTF-8
with `surrogatepass` and padded with 0xFF, which UTF-8 never produces,
to the widest piece's width W, and byte k of every piece is one
`bytes.translate` of the codes, written to every W-th byte from k;
deleting the pad and decoding gives the text. `latkit congruences`
writes the texts as they come; `dot.con_dot`, which needs one name a
member though a label may hold "\n", has the lines ended by a character
in no label instead, and splits there. Smaller listings are keyed and
rendered one member at a time. A lattice keeps its listing, as it keeps
its closures, so it is listed once; the listing keeps the labels and
name it reads, and the μ it computes once, not the lattice.
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
from math import prod
from operator import and_, or_
from struct import iter_unpack
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
# Keying plus render to text, member-wise vs lane-wise (best of 15 x 1,000
# calls, Python 3.11.7, 2 vCPUs): 34 vs 50 us at 2 members per element
# (chain(4)), 85 vs 97 at 2.5 (osum(N5,B2)), 79 vs 82 at 2.86
# (osum(N5,chain(3))), 59 vs 57 at 3.2 (chain(5)), 129 vs 89 at 3.56
# (osum(M3,chain(5))); at 25 elements, an ordinal sum of six M3 (2.56),
# 435 vs 235, as the lane-wise keying follows the covers. The small
# listings cross between 2.86 and 3.2. The listings of the perfbench
# `cli` batch (seeds 1-5) lie at 3.2 or above, or at 2.38 (19 members on
# 8 elements) or below, none of them large, so a lower threshold for a
# large lattice could not show end to end.
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

    def line_chunks(self, _end="\n"):
        """Each member in block notation (`equiv.block_renderer`), in
        order, one line a member, as texts. From _LANES_PER_ELEMENT
        members per element on, each text holds the next _CHUNK members,
        rendered lane-wise (`_render_codes`); a smaller listing, of fewer
        than _LANES_PER_ELEMENT * DEFAULT_CON_CAP members, comes as one
        text from `block_renderer`. Each line ends in `_end`, "\n" but
        for `dot.con_dot`, which ends them in a character in no label so
        that it can split the texts into one name a member.

        The lane-wise text is built by byte planes. Each code's piece is
        encoded as UTF-8 with `surrogatepass`, so that a label holding a
        lone surrogate is kept, and padded with 0xFF, a byte UTF-8 never
        produces, to the widest piece's W bytes. Byte k of every piece is
        then one `bytes.translate` of the codes, written to every W-th
        byte from k; deleting the 0xFF pad and decoding gives the text."""
        labels = self.labels
        n = len(labels)
        if not _by_lanes(len(self.rows), n):
            yield "".join([line + _end for line in
                           map(block_renderer(labels), self.block_maps)])
            return
        # the pieces of codes 0..n-1, 128..127+n and 255, in that order;
        # element 0 opens the first block of every member
        pieces = [*("," + lab for lab in labels), "{" + labels[0],
                  *("}{" + lab for lab in labels[1:]), "}" + _end]
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
            text = buf.translate(None, b"\xff").decode("utf-8", "surrogatepass")
            del codes, buf  # released before the next chunk is rendered
            yield text

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
    AND of the lanes of a few join-irreducibles: those of the least t
    left in the mask, then of the mask without closure[t], memoised for
    one x by the mask left. A block is a convex sublattice, so x shares
    one with an element below it iff it shares one with a lower cover c,
    and then it takes c's block id; otherwise x is the least element of
    its block, and its id is the least index among x and the elements
    above x with a smaller index (`_order`), tested in those lanes only.
    The elements go in a linear extension, so c's id is set before x's.
    Every value in a lane stays below 256, so no lane carries into the
    next.
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
    full = ones * 255
    row = n + 1 + _WIDTH
    buf = bytearray(m * row)
    bids, blocks = [None] * n, 0
    pairs, above = _order(jbelow)
    for x, covers in pairs:
        jx, same = jbelow[x], {0: full}  # same[rest]: the AND of rest

        def both(rest):  # the lanes where x and an element share a block
            chain = []
            while rest not in same:
                t = (rest & -rest).bit_length() - 1
                chain.append((rest, t))
                rest &= ~closure[t]
            got = same[rest]
            for rest, t in reversed(chain):
                got = same[rest] = holds[t] & got
            return got

        bid, own = x * ones, full
        for c in covers:
            got = both(jx & ~jbelow[c])
            bid ^= (bid ^ bids[c]) & got
            own &= ~got
        for y in sorted(above[x], reverse=True):  # the least y is set last
            bid ^= (bid ^ y * ones) & own & both(jbelow[y] & ~jx)
        bids[x] = bid
        blocks += own & ones
        buf[x + 1::row] = bid.to_bytes(m, "little")
    buf[0::row] = (full - blocks).to_bytes(m, "little")
    for k in range(_WIDTH):
        buf[n + 1 + k::row] = packed[k::_WIDTH]
    return [r for r, in iter_unpack(f"{row}s", buf)]


def _order(jbelow):
    """(pairs, above): pairs holds (x, the lower covers of x) for each x
    in a linear extension of the order, read off `jbelow` (y <= x iff
    jbelow[y] is a subset of jbelow[x]); above[x] holds the elements above
    x with a smaller index. O(n²) mask operations: going down the linear
    extension from x, the first y below x that lies below no cover found
    so far is another cover."""
    n = len(jbelow)
    order = sorted(range(n), key=lambda x: jbelow[x].bit_count())
    below, pairs, above = [0] * n, [], [()] * n
    for i, x in enumerate(order):
        jx, under, cx = jbelow[x], 0, []
        for y in reversed(order[:i]):
            if not under >> y & 1 and not jbelow[y] & ~jx:
                cx.append(y)
                under |= below[y] | 1 << y
        below[x] = under
        pairs.append((x, cx))
        for y in bits(under >> x + 1):  # below x with a larger index
            above[x + 1 + y] += (x,)
    return pairs, above


def _render_codes(rows, n):
    """For each row, n + 1 bytes: the piece codes of `ConLattice.line_chunks`
    in the order they are printed, then 255 (the closing brace).

    An element is printed in its block, blocks by least member and each
    ascending, so its position is its index, minus the earlier elements
    with a larger block id, plus the later ones with a smaller block id.
    Such a pair needs the later element's block id to lie below the
    largest block id before it, so the pairs are compared only for an
    element that does so in some lane; in a chain, none does. Its code is
    its index, plus 128 when it opens its block. All of it is computed
    lane-wise, as in `_rows_by_lanes`: with every value below 128,
    (a | 128) - b has its top bit set exactly when a >= b, so lanes
    compare without a borrow into the next.
    """
    m, row = len(rows), len(rows[0])
    data = b"".join(rows)
    ones = int.from_bytes(b"\1" * m, "little")
    high = ones << 7
    ids = [y * ones for y in range(n)]
    bids = [int.from_bytes(data[k::row], "little") for k in range(1, n + 1)]
    # x starts at its index and moves ahead of at most the x earlier
    # elements, so no lane goes below 0
    rank, codes = ids[:], []
    top = 0  # the largest block id so far, lane-wise
    for x, bx in enumerate(bids):
        if ((top | high) - bx - ones) & high:  # top > bx in some lane
            for z in range(x):  # x comes before z iff z's block id is larger
                before = ((bids[z] | high) - bx - ones) >> 7 & ones
                rank[x] -= before
                rank[z] += before
        # x opens its block iff its block id reaches x, and then raises top
        opens = ((bx | high) - ids[x]) & high
        top ^= (top ^ ids[x]) & (opens >> 7) * 255
        codes.append(ids[x] | opens)
    at = [None] * n
    moving = []  # (x, its position in each member, as bytes)
    for x, r in enumerate(rank):
        if r == (r & 255) * ones:  # at the same position in every member
            at[r & 255] = codes[x]
        else:
            moving.append((x, r.to_bytes(m, "little")))
    buf = bytearray(m * (n + 1))
    for p in range(n):
        if at[p] is None:
            at[p] = 0
            hit = bytes(p) + b"\xff" + bytes(255 - p)  # 255 for p, else 0
            for x, place in moving:
                if p in place:
                    at[p] |= codes[x] & int.from_bytes(place.translate(hit), "little")
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
