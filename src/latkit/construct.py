"""Sum constructions on bounded lattices.

Result labels are namespaced so goldens stay deterministic: "i.x" for
summand i's interior element x, bare "0"/"1" for the glue points of a
horizontal sum, and "l[a,b]" / "r[a,b]" for the pair inserted into the
interval [a,b] by the dilation. Each construction returns the result
and one embedding per summand: a tuple `e` with `e[x]` the result index
of summand element x, so the glue points lie in the image of every
summand, and a summand's labels carry over as
`{lab: result.labels[e[x]] for x, lab in enumerate(summand.labels)}`.

Every construction is one rule: the union of its summands' orders,
closed through its glue points, built unvalidated. It checks the size
cap, lays out labels and embeddings, and `_union_up` assembles the up
and down masks, a big-int shift per run of consecutive indices, then
closes them through the glue points: the ordinal sum's shared point, the
interval sum's a and b, the ends of each interval the dilation fills.
The horizontal sum shares only its bounds and needs no glue.
"""

from __future__ import annotations

from functools import lru_cache

from .core import Lattice, _check_indices, _check_size, _quote, bits, named
from .equiv import Partition, _join_pairs
from .errors import (
    CarrierMismatch,
    EmptyFamily,
    IntervalTooSmall,
    NablaSummandCongruence,
    NotComparable,
    SummandTooSmall,
    TrivialInput,
    TrivialSummand,
)


_SQUARE = named("B2")  # the summand of each pair that `dilate` inserts


def _display(lat: Lattice) -> str:
    return lat.name or f"<{lat.n}>"


def _runs(e):
    """The embedding `e` as runs (lo, width, dest) of consecutive indices:
    the summand elements in `width << lo` go to dest, dest + 1, ..."""
    runs, lo = [], 0
    for x in range(1, len(e) + 1):
        if x == len(e) or e[x] != e[x - 1] + 1:
            runs.append((lo, (1 << (x - lo)) - 1, e[lo]))
            lo = x
    return runs


def _image(mask: int, runs) -> int:
    """The mask of the result indices of the summand elements in `mask`."""
    out = 0
    for lo, width, dest in runs:
        out |= (mask >> lo & width) << dest
    return out


def _union_up(n: int, parts, glue=()):
    """Up and down masks of the union of the orders of (summand,
    embedding) parts, closed through each glue point g: everything at or
    below g comes to lie below everything at or above it. This is
    Warshall's closure with the glue points as the only pivots, which is
    exact when every path between summands passes through a glue point."""
    up, down = [0] * n, [0] * n
    for lat, e in parts:
        runs = _runs(e)
        for x, y in enumerate(e):
            up[y] |= _image(lat.up[x], runs)
            down[y] |= _image(lat.down[x], runs)
    for g in glue:
        above, below = up[g], down[g]
        for x in bits(below):
            up[x] |= above
        for y in bits(above):
            down[y] |= below
    return up, down


def _embedding(n: int, glued, fresh: int):
    """The embedding of an n-element summand that sends each x in `glued`
    to glued[x] and the other elements, in index order, to fresh,
    fresh + 1, ..."""
    rest = iter(range(fresh, fresh + n))
    return tuple(glued[x] if x in glued else next(rest) for x in range(n))


def ordinal_sum(lower: Lattice, upper: Lattice):
    """Stack `upper` on top of `lower`, identifying top(lower) = bottom(upper).

    The glue point keeps the lower summand's label (namespaced "0.<label>").
    """
    _check_size(lower.n + upper.n - 1)
    e0 = tuple(range(lower.n))
    e1 = _embedding(upper.n, {upper.bottom: lower.top}, lower.n)
    labels = [f"0.{x}" for x in lower.labels] + [
        f"1.{lab}" for y, lab in enumerate(upper.labels) if y != upper.bottom]
    up, down = _union_up(len(labels), ((lower, e0), (upper, e1)),
                         (lower.top,))
    name = f"osum({_display(lower)},{_display(upper)})"
    return (Lattice._unchecked(labels, up, down, lower.bottom, e1[upper.top],
                               name),
            (e0, e1))


def _hsum_embeddings(family):
    """Each summand's embedding into the horizontal sum: the glue bottom
    is 0, the interiors follow in summand order, the glue top comes last."""
    if not family:
        raise EmptyFamily("horizontal sum needs at least one summand")
    if any(lat.trivial for lat in family):
        raise TrivialSummand("summands must have at least two elements")
    return _hsum_layout(tuple((lat.n, lat.bottom, lat.top) for lat in family))


@lru_cache(maxsize=1024)
def _hsum_layout(shapes):
    """`_hsum_embeddings` of summands with these (n, bottom, top). The
    layout reads nothing else of a summand, so it is computed once per
    tuple of shapes, though `hsum_congruences` asks for it on every call."""
    top = 1 + sum(n - 2 for n, _, _ in shapes)
    _check_size(top + 1)
    embeddings, fresh = [], 1
    for n, bottom, summand_top in shapes:
        embeddings.append(_embedding(n, {bottom: 0, summand_top: top}, fresh))
        fresh += n - 2
    return tuple(embeddings)


def horizontal_sum(family):
    """Glue all summands at a shared bottom and a shared top.

    Interiors of distinct summands stay incomparable. Two-element summands
    contribute nothing beyond the glue points, so they are absorbed.
    """
    family = list(family)
    embeddings = _hsum_embeddings(family)
    # every summand reaches the glue top, the largest index
    labels = [""] * (max(embeddings[0]) + 1)
    for i, (lat, e) in enumerate(zip(family, embeddings)):
        for x, lab in enumerate(lat.labels):
            labels[e[x]] = f"{i}.{lab}"
    labels[0], labels[-1] = "0", "1"
    up, down = _union_up(len(labels), zip(family, embeddings))
    name = f"hsum({','.join(_display(lat) for lat in family)})"
    return (Lattice._unchecked(labels, up, down, 0, len(labels) - 1, name),
            embeddings)


def hsum_congruences(pairs) -> Partition:
    """Assemble summand congruences into one on the horizontal sum.

    Interior blocks survive unchanged; the blocks of the summand bottoms
    merge into the glue bottom's block, and dually at the top.
    """
    pairs = list(pairs)
    for lat, p in pairs:
        if p.n != lat.n:
            raise CarrierMismatch(
                f"partition on {p.n} elements, summand has {lat.n}"
            )
        if lat.n > 1 and p.num_blocks == 1:
            raise NablaSummandCongruence(
                "summand congruences must not collapse the whole summand"
            )
    embeddings = _hsum_embeddings([lat for lat, _ in pairs])
    links = [(e[x], e[b]) for e, (_, p) in zip(embeddings, pairs)
             for x, b in enumerate(p.block_of)]
    return _join_pairs(max(embeddings[0]) + 1, links)


def fat_intervals(lat: Lattice):
    """All pairs (a, b) whose interval [a, b] has three or more elements,
    so a < b and b does not cover a, in (a, b) order."""
    out = []
    for a, row in enumerate(lat.up):
        for b in bits(row):
            if (row & lat.down[b]).bit_count() >= 3:
                out.append((a, b))
    return out


def _extended(labels, stems):
    """`labels` followed by each stem, primed until it is fresh."""
    out, taken = list(labels), set(labels)
    for label in stems:
        while label in taken:
            label += "'"
        out.append(label)
        taken.add(label)
    return out


def interval_hsum(lat: Lattice, a: int, b: int, insert: Lattice):
    """Replace the interval [a, b] by its horizontal sum with `insert`.

    The interior of `insert` lands strictly between everything below a and
    everything above b, incomparable to the rest.
    """
    _check_indices(lat.n, (a, b))
    if not lat.leq(a, b):
        raise NotComparable(
            f"{lat.labels[a]!r} does not lie below {lat.labels[b]!r}"
        )
    if (lat.up[a] & lat.down[b]).bit_count() < 3:
        raise IntervalTooSmall("the interval must contain at least three elements")
    if insert.n <= 2:
        raise SummandTooSmall("the inserted lattice must have more than two elements")
    _check_size(lat.n + insert.n - 2)
    e0 = tuple(range(lat.n))
    e1 = _embedding(insert.n, {insert.bottom: a, insert.top: b}, lat.n)
    labels = _extended(lat.labels, [f"1.{lab}" for x, lab in
                                    enumerate(insert.labels) if e1[x] >= lat.n])
    up, down = _union_up(len(labels), ((lat, e0), (insert, e1)), (a, b))
    name = (f"ihsum({_display(lat)},{_quote(lat.labels[a])},"
            f"{_quote(lat.labels[b])},{_display(insert)})")
    return (Lattice._unchecked(labels, up, down, lat.bottom, lat.top, name),
            (e0, e1))


def dilate(lat: Lattice):
    """Insert an incomparable pair into every interval with three+ elements.

    Each interval [a, b] that is not a cover gains fresh elements l[a,b] and
    r[a,b] sitting strictly between everything at-or-below a and everything
    at-or-above b; pairs from nested intervals are ordered accordingly and
    everything else stays incomparable. The result is always simple.
    """
    if lat.trivial:
        raise TrivialInput("cannot dilate the one-element lattice")
    fats = fat_intervals(lat)
    n0 = lat.n
    e0 = tuple(range(n0))
    name = f"D({_display(lat)})"
    _check_size(n0 + 2 * len(fats))
    labels = _extended(lat.labels, [
        f"{side}[{lat.labels[a]},{lat.labels[b]}]"
        for a, b in fats for side in "lr"])
    # summand k+1 is B2, its elements 0, a, b, 1 sent into the k-th fat
    # interval, whose pair sits at n0 + 2k and n0 + 2k + 1
    squares = tuple((a, n0 + 2 * k, n0 + 2 * k + 1, b)
                    for k, (a, b) in enumerate(fats))
    parts = ((lat, e0), *((_SQUARE, s) for s in squares))
    up, down = _union_up(len(labels), parts, {g for fat in fats for g in fat})
    return (Lattice._unchecked(labels, up, down, lat.bottom, lat.top, name),
            (e0,) + squares)
