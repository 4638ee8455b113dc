"""Sum constructions on bounded lattices.

Result labels are namespaced so goldens stay deterministic: "i.x" for
summand i's interior element x, bare "0"/"1" for the glue points of a
horizontal sum, and "l[a,b]" / "r[a,b]" for the pair inserted into the
interval [a,b] by the dilation. Each construction returns the result
and one embedding per summand: a tuple `e` with `e[x]` the result index
of summand element x, so the glue points lie in the image of every
summand, and a summand's labels carry over as
`{lab: result.labels[e[x]] for x, lab in enumerate(summand.labels)}`.
Each construction checks the size cap, assembles its up masks from its
summands' and runs full lattice validation on them rather than trusting
the construction.
"""

from __future__ import annotations

from typing import NamedTuple

from .core import Lattice, _check_size, bits, mask_of
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


class FatInterval(NamedTuple):
    """Interval [a, b] with at least three elements: a < b and not a -< b."""

    a: int
    b: int


def _display(lat: Lattice) -> str:
    return lat.name or f"<{lat.n}>"


def _image(mask: int, e) -> int:
    """The mask of the result indices of the summand elements in `mask`."""
    return mask_of(e[x] for x in bits(mask))


def _union_up(n: int, parts) -> list:
    """Up masks of the union of the orders of (summand, embedding) parts."""
    up = [0] * n
    for lat, e in parts:
        for x, row in enumerate(lat.up):
            up[e[x]] |= _image(row, e)
    return up


def ordinal_sum(lower: Lattice, upper: Lattice):
    """Stack `upper` on top of `lower`, identifying top(lower) = bottom(upper).

    The glue point keeps the lower summand's label (namespaced "0.<label>").
    """
    _check_size(lower.n + upper.n - 1)
    labels = [f"0.{x}" for x in lower.labels]
    e0 = tuple(range(lower.n))
    e1 = []
    for y, lab in enumerate(upper.labels):
        if y == upper.bottom:
            e1.append(lower.top)
        else:
            e1.append(len(labels))
            labels.append(f"1.{lab}")
    up = _union_up(len(labels), ((lower, e0), (upper, e1)))
    # everything of `lower` lies below the glue point, so below all of `upper`
    for x in e0:
        up[x] |= up[lower.top]
    name = f"osum({_display(lower)},{_display(upper)})"
    return Lattice(labels, up, name=name), (e0, tuple(e1))


def _hsum_embeddings(family):
    """Each summand's embedding into the horizontal sum: the glue bottom
    is 0, the interiors follow in summand order, the glue top comes last."""
    if not family:
        raise EmptyFamily("horizontal sum needs at least one summand")
    if any(lat.trivial for lat in family):
        raise TrivialSummand("summands must have at least two elements")
    top = 1 + sum(lat.n - 2 for lat in family)
    _check_size(top + 1)
    embeddings, fresh = [], 1
    for lat in family:
        e = []
        for x in range(lat.n):
            if x == lat.bottom:
                e.append(0)
            elif x == lat.top:
                e.append(top)
            else:
                e.append(fresh)
                fresh += 1
        embeddings.append(tuple(e))
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
    up = _union_up(len(labels), zip(family, embeddings))
    name = f"hsum({','.join(_display(lat) for lat in family)})"
    return Lattice(labels, up, name=name), embeddings


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
    """All pairs (a, b) with a < b that are not covers, in (a, b) order."""
    cover = set(lat.cover_pairs)
    out = []
    for a in range(lat.n):
        for b in bits(lat.up[a] & ~(1 << a)):
            if (a, b) not in cover:
                out.append(FatInterval(a, b))
    return out


def _fresh(label: str, taken) -> str:
    while label in taken:
        label += "'"
    return label


def interval_hsum(lat: Lattice, a: int, b: int, insert: Lattice):
    """Replace the interval [a, b] by its horizontal sum with `insert`.

    The interior of `insert` lands strictly between everything below a and
    everything above b, incomparable to the rest.
    """
    if not lat.leq(a, b):
        raise NotComparable(
            f"{lat.labels[a]!r} does not lie below {lat.labels[b]!r}"
        )
    if a == b or (a, b) in set(lat.cover_pairs):
        raise IntervalTooSmall("the interval must contain at least three elements")
    if insert.n <= 2:
        raise SummandTooSmall("the inserted lattice must have more than two elements")
    _check_size(lat.n + insert.n - 2)
    n0 = lat.n
    labels = list(lat.labels)
    taken = set(labels)
    e1 = []
    for x, lab in enumerate(insert.labels):
        if x == insert.bottom:
            e1.append(a)
        elif x == insert.top:
            e1.append(b)
        else:
            e1.append(len(labels))
            labels.append(_fresh(f"1.{lab}", taken))
            taken.add(labels[-1])
    up = list(lat.up)
    # original element i sits below every inserted element iff i <= a
    block = mask_of(range(n0, len(labels)))
    for i in bits(lat.down[a]):
        up[i] |= block
    up += [_image(insert.up[x], e1) | lat.up[b]
           for x in range(insert.n) if e1[x] >= n0]
    name = (f"ihsum({_display(lat)},{lat.labels[a]},{lat.labels[b]},"
            f"{_display(insert)})")
    return Lattice(labels, up, name=name), (tuple(range(n0)), tuple(e1))


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
    if not fats:
        return lat.renamed(f"D({_display(lat)})"), (tuple(range(n0)),)
    _check_size(n0 + 2 * len(fats))
    labels = list(lat.labels)
    taken = set(labels)
    for a, b in fats:
        for side in "lr":
            labels.append(
                _fresh(f"{side}[{lat.labels[a]},{lat.labels[b]}]", taken))
            taken.add(labels[-1])
    # the k-th fat interval gains the pair at n0 + 2k and n0 + 2k + 1
    up = list(lat.up)
    for k, (a, b) in enumerate(fats):
        for i in bits(lat.down[a]):
            up[i] |= 3 << (n0 + 2 * k)
    # up[b] now also holds the pairs of the fat intervals above b
    for k, (a, b) in enumerate(fats):
        up += [up[b] | 1 << (n0 + 2 * k), up[b] | 1 << (n0 + 2 * k + 1)]
    # summand k+1 is named("B2"), its elements 0, a, b, 1 sent into the
    # k-th fat interval
    squares = tuple((a, n0 + 2 * k, n0 + 2 * k + 1, b)
                    for k, (a, b) in enumerate(fats))
    return (Lattice(labels, up, name=f"D({_display(lat)})"),
            (tuple(range(n0)),) + squares)
