"""Sum constructions on bounded lattices.

Result labels are namespaced so goldens stay deterministic: "i.x" for
summand i's interior element x, bare "0"/"1" for the glue points of a
horizontal sum, and "l[a,b]" / "r[a,b]" for the pair inserted into the
interval [a,b] by the dilation. A SumProvenance maps every result label
back to the summand elements it came from; glue points trace to all
summands. interval substitution and the dilation run full lattice
validation on their output rather than trusting the construction.
"""

from __future__ import annotations

import json
from typing import NamedTuple

from .core import Lattice, bits
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


class SumProvenance:
    """Maps each result label to the (summand index, source label) pairs."""

    def __init__(self, sources: dict):
        self.sources = {k: tuple(v) for k, v in sources.items()}

    def sources_of(self, label: str):
        return self.sources[label]

    def label_map(self, summand: int) -> dict:
        """source label -> result label, for one summand."""
        out = {}
        for result, pairs in self.sources.items():
            for i, src in pairs:
                if i == summand:
                    out[src] = result
        return out

    def to_dict(self) -> dict:
        return {k: [list(p) for p in v] for k, v in self.sources.items()}

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)


class FatInterval(NamedTuple):
    """Interval [a, b] with at least three elements: a < b and not a -< b."""

    a: int
    b: int


def _display(lat: Lattice) -> str:
    return lat.name or f"<{lat.n}>"


def ordinal_sum(lower: Lattice, upper: Lattice):
    """Stack `upper` on top of `lower`, identifying top(lower) = bottom(upper).

    The glue point keeps the lower summand's label (namespaced "0.<label>").
    """
    glue = f"0.{lower.labels[lower.top]}"
    lmap = {x: f"0.{x}" for x in lower.labels}
    umap = {y: f"1.{y}" for y in upper.labels}
    umap[upper.labels[upper.bottom]] = glue
    labels = [lmap[x] for x in lower.labels]
    labels += [umap[y] for i, y in enumerate(upper.labels) if i != upper.bottom]
    covers = [(lmap[lower.labels[i]], lmap[lower.labels[j]])
              for i, j in lower.cover_pairs]
    covers += [(umap[upper.labels[i]], umap[upper.labels[j]])
               for i, j in upper.cover_pairs]
    name = f"osum({_display(lower)},{_display(upper)})"
    result = Lattice.from_covers(labels, sorted(set(covers)), name=name)
    sources = {lmap[x]: [(0, x)] for x in lower.labels}
    sources[glue] = [(0, lower.labels[lower.top]), (1, upper.labels[upper.bottom])]
    for i, y in enumerate(upper.labels):
        if i != upper.bottom:
            sources[umap[y]] = [(1, y)]
    return result, SumProvenance(sources)


def horizontal_sum(family):
    """Glue all summands at a shared bottom and a shared top.

    Interiors of distinct summands stay incomparable. Two-element summands
    contribute nothing beyond the glue points, so they are absorbed.
    """
    family = list(family)
    if not family:
        raise EmptyFamily("horizontal sum needs at least one summand")
    for lat in family:
        if lat.trivial:
            raise TrivialSummand("summands must have at least two elements")
    maps = []
    labels = ["0"]
    covers = set()
    sources = {"0": [], "1": []}
    for i, lat in enumerate(family):
        m = {}
        for x in range(lat.n):
            lab = lat.labels[x]
            if x == lat.bottom:
                m[lab] = "0"
            elif x == lat.top:
                m[lab] = "1"
            else:
                m[lab] = f"{i}.{lab}"
        maps.append(m)
        sources["0"].append((i, lat.labels[lat.bottom]))
        sources["1"].append((i, lat.labels[lat.top]))
        for x in range(lat.n):
            if x not in (lat.bottom, lat.top):
                lab = m[lat.labels[x]]
                labels.append(lab)
                sources[lab] = [(i, lat.labels[x])]
        for a, b in lat.cover_pairs:
            covers.add((m[lat.labels[a]], m[lat.labels[b]]))
    labels.append("1")
    name = f"hsum({','.join(_display(lat) for lat in family)})"
    result = Lattice.from_covers(labels, sorted(covers), name=name)
    return result, SumProvenance(sources)


def hsum_congruences(pairs, sum_lattice=None, provenance=None) -> Partition:
    """Assemble summand congruences into one on the horizontal sum.

    Interior blocks survive unchanged; the blocks of the summand bottoms
    merge into the glue bottom's block, and dually at the top. Pass the
    precomputed (sum_lattice, provenance) to skip rebuilding the sum.
    """
    pairs = list(pairs)
    lats = [lat for lat, _ in pairs]
    for lat, p in pairs:
        if p.n != lat.n:
            raise CarrierMismatch(
                f"partition on {p.n} elements, summand has {lat.n}"
            )
        if lat.n > 1 and p.num_blocks == 1:
            raise NablaSummandCongruence(
                "summand congruences must not collapse the whole summand"
            )
    if sum_lattice is None or provenance is None:
        sum_lattice, provenance = horizontal_sum(lats)
    links = []
    for i, (lat, p) in enumerate(pairs):
        lmap = provenance.label_map(i)
        to_sum = [sum_lattice.index(lmap[x]) for x in lat.labels]
        links += [(to_sum[x], to_sum[b]) for x, b in enumerate(p.block_of)]
    return _join_pairs(sum_lattice.n, links)


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
    n0 = lat.n
    interior = [x for x in range(insert.n) if x not in (insert.bottom, insert.top)]
    labels = list(lat.labels)
    taken = set(labels)
    new_labels = []
    for x in interior:
        lab = _fresh(f"1.{insert.labels[x]}", taken)
        taken.add(lab)
        new_labels.append(lab)
    labels += new_labels
    pos = {x: n0 + k for k, x in enumerate(interior)}
    up = [lat.up[i] for i in range(n0)]
    # original element i sits below every inserted element iff i <= a
    for i in range(n0):
        if lat.leq(i, a):
            for x in interior:
                up[i] |= 1 << pos[x]
    above_b_mask = 0
    for y in bits(lat.up[b]):
        above_b_mask |= 1 << y
    for x in interior:
        row = 1 << pos[x]
        row |= above_b_mask
        for y in interior:
            if insert.leq(x, y):
                row |= 1 << pos[y]
        up.append(row)
    name = (f"ihsum({_display(lat)},{lat.labels[a]},{lat.labels[b]},"
            f"{_display(insert)})")
    result = Lattice(labels, up, name=name)
    sources = {lat.labels[i]: [(0, lat.labels[i])] for i in range(n0)}
    sources[lat.labels[a]].append((1, insert.labels[insert.bottom]))
    sources[lat.labels[b]].append((1, insert.labels[insert.top]))
    for k, x in enumerate(interior):
        sources[new_labels[k]] = [(1, insert.labels[x])]
    return result, SumProvenance(sources)


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
        return lat.renamed(f"D({_display(lat)})"), SumProvenance(
            {x: [(0, x)] for x in lat.labels}
        )
    labels = list(lat.labels)
    taken = set(labels)
    new_pos = []  # (l index, r index) per fat interval
    for a, b in fats:
        la = _fresh(f"l[{lat.labels[a]},{lat.labels[b]}]", taken)
        taken.add(la)
        ra = _fresh(f"r[{lat.labels[a]},{lat.labels[b]}]", taken)
        taken.add(ra)
        new_pos.append((len(labels), len(labels) + 1))
        labels.append(la)
        labels.append(ra)
    up = [lat.up[i] for i in range(n0)]
    for k, (a, b) in enumerate(fats):
        lpos, rpos = new_pos[k]
        pair_bits = (1 << lpos) | (1 << rpos)
        for i in bits(lat.down[a]):
            up[i] |= pair_bits
    for k, (a, b) in enumerate(fats):
        row = 0
        for y in bits(lat.up[b]):
            row |= 1 << y
        for k2, (u, v) in enumerate(fats):
            if lat.leq(b, u):
                lp, rp = new_pos[k2]
                row |= (1 << lp) | (1 << rp)
        lpos, rpos = new_pos[k]
        up.append(row | (1 << lpos))
        up.append(row | (1 << rpos))
    result = Lattice(labels, up, name=f"D({_display(lat)})")
    # summand k+1 is the square inserted into the k-th fat interval, with
    # its elements named as in named("B2")
    sources = {lat.labels[i]: [(0, lat.labels[i])] for i in range(n0)}
    for k, (a, b) in enumerate(fats):
        lpos, rpos = new_pos[k]
        sources[lat.labels[a]].append((k + 1, "0"))
        sources[lat.labels[b]].append((k + 1, "1"))
        sources[labels[lpos]] = [(k + 1, "a")]
        sources[labels[rpos]] = [(k + 1, "b")]
    return result, SumProvenance(sources)
