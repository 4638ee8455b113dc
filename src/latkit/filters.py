"""Filters, ideals, their prime members, and the induced congruences.

Every filter of a finite lattice is principal, so the full families are
exactly the upsets [x) and downsets (x]. Members are tagged with their
generator and primality when the family is built; the spectra are the
prime sublists. Primality is decided by the join (meet) condition; the
tests check it against the other characterisation, that the complement
is an ideal (filter).
"""

from __future__ import annotations

from typing import NamedTuple

from .core import bits, mask_of
from .equiv import Partition
from .errors import (
    EmptyFamily,
    EmptyGeneratorSet,
    NotAFilter,
    NotAnIdeal,
    NotPrime,
)


class FamilyMember(NamedTuple):
    elements: frozenset
    generator: int
    prime: bool


class SubsetFamily(NamedTuple):
    base: object
    kind: str  # "filter" | "ideal"
    members: tuple

    def element_sets(self):
        return [m.elements for m in self.members]

    def prime_members(self):
        return [m for m in self.members if m.prime]

    def prime_sets(self):
        return [m.elements for m in self.members if m.prime]

    def __len__(self):
        return len(self.members)


def is_filter(lat, subset) -> bool:
    """Non-empty, upward closed, closed under meet."""
    s = set(subset)
    if not s:
        return False
    m = mask_of(s)
    full = (1 << lat.n) - 1
    if m & ~full:
        return False
    for x in s:
        if lat.up[x] & ~m:
            return False
    items = sorted(s)
    mt = lat.meet_t
    for i, x in enumerate(items):
        row = mt[x]
        for y in items[i:]:
            if not (m >> row[y]) & 1:
                return False
    return True


def is_ideal(lat, subset) -> bool:
    """Non-empty, downward closed, closed under join."""
    s = set(subset)
    if not s:
        return False
    m = mask_of(s)
    full = (1 << lat.n) - 1
    if m & ~full:
        return False
    for x in s:
        if lat.down[x] & ~m:
            return False
    items = sorted(s)
    jt = lat.join_t
    for i, x in enumerate(items):
        row = jt[x]
        for y in items[i:]:
            if not (m >> row[y]) & 1:
                return False
    return True


def generated_filter(lat, gens) -> frozenset:
    """Least filter containing gens: the upset of the meet of gens."""
    gens = list(gens)
    if not gens:
        raise EmptyGeneratorSet("a filter needs at least one generator")
    g = gens[0]
    for x in gens[1:]:
        g = lat.meet(g, x)
    return frozenset(bits(lat.up[g]))


def generated_ideal(lat, gens) -> frozenset:
    gens = list(gens)
    if not gens:
        raise EmptyGeneratorSet("an ideal needs at least one generator")
    g = gens[0]
    for x in gens[1:]:
        g = lat.join(g, x)
    return frozenset(bits(lat.down[g]))


def is_prime_filter(lat, subset) -> bool:
    """Proper filter with x v y in F forcing x in F or y in F."""
    if not is_filter(lat, subset):
        raise NotAFilter(f"{sorted(subset)} is not a filter")
    m = mask_of(subset)
    full = (1 << lat.n) - 1
    if m == full:
        return False
    jt = lat.join_t
    for x in range(lat.n):
        if (m >> x) & 1:
            continue
        row = jt[x]
        for y in range(x, lat.n):
            if not (m >> y) & 1 and (m >> row[y]) & 1:
                return False
    return True


def is_prime_ideal(lat, subset) -> bool:
    """Proper ideal with x ^ y in I forcing x in I or y in I."""
    if not is_ideal(lat, subset):
        raise NotAnIdeal(f"{sorted(subset)} is not an ideal")
    m = mask_of(subset)
    full = (1 << lat.n) - 1
    if m == full:
        return False
    mt = lat.meet_t
    for x in range(lat.n):
        if (m >> x) & 1:
            continue
        row = mt[x]
        for y in range(x, lat.n):
            if not (m >> y) & 1 and (m >> row[y]) & 1:
                return False
    return True


def all_filters(lat) -> SubsetFamily:
    """Every filter, as the upsets [x); generators and primality recorded."""
    members = []
    for x in range(lat.n):
        elems = frozenset(bits(lat.up[x]))
        members.append(FamilyMember(elems, x, is_prime_filter(lat, elems)))
    return SubsetFamily(lat, "filter", tuple(members))


def all_ideals(lat) -> SubsetFamily:
    members = []
    for x in range(lat.n):
        elems = frozenset(bits(lat.down[x]))
        members.append(FamilyMember(elems, x, is_prime_ideal(lat, elems)))
    return SubsetFamily(lat, "ideal", tuple(members))


def prime_filters(lat) -> SubsetFamily:
    fam = all_filters(lat)
    return SubsetFamily(lat, "filter", tuple(fam.prime_members()))


def prime_ideals(lat) -> SubsetFamily:
    fam = all_ideals(lat)
    return SubsetFamily(lat, "ideal", tuple(fam.prime_members()))


def prime_filter_congruence(lat, subset) -> Partition:
    """The two-block partition (P, complement) of a prime filter P."""
    if not is_prime_filter(lat, subset):
        raise NotPrime(f"{sorted(subset)} is not a prime filter")
    m = mask_of(subset)
    inside = [x for x in range(lat.n) if (m >> x) & 1]
    outside = [x for x in range(lat.n) if not (m >> x) & 1]
    return Partition.from_blocks(lat.n, [inside, outside])


def prime_family_congruence(lat, family) -> Partition:
    """Common refinement of the two-block congruences of several prime filters."""
    family = list(family)
    if not family:
        raise EmptyFamily("need at least one prime filter")
    parts = [prime_filter_congruence(lat, f) for f in family]
    out = parts[0]
    for p in parts[1:]:
        out = out.meet(p)
    return out


def complement_bijection_check(lat) -> bool:
    """Complementation maps the prime filters onto the prime ideals."""
    full = set(range(lat.n))
    complements = {frozenset(full - p) for p in prime_filters(lat).prime_sets()}
    return complements == set(prime_ideals(lat).prime_sets())
