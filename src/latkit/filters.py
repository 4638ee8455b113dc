"""Filters, ideals, their prime members, and the induced congruences.

Every filter of a finite lattice is principal, so the full families are
exactly the upsets [x) and downsets (x]. Members are tagged with their
generator and primality when the family is built; the spectra are the
prime sublists. A proper filter is prime exactly when its complement is
an ideal, that is some downset (y], so primality is one lookup of the
complement among the `down` masks (dually, among the `up` masks for an
ideal). The tests check it against the join (meet) condition.
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


def _is_principal(lat, subset, table, principal) -> bool:
    """Whether subset is principal[g] for g the fold of subset under table."""
    s = set(subset)
    if not s:
        return False
    m = mask_of(s)
    if m & ~((1 << lat.n) - 1):
        return False
    g = s.pop()
    for x in s:
        g = table[g][x]
    return principal[g] == m


def is_filter(lat, subset) -> bool:
    """Non-empty, upward closed, closed under meet: the upset of its meet."""
    return _is_principal(lat, subset, lat.meet_t, lat.up)


def is_ideal(lat, subset) -> bool:
    """Non-empty, downward closed, closed under join: the downset of its join."""
    return _is_principal(lat, subset, lat.join_t, lat.down)


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
    """Proper filter with x v y in F forcing x in F or y in F.

    Equivalently, the complement is an ideal: some downset (y].
    """
    if not is_filter(lat, subset):
        raise NotAFilter(f"{sorted(subset)} is not a filter")
    full = (1 << lat.n) - 1
    return full ^ mask_of(subset) in set(lat.down)


def is_prime_ideal(lat, subset) -> bool:
    """Proper ideal with x ^ y in I forcing x in I or y in I.

    Equivalently, the complement is a filter: some upset [y).
    """
    if not is_ideal(lat, subset):
        raise NotAnIdeal(f"{sorted(subset)} is not an ideal")
    full = (1 << lat.n) - 1
    return full ^ mask_of(subset) in set(lat.up)


def _family(lat, kind, masks, complements) -> SubsetFamily:
    """The principal sets masks[x], prime when their complement is in
    `complements`; the whole carrier's complement is empty, never there."""
    full = (1 << lat.n) - 1
    others = set(complements)
    return SubsetFamily(lat, kind, tuple(
        FamilyMember(frozenset(bits(m)), x, full ^ m in others)
        for x, m in enumerate(masks)))


def all_filters(lat) -> SubsetFamily:
    """Every filter, as the upsets [x); generators and primality recorded."""
    return _family(lat, "filter", lat.up, lat.down)


def all_ideals(lat) -> SubsetFamily:
    return _family(lat, "ideal", lat.down, lat.up)


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
