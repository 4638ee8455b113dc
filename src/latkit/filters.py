"""Filters, ideals, their prime members, and the induced congruences.

Every filter of a finite lattice is principal, so the full families are
exactly the upsets [x) and downsets (x]. Members are tagged with their
generator and primality when the family is built; the spectra are the
prime sublists. A proper filter is prime exactly when its complement is
an ideal, that is some downset (y], so primality is one lookup of the
complement among the `down` masks. The tests check it against the join
condition. The ideals of a lattice are the filters of its dual, so each
ideal-side function is its filter twin applied to `lat.dual()`.
"""

from __future__ import annotations

from dataclasses import dataclass
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


@dataclass(frozen=True)
class SubsetFamily:
    """The filters or ideals of `base`; its length is the member count."""

    base: object
    kind: str  # "filter" | "ideal"
    members: tuple

    def prime_members(self):
        return [m for m in self.members if m.prime]

    def prime_sets(self):
        return [m.elements for m in self.members if m.prime]

    def __len__(self):
        return len(self.members)


def is_filter(lat, subset) -> bool:
    """Non-empty, upward closed, closed under meet: the upset of its meet."""
    s = set(subset)
    if not s:
        return False
    m = mask_of(s)
    if m & ~((1 << lat.n) - 1):
        return False
    g = s.pop()
    for x in s:
        g = lat.meet_t[g][x]
    return lat.up[g] == m


def is_ideal(lat, subset) -> bool:
    """Non-empty, downward closed, closed under join: a filter of the dual."""
    return is_filter(lat.dual(), subset)


def generated_filter(lat, gens) -> frozenset:
    """Least filter containing gens: the upset of the meet of gens."""
    gens = list(gens)
    if not gens:
        raise EmptyGeneratorSet("need at least one generator")
    g = gens[0]
    for x in gens[1:]:
        g = lat.meet(g, x)
    return frozenset(bits(lat.up[g]))


def generated_ideal(lat, gens) -> frozenset:
    """Least ideal containing gens: the generated filter of the dual."""
    return generated_filter(lat.dual(), gens)


def is_prime_filter(lat, subset) -> bool:
    """Proper filter with x v y in F forcing x in F or y in F.

    Equivalently, the complement is an ideal: some downset (y].
    """
    subset = set(subset)
    if not is_filter(lat, subset):
        raise NotAFilter(f"{sorted(subset)} is not a filter")
    full = (1 << lat.n) - 1
    return full ^ mask_of(subset) in set(lat.down)


def is_prime_ideal(lat, subset) -> bool:
    """Proper ideal with x ^ y in I forcing x in I or y in I: a prime
    filter of the dual."""
    subset = set(subset)
    try:
        return is_prime_filter(lat.dual(), subset)
    except NotAFilter:
        raise NotAnIdeal(f"{sorted(subset)} is not an ideal") from None


def _upsets(lat):
    """The upsets [x), prime when their complement is a downset; the
    whole carrier's complement is empty, never one."""
    full = (1 << lat.n) - 1
    downsets = set(lat.down)
    return tuple(FamilyMember(frozenset(bits(m)), x, full ^ m in downsets)
                 for x, m in enumerate(lat.up))


def all_filters(lat) -> SubsetFamily:
    """Every filter, as the upsets [x); generators and primality recorded."""
    return SubsetFamily(lat, "filter", _upsets(lat))


def all_ideals(lat) -> SubsetFamily:
    """Every ideal, as the downsets (x]: the filters of the dual."""
    return SubsetFamily(lat, "ideal", _upsets(lat.dual()))


def _primes(family) -> SubsetFamily:
    return SubsetFamily(family.base, family.kind, tuple(family.prime_members()))


def prime_filters(lat) -> SubsetFamily:
    return _primes(all_filters(lat))


def prime_ideals(lat) -> SubsetFamily:
    return _primes(all_ideals(lat))


def prime_filter_congruence(lat, subset) -> Partition:
    """The two-block partition (P, complement) of a prime filter P."""
    subset = set(subset)
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

