"""Filters, ideals, their prime members, and the induced congruences.

Every filter of a finite lattice is principal, so the full families are
exactly the upsets [x) and downsets (x]. A family holds only the
`generators`, their `up` masks (`masks`, the dual's for ideals) and the
`prime_flags`. Its length is the number of masks; its members, tagged with
generator and primality, are built only on first read, and the spectra
build only the prime sets. A proper filter is prime exactly when its
complement is an ideal, that is some downset (y], so primality is one
lookup of the complement among the `down` masks. The tests check it
against the join condition. The single-set tests read the masks too and
build no meet table. The ideals of a lattice are the filters of its dual,
so each ideal-side function is its filter twin applied to `lat.dual()`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import compress
from typing import NamedTuple

from .core import _check_indices, bits, mask_of
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
    """The filters or ideals of a lattice: member i is the set of
    `masks[i]`, generated by `generators[i]` and prime when
    `prime_flags[i]`. Its length is the member count; `members` is built
    on first read."""

    generators: tuple
    masks: tuple
    prime_flags: tuple

    @cached_property
    def members(self):
        sets = map(frozenset, map(bits, self.masks))
        return tuple(map(FamilyMember, sets, self.generators, self.prime_flags))

    def prime_sets(self):
        return [frozenset(bits(m)) for m in _primes(self).masks]

    def __len__(self):
        return len(self.masks)


def is_filter(lat, subset) -> bool:
    """Non-empty, upward closed, closed under meet: since every filter is
    principal, the upset [x) of one of its elements x."""
    s = set(subset)
    if not s or min(s) < 0 or max(s) >= lat.n:
        return False
    m = mask_of(s)
    return any(lat.up[x] == m for x in s)


def is_ideal(lat, subset) -> bool:
    """Non-empty, downward closed, closed under join: a filter of the dual."""
    return is_filter(lat.dual(), subset)


def generated_filter(lat, gens) -> frozenset:
    """Least filter containing gens: the upset of their meet, the
    element of the common downset D whose own downset is D."""
    gens = list(gens)
    if not gens:
        raise EmptyGeneratorSet("need at least one generator")
    _check_indices(lat.n, gens)
    common = -1
    for x in gens:
        common &= lat.down[x]
    meet = next(x for x in bits(common) if lat.down[x] == common)
    return frozenset(bits(lat.up[meet]))


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
    """The upsets [x) of lat, prime when their complement is a downset;
    the whole carrier's complement is empty, never one."""
    full = (1 << lat.n) - 1
    downsets = set(lat.down)
    return SubsetFamily(tuple(range(lat.n)), lat.up,
                        tuple([full ^ m in downsets for m in lat.up]))


def all_filters(lat) -> SubsetFamily:
    """Every filter, as the upsets [x); generators and primality recorded."""
    return _upsets(lat)


def all_ideals(lat) -> SubsetFamily:
    """Every ideal, as the downsets (x]: the filters of the dual."""
    return _upsets(lat.dual())


def _primes(family) -> SubsetFamily:
    flags = family.prime_flags
    return SubsetFamily(tuple(compress(family.generators, flags)),
                        tuple(compress(family.masks, flags)),
                        tuple(compress(flags, flags)))


def prime_filters(lat) -> SubsetFamily:
    return _primes(all_filters(lat))


def prime_ideals(lat) -> SubsetFamily:
    return _primes(all_ideals(lat))


def prime_filter_congruence(lat, subset) -> Partition:
    """The two-block partition (P, complement) of a prime filter P."""
    subset = set(subset)
    if not is_prime_filter(lat, subset):
        raise NotPrime(f"{sorted(subset)} is not a prime filter")
    return Partition.from_blocks(lat.n, [subset, set(range(lat.n)) - subset])


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

