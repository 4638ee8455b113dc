import hashlib
import random
from collections import Counter

import pytest

from latkit import Lattice, corpus, enumerate_lattices, isomorphic, verify
from latkit.core import bits, mask_of
from latkit.verify import (_child_tables, _coatom_extensions,
                           _coatom_invariants, _greatest_new_coatom,
                           _invariants, _search, _up_of_lows)

from oracles import (_certificate, census_by_pairwise_iso,
                     census_keying_every_child, child_masks,
                     coatom_children_by_validation,
                     coatom_extensions_every_downset,
                     least_lows_by_rebuilt_codes, relabelled, up_of_lows)

# Lattices with 1..10 elements up to isomorphism, OEIS A006966.
A006966 = (1, 1, 1, 2, 5, 15, 53, 222, 1078, 5994)


@pytest.fixture(scope="module")
def census8():
    return enumerate_lattices(8)


@pytest.fixture(scope="module")
def census10():
    return enumerate_lattices(10)


@pytest.fixture(scope="module")
def oracle8():
    return census_by_pairwise_iso(8)


@pytest.fixture(scope="module")
def every_child9():
    return census_keying_every_child(9)


def _fingerprint(lats):
    return [(lat.name, lat.labels, lat.up) for lat in lats]


def _tables(lats):
    return [(lat.name, lat.labels, lat.up, lat.down, lat.bottom, lat.top)
            for lat in lats]


def _twins(lat):
    return verify._tables(lat.up, lat.down)[2]


def _extensions(lat):
    return _coatom_extensions(lat, _twins(lat))


def _children(lat, keep=lambda d: True):
    return [child_masks(lat, d) for d in filter(keep, _extensions(lat))]


def _twin_classes(lat):
    """The classes of elements of `lat` with equal strict upsets and
    downsets, each in index order."""
    classes = {}
    for x in range(lat.n):
        strict = ~(1 << x)
        classes.setdefault((lat.up[x] & strict, lat.down[x] & strict),
                           []).append(x)
    return list(classes.values())


def _orbit(classes, d):
    """How many members of each twin class D holds: two down-sets agree
    on it iff a permutation of the twins carries one onto the other."""
    return tuple(sum(d >> x & 1 for x in c) for c in classes)


def _downset_below_new_coatom(up):
    c = len(up) - 2
    return mask_of(i for i in range(c) if up[i] >> c & 1)


def _least_lows(up, down):
    """The least lows tuple of the lattice with these masks, searched on
    tables built afresh rather than handed down."""
    return _search(*verify._tables(up, down))


def _new_coatom_rank(up, down):
    """-1, 0 or 1 as the new coatom's invariant (index n - 2) is below, tied
    with or above the greatest of the other coatoms', read off the child."""
    n = len(up)
    size = [d.bit_count() for d in down]

    def invariant(y):
        return size[y], sorted(size[z] for z in bits(down[y]))

    own = invariant(n - 2)
    others = [invariant(y) for y in range(n - 2)
              if up[y] == 1 << y | 1 << (n - 1)]
    if not others or own > max(others):
        return 1
    return 0 if own == max(others) else -1


def _random_linear_extension(rng, lat):
    """perm[i]: the position of element i in a random linear extension."""
    perm = [0] * lat.n
    placed = 0
    for j in range(lat.n):
        ready = [x for x in range(lat.n) if not (placed >> x) & 1
                 and not lat.down[x] & ~placed & ~(1 << x)]
        x = rng.choice(ready)
        perm[x] = j
        placed |= 1 << x
    return perm


def _key(lat):
    return _certificate(lat, _invariants(lat))


def _counts(lats, max_n):
    counts = [0] * max_n
    for lat in lats:
        counts[lat.n - 1] += 1
    return tuple(counts)


def test_census_counts_to_eight(census8):
    assert _counts(census8, 8) == A006966[:8]


def test_census_counts_to_ten(census10):
    assert _counts(census10, 10) == A006966


def test_census_classes_of_nine_have_distinct_certificates(census10):
    nine = [lat for lat in census10 if lat.n == 9]
    assert len({_key(lat) for lat in nine}) == len(nine) == 1078


def test_least_lows_gives_the_census_representative():
    rng = random.Random(5)
    for lat in enumerate_lattices(7):
        assert _up_of_lows(_least_lows(lat.up, lat.down)) == lat.up
        for _ in range(4):
            moved = relabelled(lat, _random_linear_extension(rng, lat))
            assert _up_of_lows(_least_lows(moved.up, moved.down)) == lat.up


def test_least_lows_matches_the_search_rebuilding_every_code(census8):
    keyed = 0
    for lat in census8[1:]:
        for up, down in _children(lat):
            lows = _least_lows(up, down)
            assert lows == least_lows_by_rebuilt_codes(up, down)
            assert _up_of_lows(lows) == up_of_lows(lows)
            keyed += 1
    assert keyed == 2797  # one child per twin orbit, with 3 to 9 elements
    rng = random.Random(24)
    for lat in census8:
        for _ in range(3):
            moved = relabelled(lat, _random_linear_extension(rng, lat))
            assert _least_lows(moved.up, moved.down) == \
                least_lows_by_rebuilt_codes(moved.up, moved.down)


def test_coatom_extensions_are_the_children_lattice_accepts(census8):
    # up to a permutation of the parent's twins: one child per orbit
    tried = 0
    for lat in census8[1:]:
        classes = _twin_classes(lat)
        got = _children(lat)
        want, count = coatom_children_by_validation(lat)
        tried += count
        assert {up for up, _ in got} <= set(want)
        orbits = [_orbit(classes, _downset_below_new_coatom(up))
                  for up, _ in got]
        assert sorted(orbits) == sorted({
            _orbit(classes, _downset_below_new_coatom(up)) for up in want})
        for up, down in got:
            assert down == Lattice([f"e{i}" for i in range(len(up))], up).down
    assert tried == 4809


def test_handed_down_tables_match_the_tables_built_afresh(census8):
    kept = 0
    for lat in census8[1:]:
        ds = list(filter(_greatest_new_coatom(lat), _extensions(lat)))
        afresh = [verify._tables(*child_masks(lat, d)) for d in ds]
        tables = verify._tables(lat.up, lat.down)
        assert list(_child_tables(lat, tables, ds)) == afresh
        kept += len(ds)
    assert kept == 1489  # every kept child with 3 to 9 elements


def test_a_new_coatom_twin_to_an_old_one_is_handed_down():
    # chain(3) plus a coatom above {e0} is B2: the new coatom (index 2)
    # has e1's strict upset and downset, so e1 is its earlier twin
    chain3 = enumerate_lattices(3)[-1]
    assert chain3.up == (0b111, 0b110, 0b100)
    assert 1 in filter(_greatest_new_coatom(chain3), _extensions(chain3))
    tables = next(_child_tables(chain3, verify._tables(chain3.up, chain3.down),
                                [1]))
    assert tables == verify._tables(*child_masks(chain3, 1)) == (
        [(1, 2, 3), (3,), (3,), ()], [0, 1, 1, 3], [0, 0, 0b10, 0])
    lows = _search(*tables)
    assert lows == (0, 0b1, 0b1, 0b111)
    assert tables[1] == [0, 1, 1, 3]  # the search leaves wait as it was
    assert _up_of_lows(lows) == (0b1111, 0b1010, 0b1100, 0b1000)  # B2


@pytest.mark.parametrize("max_n", range(1, 9))
def test_census_matches_pairwise_iso_oracle(max_n, census8, oracle8):
    expected = [lat for lat in oracle8 if lat.n <= max_n]
    got = census8 if max_n == 8 else enumerate_lattices(max_n)
    assert _fingerprint(got) == _fingerprint(expected)


def test_certificate_survives_relabelling():
    rng = random.Random(11)
    for lat in corpus(7, 25, 12):
        key = _key(lat)
        for _ in range(3):
            perm = list(range(lat.n))
            rng.shuffle(perm)
            assert _key(relabelled(lat, perm)) == key


def test_certificate_agrees_with_isomorphic_on_the_corpus():
    pool = corpus(7, 25, 12)
    keys = [_key(lat) for lat in pool]
    for i, a in enumerate(pool):
        for j in range(i + 1, len(pool)):
            same = isomorphic(a, pool[j]) is not None
            assert (keys[i] == keys[j]) == same


def test_certificate_separates_non_isomorphic_lattices(oracle8):
    # The oracle's classes are pairwise non-isomorphic by isomorphism tests.
    classes = [lat for lat in oracle8 if lat.n <= 7]
    assert len({_key(lat) for lat in classes}) == len(classes)


@pytest.mark.parametrize("max_n", range(1, 10))
def test_census_matches_the_generator_keying_every_child(max_n, every_child9):
    expected = [lat for lat in every_child9 if lat.n <= max_n]
    assert _tables(enumerate_lattices(max_n)) == _tables(expected)


def test_census_to_ten_keeps_the_tables_of_the_generator_keying_every_child(
        census10):
    # digest of _tables(census_keying_every_child(10)), which takes seconds
    digest = hashlib.sha256(repr(_tables(census10)).encode()).hexdigest()
    assert digest == ("4da168522dce599b41b5f408d13ce92b"
                      "934683410a22ddfa331c1266b254abc6")


def test_greatest_new_coatom_keeps_the_children_the_child_side_rule_keeps(
        census8):
    kept = 0
    for lat in census8[1:]:
        got = _children(lat, _greatest_new_coatom(lat))
        assert got == [child for child in _children(lat)
                       if _new_coatom_rank(*child) >= 0]
        kept += len(got)
    assert kept == 1489  # of 2,797 children with 3 to 9 elements


def test_coatom_extensions_grow_one_twin_prefix_per_orbit_of_every_downset(
        census8):
    pruned_total = every_total = 0
    for lat in census8[1:]:
        classes = _twin_classes(lat)
        pruned = _extensions(lat)
        every = coatom_extensions_every_downset(lat)
        assert set(pruned) <= set(every)
        for d in pruned:  # each twin class meets D in a prefix
            for c in classes:
                k = _orbit([c], d)[0]
                assert mask_of(c[:k]) & d == mask_of(c[:k])
        # a permutation of the twins carries each D onto exactly one
        orbits = Counter(_orbit(classes, d) for d in pruned)
        assert all(orbits[_orbit(classes, d)] == 1 for d in every)
        pruned_total += len(pruned)
        every_total += len(every)
    assert (pruned_total, every_total) == (2797, 3555)


def test_a_census_keeping_only_a_unique_greatest_new_coatom_loses_classes(
        monkeypatch):
    def unique_greatest(lat):
        return lambda d: _new_coatom_rank(*child_masks(lat, d)) > 0

    monkeypatch.setattr(verify, "_greatest_new_coatom", unique_greatest)
    # B2's two coatoms tie, so it is never kept, and a chain's children
    # other than the longer chain tie or lose: only the chains are left
    assert _counts(enumerate_lattices(7), 7) == (1,) * 7 != A006966[:7]


def test_a_census_growing_no_element_past_an_earlier_twin_loses_orbits(
        monkeypatch):
    def no_two_twins(lat, twins):
        return [d for d in coatom_extensions_every_downset(lat)
                if not any(twins[x] & d for x in bits(d))]

    monkeypatch.setattr(verify, "_coatom_extensions", no_two_twins)
    # B2 under a new top is B2 with a coatom above both of its twin atoms,
    # its only parent and down-set, so it is lost, and with it every class
    # reached only through such a down-set
    assert _counts(enumerate_lattices(7), 7) == \
        (1, 1, 1, 2, 4, 11, 35) != A006966[:7]


def test_coatom_invariants_survive_linear_extension_relabelling():
    rng = random.Random(20)
    for lat in enumerate_lattices(7):
        invariants = [inv for inv, _ in _coatom_invariants(lat)]
        for _ in range(4):
            moved = relabelled(lat, _random_linear_extension(rng, lat))
            assert [inv for inv, _ in _coatom_invariants(moved)] == invariants
