import random

import pytest

from latkit import Lattice, corpus, enumerate_lattices, isomorphic
from latkit.verify import (_coatom_extensions, _invariants, _least_lows,
                           _up_of_lows)

from oracles import (_certificate, census_by_pairwise_iso,
                     coatom_children_by_validation, relabelled)

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


def _fingerprint(lats):
    return [(lat.name, lat.labels, lat.up) for lat in lats]


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


def test_coatom_extensions_are_the_children_lattice_accepts(census8):
    tried = 0
    for lat in census8[1:]:
        got = list(_coatom_extensions(lat))
        want, count = coatom_children_by_validation(lat)
        tried += count
        assert sorted(up for up, _ in got) == sorted(want)
        for up, down in got:
            assert down == Lattice([f"e{i}" for i in range(len(up))], up).down
    assert tried == 4809


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
