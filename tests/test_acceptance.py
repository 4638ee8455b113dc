"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s`. Random instances are
seeded, so every run exercises the same corpus.
"""

import random
from contextlib import contextmanager

from latkit import (
    Lattice,
    Partition,
    all_congruences,
    all_filters,
    all_ideals,
    corpus,
    dilate,
    eq_from_blocks,
    evaluate,
    fat_intervals,
    horizontal_sum,
    is_simple,
    isomorphic,
    named,
    parse,
    prime_filters,
    prime_ideals,
)
from latkit.verify import (
    check_cghsum,
    check_irreducibility,
    check_multi_hsum,
    check_prime_equivalences,
    enumerate_lattices,
)
from oracles import (
    congruences_by_exhaustion,
    filters_by_exhaustion,
    ideals_by_exhaustion,
)


@contextmanager
def criterion(num, title):
    try:
        yield
    except BaseException:
        print(f"criterion {num:2d} ({title}): FAIL")
        raise
    print(f"criterion {num:2d} ({title}): PASS")


def spectra_labels(lat, family):
    return {frozenset(lat.labels[i] for i in s) for s in family.prime_sets()}


def test_criterion_01_named_example_exactness():
    with criterion(1, "exact congruence lattices and spectra"):
        b2 = named("B2")
        assert set(all_congruences(b2).members) == {
            Partition.delta(b2.n),
            eq_from_blocks(b2, [{"0", "a"}, {"b", "1"}]),
            eq_from_blocks(b2, [{"0", "b"}, {"a", "1"}]),
            eq_from_blocks(b2, [{"0", "a", "b", "1"}]),
        }
        assert spectra_labels(b2, prime_filters(b2)) == {
            frozenset({"a", "1"}), frozenset({"b", "1"})}
        assert spectra_labels(b2, prime_ideals(b2)) == {
            frozenset({"0", "a"}), frozenset({"0", "b"})}

        m3 = named("M3")
        assert set(all_congruences(m3).members) == {
            Partition.delta(m3.n), eq_from_blocks(m3, [{"0", "u", "v", "w", "1"}])}
        assert spectra_labels(m3, prime_filters(m3)) == set()
        assert spectra_labels(m3, prime_ideals(m3)) == set()

        n5 = named("N5")
        assert set(all_congruences(n5).members) == {
            Partition.delta(n5.n),
            eq_from_blocks(n5, [{"y", "z"}]),
            eq_from_blocks(n5, [{"0", "x"}, {"y", "z", "1"}]),
            eq_from_blocks(n5, [{"0", "y", "z"}, {"x", "1"}]),
            eq_from_blocks(n5, [{"0", "x", "y", "z", "1"}]),
        }
        assert spectra_labels(n5, prime_filters(n5)) == {
            frozenset({"x", "1"}), frozenset({"y", "z", "1"})}
        assert spectra_labels(n5, prime_ideals(n5)) == {
            frozenset({"0", "x"}), frozenset({"0", "y", "z"})}

        k = named("K")
        assert set(all_congruences(k).members) == {
            Partition.delta(k.n),
            eq_from_blocks(k, [{"m", "1"}, {"0", "n", "p", "q"}]),
            eq_from_blocks(k, [{"0", "m", "n", "p", "q", "1"}]),
        }
        assert spectra_labels(k, prime_filters(k)) == {frozenset({"m", "1"})}
        assert spectra_labels(k, prime_ideals(k)) == {
            frozenset({"0", "n", "p", "q"})}


def test_criterion_02_construction_identities():
    with criterion(2, "construction isomorphisms"):
        pairs = [
            ("hsum(chain(3),chain(3))", named("B2")),
            ("hsum(chain(3),chain(3),chain(3))", named("M3")),
            ("hsum(chain(3),chain(4))", named("N5")),
            ("hsum(chain(3),osum(B2,chain(2)))", named("K")),
            ("D(chain(3))", named("M3")),
        ]
        for text, target in pairs:
            assert isomorphic(evaluate(parse(text)), target) is not None, text


def test_criterion_03_count_identities():
    with criterion(3, "sum and dilation count identities"):
        pool = [lat for lat in corpus(303, 80, 10) if 3 <= lat.n <= 10]
        rng = random.Random(303)
        checked = 0
        while checked < 200:
            a, b = rng.choice(pool), rng.choice(pool)
            h, _ = horizontal_sum([a, b])
            assert h.n == a.n + b.n - 2
            assert len(all_filters(h)) == \
                len(all_filters(a)) + len(all_filters(b)) - 2
            assert len(all_ideals(h)) == \
                len(all_ideals(a)) + len(all_ideals(b)) - 2
            checked += 1
        small = [lat for lat in corpus(304, 40, 8) if 2 <= lat.n <= 8]
        assert len(small) >= 20
        for lat in small:
            d, _ = dilate(lat)
            fats = len(fat_intervals(lat))
            assert len(all_filters(d)) == len(all_filters(lat)) + 2 * fats
            assert len(all_ideals(d)) == len(all_ideals(lat)) + 2 * fats


def test_criterion_04_two_summand_trichotomy():
    with criterion(4, "two-summand congruence trichotomy"):
        pool = [lat for lat in corpus(404, 50, 8) if 3 <= lat.n <= 8]
        rng = random.Random(404)
        cases = {0: 0, 1: 0, 2: 0}
        for _ in range(100):
            a, b = rng.choice(pool), rng.choice(pool)
            report = check_cghsum(a, b)
            assert not report.skipped, report.details
            assert report.passed, (report.instance_descr, report.details)
            cases[report.details["case"]] += 1
        # the sampled pairs should hit more than one branch of the case split
        assert sum(1 for v in cases.values() if v) >= 2, cases


def test_criterion_05_oracle_equivalence():
    with criterion(5, "enumerations match exhaustive oracles"):
        tiny = [lat for lat in corpus(505, 40, 6)]
        assert len(tiny) >= 20
        for lat in tiny:
            assert set(all_congruences(lat).members) == \
                congruences_by_exhaustion(lat)
        wider = [lat for lat in corpus(506, 25, 12)]
        wider += [named("div", 60), named("div", 72), named("chain", 15)]
        wider = [lat for lat in wider if lat.n <= 15]
        assert len(wider) >= 20
        for lat in wider:
            assert {m.elements for m in all_filters(lat).members} == \
                filters_by_exhaustion(lat)
            assert {m.elements for m in all_ideals(lat).members} == \
                ideals_by_exhaustion(lat)


def test_criterion_06_prime_filter_and_irreducibility_equivalences():
    with criterion(6, "prime-filter and irreducibility equivalences"):
        pool = [lat for lat in corpus(606, 40, 10) if lat.n >= 2]
        pool += [lat for lat in enumerate_lattices(6) if lat.n >= 2]
        assert len(pool) >= 30
        for lat in pool:
            report = check_prime_equivalences(lat)
            assert not report.skipped and report.passed, \
                (lat.name, report.details)
            report = check_irreducibility(lat)
            assert not report.skipped and report.passed, \
                (lat.name, report.details)


def test_criterion_07_dilation_always_simple():
    with criterion(7, "every dilation is simple"):
        pool = [lat for lat in corpus(707, 50, 8) if lat.n >= 2]
        pool += [lat for lat in enumerate_lattices(6) if lat.n >= 2]
        assert len(pool) >= 60
        for lat in pool:
            d, _ = dilate(lat)
            assert is_simple(d), lat.name


def test_criterion_08_three_plus_summand_collapse():
    with criterion(8, "three-plus-summand collapse"):
        pool = [lat for lat in corpus(808, 40, 6) if 3 <= lat.n <= 6]
        rng = random.Random(808)
        for _ in range(50):
            width = rng.choice((3, 3, 4))
            family = [rng.choice(pool) for _ in range(width)]
            report = check_multi_hsum(family)
            assert not report.skipped, report.details
            assert report.passed, (report.instance_descr, report.details)
            h, _ = horizontal_sum(family)
            assert prime_filters(h).prime_sets() == []
            assert prime_ideals(h).prime_sets() == []


def test_criterion_09_square_sum_simplicity():
    with criterion(9, "summing with the square kills congruences"):
        pool = [lat for lat in corpus(909, 40, 9) if lat.n >= 3]
        prod_top = Lattice.from_covers(
            ("00", "01", "10", "11", "T"),
            [("00", "01"), ("00", "10"), ("01", "11"), ("10", "11"),
             ("11", "T")],
            name="chainprodtop(2,2)",
        )
        pool.append(prod_top)
        for lat in corpus(910, 12, 6):
            if lat.n >= 3:
                d, _ = dilate(lat)
                if 3 <= d.n <= 12:
                    pool.append(d)
        assert any(lat.name.startswith("chainprodtop") for lat in pool)
        square = named("B2")
        trivial_seen = 0
        for s in pool:
            members01 = all_congruences(s).con01_members()
            h, _ = horizontal_sum([s, square])
            assert len(all_congruences(h).members) == len(members01) + 1, s.name
            if len(members01) == 1:
                trivial_seen += 1
                assert is_simple(h), s.name
        assert trivial_seen >= 20, trivial_seen


def test_criterion_10_distributive_congruence_counts():
    with criterion(10, "distributive lattices: more congruences than filters"):
        pool = [
            lat for lat in corpus(1010, 60, 10)
            if lat.name.startswith("div(") or lat.name.startswith("closure(")
        ]
        assert len(pool) >= 15
        for lat in pool:
            assert len(all_congruences(lat).members) >= len(all_filters(lat)), \
                lat.name
        assert len(all_congruences(named("div", 12)).members) == 8
