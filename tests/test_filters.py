import dataclasses

import pytest

from latkit import (
    Partition,
    all_congruences,
    all_filters,
    all_ideals,
    corpus,
    enumerate_lattices,
    eq_from_blocks,
    generated_filter,
    generated_ideal,
    is_congruence,
    is_filter,
    is_ideal,
    is_prime_filter,
    is_prime_ideal,
    named,
    prime_family_congruence,
    prime_filter_congruence,
    prime_filters,
    prime_ideals,
)
from latkit import core
from latkit.construct import horizontal_sum
from latkit.core import bits
from latkit.errors import (
    EmptyFamily,
    EmptyGeneratorSet,
    NotAFilter,
    NotAnIdeal,
    NotPrime,
    UnknownLabel,
)
from oracles import (
    family_eagerly,
    filters_by_exhaustion,
    generated_filter_by_meet_fold,
    ideals_by_exhaustion,
    is_filter_by_meet_fold,
    prime_filter_by_join_condition,
    prime_ideal_by_meet_condition,
)


def labelled(lat, sets):
    return {frozenset(lat.labels[i] for i in s) for s in sets}


def test_generated_filter():
    n5 = named("N5")
    assert generated_filter(n5, [n5.index("x")]) == {n5.index("x"), n5.index("1")}
    for lat in (n5, named("K")):
        assert generated_filter(lat, [lat.bottom]) == set(range(lat.n))
    with pytest.raises(EmptyGeneratorSet):
        generated_filter(n5, [])
    with pytest.raises(EmptyGeneratorSet):
        generated_ideal(n5, [])


def test_generated_filter_refuses_an_index_out_of_range():
    n5 = named("N5")
    for bad in (9, 5, -1):
        with pytest.raises(UnknownLabel, match=f"element index {bad} out of range"):
            generated_filter(n5, [n5.top, bad])


def test_generated_ideal_refuses_an_index_out_of_range():
    n5 = named("N5")
    for bad in (9, 5, -1):
        with pytest.raises(UnknownLabel, match=f"element index {bad} out of range"):
            generated_ideal(n5, [bad])


def test_generated_filter_from_two_interiors_is_everything():
    h, _ = horizontal_sum([named("N5"), named("K")])
    a = h.index("0.x")
    b = h.index("1.q")
    assert generated_filter(h, [a, b]) == set(range(h.n))
    assert generated_ideal(h, [a, b]) == set(range(h.n))


def test_is_filter():
    b2 = named("B2")
    assert is_filter(b2, [b2.top])
    assert not is_filter(b2, [b2.index("0"), b2.index("a")])
    assert not is_filter(b2, [])
    c3 = named("chain", 3)
    assert is_filter(c3, [c3.index("m"), c3.index("1")])
    assert is_ideal(c3, [c3.index("0"), c3.index("m")])


def test_is_filter_is_false_on_an_index_out_of_range():
    n5 = named("N5")
    everything = list(range(n5.n))
    for bad in (7, 5, -1):
        assert not is_filter(n5, [bad])
        assert not is_filter(n5, everything + [bad])


def test_is_ideal_is_false_on_an_index_out_of_range():
    n5 = named("N5")
    for bad in (7, 5, -1):
        assert not is_ideal(n5, [bad])
        assert not is_ideal(n5, [n5.bottom, bad])


def test_is_prime_filter_refuses_an_index_out_of_range():
    n5 = named("N5")
    for bad in (7, 5, -1):
        with pytest.raises(NotAFilter):
            is_prime_filter(n5, [n5.top, bad])


def test_is_prime_ideal_refuses_an_index_out_of_range():
    n5 = named("N5")
    for bad in (7, 5, -1):
        with pytest.raises(NotAnIdeal):
            is_prime_ideal(n5, [n5.bottom, bad])


def test_all_filters_are_the_principal_upsets():
    for lat in (named("N5"), named("div", 12), named("K")):
        fam = all_filters(lat)
        assert len(fam) == lat.n
        for member in fam.members:
            assert member.elements == generated_filter(lat, [member.generator])
            assert is_filter(lat, member.elements)
        assert len(all_ideals(lat)) == lat.n


def test_a_family_with_a_field_replaced_keeps_its_members():
    fam = dataclasses.replace(all_filters(named("B2")), generators=(3, 2, 1, 0))
    assert fam.generators == (3, 2, 1, 0)
    assert len(fam.members) == 4
    assert len(fam) == 4


def test_the_families_equal_the_eager_ones(engine_pool):
    # built from the masks, members on first read; every field as the
    # eager build of each member has it
    for lat in engine_pool:
        for kind, family, primes in (("filter", all_filters, prime_filters),
                                     ("ideal", all_ideals, prime_ideals)):
            want = family_eagerly(lat, kind)
            fam = family(lat)
            assert len(fam) == len(want) == lat.n
            assert primes(lat).members == tuple(m for m in want if m.prime)
            assert fam.prime_sets() == [m.elements for m in want if m.prime]
            assert fam.members == want


def test_count_and_spectra_build_no_member():
    # distributive: one prime filter and one prime ideal per prime power
    # dividing 720720 = 2^4 * 3^2 * 5 * 7 * 11 * 13
    lat = named("div", 720720)
    for fam, primes in ((all_filters(lat), prime_filters(lat)),
                        (all_ideals(lat), prime_ideals(lat))):
        assert len(fam) == lat.n == 240
        assert len(fam.prime_sets()) == len(primes.members) == 10
        assert "members" not in fam.__dict__
        assert len(fam.members) == 240


def test_the_filter_and_ideal_tests_build_no_operation_table(monkeypatch):
    def no_table(masks):
        raise AssertionError("built an operation table")

    monkeypatch.setattr(core, "_op_table", no_table)
    lat = named("div", 720720)
    ix = lat.index
    multiples_of_16 = frozenset(bits(lat.up[ix("16")]))
    not_multiples_of_16 = frozenset(bits(lat.down[ix("360360")]))
    assert is_filter(lat, multiples_of_16)
    assert is_prime_filter(lat, multiples_of_16)
    assert not is_filter(lat, not_multiples_of_16)
    assert is_ideal(lat, not_multiples_of_16)
    assert is_prime_ideal(lat, not_multiples_of_16)
    assert not is_ideal(lat, multiples_of_16)
    assert generated_filter(lat, [ix("48"), ix("80")]) == multiples_of_16
    assert generated_ideal(lat, [ix("16"), ix("9")]) == \
        frozenset(bits(lat.down[ix("144")]))
    assert "meet_t" not in lat.__dict__ and "join_t" not in lat.__dict__


def test_the_filter_tests_match_the_meet_folds():
    for lat in enumerate_lattices(7):
        dual = lat.dual()
        for m in range(1, 1 << lat.n):
            s = list(bits(m))
            for side, is_member in ((lat, is_filter), (dual, is_ideal)):
                assert is_member(lat, s) == is_filter_by_meet_fold(side, s)
            assert generated_filter(lat, s) == \
                generated_filter_by_meet_fold(lat, s)
            assert generated_ideal(lat, s) == \
                generated_filter_by_meet_fold(dual, s)
            if is_filter_by_meet_fold(lat, s):
                assert is_prime_filter(lat, s) == \
                    prime_filter_by_join_condition(lat, s)
            else:
                with pytest.raises(NotAFilter):
                    is_prime_filter(lat, s)
            if is_filter_by_meet_fold(dual, s):
                assert is_prime_ideal(lat, s) == \
                    prime_ideal_by_meet_condition(lat, s)
            else:
                with pytest.raises(NotAnIdeal):
                    is_prime_ideal(lat, s)


def test_filter_count_of_a_double_pentagon():
    h, _ = horizontal_sum([named("N5"), named("N5")])
    assert len(all_filters(h)) == 8  # 5 + 5 - 2


def test_filters_match_exhaustive_scan():
    pool = [lat for lat in corpus(13, 8, 10)]
    extra = [named("div", 60), named("chain", 15)]
    for lat in pool + extra:
        if lat.n > 15:
            continue
        fam = {m.elements for m in all_filters(lat).members}
        assert fam == filters_by_exhaustion(lat)
        fam = {m.elements for m in all_ideals(lat).members}
        assert fam == ideals_by_exhaustion(lat)


def test_is_prime_filter():
    b2 = named("B2")
    assert is_prime_filter(b2, [b2.index("a"), b2.index("1")])
    assert not is_prime_filter(b2, [b2.index("1")])
    m3 = named("M3")
    for member in all_filters(m3).members:
        if member.elements != frozenset(range(m3.n)):
            assert not member.prime
    with pytest.raises(NotAFilter):
        is_prime_filter(b2, [b2.index("0")])
    with pytest.raises(NotAnIdeal, match="not an ideal"):
        is_prime_ideal(b2, [b2.index("1")])


def test_whole_carrier_is_never_prime():
    for lat in (named("B2"), named("N5")):
        assert not is_prime_filter(lat, range(lat.n))
        assert not is_prime_ideal(lat, range(lat.n))


def test_prime_tests_read_a_one_shot_iterable_once():
    b2 = named("B2")
    top, a, bottom = b2.index("1"), b2.index("a"), b2.index("0")
    assert not is_prime_filter(b2, iter([top]))
    assert is_prime_filter(b2, iter([a, top]))
    assert not is_prime_ideal(b2, iter([bottom]))
    assert is_prime_ideal(b2, iter([bottom, a]))
    part = prime_filter_congruence(b2, iter([a, top]))
    assert part == eq_from_blocks(b2, [{"a", "1"}, {"0", "b"}])
    with pytest.raises(NotPrime):
        prime_filter_congruence(b2, iter([top]))


def test_primality_agrees_with_the_complement_characterisation():
    for lat in corpus(7, 25, 12) + enumerate_lattices(7):
        every = set(range(lat.n))
        for x in range(lat.n):
            f = set(bits(lat.up[x]))
            want = prime_filter_by_join_condition(lat, f)
            assert is_prime_filter(lat, f) == want
            assert want == (f != every and is_ideal(lat, every - f))
            i = set(bits(lat.down[x]))
            want = prime_ideal_by_meet_condition(lat, i)
            assert is_prime_ideal(lat, i) == want
            assert want == (i != every and is_filter(lat, every - i))


def test_family_primality_matches_the_pair_scans(engine_pool):
    for lat in engine_pool:
        for m in all_filters(lat).members:
            assert m.prime == prime_filter_by_join_condition(lat, m.elements)
            assert is_prime_filter(lat, m.elements) == m.prime
        for m in all_ideals(lat).members:
            assert m.prime == prime_ideal_by_meet_condition(lat, m.elements)
            assert is_prime_ideal(lat, m.elements) == m.prime


def test_is_filter_and_is_ideal_match_exhaustion():
    for lat in enumerate_lattices(8):
        filters = filters_by_exhaustion(lat)
        ideals = ideals_by_exhaustion(lat)
        for m in range(1 << lat.n):
            s = frozenset(bits(m))
            assert is_filter(lat, s) == (s in filters), (lat, s)
            assert is_ideal(lat, s) == (s in ideals), (lat, s)


def test_spectra_of_the_named_examples():
    b2 = named("B2")
    assert labelled(b2, prime_filters(b2).prime_sets()) == {
        frozenset({"a", "1"}), frozenset({"b", "1"})}
    assert labelled(b2, prime_ideals(b2).prime_sets()) == {
        frozenset({"0", "a"}), frozenset({"0", "b"})}
    m3 = named("M3")
    assert prime_filters(m3).prime_sets() == []
    assert prime_ideals(m3).prime_sets() == []
    n5 = named("N5")
    assert labelled(n5, prime_filters(n5).prime_sets()) == {
        frozenset({"x", "1"}), frozenset({"y", "z", "1"})}
    assert labelled(n5, prime_ideals(n5).prime_sets()) == {
        frozenset({"0", "x"}), frozenset({"0", "y", "z"})}
    k = named("K")
    assert labelled(k, prime_filters(k).prime_sets()) == {
        frozenset({"m", "1"})}
    assert labelled(k, prime_ideals(k).prime_sets()) == {
        frozenset({"0", "n", "p", "q"})}


def test_prime_filter_congruence():
    b2 = named("B2")
    part = prime_filter_congruence(b2, [b2.index("b"), b2.index("1")])
    assert part == eq_from_blocks(b2, [{"0", "a"}, {"b", "1"}])
    n5 = named("N5")
    part = prime_filter_congruence(n5, [n5.index("x"), n5.index("1")])
    assert part == eq_from_blocks(n5, [{"0", "y", "z"}, {"x", "1"}])
    k = named("K")
    part = prime_filter_congruence(k, [k.index("m"), k.index("1")])
    assert part == eq_from_blocks(k, [{"m", "1"}, {"0", "n", "p", "q"}])
    with pytest.raises(NotPrime):
        prime_filter_congruence(b2, [b2.index("1")])


def test_prime_filter_congruence_is_maximal():
    for lat in (named("B2"), named("N5"), named("K")):
        con = all_congruences(lat)
        coatoms = {con.members[i] for i in con.coatoms()}
        for fs in prime_filters(lat).prime_sets():
            part = prime_filter_congruence(lat, fs)
            assert is_congruence(lat, part)
            assert part in coatoms


def test_prime_family_congruence():
    n5 = named("N5")
    fx = frozenset({n5.index("x"), n5.index("1")})
    fyz = frozenset({n5.index("y"), n5.index("z"), n5.index("1")})
    zeta = eq_from_blocks(n5, [{"y", "z"}])
    assert prime_family_congruence(n5, [fx, fyz]) == zeta
    assert prime_family_congruence(n5, [fx]) == prime_filter_congruence(n5, fx)
    b2 = named("B2")
    fa = frozenset({b2.index("a"), b2.index("1")})
    fb = frozenset({b2.index("b"), b2.index("1")})
    assert prime_family_congruence(b2, [fa, fb]) == Partition.delta(b2.n)
    with pytest.raises(EmptyFamily):
        prime_family_congruence(n5, [])


def test_prime_family_congruence_quotient_bounds():
    from latkit import quotient

    for lat in (named("N5"), named("K"), named("div", 12)):
        primes = prime_filters(lat).prime_sets()
        if not primes:
            continue
        theta = prime_family_congruence(lat, primes)
        assert is_congruence(lat, theta)
        q, proj = quotient(lat, theta)
        top_block = set.intersection(*(set(p) for p in primes))
        bottom_block = set.intersection(
            *(set(range(lat.n)) - set(p) for p in primes))
        assert {proj[i] for i in top_block} == {q.top}
        assert {proj[i] for i in bottom_block} == {q.bottom}


def test_complement_bijection():
    for lat in corpus(17, 10, 9):
        full = set(range(lat.n))
        complements = {frozenset(full - p)
                       for p in prime_filters(lat).prime_sets()}
        assert complements == set(prime_ideals(lat).prime_sets())


def test_five_way_equivalence_over_proper_filters():
    for lat in corpus(19, 8, 9):
        con = all_congruences(lat)
        coatoms = {con.members[i] for i in con.coatoms()}
        carrier = set(range(lat.n))
        for member in all_filters(lat).members:
            fset = set(member.elements)
            if fset == carrier:
                continue
            comp = sorted(carrier - fset)
            from latkit import Partition

            part = Partition.from_blocks(lat.n, [sorted(fset), comp])
            checks = [
                member.prime,
                is_ideal(lat, comp),
                is_ideal(lat, comp) and is_prime_ideal(lat, comp),
                is_congruence(lat, part),
                part in coatoms,
            ]
            assert len(set(checks)) == 1, (lat.name, sorted(fset), checks)
