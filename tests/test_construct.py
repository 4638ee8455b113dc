import random

import pytest

from latkit import (
    Partition,
    all_congruences,
    all_filters,
    all_ideals,
    corpus,
    delta,
    dilate,
    enumerate_lattices,
    eq_from_blocks,
    fat_intervals,
    generated_filter,
    horizontal_sum,
    hsum_congruences,
    interval_hsum,
    is_congruence,
    is_simple,
    isomorphic,
    named,
    nabla,
    ordinal_sum,
)
from latkit import construct
from latkit.construct import FatInterval
from latkit.errors import (
    CarrierMismatch,
    EmptyFamily,
    IntervalTooSmall,
    NablaSummandCongruence,
    SizeCapExceeded,
    SummandTooSmall,
    TrivialInput,
    TrivialSummand,
)

from oracles import horizontal_sum_by_covers, ordinal_sum_by_covers


def test_ordinal_sum_of_chains_is_a_chain():
    s, _ = ordinal_sum(named("chain", 2), named("chain", 2))
    assert isomorphic(s, named("chain", 3)) is not None
    assert s.n == 3


def test_ordinal_sum_square_plus_stem():
    from latkit import Lattice

    s, _ = ordinal_sum(named("B2"), named("chain", 2))
    assert s.n == 5
    # two atoms joining below a pendant top: 0 < {n,q} < p < 1
    expected = Lattice.from_covers(
        ("0", "n", "q", "p", "1"),
        [("0", "n"), ("0", "q"), ("n", "p"), ("q", "p"), ("p", "1")],
    )
    assert isomorphic(s, expected) is not None


def test_ordinal_sum_size_identity():
    rng = random.Random(2)
    pool = corpus(2, 8, 8)
    for _ in range(20):
        a, b = rng.choice(pool), rng.choice(pool)
        s, _ = ordinal_sum(a, b)
        assert s.n == a.n + b.n - 1


def test_ordinal_sum_glue_keeps_left_label():
    s, prov = ordinal_sum(named("chain", 3), named("chain", 3))
    assert "0.1" in s.labels  # the left summand's top
    assert prov.sources_of("0.1") == ((0, "1"), (1, "0"))


def test_horizontal_sum_shapes():
    h, _ = horizontal_sum([named("chain", 3), named("chain", 3)])
    assert isomorphic(h, named("B2")) is not None
    h, _ = horizontal_sum([named("chain", 3)] * 3)
    assert isomorphic(h, named("M3")) is not None
    h, _ = horizontal_sum([named("chain", 3), named("chain", 4)])
    assert isomorphic(h, named("N5")) is not None
    s, _ = ordinal_sum(named("B2"), named("chain", 2))
    h, _ = horizontal_sum([named("chain", 3), s])
    assert isomorphic(h, named("K")) is not None


def test_horizontal_sum_absorbs_two_element_summands():
    for other in (named("B2"), named("N5")):
        h, _ = horizontal_sum([named("chain", 2), other])
        assert isomorphic(h, other) is not None
    h, _ = horizontal_sum([named("chain", 2), named("chain", 2)])
    assert h.n == 2


def test_horizontal_sum_rejects_trivial_summands():
    with pytest.raises(TrivialSummand):
        horizontal_sum([named("chain", 1), named("B2")])


def test_horizontal_sum_commutative_associative_up_to_iso():
    a, b, c = named("chain", 3), named("chain", 4), named("B2")
    h1, _ = horizontal_sum([a, b, c])
    h2, _ = horizontal_sum([c, a, b])
    assert isomorphic(h1, h2) is not None
    inner, _ = horizontal_sum([b, c])
    h3, _ = horizontal_sum([a, inner])
    assert isomorphic(h1, h3) is not None


def test_horizontal_sum_count_identities():
    rng = random.Random(3)
    pool = [lat for lat in corpus(3, 15, 10) if lat.n >= 3]
    for _ in range(40):
        a, b = rng.choice(pool), rng.choice(pool)
        h, _ = horizontal_sum([a, b])
        assert h.n == a.n + b.n - 2
        assert len(all_filters(h)) == len(all_filters(a)) + len(all_filters(b)) - 2
        assert len(all_ideals(h)) == len(all_ideals(a)) + len(all_ideals(b)) - 2


def test_hsum_congruences_examples():
    b2 = named("B2")
    beta = eq_from_blocks(b2, [{"0", "b"}, {"a", "1"}])
    out = hsum_congruences([(named("chain", 2), delta(named("chain", 2))), (b2, beta)])
    h, _ = horizontal_sum([named("chain", 2), b2])
    assert out.num_blocks == 2
    assert is_congruence(h, out)

    c3 = named("chain", 3)
    out = hsum_congruences([(c3, delta(c3)), (c3, delta(c3))])
    assert out == Partition.delta(4)

    c4 = named("chain", 4)
    mid = eq_from_blocks(c4, [{"a", "b"}])
    out = hsum_congruences([(c3, delta(c3)), (c4, mid)])
    h, _ = horizontal_sum([c3, c4])
    zeta = eq_from_blocks(h, [{"1.a", "1.b"}])
    assert out == zeta


def test_hsum_congruences_rejects_full_collapse():
    c3 = named("chain", 3)
    with pytest.raises(NablaSummandCongruence):
        hsum_congruences([(c3, nabla(c3)), (c3, delta(c3))])


def test_hsum_congruences_error_order_without_building_a_sum(monkeypatch):
    def no_lattice(*args, **kwargs):
        raise AssertionError("hsum_congruences built a lattice")

    monkeypatch.setattr(construct, "Lattice", no_lattice)
    c1, c3 = named("chain", 1), named("chain", 3)
    with pytest.raises(EmptyFamily):
        hsum_congruences([])
    with pytest.raises(TrivialSummand):
        hsum_congruences([(c1, delta(c1)), (c3, delta(c3))])
    with pytest.raises(CarrierMismatch):
        hsum_congruences([(c1, delta(c1)), (c3, Partition.delta(4))])
    with pytest.raises(NablaSummandCongruence):
        hsum_congruences([(c1, delta(c1)), (c3, nabla(c3))])
    assert hsum_congruences([(c3, delta(c3)), (c3, delta(c3))]) == \
        Partition.delta(4)
    c200 = named("chain", 200)
    with pytest.raises(SizeCapExceeded):
        hsum_congruences([(c200, delta(c200))] * 3)


def test_oversized_results_are_refused_before_assembly(monkeypatch):
    def no_work(*args, **kwargs):
        raise AssertionError("assembled an oversized result")

    monkeypatch.setattr(construct, "Lattice", no_work)
    monkeypatch.setattr(construct, "_union_up", no_work)
    c300 = named("chain", 300)
    with pytest.raises(SizeCapExceeded):
        ordinal_sum(c300, c300)
    with pytest.raises(SizeCapExceeded):
        horizontal_sum([c300, c300])
    with pytest.raises(SizeCapExceeded):
        interval_hsum(c300, c300.bottom, c300.top, c300)
    with pytest.raises(SizeCapExceeded):
        dilate(named("chain", 30))


def test_congruence_restriction_round_trip():
    a, b = named("N5"), named("K")
    h, prov = horizontal_sum([a, b])
    idx_a, idx_b = prov.embeddings
    for theta in all_congruences(h).members:
        ra = theta.restrict(idx_a)
        rb = theta.restrict(idx_b)
        assert is_congruence(a, ra)
        assert is_congruence(b, rb)
        if theta != nabla(h):
            assert hsum_congruences([(a, ra), (b, rb)]) == theta


def test_fat_intervals():
    c3 = named("chain", 3)
    assert fat_intervals(c3) == [FatInterval(c3.bottom, c3.top)]
    c4 = named("chain", 4)
    fats = {(c4.labels[a], c4.labels[b]) for a, b in fat_intervals(c4)}
    assert fats == {("0", "b"), ("a", "1"), ("0", "1")}
    assert fat_intervals(named("chain", 2)) == []


def test_interval_hsum_diamond():
    c3 = named("chain", 3)
    out, _ = interval_hsum(c3, c3.bottom, c3.top, named("B2"))
    assert isomorphic(out, named("M3")) is not None


def test_interval_hsum_filter_count():
    n5 = named("N5")
    out, _ = interval_hsum(n5, n5.index("y"), n5.top, named("B2"))
    assert out.n == 7
    assert len(all_filters(out)) == 5 + 4 - 2
    assert len(all_ideals(out)) == 5 + 4 - 2


def test_interval_hsum_rejections():
    n5 = named("N5")
    with pytest.raises(SummandTooSmall):
        interval_hsum(n5, n5.index("y"), n5.top, named("chain", 2))
    with pytest.raises(IntervalTooSmall):
        interval_hsum(n5, n5.index("y"), n5.index("z"), named("B2"))


def test_dilate_two_element_chain_is_unchanged():
    d, _ = dilate(named("chain", 2))
    assert d.n == 2
    assert len(all_congruences(d).members) == 2


def test_dilate_three_chain_is_the_diamond():
    d, _ = dilate(named("chain", 3))
    assert isomorphic(d, named("M3")) is not None


def test_dilate_four_chain():
    d, _ = dilate(named("chain", 4))
    assert d.n == 4 + 2 * 3
    assert is_simple(d)


def test_dilate_square_plus_stem_matches_figure():
    s, _ = ordinal_sum(named("B2"), named("chain", 2))
    assert len(fat_intervals(s)) == 4
    d, _ = dilate(s)
    assert d.n == 13
    assert is_simple(d)


def test_dilate_rejects_trivial():
    with pytest.raises(TrivialInput):
        dilate(named("chain", 1))


def test_dilate_count_identities_and_simplicity_on_corpus():
    for lat in corpus(7, 10, 8):
        if lat.trivial:
            continue
        d, _ = dilate(lat)
        fats = fat_intervals(lat)
        assert d.n == lat.n + 2 * len(fats)
        assert len(all_filters(d)) == len(all_filters(lat)) + 2 * len(fats)
        assert len(all_ideals(d)) == len(all_ideals(lat)) + 2 * len(fats)
        assert is_simple(d)


def test_dilate_twice_stays_simple():
    d, _ = dilate(named("chain", 3))
    dd, _ = dilate(d)
    assert dd.n == d.n + 2 * len(fat_intervals(d))
    assert is_simple(dd)


def test_interior_generators_span_everything():
    a, b = named("chain", 3), named("chain", 4)
    h, prov = horizontal_sum([a, b])
    lo = h.index("0.m")
    hi = h.index("1.a")
    assert generated_filter(h, [lo, hi]) == set(range(h.n))


def test_provenance_round_trip():
    import json

    h, prov = horizontal_sum([named("chain", 3), named("B2")])
    data = json.loads(prov.to_json())
    assert data["0"] == [[0, "0"], [1, "0"]]
    assert data["1"] == [[0, "1"], [1, "1"]]
    assert data["1.a"] == [[1, "a"]]
    assert prov.label_map(1)["a"] == "1.a"


def test_fresh_labels_when_dilating_twice():
    d, _ = dilate(named("chain", 3))
    dd, _ = dilate(d)
    assert len(set(dd.labels)) == dd.n
    assert "l[0,1]'" in dd.labels


def test_single_summand_sums():
    n5 = named("N5")
    h, _ = horizontal_sum([n5])
    assert isomorphic(h, n5) is not None
    s, _ = ordinal_sum(named("chain", 1), n5)
    assert isomorphic(s, n5) is not None
    s, _ = ordinal_sum(n5, named("chain", 1))
    assert isomorphic(s, n5) is not None


def test_restrict_full_relation_to_middle_summand():
    c3 = named("chain", 3)
    h, prov = horizontal_sum([c3, c3, c3])
    assert isomorphic(h, named("M3")) is not None
    middle = prov.embeddings[1]
    assert nabla(h).restrict(middle) == Partition.nabla(3)
    assert delta(h).restrict(middle) == Partition.delta(3)


def test_filter_family_decomposition_of_horizontal_sum():
    # filters of the sum are exactly: proper filters of either summand
    # (mapped through the glueing) plus the whole carrier
    for a_name, b_name in ((("N5",), ("K",)), (("chain", 4), ("B2",))):
        a, b = named(*a_name), named(*b_name)
        h, prov = horizontal_sum([a, b])
        expected = {frozenset(range(h.n))}
        for lat, summand in ((a, 0), (b, 1)):
            to_h = prov.embeddings[summand]
            for member in all_filters(lat).members:
                if member.elements == frozenset(range(lat.n)):
                    continue
                expected.add(frozenset(to_h[x] for x in member.elements))
        assert {m.elements for m in all_filters(h).members} == expected


def test_filter_family_decomposition_of_interval_hsum():
    lat = named("N5")
    insert = named("B2")
    a, b = lat.index("y"), lat.top
    out, prov = interval_hsum(lat, a, b, insert)
    to_out, to_ins = prov.embeddings
    interior = [
        to_ins[x]
        for x in range(insert.n) if x not in (insert.bottom, insert.top)
    ]
    expected = set()
    for member in all_filters(lat).members:
        if a in member.elements:
            expected.add(frozenset(
                [to_out[x] for x in member.elements] + interior))
        else:
            expected.add(frozenset(to_out[x] for x in member.elements))
    up_b = frozenset(to_out[x] for x in range(lat.n) if lat.leq(b, x))
    for member in all_filters(insert).members:
        if member.elements == frozenset(range(insert.n)):
            continue  # the improper filter contributes nothing new
        inner = [
            to_ins[x]
            for x in member.elements
            if x not in (insert.bottom, insert.top)
        ]
        expected.add(up_b | frozenset(inner))
    assert {m.elements for m in all_filters(out).members} == expected


def _tables(lat):
    return lat.labels, lat.up, lat.meet_t, lat.join_t, lat.name


def test_sums_match_the_cover_based_builds():
    census = enumerate_lattices(6)
    pool = corpus(7, 100, 12)
    rng = random.Random(9)
    families = [[a, b] for a in census for b in census]
    families += [[rng.choice(pool) for _ in range(k)]
                 for k in (2, 3) for _ in range(100)]
    for family in families:
        if any(lat.trivial for lat in family):
            with pytest.raises(TrivialSummand):
                horizontal_sum(family)
        else:
            h, prov = horizontal_sum(family)
            ref, sources = horizontal_sum_by_covers(family)
            assert _tables(h) == _tables(ref)
            # the same sources; only the glue top's key moves last
            assert prov.sources == sources
        lower = family[0]
        for upper in family[1:]:
            s, prov = ordinal_sum(lower, upper)
            ref, sources = ordinal_sum_by_covers(lower, upper)
            assert _tables(s) == _tables(ref)
            assert list(prov.sources.items()) == list(sources.items())
            lower = s


def _constructions(pool):
    """(result, provenance, summands) of each construction over `pool`."""
    for i, lat in enumerate(pool):
        other = pool[-1 - i]
        s, prov = ordinal_sum(lat, other)
        yield s, prov, [lat, other]
        if not lat.trivial and not other.trivial:
            h, prov = horizontal_sum([lat, other, lat])
            yield h, prov, [lat, other, lat]
        fats = fat_intervals(lat)
        if fats:
            insert = other if other.n > 2 else named("B2")
            out, prov = interval_hsum(lat, *fats[-1], insert)
            yield out, prov, [lat, insert]
        if not lat.trivial:
            d, prov = dilate(lat)
            yield d, prov, [lat] + [named("B2")] * len(fats)


def test_embeddings_agree_with_the_label_maps(engine_pool):
    # each summand is a sublattice of the result, so its embedding is
    # injective and keeps meets and joins
    for result, prov, summands in _constructions(engine_pool):
        assert len(prov.embeddings) == len(summands)
        for i, (lat, e) in enumerate(zip(summands, prov.embeddings)):
            assert len(e) == lat.n == len(set(e))
            lmap = prov.label_map(i)
            for x in range(lat.n):
                assert result.labels[e[x]] == lmap[lat.labels[x]]
                for y in range(lat.n):
                    assert e[lat.meet(x, y)] == result.meet(e[x], e[y])
                    assert e[lat.join(x, y)] == result.join(e[x], e[y])
