import random

import pytest

from latkit import (
    Lattice,
    Partition,
    all_congruences,
    all_filters,
    all_ideals,
    corpus,
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
    ordinal_sum,
)
from latkit import construct
from latkit.core import bits
from latkit.errors import (
    CarrierMismatch,
    EmptyFamily,
    IntervalTooSmall,
    NablaSummandCongruence,
    SizeCapExceeded,
    SummandTooSmall,
    TrivialInput,
    TrivialSummand,
    UnknownLabel,
)

from oracles import (
    fat_intervals_by_covers,
    horizontal_sum_by_covers,
    ordinal_sum_by_covers,
    relabelled,
)


def test_ordinal_sum_of_chains_is_a_chain():
    s, _ = ordinal_sum(named("chain", 2), named("chain", 2))
    assert isomorphic(s, named("chain", 3)) is not None
    assert s.n == 3


def test_ordinal_sum_square_plus_stem():
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


def _sources(result, summands, embeddings):
    """Each result label, in result-index order, with the (summand index,
    summand label) pairs that the embeddings send to it."""
    found = [[] for _ in result.labels]
    for i, (lat, e) in enumerate(zip(summands, embeddings)):
        for x, lab in enumerate(lat.labels):
            found[e[x]].append((i, lab))
    return {lab: tuple(pairs) for lab, pairs in zip(result.labels, found)}


def test_ordinal_sum_glue_keeps_left_label():
    c3 = named("chain", 3)
    s, embeddings = ordinal_sum(c3, c3)
    assert "0.1" in s.labels  # the left summand's top
    assert _sources(s, [c3, c3], embeddings)["0.1"] == ((0, "1"), (1, "0"))


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
    out = hsum_congruences([(named("chain", 2), Partition.delta(2)), (b2, beta)])
    h, _ = horizontal_sum([named("chain", 2), b2])
    assert out.num_blocks == 2
    assert is_congruence(h, out)

    c3 = named("chain", 3)
    out = hsum_congruences([(c3, Partition.delta(c3.n)), (c3, Partition.delta(c3.n))])
    assert out == Partition.delta(4)

    c4 = named("chain", 4)
    mid = eq_from_blocks(c4, [{"a", "b"}])
    out = hsum_congruences([(c3, Partition.delta(c3.n)), (c4, mid)])
    h, _ = horizontal_sum([c3, c4])
    zeta = eq_from_blocks(h, [{"1.a", "1.b"}])
    assert out == zeta


def test_hsum_congruences_rejects_full_collapse():
    c3 = named("chain", 3)
    with pytest.raises(NablaSummandCongruence):
        hsum_congruences([(c3, Partition.nabla(c3.n)), (c3, Partition.delta(c3.n))])


def test_hsum_congruences_error_order_without_building_a_sum(monkeypatch):
    def no_lattice(*args, **kwargs):
        raise AssertionError("hsum_congruences built a lattice")

    monkeypatch.setattr(construct, "Lattice", no_lattice)
    c1, c3 = named("chain", 1), named("chain", 3)
    with pytest.raises(EmptyFamily):
        hsum_congruences([])
    with pytest.raises(TrivialSummand):
        hsum_congruences([(c1, Partition.delta(c1.n)), (c3, Partition.delta(c3.n))])
    with pytest.raises(CarrierMismatch):
        hsum_congruences([(c1, Partition.delta(c1.n)), (c3, Partition.delta(4))])
    with pytest.raises(NablaSummandCongruence):
        hsum_congruences([(c1, Partition.delta(c1.n)), (c3, Partition.nabla(c3.n))])
    assert hsum_congruences([(c3, Partition.delta(c3.n)), (c3, Partition.delta(c3.n))]) == \
        Partition.delta(4)
    c200 = named("chain", 200)
    with pytest.raises(SizeCapExceeded):
        hsum_congruences([(c200, Partition.delta(c200.n))] * 3)


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
    h, (idx_a, idx_b) = horizontal_sum([a, b])
    for theta in all_congruences(h).members:
        ra = theta.restrict(idx_a)
        rb = theta.restrict(idx_b)
        assert is_congruence(a, ra)
        assert is_congruence(b, rb)
        if theta != Partition.nabla(h.n):
            assert hsum_congruences([(a, ra), (b, rb)]) == theta


def test_fat_intervals():
    c3 = named("chain", 3)
    assert fat_intervals(c3) == [(c3.bottom, c3.top)]
    c4 = named("chain", 4)
    fats = {(c4.labels[a], c4.labels[b]) for a, b in fat_intervals(c4)}
    assert fats == {("0", "b"), ("a", "1"), ("0", "1")}
    assert fat_intervals(named("chain", 2)) == []


def test_fat_intervals_match_the_cover_set_rule(engine_pool):
    # engine_pool holds the census up to 8 and corpus(7, 100, 12)
    pool = engine_pool + [result for result, *_ in _constructions(engine_pool)]
    for lat in pool:
        assert fat_intervals(lat) == fat_intervals_by_covers(lat), lat


def test_interval_hsum_refuses_exactly_the_points_and_covers():
    square = named("B2")
    for lat in enumerate_lattices(6):
        covers = set(lat.cover_pairs)
        for a in range(lat.n):
            for b in bits(lat.up[a]):
                small = a == b or (a, b) in covers
                try:
                    interval_hsum(lat, a, b, square)
                except IntervalTooSmall:
                    assert small, (lat, a, b)
                else:
                    assert not small, (lat, a, b)


def test_interval_hsum_diamond():
    c3 = named("chain", 3)
    out, _ = interval_hsum(c3, c3.bottom, c3.top, named("B2"))
    assert isomorphic(out, named("M3")) is not None


def test_interval_hsum_is_named_by_its_expression():
    # the labels are quoted as the grammar writes them
    n5 = named("N5")
    out, _ = interval_hsum(n5, n5.index("y"), n5.index("1"), named("B2"))
    assert out.name == 'ihsum(N5,"y","1",B2)'
    labels = ["0", 'a"b', "m", "c\\d", "1"]
    lat = Lattice.from_covers(labels, zip(labels, labels[1:]), name="P")
    out, _ = interval_hsum(lat, 1, 3, named("M3"))
    assert out.name == r'ihsum(P,"a\"b","c\\d",M3)'


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


def test_interval_hsum_refuses_an_index_out_of_range(monkeypatch):
    def no_work(*args):
        raise AssertionError("assembled a sum at a bad index")

    monkeypatch.setattr(construct, "_union_up", no_work)
    c4 = named("chain", 4)
    for a, b, bad in ((-1, 3, -1), (0, -1, -1), (9, 3, 9), (0, 9, 9)):
        with pytest.raises(UnknownLabel,
                           match=rf"^element index {bad} out of range$"):
            interval_hsum(c4, a, b, named("B2"))


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
    h, _ = horizontal_sum([a, b])
    lo = h.index("0.m")
    hi = h.index("1.a")
    assert generated_filter(h, [lo, hi]) == set(range(h.n))


def test_provenance_round_trip():
    c3, b2 = named("chain", 3), named("B2")
    h, embeddings = horizontal_sum([c3, b2])
    sources = _sources(h, [c3, b2], embeddings)
    assert sources["0"] == ((0, "0"), (1, "0"))
    assert sources["1"] == ((0, "1"), (1, "1"))
    assert sources["1.a"] == ((1, "a"),)
    e1 = embeddings[1]
    assert {lab: h.labels[e1[x]] for x, lab in enumerate(b2.labels)}["a"] \
        == "1.a"


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
    h, embeddings = horizontal_sum([c3, c3, c3])
    assert isomorphic(h, named("M3")) is not None
    middle = embeddings[1]
    assert Partition.nabla(h.n).restrict(middle) == Partition.nabla(3)
    assert Partition.delta(h.n).restrict(middle) == Partition.delta(3)


def test_filter_family_decomposition_of_horizontal_sum():
    # filters of the sum are exactly: proper filters of either summand
    # (mapped through the glueing) plus the whole carrier
    for a_name, b_name in ((("N5",), ("K",)), (("chain", 4), ("B2",))):
        a, b = named(*a_name), named(*b_name)
        h, embeddings = horizontal_sum([a, b])
        expected = {frozenset(range(h.n))}
        for lat, summand in ((a, 0), (b, 1)):
            to_h = embeddings[summand]
            for member in all_filters(lat).members:
                if member.elements == frozenset(range(lat.n)):
                    continue
                expected.add(frozenset(to_h[x] for x in member.elements))
        assert {m.elements for m in all_filters(h).members} == expected


def test_filter_family_decomposition_of_interval_hsum():
    lat = named("N5")
    insert = named("B2")
    a, b = lat.index("y"), lat.top
    out, (to_out, to_ins) = interval_hsum(lat, a, b, insert)
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
            h, embeddings = horizontal_sum(family)
            ref, sources = horizontal_sum_by_covers(family)
            assert _tables(h) == _tables(ref)
            # the same sources; only the glue top's key moves last
            assert _sources(h, family, embeddings) == sources
        lower = family[0]
        for upper in family[1:]:
            s, embeddings = ordinal_sum(lower, upper)
            ref, sources = ordinal_sum_by_covers(lower, upper)
            assert _tables(s) == _tables(ref)
            assert list(_sources(s, [lower, upper], embeddings).items()) == \
                list(sources.items())
            lower = s


ORDER = ("labels", "up", "down", "bottom", "top")


def _assert_validated(lat):
    want = Lattice(lat.labels, lat.up)
    for table in ORDER:
        assert getattr(lat, table) == getattr(want, table), (lat, table)


def test_no_construction_validates(monkeypatch):
    n5, k, m3 = named("N5"), named("K"), named("M3")

    def no_validation(*args, **kwargs):
        raise AssertionError("validated a lattice")

    monkeypatch.setattr(Lattice, "__init__", no_validation)
    s, _ = ordinal_sum(n5, k)
    h, _ = horizontal_sum([n5, k, s])
    d, _ = dilate(s)
    assert (d.n, dilate(h)[0].n) == (s.n + 2 * len(fat_intervals(s)),
                                     h.n + 2 * len(fat_intervals(h)))
    assert interval_hsum(d, d.bottom, d.top, m3)[0].n == d.n + 3
    assert interval_hsum(h, *fat_intervals(h)[-1], s)[0].n == h.n + s.n - 2


def test_unvalidated_builds_match_the_validated_tables():
    # chains, div(n), every construction and the census classes skip
    # Lattice(); their order tables must be the ones it computes
    census = [lat for lat in enumerate_lattices(7) if lat.n >= 2]
    for a in census:
        for b in census:
            _assert_validated(ordinal_sum(a, b)[0])
            if a.n >= 3 and b.n >= 3:
                _assert_validated(horizontal_sum([a, b])[0])
    for lat in census:
        d = dilate(lat)[0]
        _assert_validated(d)
        _assert_validated(dilate(d)[0])
    inserts = [lat for lat in census if 3 <= lat.n <= 5]
    for lat in census:
        if lat.n <= 6:
            for a, b in fat_intervals(lat):
                for insert in inserts:
                    _assert_validated(interval_hsum(lat, a, b, insert)[0])
    rng = random.Random(18)

    def shuffled(lat):
        perm = list(range(lat.n))
        rng.shuffle(perm)
        return relabelled(lat, perm)

    pentagon = named("N5")
    partners = [named("chain", 3), named("B2"), pentagon, shuffled(pentagon)]
    sides = [dilate(lat)[0] for lat in census] + [shuffled(lat) for lat in census]
    for s in sides:
        for d in partners:
            _assert_validated(ordinal_sum(s, d)[0])
            _assert_validated(ordinal_sum(d, s)[0])
            _assert_validated(horizontal_sum([s, d])[0])
            _assert_validated(horizontal_sum([s, d, s])[0])
    # Lattice() costs k^2 steps on chain(k): every k up to 120, then a
    # sample up to the cap
    for k in [*range(1, 121), *range(140, 500, 40), 499, 500]:
        _assert_validated(named("chain", k))
    # the census classes are built from their least lows tuples
    for lat in enumerate_lattices(9):
        _assert_validated(lat)
    # div(n) from its prime steps: every n up to 400, then large ones
    for k in [*range(1, 401), 720720, 1234800, 10**12]:
        _assert_validated(named("div", k))


def _constructions(pool):
    """(result, embeddings, summands, stems) of each construction over
    `pool`; `stems` maps (summand, element) of each element that
    interval_hsum or dilate inserts to its label before any priming."""
    square = named("B2")
    for i, lat in enumerate(pool):
        other = pool[-1 - i]
        s, embeddings = ordinal_sum(lat, other)
        yield s, embeddings, [lat, other], {}
        if not lat.trivial and not other.trivial:
            h, embeddings = horizontal_sum([lat, other, lat])
            yield h, embeddings, [lat, other, lat], {}
        fats = fat_intervals(lat)
        if fats:
            insert = other if other.n > 2 else square
            out, embeddings = interval_hsum(lat, *fats[-1], insert)
            yield out, embeddings, [lat, insert], {
                (1, x): f"1.{lab}" for x, lab in enumerate(insert.labels)
                if x not in (insert.bottom, insert.top)}
        if not lat.trivial:
            d, embeddings = dilate(lat)
            stems = {}
            for k, (a, b) in enumerate(fats):
                pair = f"[{lat.labels[a]},{lat.labels[b]}]"
                stems[k + 1, square.index("a")] = "l" + pair
                stems[k + 1, square.index("b")] = "r" + pair
            yield d, embeddings, [lat] + [square] * len(fats), stems


def test_embeddings_agree_with_the_label_maps(engine_pool):
    # each summand is a sublattice of the result, so its embedding is
    # injective and keeps meets and joins
    for result, embeddings, summands, stems in _constructions(engine_pool):
        assert type(embeddings) is tuple
        assert len(embeddings) == len(summands)
        for lat, e in zip(summands, embeddings):
            assert type(e) is tuple
            assert all(type(r) is int for r in e)
            assert len(e) == lat.n == len(set(e))
            for x in range(lat.n):
                for y in range(lat.n):
                    assert e[lat.meet(x, y)] == result.meet(e[x], e[y])
                    assert e[lat.join(x, y)] == result.join(e[x], e[y])
        # an inserted element is named by its stem, primed until unique
        for (i, x), stem in stems.items():
            label = result.labels[embeddings[i][x]]
            assert label.startswith(stem)
            assert set(label[len(stem):]) <= {"'"}
