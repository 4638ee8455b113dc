import gc
import itertools
import pickle
import random
import weakref

import pytest

from latkit import (Lattice, all_congruences, corpus, enumerate_lattices,
                    evaluate, horizontal_sum, named, parse)
from latkit import core
from latkit.errors import (
    BadInput,
    BadParam,
    CycleDetected,
    DuplicateLabel,
    NoBounds,
    NotALattice,
    NotComparable,
    SizeCapExceeded,
    UnknownLabel,
    UnknownName,
)

from oracles import (
    cover_pairs_by_scan,
    divisor_lattice_by_trial_division,
    named_by_covers,
    join_irreducible_by_pairs,
    meet_irreducible_by_pairs,
    relabelled,
    validated_eagerly,
)
from test_construct import _constructions


def test_from_covers_three_chain():
    lat = Lattice.from_covers(["0", "m", "1"], [("0", "m"), ("m", "1")])
    assert lat.n == 3
    assert lat.labels[lat.bottom] == "0"
    assert lat.labels[lat.top] == "1"
    assert lat.leq(lat.index("0"), lat.index("1"))


def test_from_covers_square():
    lat = Lattice.from_covers(
        "0ab1", [("0", "a"), ("0", "b"), ("a", "1"), ("b", "1")]
    )
    a, b = lat.index("a"), lat.index("b")
    assert lat.meet(a, b) == lat.index("0")
    assert lat.join(a, b) == lat.index("1")
    assert not lat.leq(a, b) and not lat.leq(b, a)


def test_from_covers_missing_top():
    with pytest.raises(NoBounds):
        Lattice.from_covers("0ab1", [("0", "a"), ("0", "b")])


def test_from_covers_rejects_duplicates_cycles_unknowns():
    with pytest.raises(DuplicateLabel):
        Lattice.from_covers(["x", "x"], [])
    with pytest.raises(CycleDetected):
        Lattice.from_covers("ab", [("a", "b"), ("b", "a")])
    with pytest.raises(UnknownLabel):
        Lattice.from_covers("ab", [("a", "c")])


def test_from_covers_no_unique_bounds():
    # two incomparable "joins" for the pair of atoms
    with pytest.raises(NotALattice):
        Lattice.from_covers(
            "0abcd1",
            [("0", "a"), ("0", "b"), ("a", "c"), ("b", "c"),
             ("a", "d"), ("b", "d"), ("c", "1"), ("d", "1")],
        )


def test_a_pair_lacking_only_a_meet_still_fails():
    # The first pair scanned, (c, d), has the join 1 but no meet; the
    # missing join of (a, b) must still be found.
    with pytest.raises(NotALattice):
        Lattice.from_covers(
            "cdab01",
            [("0", "a"), ("0", "b"), ("a", "c"), ("b", "c"),
             ("a", "d"), ("b", "d"), ("c", "1"), ("d", "1")],
        )


@pytest.mark.parametrize("labels, up", [
    (("a", "b"), (3,)),
    (("a",), (3,)),
    (("a",), (-1,)),
])
def test_up_masks_that_misfit_the_labels_are_bad_input(labels, up):
    with pytest.raises(BadInput):
        Lattice(labels, up)


def test_construction_size_cap():
    labels = [f"e{i}" for i in range(501)]
    covers = [(f"e{i}", f"e{i+1}") for i in range(500)]
    with pytest.raises(SizeCapExceeded):
        Lattice.from_covers(labels, covers)
    # the cap is checked before the covers are read
    with pytest.raises(SizeCapExceeded):
        Lattice.from_covers(labels, [("e0", "nowhere")])


def test_named_sizes_are_capped_before_building():
    with pytest.raises(SizeCapExceeded):
        named("chain", 10**7)
    assert named("div", 30_000_000).n == 128
    with pytest.raises(SizeCapExceeded, match="1152 elements"):
        named("div", 367_567_200)


def test_div_parameter_is_capped_before_trial_division():
    assert named("div", 10**12).n == 169
    for n in (10**16, 10**18 + 9):
        with pytest.raises(SizeCapExceeded, match="parameter cap"):
            named("div", n)


def test_divisor_lattices_match_trial_division():
    for n in range(1, 2001):
        labels, up = divisor_lattice_by_trial_division(n)
        lat = named("div", n)
        assert (lat.labels, lat.up) == (labels, up), n


def test_chains_and_divisor_lattices_match_their_cover_builds():
    cases = [("chain", k) for k in range(1, 41)]
    cases += [("div", n) for n in range(1, 401)] + [("div", 720720),
                                                    ("div", 10**12)]
    for kind, k in cases:
        lat, ref = named(kind, k), named_by_covers(kind, k)
        assert (lat.labels, lat.up, lat.name) == \
            (ref.labels, ref.up, ref.name), (kind, k)


def test_meet_join_on_named_examples():
    c3 = named("chain", 3)
    assert c3.meet(c3.index("m"), c3.index("1")) == c3.index("m")
    b2 = named("B2")
    assert b2.join(b2.index("a"), b2.index("b")) == b2.index("1")
    n5 = named("N5")
    assert n5.meet(n5.index("x"), n5.index("z")) == n5.index("0")


def test_interval():
    c4 = named("chain", 4)
    zero, a, b = c4.index("0"), c4.index("a"), c4.index("b")
    assert c4.interval(zero, b) == (zero, a, b)
    n5 = named("N5")
    y, z, one = n5.index("y"), n5.index("z"), n5.index("1")
    assert set(n5.interval(y, one)) == {y, z, one}
    for lat in (c4, n5):
        assert set(lat.interval(lat.bottom, lat.top)) == set(range(lat.n))
    with pytest.raises(NotComparable):
        n5.interval(n5.index("x"), n5.index("z"))


@pytest.mark.parametrize("a, b", [(-5, -1), (-1, 4), (0, 5), (5, 0)])
def test_an_interval_endpoint_out_of_range_is_an_unknown_label(a, b):
    with pytest.raises(UnknownLabel, match="out of range"):
        named("N5").interval(a, b)


def test_irreducibility():
    c3 = named("chain", 3)
    assert c3.is_meet_irreducible(c3.bottom)
    assert c3.is_join_irreducible(c3.top)
    b2 = named("B2")
    assert not b2.is_meet_irreducible(b2.bottom)
    assert not b2.is_join_irreducible(b2.top)
    m3 = named("M3")
    # exhaustive scan finds a pair of atoms meeting at the bottom
    assert not m3.is_meet_irreducible(m3.bottom)
    assert any(
        m3.meet(u, v) == m3.bottom
        for u in range(m3.n) for v in range(m3.n)
        if u != m3.bottom != v and u != v
    )


def test_irreducibility_from_covers_matches_pair_scan():
    for lat in enumerate_lattices(7) + corpus(7, 25, 12):
        for x in range(lat.n):
            assert lat.is_meet_irreducible(x) == meet_irreducible_by_pairs(lat, x)
            assert lat.is_join_irreducible(x) == join_irreducible_by_pairs(lat, x)


TABLES = ("up", "down", "meet_t", "join_t", "bottom", "top")


def test_dual_is_the_validated_reversed_order(engine_pool):
    for lat in engine_pool:
        dual = lat.dual()
        want = Lattice(lat.labels, lat.down)
        for table in TABLES:
            assert getattr(dual, table) == getattr(want, table), (lat, table)
        assert (dual.labels, dual.name) == (lat.labels, lat.name)
        back = dual.dual()
        for table in TABLES:
            assert getattr(back, table) == getattr(lat, table), (lat, table)


def test_validation_builds_the_tables_of_the_eager_build(engine_pool):
    pool = enumerate_lattices(8) + corpus(7, 100, 12)
    pool += [result for result, *_ in _constructions(engine_pool)]
    for lat in pool:
        want = validated_eagerly(lat.labels, lat.up)
        got = Lattice(lat.labels, lat.up)
        for table in want:
            assert getattr(got, table) == want[table], (lat, table)


def test_validation_builds_no_operation_table():
    lat = named("chain", 400)
    assert "meet_t" not in lat.__dict__ and "join_t" not in lat.__dict__
    assert lat.join(3, 7) == 7 and lat.meet(3, 7) == 3
    assert "meet_t" in lat.__dict__ and "join_t" in lat.__dict__


def test_equality_is_by_value_and_ignores_the_name():
    n5 = named("N5")
    other = Lattice(n5.labels, n5.up, name="other")
    assert n5 == other and hash(n5) == hash(other)
    assert n5 != named("M3")
    assert (n5 == 3) is False
    h = evaluate(parse("hsum(chain(3),chain(4))"))
    assert h == horizontal_sum([named("chain", 3), named("chain", 4)])[0]
    for lat in (n5, h, named("div", 60)):
        assert lat.dual().dual() == lat


def test_the_dual_is_built_once_and_links_back(monkeypatch):
    calls = []
    real = core._op_table
    monkeypatch.setattr(core, "_op_table",
                        lambda masks: calls.append(masks) or real(masks))
    for lat in (named("N5"), named("div", 60),
                evaluate(parse("hsum(chain(3),osum(B2,M3))"))):
        calls.clear()
        dual = lat.dual()
        assert dual.dual() is lat and lat.dual() is dual
        for side in (lat, dual, lat, dual):
            side.meet_t, side.join_t
        assert lat.meet_t is dual.join_t and dual.meet_t is lat.join_t
        assert calls == [lat.up, lat.down] or calls == [lat.down, lat.up]
        for x in range(lat.n):
            lat.is_meet_irreducible(x)
        assert lat.dual() is dual


def test_a_dual_outliving_its_lattice_builds_an_equal_one():
    dual = named("N5").dual()
    gc.collect()
    back = dual.dual()
    assert back == named("N5") and back.name == "N5"
    assert back.dual() is dual and dual.dual() is back


def test_a_lattice_with_its_dual_and_listing_pickles():
    lat = named("N5")
    dual = lat.dual()
    lat.meet_t, all_congruences(lat), all_congruences(dual)
    for x in (lat, dual):
        copy = pickle.loads(pickle.dumps(x))
        assert vars(copy).keys() == vars(x).keys() - {"_dual"}
        assert copy == x and copy.name == x.name
        assert copy.meet_t == x.meet_t and copy.dual().dual() is copy
    con = pickle.loads(pickle.dumps(all_congruences(lat)))
    assert (con.labels, con.name) == (lat.labels, "N5")
    assert con.members == all_congruences(lat).members
    assert con.con01_members() == all_congruences(lat).con01_members()


def test_no_reference_cycle_keeps_a_dropped_lattice():
    # A lattice holds its dual, which refers back to it weakly, and its Con
    # listing, which does not refer to it, so dropping the lattice frees
    # all three at once, with no collector run.
    gc.disable()
    try:
        lat = named("chain", 12)
        con = all_congruences(lat)
        len(con.rows), lat.meet_t, all_congruences(lat.dual())
        refs = [weakref.ref(x) for x in (lat, con, lat.dual())]
        del lat, con
        assert [r() for r in refs] == [None] * 3
    finally:
        gc.enable()


def test_dual_cover_pairs_are_reversed_after_a_cached_read(engine_pool):
    for lat in engine_pool:
        pairs = lat.cover_pairs
        assert sorted(lat.dual().cover_pairs) == sorted(
            (j, i) for i, j in pairs), lat


def test_cover_pairs_match_the_pair_scan(engine_pool):
    # a shuffled index order is no longer a linear extension of the order
    rng = random.Random(18)
    for lat in engine_pool:
        assert lat.cover_pairs == cover_pairs_by_scan(lat), lat
        perm = list(range(lat.n))
        rng.shuffle(perm)
        copy = relabelled(lat, perm)
        assert copy.cover_pairs == cover_pairs_by_scan(copy), lat


def test_named_shapes():
    c4 = named("chain", 4)
    assert c4.labels == ("0", "a", "b", "1")
    assert len(c4.cover_pairs) == 3
    k = named("K")
    assert k.labels == ("0", "m", "n", "p", "q", "1")
    cover_labels = {(k.labels[i], k.labels[j]) for i, j in k.cover_pairs}
    assert cover_labels == {
        ("0", "m"), ("m", "1"), ("0", "n"), ("n", "p"),
        ("0", "q"), ("q", "p"), ("p", "1"),
    }
    d12 = named("div", 12)
    assert d12.labels == ("1", "2", "3", "4", "6", "12")
    assert d12.labels[d12.bottom] == "1"
    assert d12.labels[d12.top] == "12"
    assert d12.meet(d12.index("4"), d12.index("6")) == d12.index("2")
    assert d12.join(d12.index("4"), d12.index("6")) == d12.index("12")


def test_named_errors():
    with pytest.raises(UnknownName):
        named("pentagon")
    with pytest.raises(BadParam):
        named("chain", 0)
    with pytest.raises(BadParam):
        named("div", 0)
    with pytest.raises(BadParam):
        named("M3", 3)


def test_one_element_lattice_is_trivial():
    lat = named("chain", 1)
    assert lat.trivial
    assert lat.bottom == lat.top
    assert named("div", 1).trivial


@pytest.mark.parametrize("name,args", [
    ("chain", (5,)), ("B2", ()), ("M3", ()), ("N5", ()), ("K", ()),
    ("div", (12,)), ("div", (30,)),
])
def test_lattice_axioms_exhaustively(name, args):
    lat = named(name, *args)
    rng = range(lat.n)
    for x, y in itertools.product(rng, rng):
        assert lat.meet(x, y) == lat.meet(y, x)
        assert lat.join(x, y) == lat.join(y, x)
        assert lat.meet(x, lat.join(x, y)) == x
        assert lat.join(x, lat.meet(x, y)) == x
    for x, y, z in itertools.product(rng, rng, rng):
        assert lat.meet(lat.meet(x, y), z) == lat.meet(x, lat.meet(y, z))
        assert lat.join(lat.join(x, y), z) == lat.join(x, lat.join(y, z))
    for x in rng:
        assert lat.meet(x, x) == x == lat.join(x, x)
        assert lat.leq(lat.bottom, x) and lat.leq(x, lat.top)


@pytest.mark.parametrize("name,args", [("N5", ()), ("K", ()), ("div", (12,))])
def test_intervals_are_convex_sublattices(name, args):
    lat = named(name, *args)
    for a in range(lat.n):
        for b in range(lat.n):
            if not lat.leq(a, b):
                continue
            seg = set(lat.interval(a, b))
            for x in seg:
                for y in seg:
                    assert lat.meet(x, y) in seg
                    assert lat.join(x, y) in seg


def test_json_round_trip():
    for lat in (named("N5"), named("K"), named("div", 12)):
        again = Lattice.from_json(lat.to_json())
        assert again.labels == lat.labels
        assert again.up == lat.up
        assert again.to_dict() == lat.to_dict()


@pytest.mark.parametrize("text", [
    "",
    "0 < a < 1",
    "[" * 100_000,
    "[]",
    '{"elements": ["0", "1"]}',
    '{"elements": "01", "covers": [["0", "1"]]}',
    '{"elements": [0, 1], "covers": [[0, 1]]}',
    '{"elements": ["0", "1"], "covers": [["0", "1", "1"]]}',
    '{"elements": ["0", "1"], "covers": [[["0"], "1"]]}',
])
def test_json_outside_the_schema_is_bad_input(text):
    with pytest.raises(BadInput):
        Lattice.from_json(text)


def test_json_covers_are_lexicographic():
    k = named("K")
    covers = k.to_dict()["covers"]
    assert covers == sorted(covers)


def test_unknown_label_lookup():
    with pytest.raises(UnknownLabel):
        named("N5").index("w")
