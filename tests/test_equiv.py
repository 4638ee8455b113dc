import itertools

import pytest

from latkit import (
    Partition,
    are_blocks_convex,
    eq_from_blocks,
    is_congruence,
    named,
)
from latkit.errors import (
    CarrierMismatch,
    EmptySubset,
    OverlappingBlocks,
    UnknownLabel,
)
from oracles import iter_partitions


def test_eq_from_blocks_square():
    b2 = named("B2")
    alpha = eq_from_blocks(b2, [{"0", "a"}, {"b", "1"}])
    assert alpha.render(b2.labels) == "{0,a}{b,1}"
    assert alpha.num_blocks == 2


def test_eq_from_blocks_defaults_to_singletons():
    n5 = named("N5")
    assert eq_from_blocks(n5, []) == Partition.delta(n5.n)
    zeta = eq_from_blocks(n5, [{"y", "z"}])
    assert zeta.render(n5.labels) == "{0}{x}{y,z}{1}"


def test_eq_from_blocks_errors():
    b2 = named("B2")
    with pytest.raises(OverlappingBlocks):
        eq_from_blocks(b2, [{"0", "a"}, {"a", "1"}])
    with pytest.raises(UnknownLabel):
        eq_from_blocks(b2, [{"0", "q"}])


def test_bounds_of_eq():
    c3 = named("chain", 3)
    assert Partition.delta(c3.n).num_blocks == 3
    assert Partition.nabla(c3.n).num_blocks == 1
    for p in iter_partitions(3):
        assert Partition.delta(c3.n).leq(p)
        assert p.leq(Partition.nabla(c3.n))
        assert p.join(Partition.delta(c3.n)) == p
        assert p.meet(Partition.nabla(c3.n)) == p


def test_meet_join_on_square_congruences():
    b2 = named("B2")
    alpha = eq_from_blocks(b2, [{"0", "a"}, {"b", "1"}])
    beta = eq_from_blocks(b2, [{"0", "b"}, {"a", "1"}])
    assert alpha.meet(beta) == Partition.delta(b2.n)
    assert alpha.join(beta) == Partition.nabla(b2.n)


def test_meet_of_pentagon_congruences():
    n5 = named("N5")
    xi = eq_from_blocks(n5, [{"0", "x"}, {"y", "z", "1"}])
    chi = eq_from_blocks(n5, [{"0", "y", "z"}, {"x", "1"}])
    zeta = eq_from_blocks(n5, [{"y", "z"}])
    assert xi.meet(chi) == zeta
    assert zeta.leq(xi) and zeta.leq(chi)


def test_carrier_mismatch():
    with pytest.raises(CarrierMismatch):
        Partition.delta(3).join(Partition.delta(4))
    with pytest.raises(CarrierMismatch):
        is_congruence(named("B2"), Partition.delta(3))


def test_is_congruence():
    n5 = named("N5")
    assert is_congruence(n5, eq_from_blocks(n5, [{"y", "z"}]))
    # closure forces more identifications than just x ~ y
    assert not is_congruence(n5, eq_from_blocks(n5, [{"x", "y"}]))
    for lat in (named("B2"), named("M3"), n5):
        assert is_congruence(lat, Partition.delta(lat.n))
        assert is_congruence(lat, Partition.nabla(lat.n))


def test_restrict():
    n5 = named("N5")
    h = Partition.nabla(n5.n)
    assert h.restrict([0, 1, 4]) == Partition.nabla(3)
    assert Partition.delta(n5.n).restrict([1, 2, 3]) == Partition.delta(3)
    zeta = eq_from_blocks(n5, [{"y", "z"}])
    assert zeta.restrict([n5.index("y"), n5.index("z")]) == Partition.nabla(2)
    with pytest.raises(EmptySubset):
        h.restrict([])


@pytest.mark.parametrize("query, args", [
    ("restrict", ([-1, 0],)), ("restrict", ([7],)), ("same", (-1, 3)),
    ("same", (7, 0)), ("block", (-4,)), ("singleton", (-1,)),
    ("singleton", (9,)),
])
def test_restrict_refuses_an_index_outside_the_carrier(query, args):
    # -1 would read element 3 from the end, and 7 lies past the carrier;
    # restrict, same, block and singleton share one range check
    p = Partition.from_blocks(4, [[0, 1]])
    with pytest.raises(UnknownLabel, match="out of range"):
        getattr(p, query)(*args)


def test_blocks_convex():
    n5 = named("N5")
    assert not are_blocks_convex(n5, eq_from_blocks(n5, [{"0", "z"}]))
    c4 = named("chain", 4)
    assert not are_blocks_convex(c4, eq_from_blocks(c4, [{"0", "b"}]))
    assert are_blocks_convex(n5, eq_from_blocks(n5, [{"y", "z"}]))


def test_congruence_blocks_are_convex_sublattices():
    for lat in (named("B2"), named("M3"), named("N5"), named("K")):
        for p in iter_partitions(lat.n):
            if is_congruence(lat, p):
                assert are_blocks_convex(lat, p)


def test_congruences_closed_under_meet_and_join():
    for lat in (named("N5"), named("K"), named("div", 6)):
        cons = [p for p in iter_partitions(lat.n) if is_congruence(lat, p)]
        for p, q in itertools.combinations(cons, 2):
            assert is_congruence(lat, p.join(q))
            assert is_congruence(lat, p.meet(q))


def test_eq_lattice_laws_exhaustively():
    parts = list(iter_partitions(4))
    for p in parts:
        assert p.join(p) == p
        assert p.meet(p) == p
    for p, q in itertools.combinations(parts, 2):
        assert p.join(q) == q.join(p)
        assert p.meet(q) == q.meet(p)
        assert p.join(p.meet(q)) == p
        assert p.meet(p.join(q)) == p
        # order agrees with the operations
        assert p.leq(q) == (p.join(q) == q)
        assert p.leq(q) == (p.meet(q) == p)
    for p, q, r in itertools.islice(itertools.combinations(parts, 3), 200):
        assert p.join(q).join(r) == p.join(q.join(r))
        assert p.meet(q).meet(r) == p.meet(q.meet(r))


def test_canonical_form_is_listing_invariant():
    b2 = named("B2")
    one = eq_from_blocks(b2, [{"0", "a"}, {"b", "1"}])
    two = eq_from_blocks(b2, [{"1", "b"}, {"a", "0"}])
    three = Partition.from_blocks(4, [[3, 2], [1, 0]])
    assert one == two == three
    assert len({one, two, three}) == 1


def test_render_uses_carrier_order():
    b2 = named("B2")
    p = eq_from_blocks(b2, [{"b", "1"}, {"0", "a"}])
    assert p.render(b2.labels) == "{0,a}{b,1}"
    q = Partition.from_blocks(5, [[4, 2], [3, 1]])
    assert q.blocks() == [[0], [1, 3], [2, 4]]
    assert q.render("vwxyz") == "{v}{w,y}{x,z}"
