import itertools
import pickle
import random
import weakref
from functools import reduce
from math import prod

import pytest

from latkit import (
    Lattice,
    Partition,
    all_congruences,
    con_summary,
    congruence_generated,
    corpus,
    enumerate_lattices,
    eq_from_blocks,
    is_simple,
    is_subdirectly_irreducible,
    isomorphic,
    mu_con01,
    named,
    prime_congruences,
    principal_congruence,
    quotient,
)
from latkit.construct import dilate, horizontal_sum
from latkit import congruence, core
from latkit.congruence import DEFAULT_MEMBER_CAP
from latkit.expr import evaluate, parse
from latkit.errors import NotACongruence, SizeCapExceeded, UnknownLabel
from latkit.dot import con_dot
from latkit.equiv import block_renderer
from oracles import (
    closed_sets_by_definition,
    closures_by_join_table,
    coatoms_by_order,
    con_lattice_by_partitions,
    cover_principals,
    congruences_by_exhaustion,
    covers_by_order,
    join_closure,
    prime_congruences_by_scan,
    principal_by_worklist,
    relabelled,
)


def test_principal_congruence_pentagon():
    n5 = named("N5")
    zeta = eq_from_blocks(n5, [{"y", "z"}])
    assert principal_congruence(n5, n5.index("y"), n5.index("z")) == zeta


@pytest.mark.parametrize("a, b", [(-1, 0), (5, 0), (0, 5), (0, -5)])
def test_a_principal_congruence_of_an_index_out_of_range_is_refused(a, b):
    n5 = named("N5")
    with pytest.raises(UnknownLabel, match="out of range"):
        principal_congruence(n5, a, b)
    with pytest.raises(UnknownLabel, match="out of range"):
        congruence_generated(n5, iter([(0, 4), (a, b)]))


def test_principal_congruence_bounds_collapse_everything():
    for lat in (named("B2"), named("N5"), named("div", 12)):
        assert principal_congruence(lat, lat.bottom, lat.top) == Partition.nabla(lat.n)


def test_principal_congruence_diamond():
    m3 = named("M3")
    assert principal_congruence(m3, m3.index("u"), m3.index("v")) == Partition.nabla(m3.n)


def test_principal_congruence_is_minimal():
    for lat in (named("N5"), named("K"), named("div", 6)):
        cons = congruences_by_exhaustion(lat)
        for a in range(lat.n):
            for b in range(a + 1, lat.n):
                cg = principal_congruence(lat, a, b)
                assert cg in cons
                for theta in cons:
                    if theta.same(a, b):
                        assert cg.leq(theta)


def test_congruence_generated():
    n5 = named("N5")
    assert congruence_generated(n5, []) == Partition.delta(n5.n)
    xi = eq_from_blocks(n5, [{"0", "x"}, {"y", "z", "1"}])
    assert congruence_generated(n5, [(n5.index("0"), n5.index("x"))]) == xi
    b2 = named("B2")
    alpha = eq_from_blocks(b2, [{"0", "a"}, {"b", "1"}])
    assert congruence_generated(b2, [(b2.index("0"), b2.index("a"))]) == alpha


def test_congruence_generated_matches_join_of_principals():
    rng = random.Random(5)
    for lat in corpus(5, 6, 7):
        pairs = [
            (rng.randrange(lat.n), rng.randrange(lat.n)) for _ in range(3)
        ]
        joined = Partition.delta(lat.n)
        for a, b in pairs:
            joined = joined.join(principal_congruence(lat, a, b))
        assert congruence_generated(lat, pairs) == joined


def test_all_congruences_of_the_named_examples():
    b2 = named("B2")
    assert {m.render(b2.labels) for m in all_congruences(b2).members} == {
        "{0}{a}{b}{1}", "{0,a}{b,1}", "{0,b}{a,1}", "{0,a,b,1}",
    }
    m3 = named("M3")
    assert len(all_congruences(m3).members) == 2
    n5 = named("N5")
    assert {m.render(n5.labels) for m in all_congruences(n5).members} == {
        "{0}{x}{y}{z}{1}", "{0}{x}{y,z}{1}", "{0,x}{y,z,1}",
        "{0,y,z}{x,1}", "{0,x,y,z,1}",
    }
    k = named("K")
    members = all_congruences(k).members
    assert [m.render(k.labels) for m in members] == [
        "{0}{m}{n}{p}{q}{1}", "{0,n,p,q}{m,1}", "{0,m,n,p,q,1}",
    ]
    # a three-element chain in the refinement order
    assert members[0].leq(members[1]) and members[1].leq(members[2])


def test_all_congruences_matches_exhaustion_on_small_lattices():
    pool = [lat for lat in corpus(11, 10, 6) if lat.n <= 6]
    assert len(pool) >= 8
    for lat in pool:
        computed = set(all_congruences(lat).members)
        assert computed == congruences_by_exhaustion(lat)


def test_all_congruences_members_are_join_and_meet_closed():
    for lat in (named("N5"), named("K"), named("div", 12)):
        con = all_congruences(lat)
        ms = set(con.members)
        for p, q in itertools.combinations(ms, 2):
            assert p.join(q) in ms
            assert p.meet(q) in ms


def test_all_congruences_cap():
    with pytest.raises(SizeCapExceeded,
                       match="^61 elements exceeds congruence cap 60$"):
        all_congruences(named("chain", 61))


def coatom_members(lat):
    con = all_congruences(lat)
    return [con.members[i] for i in con.coatoms()]


def maximal_primes(lat):
    """The refinement-maximal prime congruences: in the distributive Con(L)
    these are its coatoms, read without listing Con(L)."""
    primes = prime_congruences(lat)
    return [p for p in primes
            if not any(p != q and p.leq(q) for q in primes)]


def test_con01():
    b2 = named("B2")
    assert all_congruences(b2).con01_members() == [Partition.delta(b2.n)]
    n5 = named("N5")
    zeta = eq_from_blocks(n5, [{"y", "z"}])
    assert set(all_congruences(n5).con01_members()) == {Partition.delta(n5.n), zeta}
    k = named("K")
    assert mu_con01(k) == Partition.delta(k.n)
    assert mu_con01(n5) == zeta


def test_con01_is_the_interval_below_mu():
    for lat in corpus(3, 8, 8):
        con = all_congruences(lat)
        mu = mu_con01(lat)
        sel = set(con.con01_members())
        assert mu in sel
        assert sel == {m for m in con.members if m.leq(mu)}


def test_con01_members_have_three_blocks_when_nontrivial():
    for lat in corpus(4, 8, 8):
        if lat.n <= 2:
            continue
        for m in all_congruences(lat).con01_members():
            assert m.num_blocks >= 3


def test_maximal_congruences():
    b2 = named("B2")
    alpha = eq_from_blocks(b2, [{"0", "a"}, {"b", "1"}])
    beta = eq_from_blocks(b2, [{"0", "b"}, {"a", "1"}])
    assert set(coatom_members(b2)) == set(maximal_primes(b2)) == {alpha, beta}


def test_maximal_congruences_are_prime():
    for lat in (named("B2"), named("M3"), named("N5"), named("K"),
                named("div", 12)):
        primes = set(prime_congruences(lat))
        for m in coatom_members(lat):
            assert m in primes


def test_maximal_primes_are_the_coatoms(engine_pool):
    # the pool holds the census up to 8 and a random corpus up to 12
    for lat in engine_pool:
        assert set(maximal_primes(lat)) == set(coatom_members(lat)), lat


def test_identity_not_prime_on_the_three_chain():
    c3 = named("chain", 3)
    lower = eq_from_blocks(c3, [{"0", "m"}])
    upper = eq_from_blocks(c3, [{"m", "1"}])
    d = Partition.delta(c3.n)
    assert d == lower.meet(upper)
    assert not lower.leq(d) and not upper.leq(d)
    assert d not in prime_congruences(c3)


def test_prime_congruences_match_the_meet_table_scan(engine_pool):
    for lat in engine_pool:
        assert prime_congruences(lat) == \
            prime_congruences_by_scan(all_congruences(lat)), lat


def test_prime_congruences_past_two_hundred_members():
    # Con(chain(n)) is the Boolean lattice on its n - 1 covers, whose
    # primes are its n - 1 coatoms; |Con| is 256 and 2,048 here.
    for n in (9, 12):
        chain = named("chain", n)
        primes = prime_congruences(chain)
        assert len(primes) == n - 1
        assert primes == coatom_members(chain)


def test_prime_congruences_past_the_member_cap():
    # Con(chain(30)) has 2^29 members, too many to list; its primes are
    # the 29 partitions that split the chain at one cover, and all are
    # coatoms.
    chain = named("chain", 30)
    with pytest.raises(SizeCapExceeded):
        all_congruences(chain)
    primes = prime_congruences(chain)
    assert [p.blocks() for p in primes] == [
        [list(range(k)), list(range(k, 30))] for k in range(29, 0, -1)]
    assert maximal_primes(chain) == primes


def test_quotient():
    n5 = named("N5")
    xi = eq_from_blocks(n5, [{"0", "x"}, {"y", "z", "1"}])
    q, proj = quotient(n5, xi)
    assert q.n == 2
    assert proj[n5.index("0")] == proj[n5.index("x")]

    q, proj = quotient(n5, Partition.delta(n5.n))
    assert isomorphic(q, n5) is not None

    zeta = eq_from_blocks(n5, [{"y", "z"}])
    q, proj = quotient(n5, zeta)
    assert q.n == 4
    assert isomorphic(q, named("B2")) is not None


def test_quotient_projection_preserves_operations():
    for lat in (named("N5"), named("K"), named("div", 12),
                *enumerate_lattices(6)):
        for theta in all_congruences(lat).members:
            q, proj = quotient(lat, theta)
            for x in range(lat.n):
                for y in range(lat.n):
                    assert proj[lat.meet(x, y)] == q.meet(proj[x], proj[y])
                    assert proj[lat.join(x, y)] == q.join(proj[x], proj[y])


def test_quotient_primes_a_block_label_that_another_label_holds():
    # a brace label that a singleton's label holds, and two brace labels
    # that are the same text
    lat = Lattice.from_covers(["0", "x", "{0,x}"],
                              [("0", "x"), ("x", "{0,x}")])
    q, proj = quotient(lat, eq_from_blocks(lat, [{"0", "x"}]))
    assert q.labels == ("{0,x}'", "{0,x}") and proj == (0, 0, 1)
    lat = Lattice.from_covers(["a", "b,c", "a,b", "c"],
                              [("a", "b,c"), ("b,c", "a,b"), ("a,b", "c")])
    q, _ = quotient(lat, eq_from_blocks(lat, [{"a", "b,c"}, {"a,b", "c"}]))
    assert q.labels == ("{a,b,c}", "{a,b,c}'")
    # labels without a collision are kept
    n5 = named("N5")
    q, _ = quotient(n5, eq_from_blocks(n5, [{"y", "z"}]))
    assert q.labels == ("0", "x", "{y,z}", "1")


def test_quotient_rejects_non_congruence():
    n5 = named("N5")
    with pytest.raises(NotACongruence):
        quotient(n5, eq_from_blocks(n5, [{"x", "y"}]))


def test_two_class_congruences():
    def two_class(lat):
        return [m for m in all_congruences(lat).members if m.num_blocks == 2]

    assert two_class(named("M3")) == []
    b2 = named("B2")
    assert len(two_class(b2)) == 2
    k = named("K")
    mu = eq_from_blocks(k, [{"m", "1"}, {"0", "n", "p", "q"}])
    assert two_class(k) == [mu]


def test_is_simple():
    assert is_simple(named("M3"))
    assert not is_simple(named("chain", 3))
    d4, _ = dilate(named("chain", 4))
    assert is_simple(d4)
    assert not is_simple(named("chain", 1))
    assert is_simple(named("chain", 2))


def test_is_simple_agrees_with_enumeration():
    for lat in corpus(9, 10, 8):
        members = all_congruences(lat).members
        assert is_simple(lat) == (len(members) == 2 and lat.n >= 2)


def test_subdirect_irreducibility():
    for name in ("M3", "N5", "K"):
        flag, monolith = is_subdirectly_irreducible(named(name))
        assert flag
        assert monolith is not None and monolith != Partition.delta(named(name).n)
    flag, monolith = is_subdirectly_irreducible(named("B2"))
    assert not flag and monolith is None
    # simple lattices are subdirectly irreducible with the full monolith
    m3 = named("M3")
    assert is_subdirectly_irreducible(m3) == (True, Partition.nabla(m3.n))
    n5 = named("N5")
    assert is_subdirectly_irreducible(n5)[1] == eq_from_blocks(n5, [{"y", "z"}])


def test_members_canonical_order():
    for lat in (named("N5"), named("div", 12)):
        con = all_congruences(lat)
        keys = [(-m.num_blocks, m.block_of) for m in con.members]
        assert keys == sorted(keys)
        assert con.members[0] == Partition.delta(lat.n)
        assert con.members[len(con) - 1] == Partition.nabla(lat.n)


def test_member_count_guard():
    with pytest.raises(SizeCapExceeded):
        all_congruences(named("chain", 19))


def test_every_member_is_a_join_of_its_principal_congruences():
    for lat in (named("N5"), named("K"), named("B2"), named("div", 12)):
        for theta in all_congruences(lat).members:
            rebuilt = Partition.delta(lat.n)
            for a in range(lat.n):
                for b in range(a + 1, lat.n):
                    if theta.same(a, b):
                        rebuilt = rebuilt.join(principal_congruence(lat, a, b))
            assert rebuilt == theta


def test_engine_matches_the_partition_oracles(engine_pool):
    for lat in engine_pool:
        want = con_lattice_by_partitions(lat)
        con = all_congruences(lat)
        assert list(con.members) == want["members"], lat
        assert con.order == want["order"], lat
        assert con.coatoms() == want["coatoms"], lat
        assert con.con01_members() == \
            [want["members"][i] for i in want["con01"]], lat
        assert is_simple(lat) == want["simple"], lat
        assert is_subdirectly_irreducible(lat) == want["si"], lat
        got = con_summary(lat)
        assert got.size == len(want["members"]), lat
        assert got.size01 == len(want["con01"]), lat
        assert got.simple == want["simple"], lat
        assert (got.monolith is not None, got.monolith) == want["si"], lat
        assert mu_con01(lat) == want["mu"], lat
        assert all(con.leq(i, j) == bool(row >> j & 1)
                   for i, row in enumerate(con.order)
                   for j in range(len(con))), lat


def test_principal_congruences_match_the_worklist_closure():
    for lat in enumerate_lattices(6):
        for a in range(lat.n):
            for b in range(lat.n):
                assert principal_congruence(lat, a, b) == \
                    principal_by_worklist(lat, a, b), (lat, a, b)


def test_closed_sets_of_the_dependency_relation_count_con(engine_pool):
    for lat in engine_pool:
        assert closed_sets_by_definition(lat) == len(all_congruences(lat)), lat


def test_covers_and_coatoms_match_the_order_scans(engine_pool):
    for lat in engine_pool:
        con = all_congruences(lat)
        assert sorted(con.covers()) == covers_by_order(con), lat
        assert con.coatoms() == coatoms_by_order(con), lat


def test_con_dot_edges_match_the_order_scan():
    for lat in enumerate_lattices(7):
        con = all_congruences(lat)
        names = [m.render(lat.labels) for m in con.members]
        edges = {line for line in con_dot(con).splitlines() if " -> " in line}
        assert edges == {f'  "{names[i]}" -> "{names[j]}";'
                         for i, j in covers_by_order(con)}, lat


def test_closure_reads_match_the_listing(engine_pool):
    # |Con|, |Con01|, mu, the monolith and simplicity read off the closures,
    # against the listed members with the bounds' classes and the meets and
    # joins of Partition.
    for lat in engine_pool:
        con = all_congruences(lat)
        ms = list(con.members)
        sel = [m for m in ms if m.singleton(lat.bottom) and m.singleton(lat.top)]
        delta_, nabla_ = Partition.delta(lat.n), Partition.nabla(lat.n)
        proper = [m for m in ms if m != delta_]
        mono = reduce(Partition.meet, proper) if proper else delta_
        got = con_summary(lat)
        assert got.size == len(ms) == len(con), lat
        assert got.size01 == len(sel), lat
        assert con.con01_members() == sel, lat
        mu = reduce(Partition.join, sel, delta_)
        assert mu_con01(lat) == mu, lat
        assert got.monolith == is_subdirectly_irreducible(lat)[1] == \
            (None if mono == delta_ else mono), lat
        assert got.simple == is_simple(lat) == (ms == [delta_, nabla_] and
                                                 lat.n >= 2), lat


def test_closure_reads_past_the_member_cap():
    # Con(chain(n)) is Boolean on the n - 1 covers, and con01 is Boolean on
    # the n - 3 covers that touch neither bound.
    for n in (30, 60):
        got = con_summary(named("chain", n))
        assert (got.size, got.size01) == (2 ** (n - 1), 2 ** (n - 3))
        assert not got.simple and got.monolith is None
        with pytest.raises(SizeCapExceeded, match="more than 200000"):
            all_congruences(named("chain", n))


def test_the_closure_readers_answer_past_the_listing_cap():
    # chain(n): Con is Boolean on the n - 1 covers, con01 on the n - 3
    # covers that touch neither bound, and the primes split at one cover.
    n = 500
    chain = named("chain", n)
    assert con_summary(chain) == (2 ** (n - 1), 2 ** (n - 3), False, None)
    assert not is_simple(chain)
    assert is_subdirectly_irreducible(chain) == (False, None)
    assert mu_con01(chain) == Partition.from_blocks(
        n, [[0], list(range(1, n - 1)), [n - 1]])
    assert prime_congruences(chain) == [
        Partition.from_blocks(n, [list(range(k)), list(range(k, n))])
        for k in range(n - 1, 0, -1)]


def test_the_closure_readers_answer_on_a_500_element_sum():
    # H = hsum(chain(a), chain(b)): con01(H) is con01(A) x con01(B), and
    # Con(H) adds the two two-class congruences and the full relation. Its
    # primes are those two and, below them, each interior split at one
    # cover with the other interior kept whole.
    a, b = 250, 252
    H, (e_a, e_b) = horizontal_sum([named("chain", a), named("chain", b)])
    assert H.n == 500
    assert con_summary(H) == (2 ** (a - 3 + b - 3) + 3, 2 ** (a - 3 + b - 3),
                              False, None)
    assert not is_simple(H)
    assert is_subdirectly_irreducible(H) == (False, None)
    inner_a = [e_a[i] for i in range(1, a - 1)]
    inner_b = [e_b[i] for i in range(1, b - 1)]
    assert mu_con01(H) == Partition.from_blocks(
        H.n, [[H.bottom], inner_a, inner_b, [H.top]])
    taus = [Partition.from_blocks(H.n, [[H.bottom, *inner_b],
                                        [*inner_a, H.top]]),
            Partition.from_blocks(H.n, [[H.bottom, *inner_a],
                                        [*inner_b, H.top]])]
    splits = [Partition.from_blocks(
        H.n, [[H.bottom], inner[:k], inner[k:], other, [H.top]])
        for inner, other in ((inner_a, inner_b), (inner_b, inner_a))
        for k in range(1, len(inner))]
    assert len(splits) == (a - 3) + (b - 3)
    assert prime_congruences(H) == sorted(
        taus + splits, key=lambda p: (-p.num_blocks, p.block_of))


def test_a_482_element_sum_of_boolean_squares_is_simple():
    # con01(B2) is the identity alone, so a sum of three or more copies
    # has only the identity and the full relation
    H, _ = horizontal_sum([named("B2")] * 240)
    assert H.n == 482
    assert is_simple(H)
    assert con_summary(H) == (2, 1, True, Partition.nabla(H.n))
    assert is_subdirectly_irreducible(H) == (True, Partition.nabla(H.n))
    assert mu_con01(H) == Partition.delta(H.n)
    assert prime_congruences(H) == [Partition.delta(H.n)]


def test_the_closed_set_count_is_bounded(monkeypatch):
    # The count stops at DEFAULT_MEMBER_CAP memoised states; div(12) needs
    # one state per D*-class and one more for their product.
    monkeypatch.setattr(congruence, "DEFAULT_MEMBER_CAP", 3)
    assert con_summary(named("K")).size == 3
    with pytest.raises(SizeCapExceeded, match="states"):
        con_summary(named("div", 12))


def test_the_listing_is_refused_on_the_count(monkeypatch):
    # Past 2^17 classes' worth of members the closed sets are counted, and
    # a count above the cap refuses the listing; below it nothing is counted.
    counted = []

    def count(closure, free):
        counted.append(free)
        return congruence.DEFAULT_MEMBER_CAP + 1

    monkeypatch.setattr(congruence, "_count_closed", count)
    with pytest.raises(SizeCapExceeded, match="more than 200000 congruences"):
        all_congruences(named("chain", 19))
    assert counted == [2 ** 18 - 1]
    assert len(all_congruences(named("div", 12))) == 8
    assert counted == [2 ** 18 - 1]


def test_members_are_built_on_first_use():
    # Counting Con(L) keys no row; listing it, its DOT and its rendered
    # block maps build no Partition.
    lat = named("chain", 10)
    con = all_congruences(lat)
    assert len(con) == 512
    assert "rows" not in con.__dict__
    assert "members" not in con.__dict__
    con_dot(con)
    assert "members" not in con.__dict__
    list(map(block_renderer(lat.labels), con.block_maps))
    assert "members" not in con.__dict__
    assert type(con.members) is tuple and len(con.members) == len(con) == 512
    assert [p.block_of for p in con.members] == list(con.block_maps)
    assert con.members[-1] == Partition.nabla(lat.n)
    assert con.index_of(con.members[7]) == 7


def test_index_of_refuses_a_partition_that_is_no_member():
    con = all_congruences(named("N5"))
    for p in (Partition.from_blocks(5, [[0, 1]]), Partition.delta(4)):
        with pytest.raises(NotACongruence, match="not a member"):
            con.index_of(p)
    assert con.index_of(Partition.delta(5)) == 0


def _fresh(lat, name):
    """A new lattice with the order of lat, under this name."""
    return Lattice(lat.labels, lat.up, name=name)


def _both_ways(monkeypatch, lat):
    """Con(lat) keyed and rendered one member at a time (no listing
    reaches DEFAULT_MEMBER_CAP members per element), then lane-wise: the
    rows, lines and DOT of each. Each is listed from a fresh lattice,
    since a lattice keeps its listing."""
    out, cons = [], []
    for per_element in (DEFAULT_MEMBER_CAP, 0):
        monkeypatch.setattr(congruence, "_LANES_PER_ELEMENT", per_element)
        con = all_congruences(_fresh(lat, lat.name))
        lines = [line for chunk in con.line_chunks() for line in chunk]
        out.append((con.rows, lines, con_dot(con)))
        cons.append(con)
    assert cons[0] is not cons[1]
    return out


def test_the_lane_wise_listing_matches_the_member_wise_one(monkeypatch):
    # Every census class up to 8, as enumerated (the index order is a
    # linear extension) and reindexed so that it is not one, as ihsum, D
    # and file(...) give: there a block's least index need not be its
    # bottom, and a block need not be a run of indices.
    rng = random.Random(17)
    for lat in enumerate_lattices(8):
        backwards = range(lat.n - 1, -1, -1)
        shuffled = rng.sample(range(lat.n), lat.n)
        for copy in (lat, relabelled(lat, backwards),
                     relabelled(lat, shuffled)):
            by_member, by_lanes = _both_ways(monkeypatch, copy)
            assert by_lanes == by_member, copy.labels
            assert all_congruences(copy).block_maps == tuple(
                p.block_of for p in join_closure(copy.n, cover_principals(copy)))


def test_the_two_keyings_agree_row_for_row(monkeypatch):
    # On the same members in a shuffled order, and in lines past one
    # render chunk (chain(14) has 8,192 members).
    rng = random.Random(5)
    for expr in ("hsum(chain(6),N5,chain(5))", 'ihsum(chain(12),"m3","m7",M3)',
                 "D(hsum(chain(3),chain(4)))", "chain(14)"):
        lat = evaluate(parse(expr))
        jbelow, closure = congruence._dependency(lat)
        masks = list(all_congruences(lat).masks)
        rng.shuffle(masks)
        assert congruence._rows_by_lanes(jbelow, closure, masks) == \
            congruence._rows_by_member(jbelow, closure, masks), expr
        by_member, by_lanes = _both_ways(monkeypatch, lat)
        assert by_lanes == by_member, expr


def test_a_listing_is_rendered_a_chunk_at_a_time():
    chunks = list(all_congruences(named("chain", 14)).line_chunks())
    assert [len(c) for c in chunks] == [congruence._CHUNK] * 2
    # below the lane threshold, the whole listing is one list
    assert [len(c) for c in all_congruences(named("N5")).line_chunks()] == [5]


def test_lines_split_at_none_of_the_notation_characters():
    # a label holding U+000A to U+002B leaves ",", the first character
    # past them, as the first one in no label
    chain = named("chain", 6)
    labels = (chain.labels[0], "".join(map(chr, range(10, 44))),
              *chain.labels[2:])
    con = all_congruences(Lattice(labels, chain.up))
    assert congruence._by_lanes(len(con), chain.n)
    lines = [line for chunk in con.line_chunks() for line in chunk]
    assert lines == list(map(block_renderer(labels), con.block_maps))
    assert len(lines) == 32


def test_lines_keep_labels_that_hold_braces_commas_and_newlines(monkeypatch):
    lat = Lattice.from_covers(["0", "a\nb", "{,}", "1\n"],
                              [("0", "a\nb"), ("0", "{,}"), ("a\nb", "1\n"),
                               ("{,}", "1\n")])
    by_member, by_lanes = _both_ways(monkeypatch, lat)
    assert by_lanes == by_member
    assert by_member[1][0] == "{0}{a\nb}{{,}}{1\n}"


# Labels of unequal byte width in UTF-8: an empty one, a NUL, a newline,
# two-byte, four-byte and U+00FF characters, one of 30 characters, and a
# lone surrogate, which `Lattice` takes though a lattice file may not.
ODD_LABELS = ["", "\0", "x\ny", "é", "😀", "ÿ", "ab😀cde" * 5, "\ud800"]


def _odd_labels(n, shift):
    """n distinct labels cycling through ODD_LABELS from `shift`, a prime
    added each time round."""
    k = len(ODD_LABELS)
    return [ODD_LABELS[(i + shift) % k] + "′" * (i // k) for i in range(n)]


def test_the_lane_wise_listing_keeps_labels_of_any_byte_width(monkeypatch):
    lats = list(enumerate_lattices(7))
    lats.append(named("chain", 14))  # 8,192 members, two render chunks
    for shift, lat in enumerate(lats):
        copy = Lattice(_odd_labels(lat.n, shift), lat.up)
        by_member, by_lanes = _both_ways(monkeypatch, copy)
        assert by_lanes == by_member, copy.labels
    lines = by_member[1]
    assert len(lines) == 2 * congruence._CHUNK
    assert lines[0] == "".join("{%s}" % lab for lab in copy.labels)
    assert lines[-1] == "{" + ",".join(copy.labels) + "}"


def test_the_listing_cap_fits_its_lanes():
    # The listing's 8-bit lanes and bytes rows hold element indices, block
    # counts and positions below 128, and a mask over at most n - 1
    # join-irreducibles in _WIDTH bytes.
    assert congruence.DEFAULT_CON_CAP < 128
    assert congruence.DEFAULT_CON_CAP - 1 <= 8 * congruence._WIDTH


def test_the_closure_readers_build_no_operation_table(monkeypatch):
    def no_table(masks):
        raise AssertionError("built an operation table")

    monkeypatch.setattr(core, "_op_table", no_table)
    lat = named("div", 720720)
    # distributive, with one D*-class per prime power dividing
    # 720720 = 2^4 * 3^2 * 5 * 7 * 11 * 13; μ collapses 4 and 8 with their
    # lower covers, since a prime would join the 0-class and 16 or 9 the
    # 1-class
    assert con_summary(lat) == (1 << 10, 1 << 2, False, None)
    assert not is_simple(lat)
    assert len(prime_congruences(lat)) == 10
    with pytest.raises(SizeCapExceeded):
        all_congruences(lat)
    assert len(all_congruences(named("div", 720))) == 1 << 7
    assert "meet_t" not in lat.__dict__ and "join_t" not in lat.__dict__


def test_the_closures_match_the_join_table_reading():
    pool = corpus(7, 100, 20)
    built = [horizontal_sum([a, b])[0] for a, b in zip(pool, pool[1:])]
    built += [dilate(lat)[0] for lat in pool]
    big = [lat for lat in built if lat.n <= 60]
    assert len(big) > 150 and max(lat.n for lat in big) > 50
    for lat in [*enumerate_lattices(8), *pool, *big]:
        for side in (lat, lat.dual()):
            assert congruence._closures(side) == closures_by_join_table(side)


@pytest.mark.parametrize("k", [720720, 2**11 * 3**7, 12252240,
                               2**17 * 3**8 * 5**2, 2**39])
def test_con_of_a_divisor_lattice_past_the_brute_force_range(k):
    # div(k) is distributive, so Con is Boolean on J, the prime powers
    # dividing k. μ drops each prime p, an atom, and each p^e exactly
    # dividing k, which alone is missing below the coatom k/p
    exponents, p, rest = [], 2, k
    while rest > 1:
        e = 0
        while rest % p == 0:
            rest //= p
            e += 1
        if e:
            exponents.append(e)
        p += 1
    lat = named("div", k)
    summary = con_summary(lat)
    assert lat.n == prod(e + 1 for e in exponents) <= core.SIZE_CAP
    assert summary.size == 2 ** sum(exponents)
    assert summary.size01 == 2 ** sum(max(e - 2, 0) for e in exponents)


def test_the_dependency_is_computed_once_per_lattice(monkeypatch):
    closures = congruence._closures
    seen = []

    def counted(lat):
        seen.append(lat)
        return closures(lat)

    monkeypatch.setattr(congruence, "_closures", counted)
    lat = named("N5")
    dep = congruence._dependency(lat)
    for read in (all_congruences, con_summary, is_simple, prime_congruences,
                 mu_con01, is_subdirectly_irreducible):
        read(lat)
    assert seen == [lat] and congruence._dependency(lat) is dep
    # the dual, under the reversed order, computes its own
    dual = lat.dual()
    assert congruence._dependency(dual) == closures(Lattice(lat.labels, lat.down))
    assert seen == [lat, dual]


def test_a_lattice_keeps_its_listing():
    lat = named("chain", 6)
    con = all_congruences(lat)
    assert all_congruences(lat) is con
    assert (con.labels, con.name) == (lat.labels, lat.name)
    assert all_congruences(lat.dual()) is not con
    assert con_dot(all_congruences(named("N5"))).startswith('digraph "Con(N5)"')


def test_a_refusal_is_not_kept(monkeypatch):
    lat = named("chain", 8)  # 128 congruences
    monkeypatch.setattr(congruence, "DEFAULT_MEMBER_CAP", 100)
    with pytest.raises(SizeCapExceeded):
        all_congruences(lat)
    monkeypatch.undo()
    assert len(all_congruences(lat)) == 128


def _outliving(lat):
    """The listing of lat, once lat itself is gone."""
    con = all_congruences(lat)
    gone = weakref.ref(lat)
    del lat
    assert gone() is None
    return con


def test_a_listing_outliving_its_lattice_reads_as_a_fresh_one():
    con = _outliving(_fresh(named("N5"), "P"))
    fresh = all_congruences(_fresh(named("N5"), "P"))
    assert con is not fresh
    assert (con.labels, con.name) == (fresh.labels, "P")
    assert con.members == fresh.members
    assert con.con01_members() == fresh.con01_members()
    assert con_dot(con) == con_dot(fresh)
    assert con_dot(con).startswith('digraph "Con(P)" {')


def test_no_attribute_of_a_listing_is_a_lattice():
    for args in (("N5",), ("chain", 6)):  # keyed member- and lane-wise
        con = _outliving(named(*args))
        con.order, con.covers(), con.coatoms(), con.con01_members()
        con.index_of(con.members[0]), list(con.line_chunks()), con_dot(con)
        held = {k: type(v) for k, v in vars(con).items()}
        assert Lattice not in held.values(), held
        assert not {"_up", "_top"} & held.keys(), held


def test_a_listing_reads_mu_once(monkeypatch):
    for args in (("N5",), ("chain", 6), ("K",)):
        lat = named(*args)
        con = all_congruences(lat)

        def mu_again(*_):
            raise AssertionError("mu computed again")

        monkeypatch.setattr(congruence, "_mu", mu_again)
        got = con.con01()
        monkeypatch.undo()
        assert got == all_congruences(_fresh(lat, "Q")).con01()


def test_a_listing_whose_lattice_is_gone_pickles():
    for lat, keyed in ((named("N5"), False), (named("chain", 6), True)):
        fresh = all_congruences(_fresh(lat, "Q"))
        con = _outliving(_fresh(lat, "Q"))
        if keyed:  # pickled with its rows, not its closed sets
            con.rows
        copy = pickle.loads(pickle.dumps(con))
        assert (copy.labels, copy.name) == (fresh.labels, "Q")
        assert list(copy.line_chunks()) == list(fresh.line_chunks())
        assert copy.covers() == fresh.covers()
        assert copy.coatoms() == fresh.coatoms()
        assert copy.con01_members() == fresh.con01_members()
