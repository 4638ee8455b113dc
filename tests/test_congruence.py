import itertools
import random

import pytest

from latkit import (
    all_congruences,
    con01,
    congruence_generated,
    corpus,
    delta,
    enumerate_lattices,
    eq_from_blocks,
    is_simple,
    is_subdirectly_irreducible,
    isomorphic,
    maximal_congruences,
    mu_con01,
    named,
    nabla,
    prime_congruences,
    principal_congruence,
    quotient,
    two_class_congruences,
)
from latkit.construct import dilate
from latkit.errors import NotACongruence, SizeCapExceeded
from latkit.dot import con_dot
from oracles import (
    closed_sets_by_definition,
    coatoms_by_order,
    con_lattice_by_partitions,
    congruences_by_exhaustion,
    covers_by_order,
    prime_congruences_by_scan,
    principal_by_worklist,
)


def test_principal_congruence_pentagon():
    n5 = named("N5")
    zeta = eq_from_blocks(n5, [{"y", "z"}])
    assert principal_congruence(n5, n5.index("y"), n5.index("z")) == zeta


def test_principal_congruence_bounds_collapse_everything():
    for lat in (named("B2"), named("N5"), named("div", 12)):
        assert principal_congruence(lat, lat.bottom, lat.top) == nabla(lat)


def test_principal_congruence_diamond():
    m3 = named("M3")
    assert principal_congruence(m3, m3.index("u"), m3.index("v")) == nabla(m3)


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
    assert congruence_generated(n5, []) == delta(n5)
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
        joined = delta(lat)
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
    with pytest.raises(SizeCapExceeded):
        all_congruences(named("div", 12), cap=4)


def test_con01():
    b2 = named("B2")
    assert con01(b2) == [delta(b2)]
    n5 = named("N5")
    zeta = eq_from_blocks(n5, [{"y", "z"}])
    assert set(con01(n5)) == {delta(n5), zeta}
    k = named("K")
    assert mu_con01(k) == delta(k)
    assert mu_con01(n5) == zeta


def test_con01_is_the_interval_below_mu():
    for lat in corpus(3, 8, 8):
        con = all_congruences(lat)
        mu = con.mu_con01()
        sel = set(con.con01_members())
        assert mu in sel
        assert sel == {m for m in con.members if m.leq(mu)}


def test_con01_members_have_three_blocks_when_nontrivial():
    for lat in corpus(4, 8, 8):
        if lat.n <= 2:
            continue
        for m in con01(lat):
            assert m.num_blocks >= 3


def test_maximal_congruences():
    b2 = named("B2")
    alpha = eq_from_blocks(b2, [{"0", "a"}, {"b", "1"}])
    beta = eq_from_blocks(b2, [{"0", "b"}, {"a", "1"}])
    assert set(maximal_congruences(b2)) == {alpha, beta}


def test_maximal_congruences_are_prime():
    for lat in (named("B2"), named("M3"), named("N5"), named("K"),
                named("div", 12)):
        primes = set(prime_congruences(lat))
        for m in maximal_congruences(lat):
            assert m in primes


def test_identity_not_prime_on_the_three_chain():
    c3 = named("chain", 3)
    lower = eq_from_blocks(c3, [{"0", "m"}])
    upper = eq_from_blocks(c3, [{"m", "1"}])
    d = delta(c3)
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
        assert primes == maximal_congruences(chain)


def test_quotient():
    n5 = named("N5")
    xi = eq_from_blocks(n5, [{"0", "x"}, {"y", "z", "1"}])
    q, proj = quotient(n5, xi)
    assert q.n == 2
    assert proj[n5.index("0")] == proj[n5.index("x")]

    q, proj = quotient(n5, delta(n5))
    assert isomorphic(q, n5) is not None

    zeta = eq_from_blocks(n5, [{"y", "z"}])
    q, proj = quotient(n5, zeta)
    assert q.n == 4
    assert isomorphic(q, named("B2")) is not None


def test_quotient_projection_preserves_operations():
    for lat in (named("N5"), named("K"), named("div", 12)):
        for theta in all_congruences(lat).members:
            q, proj = quotient(lat, theta)
            for x in range(lat.n):
                for y in range(lat.n):
                    assert proj[lat.meet(x, y)] == q.meet(proj[x], proj[y])
                    assert proj[lat.join(x, y)] == q.join(proj[x], proj[y])


def test_quotient_rejects_non_congruence():
    n5 = named("N5")
    with pytest.raises(NotACongruence):
        quotient(n5, eq_from_blocks(n5, [{"x", "y"}]))


def test_two_class_congruences():
    assert two_class_congruences(named("M3")) == []
    b2 = named("B2")
    assert len(two_class_congruences(b2)) == 2
    k = named("K")
    mu = eq_from_blocks(k, [{"m", "1"}, {"0", "n", "p", "q"}])
    assert two_class_congruences(k) == [mu]


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
        assert monolith is not None and monolith != delta(named(name))
    flag, monolith = is_subdirectly_irreducible(named("B2"))
    assert not flag and monolith is None
    # simple lattices are subdirectly irreducible with the full monolith
    m3 = named("M3")
    assert is_subdirectly_irreducible(m3) == (True, nabla(m3))
    n5 = named("N5")
    assert is_subdirectly_irreducible(n5)[1] == eq_from_blocks(n5, [{"y", "z"}])


def test_members_canonical_order():
    for lat in (named("N5"), named("div", 12)):
        con = all_congruences(lat)
        keys = [(-m.num_blocks, m.block_of) for m in con.members]
        assert keys == sorted(keys)
        assert con.members[con.delta_ix] == delta(lat)
        assert con.members[con.nabla_ix] == nabla(lat)


def test_member_count_guard():
    with pytest.raises(SizeCapExceeded):
        all_congruences(named("chain", 19))


def test_every_member_is_a_join_of_its_principal_congruences():
    for lat in (named("N5"), named("K"), named("B2"), named("div", 12)):
        for theta in all_congruences(lat).members:
            rebuilt = delta(lat)
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
        assert con.con01_indices() == want["con01"], lat
        assert con.mu_con01() == want["mu"], lat
        assert is_simple(lat) == want["simple"], lat
        assert is_subdirectly_irreducible(lat) == want["si"], lat
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
