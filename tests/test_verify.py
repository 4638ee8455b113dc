import collections
import hashlib
import itertools
import json
import random

import pytest

from latkit import (
    CheckReport,
    ConLattice,
    Lattice,
    Partition,
    corpus,
    dilate,
    enumerate_lattices,
    horizontal_sum,
    isomorphic,
    mu_con01,
    named,
    run_suite,
)
from latkit.errors import BadConfig, NotACongruence
from latkit.verify import (
    check_b2_hsum_simple,
    check_cghsum,
    check_dilate,
    check_hsum_counts,
    check_irreducibility,
    check_multi_hsum,
    check_prime_equivalences,
    check_spechsum,
    _corrupted_pentagon,
    reports_to_json,
)
import latkit.verify as verify

from oracles import (con01_order_problems_by_pairs, invariants_by_heights,
                     least_isomorphism_by_permutations, relabelled)


def test_isomorphic_finds_known_isomorphisms():
    h, _ = horizontal_sum([named("chain", 3), named("chain", 4)])
    assert isomorphic(h, named("N5")) is not None
    d, _ = dilate(named("chain", 3))
    assert isomorphic(d, named("M3")) is not None


def test_isomorphic_rejects_different_shapes():
    assert isomorphic(named("chain", 3), named("B2")) is None
    assert isomorphic(named("M3"), named("N5")) is None
    assert isomorphic(named("chain", 4), named("B2")) is None


def test_isomorphism_is_structure_preserving():
    a, _ = horizontal_sum([named("chain", 3), named("chain", 3), named("chain", 3)])
    b = named("M3")
    f = isomorphic(a, b)
    assert f is not None
    for x in range(a.n):
        for y in range(a.n):
            assert a.leq(x, y) == b.leq(f[x], f[y])
            assert f[a.meet(x, y)] == b.meet(f[x], f[y])
            assert f[a.join(x, y)] == b.join(f[x], f[y])


def test_isomorphic_behaves_like_an_equivalence():
    pool = corpus(23, 6, 7)
    for lat in pool:
        f = isomorphic(lat, lat)
        assert f is not None
    a, _ = horizontal_sum([named("chain", 4), named("chain", 3)])
    b = named("N5")
    f = isomorphic(a, b)
    g = isomorphic(b, a)
    assert f is not None and g is not None
    for x in range(a.n):
        assert g[f[x]] == x


def _by_heights(a, b):
    return verify._isomorphism(a, b, invariants_by_heights(a),
                               invariants_by_heights(b))


def test_isomorphic_matches_the_search_under_height_colours():
    census = enumerate_lattices(8)
    small = [lat for lat in census if lat.n <= 7]
    compared = 0
    for a, b in itertools.product(small, repeat=2):
        if a.n == b.n:
            assert isomorphic(a, b) == _by_heights(a, b), (a.name, b.name)
            compared += 1
    assert compared == 3066  # 53² + 15² + 5² + 2² + 3
    rng = random.Random(8)
    for a in [lat for lat in census if lat.n == 8]:
        b = relabelled(a, rng.sample(range(8), 8))
        assert isomorphic(a, b) == _by_heights(a, b) is not None
        assert isomorphic(b, a) == _by_heights(b, a) is not None


def test_isomorphic_gives_the_lexicographically_least_isomorphism():
    rng = random.Random(6)
    classes = enumerate_lattices(6)
    for a, b in itertools.product(classes, repeat=2):
        if a.n == b.n:
            assert isomorphic(a, b) == least_isomorphism_by_permutations(a, b)
    for a in classes:
        moved = [relabelled(a, rng.sample(range(a.n), a.n)) for _ in range(3)]
        for x, y in itertools.product([a, *moved], repeat=2):
            assert isomorphic(x, y) == least_isomorphism_by_permutations(x, y)


def test_corpus_deterministic_and_valid():
    one = corpus(1, 12, 9)
    two = corpus(1, 12, 9)
    assert [lat.name for lat in one] == [lat.name for lat in two]
    assert [lat.labels for lat in one] == [lat.labels for lat in two]
    assert all(lat.n <= 9 for lat in one)
    other = corpus(2, 12, 9)
    assert [lat.name for lat in one] != [lat.name for lat in other]


def test_corpus_builds_no_chain_product_past_max_size(monkeypatch):
    # the size of a chain product with a top, p*q + 1, is known before it
    # is built, so only those that fit are built, and the draws are the
    # same, so the corpus is too
    before = [lat.labels for lat in corpus(7, 100, 12)]
    built = []
    real = Lattice.from_covers.__func__

    def counted(cls, labels, covers, name=""):
        built.append(len(labels))
        return real(cls, labels, covers, name=name)

    monkeypatch.setattr(Lattice, "from_covers", classmethod(counted))
    assert [lat.labels for lat in corpus(7, 100, 12)] == before
    assert built and max(built) <= 12


def test_corpus_count_zero_gives_named_only():
    base = corpus(1, 0, 50)
    names = {lat.name for lat in base}
    assert {"B2", "M3", "N5", "K", "chain(2)", "div(12)"} <= names
    assert all("(" in n or n in {"B2", "M3", "N5", "K"} for n in names)


def test_corpus_rejects_bad_params():
    with pytest.raises(BadConfig):
        corpus(1, 5, 1)
    with pytest.raises(BadConfig):
        corpus(1, -1, 9)


def test_corpus_contains_the_advertised_families():
    pool = corpus(5, 60, 10)
    kinds = {name.split("(")[0] for name in (lat.name for lat in pool)}
    assert "hsum" in kinds or "osum" in kinds
    assert "closure" in kinds
    assert "chainprodtop" in kinds


def test_census_small_counts():
    # hand-checked: one lattice each for sizes 1-3, two of size 4 (the chain
    # and the square), five of size 5
    out = enumerate_lattices(5)
    by_size = {}
    for lat in out:
        by_size.setdefault(lat.n, []).append(lat)
    assert [len(by_size[k]) for k in (1, 2, 3, 4, 5)] == [1, 1, 1, 2, 5]
    for size, group in by_size.items():
        for i, a in enumerate(group):
            for b in group[i + 1:]:
                assert isomorphic(a, b) is None


def test_census_covers_known_six_element_shapes():
    out = [lat for lat in enumerate_lattices(6) if lat.n == 6]
    # 15 six-element lattices is the standard census figure
    assert len(out) == 15
    assert any(isomorphic(lat, named("K")) is not None for lat in out)
    assert any(isomorphic(lat, named("div", 12)) is not None for lat in out)
    h, _ = horizontal_sum([named("chain", 3)] * 4)
    assert any(isomorphic(lat, h) is not None for lat in out)


def test_census_caps():
    with pytest.raises(BadConfig):
        enumerate_lattices(0)
    with pytest.raises(BadConfig):
        enumerate_lattices(11)


@pytest.mark.parametrize("maker", [
    lambda: named("N5"),
    lambda: named("M3"),
    lambda: named("K"),
    lambda: named("div", 12),
])
def test_check_prime_equivalences_passes(maker):
    report = check_prime_equivalences(maker())
    assert report.passed and not report.skipped


def test_check_prime_equivalences_skips_on_cap():
    report = check_prime_equivalences(named("chain", 61))
    assert report.skipped and not report.passed
    assert report.details == {
        "reason": "61 elements exceeds congruence cap 60"}


def test_a_cap_hit_outside_the_congruence_enumeration_skips():
    report = check_hsum_counts(named("chain", 300), named("chain", 300))
    assert report.status == "SKIP"
    assert "construction cap" in report.details["reason"]


def test_a_lattice_error_in_a_direct_call_is_a_failure():
    report = check_hsum_counts(named("chain", 1), named("chain", 3))
    assert report.status == "FAIL"
    assert report.details["error"].startswith("TrivialSummand")
    assert "lattice" not in report.details


def test_an_error_in_a_one_lattice_check_carries_the_lattice(monkeypatch):
    import latkit.verify as verify

    def refuse(lat):
        raise NotACongruence("refused")

    monkeypatch.setattr(verify, "all_congruences", refuse)
    report = check_prime_equivalences(named("N5"))
    assert report.status == "FAIL"
    assert report.details["error"] == "NotACongruence: refused"
    assert report.details["lattice"] == named("N5").to_dict()


def test_check_irreducibility_passes():
    for lat in corpus(29, 10, 9):
        if lat.trivial:
            continue
        report = check_irreducibility(lat)
        assert report.passed, report.details


def test_check_hsum_counts():
    report = check_hsum_counts(named("N5"), named("K"))
    assert report.passed


def test_check_spechsum_cases():
    r = check_spechsum(named("chain", 3), named("chain", 3))
    assert r.passed
    s, _ = ordinal_sum_pieces()
    r = check_spechsum(named("chain", 3), s)
    assert r.passed
    r = check_spechsum(named("N5"), named("N5"))
    assert r.passed
    r = check_spechsum(named("chain", 2), named("B2"))
    assert r.skipped


def ordinal_sum_pieces():
    from latkit import ordinal_sum

    return ordinal_sum(named("B2"), named("chain", 2))


def test_check_cghsum_all_three_cases():
    # two two-class congruences: both bounds irreducible on both sides
    r = check_cghsum(named("chain", 3), named("chain", 4))
    assert r.passed and r.details["case"] == 2
    # exactly one: the square kills its own side
    s, _ = ordinal_sum_pieces()
    r = check_cghsum(named("chain", 3), s)
    assert r.passed and r.details["case"] == 1
    # none: squares at both ends
    r = check_cghsum(named("B2"), named("B2"))
    assert r.passed and r.details["case"] == 0
    r = check_cghsum(named("N5"), named("N5"))
    assert r.passed and r.details["case"] == 0


def test_check_cghsum_reads_the_product_order_off_con_leq(monkeypatch):
    from latkit import ConLattice

    c4 = named("chain", 4)
    assert check_cghsum(c4, c4).passed
    # Con01 of chain(4) has comparable members, so an order that holds
    # everything comparable disagrees with the refinement of the sums
    monkeypatch.setattr(ConLattice, "leq", lambda self, i, j: True)
    r = check_cghsum(c4, c4)
    assert r.status == "FAIL"
    assert any("order_mismatch" in p for p in r.details["witness"])


def test_check_multi_hsum():
    c3 = named("chain", 3)
    r = check_multi_hsum([c3, c3, c3])
    assert r.passed
    r = check_multi_hsum([c3, c3, named("chain", 4)])
    assert r.passed
    n5 = named("N5")
    r = check_multi_hsum([n5, n5, n5])
    assert r.passed and r.details["con"] == 9
    r = check_multi_hsum([c3, c3])
    assert r.skipped


def test_the_product_pass_agrees_with_the_all_pairs_order_check():
    census = [lat for lat in enumerate_lattices(6) if lat.n >= 3]
    for A, B in itertools.combinations_with_replacement(census, 2):
        H, embeddings = horizontal_sum([A, B])
        assert check_cghsum(A, B).passed == \
            (not con01_order_problems_by_pairs([A, B], H, embeddings))
    small = [lat for lat in census if lat.n <= 5]
    for lats in itertools.combinations_with_replacement(small, 3):
        H, embeddings = horizontal_sum(lats)
        assert check_multi_hsum(lats).passed == \
            (not con01_order_problems_by_pairs(lats, H, embeddings))


def _swapping_two_choices(real):
    """`hsum_congruences` with the outputs of two Con01 choices swapped:
    every summand at delta, and the first at its mu with the rest at
    delta."""
    def mutant(pairs):
        lats, parts = zip(*pairs)
        low = tuple(Partition.delta(lat.n) for lat in lats)
        high = (mu_con01(lats[0]),) + low[1:]
        return real(zip(lats, {low: high, high: low}.get(parts, parts)))
    return mutant


def _dropping_the_last_on_sums(real):
    """`ConLattice.con01` with its last index dropped on a horizontal sum,
    and kept on every other lattice, so on the summands."""
    def mutant(self):
        indices = real(self)
        return indices[:-1] if self.name.startswith("hsum(") else indices
    return mutant


PRODUCT_MUTANTS = {
    "hsum_congruences swaps two choices": (
        verify, "hsum_congruences",
        _swapping_two_choices(verify.hsum_congruences),
        "restriction_differs"),
    "ConLattice.leq holds everywhere": (
        ConLattice, "leq", lambda self, i, j: True, "order_mismatch"),
    "ConLattice.con01 drops its last index on the sum": (
        ConLattice, "con01",
        _dropping_the_last_on_sums(ConLattice.con01), "con01"),
}


@pytest.mark.parametrize("mutant", PRODUCT_MUTANTS)
def test_a_product_pass_mutant_fails_both_sum_checks(monkeypatch, mutant):
    owner, name, value, key = PRODUCT_MUTANTS[mutant]
    c4 = named("chain", 4)  # Con01 holds delta and a mu above it
    assert check_cghsum(c4, c4).passed
    assert check_multi_hsum([c4] * 3).passed
    monkeypatch.setattr(owner, name, value)
    for r in (check_cghsum(c4, c4), check_multi_hsum([c4] * 3)):
        assert r.status == "FAIL"
        assert any(key in p for p in r.details["witness"])


# Each mutant sets one flag of the five-way prime equivalence to False,
# so on a prime filter the flags read as given.
PRIME_FLAG_MUTANTS = {
    "verify._is_ideal": (verify, "_is_ideal", lambda lat, s: False,
                         [True, False, False, True, True]),
    # a prime ideal's complement is a filter
    "verify._is_filter": (verify, "_is_filter", lambda lat, s: False,
                          [True, True, False, True, True]),
    "verify.is_congruence": (verify, "is_congruence", lambda lat, p: False,
                             [True, True, True, False, True]),
    "ConLattice.coatoms": (ConLattice, "coatoms", lambda self: [],
                           [True, True, True, True, False]),
}


@pytest.mark.parametrize("mutant", PRIME_FLAG_MUTANTS)
def test_a_prime_flag_mutant_fails_the_prime_check(monkeypatch, mutant):
    owner, name, value, flags = PRIME_FLAG_MUTANTS[mutant]
    census = enumerate_lattices(6)
    assert all(check_prime_equivalences(lat).passed for lat in census)
    monkeypatch.setattr(owner, name, value)
    failed = [r for r in map(check_prime_equivalences, census)
              if r.status == "FAIL"]
    assert failed
    assert any(p.get("flags") == flags
               for r in failed for p in r.details["witness"])


def test_the_checks_read_no_con_member_as_a_partition(monkeypatch):
    # The checks read Con(L) off the listing's block maps and masks; only
    # a failed report renders its witness, and that from block maps too.
    def no_members(self):
        raise AssertionError("a check read ConLattice.members")

    monkeypatch.setattr(ConLattice, "members", property(no_members))
    reports = run_suite(seed=7, count=100, max_size=12, inject_fault=True)
    assert {r.check_name for r in reports} == set(CHECK_NAMES.values())
    assert [r.instance_descr for r in reports if r.status == "FAIL"] == \
        ["N5-corrupted"]


def test_check_dilate():
    r = check_dilate(named("chain", 4))
    assert r.passed
    assert r.details["dilated_size"] == 10
    r = check_dilate(named("chain", 1))
    assert r.skipped


def test_check_dilate_refuses_a_large_dilation_before_work(monkeypatch):
    import latkit.verify as verify

    def no_work(*args):
        raise AssertionError("worked on a dilation past the listing cap")

    monkeypatch.setattr(verify, "fat_intervals", no_work)
    monkeypatch.setattr(verify, "is_simple", no_work)
    monkeypatch.setattr(verify, "all_filters", no_work)
    r = check_dilate(named("chain", 10))
    assert r.status == "SKIP"
    assert r.details == {"reason": "82 elements exceeds congruence cap 60"}


def test_check_b2_hsum():
    r = check_b2_hsum_simple(named("M3"))
    assert r.passed and r.details["simple_case"]
    r = check_b2_hsum_simple(named("N5"))
    assert r.passed and not r.details["simple_case"]
    assert r.details["con01"] == 2


def test_run_suite_all_green():
    reports = run_suite(suites=("all",), seed=7, count=25, max_size=9)
    assert reports
    assert all(r.passed or r.skipped for r in reports)
    names = {r.check_name for r in reports}
    assert "dilation-simplicity" in names
    assert "hsum-congruence-trichotomy" in names


def test_run_suite_deterministic():
    a = run_suite(suites=("counts",), seed=3, count=10, max_size=8)
    b = run_suite(suites=("counts",), seed=3, count=10, max_size=8)
    assert [(r.check_name, r.instance_descr, r.status) for r in a] == \
        [(r.check_name, r.instance_descr, r.status) for r in b]


def test_run_suite_report_order_is_pinned():
    # The reports of every suite, in SUITES order, with the rng draws of
    # the pair and triple suites; the digest was taken before the suites
    # became one table.
    reports = run_suite(seed=7, count=25, max_size=9, census=6)
    assert len(reports) == 345
    assert hashlib.sha256(reports_to_json(reports).encode()).hexdigest() == \
        "d816a4c5eba24bdac592b8249dfd567b5aefde6e41a62c30c3cd50d2da51a90d"


@pytest.mark.parametrize("config, size, digest", [
    # the configuration of the `suite` benchmark workload
    ({"seed": 7, "count": 100, "max_size": 12}, 788,
     "a2bf38c76ccea027f3ed4e6a717c1af7a45475c18049af0363641d5d936a93ab"),
    ({"census": 8}, 1445,
     "66a246f95e5597815b93ac95fc31b40935ccfa338c8db86111222c95107aea4f"),
])
def test_run_suite_reports_are_pinned(config, size, digest):
    # Digests taken while every suite still ran over the whole pool in
    # turn, before the one-lattice suites ran lattice by lattice.
    reports = run_suite(**config)
    assert len(reports) == size
    assert hashlib.sha256(reports_to_json(reports).encode()).hexdigest() \
        == digest


def test_run_suite_emits_the_suites_in_suites_order():
    # The suites come in SUITES order whatever order they are asked in,
    # and the corrupted pentagon's report comes last.
    reports = run_suite(suites=("b2hsum", "counts", "prime"), seed=7,
                        count=5, max_size=8, inject_fault=True)
    names = [name for name, _ in itertools.groupby(
        r.check_name for r in reports[:-1])]
    assert names == ["prime-filter-equivalences", "hsum-counts",
                     "b2-hsum-simplicity"]
    last = reports[-1]
    assert (last.check_name, last.instance_descr, last.status) == (
        "prime-filter-equivalences", "N5-corrupted", "FAIL")


def test_run_suite_on_two_element_lattices_runs_four_checks():
    # hsum-counts draws from the lattices with at least two elements; the
    # other sum suites need more than two, so they run nothing here.
    reports = run_suite(count=0, max_size=2)
    assert [r.check_name for r in reports] == (
        ["prime-filter-equivalences", "bound-irreducibility"]
        + ["hsum-counts"] * 10 + ["dilation-simplicity"])


def test_a_lone_sum_suite_draws_its_own_instances():
    # Suites that are not chosen draw nothing from the shared rng.
    reports = run_suite(suites=("multi",), seed=7, count=0, max_size=5)
    assert [r.instance_descr for r in reports] == [
        "M3 (+) chain(4) (+) chain(3)", "div(6) (+) div(6) (+) chain(5) (+) N5",
        "chain(5) (+) B2 (+) chain(5)", "chain(3) (+) div(4) (+) div(6)",
        "div(8) (+) chain(3) (+) N5"]


CHECK_NAMES = {
    "check_prime_equivalences": "prime-filter-equivalences",
    "check_irreducibility": "bound-irreducibility",
    "check_hsum_counts": "hsum-counts",
    "check_spechsum": "hsum-spectra",
    "check_cghsum": "hsum-congruence-trichotomy",
    "check_multi_hsum": "multi-hsum-collapse",
    "check_dilate": "dilation-simplicity",
    "check_b2_hsum_simple": "b2-hsum-simplicity",
}


def test_run_suite_calls_each_check_once_per_report(monkeypatch):
    # run_suite looks each check up as a module global when it calls it,
    # so a wrapper set in its place sees one call per report.
    calls = collections.Counter()

    def counting(name, real):
        def check(*args):
            calls[CHECK_NAMES[name]] += 1
            return real(*args)
        return check

    for name in CHECK_NAMES:
        monkeypatch.setattr(verify, name, counting(name, getattr(verify, name)))
    reports = run_suite(seed=7, count=5, max_size=8, inject_fault=True)
    assert calls == collections.Counter(r.check_name for r in reports)
    assert set(calls) == set(CHECK_NAMES.values())


def test_run_suite_rejects_unknown_suite():
    with pytest.raises(BadConfig):
        run_suite(suites=("nonsense",))


def test_run_suite_fault_injection_produces_failure_with_witness():
    reports = run_suite(suites=("prime",), seed=7, count=0, max_size=9,
                        inject_fault=True)
    failed = [r for r in reports if not r.passed and not r.skipped]
    assert failed
    assert any("lattice" in r.details for r in failed)


def test_fault_injection_fails_exactly_the_corrupted_instance():
    failed = [r for r in run_suite(inject_fault=True) if r.status == "FAIL"]
    assert [r.instance_descr for r in failed] == ["N5-corrupted"]


def test_corrupted_instance_is_not_a_valid_lattice_value():
    bad = _corrupted_pentagon()
    x, top = bad.index("x"), bad.top
    assert bad.meet_t[x][top] == bad.bottom  # tampered entry


def test_reports_serialize():
    reports = run_suite(suites=("dilate",), seed=7, count=3, max_size=7)
    data = json.loads(reports_to_json(reports))
    assert all(set(d) == {"check", "instance", "status", "details"} for d in data)


def test_report_line_format():
    r = CheckReport("sample", "instance", True)
    assert r.line() == "[PASS] sample: instance"
    r = CheckReport("sample", "instance", False, skipped=True)
    assert r.line().startswith("[SKIP]")


def test_run_suite_census_sweep():
    reports = run_suite(suites=("dilate",), seed=7, count=0, max_size=8,
                        census=5)
    instances = {r.instance_descr for r in reports}
    assert any(name.startswith("census(5)") for name in instances)
    assert all(r.passed or r.skipped for r in reports)
    with pytest.raises(BadConfig):
        run_suite(suites=("dilate",), census=11)


def test_count_is_capped_before_any_lattice_is_built(monkeypatch):
    import latkit.verify as verify

    def no_lattices():
        raise AssertionError("started building the corpus")

    monkeypatch.setattr(verify, "_named_baseline", no_lattices)
    for draw in (lambda count: run_suite(count=count),
                 lambda count: corpus(7, count, 2)):
        with pytest.raises(BadConfig):
            draw(verify.COUNT_CAP + 1)
        # the cap itself passes validation and starts the build
        with pytest.raises(AssertionError):
            draw(verify.COUNT_CAP)


@pytest.mark.parametrize("call", [
    lambda: enumerate_lattices(2.0),
    lambda: enumerate_lattices("3"),
    lambda: enumerate_lattices(True),
    lambda: run_suite(census=2.5, count=0),
    lambda: run_suite(census="3", count=0),
    lambda: run_suite(count=2.5),
    lambda: run_suite(census=5, max_size=8.0),
    lambda: corpus(7, 2.5, 9),
    lambda: corpus(7, 25, "9"),
    # a seed too: random.Random takes None, a str or a float, and True as 1
    lambda: run_suite(seed=None, count=0),
    lambda: run_suite(seed="a", count=0),
    lambda: run_suite(seed=2.5, count=0),
    lambda: run_suite(seed=True, count=0),
    lambda: corpus(None, 25, 9),
])
def test_a_size_that_is_not_an_int_is_refused_before_any_work(call,
                                                              monkeypatch):
    def no_work(*args):
        raise AssertionError("started building")

    monkeypatch.setattr(verify, "_named_baseline", no_work)
    monkeypatch.setattr(verify, "_tables", no_work)
    with pytest.raises(BadConfig, match="must be an int"):
        call()


def test_run_suite_builds_the_census_only_up_to_max_size(monkeypatch):
    import latkit.verify as verify
    sizes = []

    def spy(max_n):
        sizes.append(max_n)
        return enumerate_lattices(max_n)

    monkeypatch.setattr(verify, "enumerate_lattices", spy)
    capped = run_suite(suites=("prime",), count=0, max_size=6, census=10)
    exact = run_suite(suites=("prime",), count=0, max_size=6, census=6)
    assert sizes == [6, 6]
    assert [r.to_dict() for r in capped] == [r.to_dict() for r in exact]
    run_suite(suites=("prime",), count=0, max_size=6, census=4)
    assert sizes[-1] == 4


def test_run_suite_census_with_every_suite_stays_green():
    # the census pool contains the one-element lattice; every suite must
    # either skip it or leave it out of sum constructions
    reports = run_suite(suites=("all",), seed=11, count=5, max_size=8,
                        census=5)
    assert all(r.passed or r.skipped for r in reports), [
        r.line() for r in reports if not r.passed and not r.skipped]


def test_an_is_simple_that_ignores_its_last_closure_fails_a_report(monkeypatch):
    # The suites hold `is_simple` to the listing of Con, so a mutant that
    # skips the last closure fails at least one report of the CI run.
    import latkit.verify as verify
    from latkit.congruence import _dependency

    def ignores_last_closure(lat):
        if lat.n < 2:
            return False
        _, closure = _dependency(lat)
        full = (1 << len(closure)) - 1
        return all(c == full for c in closure[:-1])

    assert not any(r.status == "FAIL"
                   for r in run_suite(seed=7, count=25, max_size=9, census=7))
    monkeypatch.setattr(verify, "is_simple", ignores_last_closure)
    reports = run_suite(seed=7, count=25, max_size=9, census=7)
    assert any(r.status == "FAIL" for r in reports)
