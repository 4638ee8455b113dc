import types

import latkit

# latkit's public names, less its submodules. A name is added to or
# removed from the API on purpose, by editing this list.
PUBLIC = [
    "CheckReport", "ConLattice", "Lattice", "Partition", "SubsetFamily",
    "all_congruences", "all_filters", "all_ideals", "are_blocks_convex",
    "con_summary", "congruence_generated", "corpus", "dilate",
    "enumerate_lattices", "eq_from_blocks", "evaluate", "fat_intervals",
    "generated_filter", "generated_ideal", "horizontal_sum",
    "hsum_congruences", "interval_hsum", "is_congruence", "is_filter",
    "is_ideal", "is_prime_filter", "is_prime_ideal", "is_simple",
    "is_subdirectly_irreducible", "isomorphic", "mu_con01", "named",
    "ordinal_sum", "parse", "prime_congruences", "prime_family_congruence",
    "prime_filter_congruence", "prime_filters", "prime_ideals",
    "principal_congruence", "quotient", "render", "run_suite",
]


def test_the_public_names_are_pinned():
    assert PUBLIC == sorted(PUBLIC)
    names = [name for name, value in vars(latkit).items()
             if not name.startswith("_")
             and not isinstance(value, types.ModuleType)]
    assert sorted(names) == PUBLIC
