"""Finite bounded-lattice computations.

Core pieces: Lattice values with validated order and operation tables,
Partition values for equivalences and congruences, congruence-lattice
enumeration, filter/ideal families with prime spectra, the sum
constructions (ordinal, horizontal, interval substitution, dilation),
an isomorphism test, a random corpus, and a theorem-checking suite.
"""

from .core import Lattice, named
from .equiv import (
    Partition,
    are_blocks_convex,
    eq_from_blocks,
    is_congruence,
)
from .congruence import (
    ConLattice,
    all_congruences,
    con_summary,
    congruence_generated,
    is_simple,
    is_subdirectly_irreducible,
    mu_con01,
    prime_congruences,
    principal_congruence,
    quotient,
)
from .filters import (
    SubsetFamily,
    all_filters,
    all_ideals,
    generated_filter,
    generated_ideal,
    is_filter,
    is_ideal,
    is_prime_filter,
    is_prime_ideal,
    prime_family_congruence,
    prime_filter_congruence,
    prime_filters,
    prime_ideals,
)
from .construct import (
    dilate,
    fat_intervals,
    horizontal_sum,
    hsum_congruences,
    interval_hsum,
    ordinal_sum,
)
from .verify import (
    CheckReport,
    corpus,
    enumerate_lattices,
    isomorphic,
    run_suite,
)
from .expr import evaluate, parse, render
from . import errors

__version__ = "0.1.0"
