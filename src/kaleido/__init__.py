"""Colored block designs built from difference families.

A kaleidoscope is a collection of colored planes over a point set in
which every pair of points appears, in each color, in exactly one
plane's line of that color. The library builds them from colored
difference families over finite fields and cyclic groups, searches for
the families, composes small ones into bigger ones, and verifies every
object from first principles.
"""

from .algebra import (
    Cyclic,
    CyclotomicTable,
    ExtensionField,
    Group,
    PrimeField,
    Product,
    descriptor_from_json,
    find_irreducible,
    is_prime,
    make_group,
    primitive_element,
    transversal,
)
from .compose import (
    Catalog,
    DifferenceMatrix,
    compose_kdf,
    dm_from_json,
    dm_to_json,
    field_dm,
    pbd_compose,
    verify_dm,
)
from .designs import (
    DifferenceFamily,
    Kaleidoscope,
    KaleidoscopicDifferenceFamily,
    LineTable,
    PairwiseBalancedDesign,
    delta,
    develop,
    df_from_json,
    df_to_json,
    kaleidoscope_from_json,
    kaleidoscope_to_json,
    kdf_from_json,
    kdf_to_json,
    pbd_from_text,
    pbd_to_text,
    replicate,
    verify_df,
    verify_kaleidoscope,
    verify_kdf,
    verify_pbd,
)
from .errors import KaleidoError
from .schema import (
    KaleidoscopeSchema,
    OrderedBlock,
    builtin_schema,
    schema_from_json,
    schema_to_json,
)
from .search import (
    CyclotomicConstraint,
    NonexistenceCertificate,
    Q_BOUNDS,
    asymptotic_initial_block,
    exhaustive_nonexistence,
    find_constrained_element,
    form_block,
    generate_kdf_from_initial_block,
    parametric_search,
    prefix_block_search,
    consecutive_block_primes,
    verify_listed_block,
)

__version__ = "0.1.0"
