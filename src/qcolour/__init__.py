"""Exact-arithmetic colourings of the positive rationals.

Colour evaluation, digit expansions, monochromatic sum-product configuration
checking and search, and a constructor for small fully-monochromatic systems.
"""

from .core import (
    EXPONENT_LIMIT,
    Ordering,
    PrimeTable,
    Rational,
    a_exponent,
    cmp_c5_boundary,
    cmp_pow2_half,
    default_table,
    in_C3,
    in_C4,
    is_power_of_two,
    minimal_base_index,
    nth_prime,
    parse_rational,
    primorial,
)
from .digits import (
    DigitExpansion,
    b_exponent,
    binary_profile,
    c_exponent,
    e_frac,
    e_int,
    epsilon_exponent,
    expand,
    right_left_disjoint,
    s_frac,
)
from .colourings import (
    ColourValue,
    alpha,
    big_phi,
    colour_key,
    colouring_fn,
    mu,
    nu,
    phi,
    psi,
    psi_prime,
    theta,
)
from .errors import (
    BudgetExhaustedError,
    DomainError,
    InternalInvariantError,
    PositionOverflowError,
    QcolourError,
    TableExhaustedError,
    UnsupportedPrimeError,
)
from .verify import (
    Certificate,
    Clash,
    CombinationEntry,
    CombinationMode,
    Monochromatic,
    PropertyReport,
    SearchResult,
    UniverseSpec,
    c3_triple,
    check,
    combinations,
    naive_search,
    property_suite,
    search,
    validate,
)
from .construct import (
    BlockSystem,
    ConstructResult,
    OpennessRadius,
    extend_sum_closed,
    minimal_digit_fact,
    openness_radius,
    reciprocal_prime_indices,
)

__version__ = "0.1.0"
