"""Exact-arithmetic colourings of the positive rationals.

Colour evaluation, digit expansions, monochromatic sum-product configuration
checking and search, and a constructor for small fully-monochromatic systems.
The names below are the ones README documents; everything else is imported
from its module (``qcolour.core``, ``qcolour.digits``, ...).
"""

from .digits import (
    DigitExpansion,
    expand,
)
from .colourings import (
    alpha,
    big_phi,
    colour_key,
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
)
from .verify import (
    Certificate,
    Clash,
    CombinationMode,
    Monochromatic,
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
    extend_sum_closed,
    openness_radius,
)

__version__ = "0.1.0"
