"""The eight colourings and their structured, canonically serializable values.

Every colouring returns a ``ColourValue``; ``colour_key`` maps values to the
canonical strings used as equality tokens everywhere else (verification,
search pruning, CLI output).
"""

from __future__ import annotations

import itertools
from enum import Enum
from typing import Callable, Hashable, Union

from .core import (
    PrimeTable,
    Rational,
    Record,
    base_index_and_exponent,
    below_surd,
    is_power_of_two_int,
    log2_floor,
    minimal_base_index,
    one_run,
    primorial,
    two_ones,
)
from .digits import abc_exponents, binary_positions, e_int, leading_frac_position
from .errors import DomainError


class ColourValue(Record):
    """Base class; concrete variants are the frozen records below. Each formats its ``_template``
    with its attributes once, when it is built, into its key ``_key`` (not a field). The colourings
    intern their values in the tables below the classes; ``oracles`` builds fresh, equal ones."""

    def __post_init__(self) -> None:
        object.__setattr__(self, "_key", self._template.format_map(self.__dict__))


class Bit(ColourValue):
    value: int
    _template = "bit:{value}"


class PhiZero(ColourValue):
    """Degenerate pair colour (first component zero, second zero, or not increasing)."""

    _template = "phi:z"
    compact = "z"  # its part of a theta key


class PhiTuple(ColourValue):
    c1: int
    c2: int
    c3: int
    c4: int
    c5: int
    _template = "phi:t:{c1},{c2},{c3},{c4},{c5}"

    def __post_init__(self) -> None:
        object.__setattr__(self, "compact", f"{self.c1}{self.c2}{self.c3}{self.c4}{self.c5}")
        super().__post_init__()


PhiValue = Union[PhiZero, PhiTuple]

PHI_ZERO = PhiZero()
_PHI_TUPLES = {bits: PhiTuple(*bits) for bits in itertools.product((0, 1), repeat=5)}


class ThetaTuple(ColourValue):
    power: int
    end_parity: int
    gap_parity: int
    phi_inner: PhiValue
    phi_inner_shift: PhiValue
    phi_of_end: int
    tail: int
    _template = ("theta:{power},{end_parity},{gap_parity},"
                 "{phi_inner.compact},{phi_inner_shift.compact},{phi_of_end},{tail}")


class NuClass(Enum):
    C1 = "C1"
    C2 = "C2"
    C3mC4 = "C3mC4"
    C4mC1 = "C4mC1"
    C5mC2 = "C5mC2"


class NuSpecial(ColourValue):
    cls: NuClass
    _template = "nu:s:{cls.value}"


class NuTuple(ColourValue):
    w1: int
    w2: int
    w3: int
    w4: int
    w5: int
    _template = "nu:t:{w1},{w2},{w3},{w4},{w5}"


NuValue = Union[NuSpecial, NuTuple]

NU_C1, NU_C3mC4, NU_C4mC1 = (NuSpecial(c) for c in (NuClass.C1, NuClass.C3mC4, NuClass.C4mC1))
_NU_TUPLES = {w: NuTuple(*w) for w in itertools.product((0, 1), (0, 1), *[range(3)] * 3)}


class MuWhole(ColourValue):
    nu: NuValue
    _template = "mu:w:{nu._key}"


class MuFrac(ColourValue):
    nu: NuValue
    phi: PhiValue
    psi_prime: PhiValue
    _template = "mu:f:{nu._key}|{phi._key}|{psi_prime._key}"


class AlphaNat(ColourValue):
    theta: ThetaTuple
    _template = "alpha:n:{theta._key}"


class AlphaNegPow2(ColourValue):
    _template = "alpha:negpow2"


class AlphaSmall(ColourValue):
    _template = "alpha:small"


class AlphaBig(ColourValue):
    components: tuple[int, ...]  # 13 entries

    def __post_init__(self) -> None:
        object.__setattr__(self, "_key", "alpha:b:" + ",".join(map(str, self.components)))


class ConstColour(ColourValue):
    _template = "const"


BITS = (Bit(0), Bit(1))  # BITS[b] is Bit(b)
ALPHA_NEG_POW2, ALPHA_SMALL, CONST = AlphaNegPow2(), AlphaSmall(), ConstColour()
# The tables of the interned values with sub-values, each bounded by the product of its
# components' ranges: 33 pair colours (PhiValue), 111 nu colours and 2 per flag or parity.
_THETAS: dict[tuple, ThetaTuple] = {}  # 2^3 flags and parities, 33^2 pair colours, 2^2: 34,848
_ALPHA_NATS: dict[str, AlphaNat] = {}  # by theta key: 34,848
_ALPHA_BIGS: dict[tuple, AlphaBig] = {}  # 12 bits and a residue mod 3: 2^12 * 3 = 12,288
_MU_WHOLES: dict[str, MuWhole] = {}  # by nu key: 111
_MU_FRACS: dict[tuple, MuFrac] = {}  # nu key, then two pair-colour keys: 111 * 33^2 = 120,879


def colour_key(value: ColourValue) -> str:
    return value._key


# --- the colourings ----------------------------------------------------------

def phi(k: int) -> int:
    """Two-colouring of the integers with phi(k+1) != phi(2k), phi(2k+1) for k not in {0,1}.

    Defined by phi(0)=phi(2)=0, phi(1)=phi(3)=1 and phi(m) = 1 - phi(m//2 + 1)
    elsewhere (floor division); evaluated in closed form by its zones. For
    k >= 0 the 1-set is {1, 3} and [2^(2t+2)+2, 2^(2t+3)+1]; for k < 0 it is
    [-(2^(2t+2)-2), -(2^(2t+1)-1)], t >= 0.
    """
    if k >= 0:
        return 1 if k in (1, 3) or (k >= 6 and (k - 2).bit_length() % 2 == 1) else 0
    return 1 if (1 - k).bit_length() % 2 == 0 else 0


def big_phi(a: int, b: int) -> PhiValue:
    """Pair colouring on non-negative integers; degenerate pairs map to PhiZero."""
    if a < 0 or b < 0:
        raise DomainError(f"pair components must be non-negative: ({a}, {b})")
    if a == 0 or b == 0 or a >= b:
        return PHI_ZERO
    ea, eb = (a & -a).bit_length() - 1, (b & -b).bit_length() - 1
    disjoint = 0 if b & -b > a else 1  # right_left_disjoint(a, b): b's lowest 1 above a's top
    return _PHI_TUPLES[ea % 2, eb % 2, (a >> (ea + 1)) & 1, (b >> (eb + 1)) & 1, disjoint]


def psi(a: int, b: int) -> PhiValue:
    if a < 0 or b < 0:
        raise DomainError(f"pair components must be non-negative: ({a}, {b})")
    return big_phi(a, b + 1)


def psi_prime(a: int, b: int) -> PhiValue:
    if a < 1:
        raise DomainError(f"first component must be >= 1, got {a}")
    if b < 0:
        raise DomainError(f"pair components must be non-negative: ({a}, {b})")
    if a == 1:
        return big_phi(1, 2)
    return big_phi(a - 1, b)


def theta(m: int) -> ThetaTuple:
    """Colouring of the naturals from the binary profile and the pair colourings.

    θ reads m only through ``binary_positions(m)`` = (end, start, gap), and α's key of a
    natural is θ's, so under both a natural's key is a function of its binary profile.
    On powers of two the gap is undefined; the gap-parity and tail components
    are fixed to 0 there (the power flag already isolates those inputs).
    """
    end, start, gap = binary_positions(m)
    power = gap is None
    inner, shift = big_phi(end, start), big_phi(end, start + 1)
    k = (1 if power else 0, end % 2, 0 if power else gap % 2, inner._key, shift._key, phi(end),
         0 if power or gap == 1 else 1)
    return _THETAS.get(k) or _THETAS.setdefault(k, ThetaTuple(*k[:3], inner, shift, *k[5:]))


def _nu_head(n: int, d: int) -> NuSpecial | tuple[int, int]:
    """nu's first stage, which is also nu's shadow: the special class of n/d, tried in nu's
    order (C1, C4∖C1, C3∖C4; only dyadic rationals are in them), else (w1, w2) of its tuple.

    Both tuple components come from h = ⌊log₂(n²/d²)⌋: a = ⌊log₂(n/d)⌋ is h >> 1, w2 = phi(a),
    and w1 = h & 1 is 1 exactly when n/d is past the 2^(a+1/2) boundary.
    """
    if is_power_of_two_int(d):
        if is_power_of_two_int(n):
            return NU_C1
        if one_run(n):  # before C3, so a value in both (3·2^k) gets C4∖C1
            return NU_C4mC1
        if two_ones(n):
            return NU_C3mC4
    h = log2_floor(n * n, d * d)
    return h & 1, phi(h >> 1)


def nu(x: Rational) -> NuValue:
    """Five special classes, then the quintuple of interval indices.

    The classes, in the paper's order: powers of two, the (empty on rationals)
    half-power class, two-digit-not-run, run-not-power, then the (empty on
    rationals) surd class; all remaining rationals get a tuple. ``_nu_head``
    returns the special class or the tuple's (w1, w2); nu finishes only a tuple.
    """
    n, d = x.numerator, x.denominator
    if n < 1:
        raise DomainError(f"expected a positive rational, got {x}")
    if isinstance(head := _nu_head(n, d), NuSpecial):
        return head
    w1, w2 = head
    a, b, c = abc_exponents(n, d)
    w4 = (a - c) % 3
    w5 = w4 if below_surd(n * n, d * d, a, c) else (w4 - 1) % 3
    return _NU_TUPLES[w1, w2, (a - b) % 3, w4, w5]


def mu(x: Rational, table: PrimeTable | None = None) -> ColourValue:
    """nu plus, below 1, the pair colours of the leading/trailing digit positions."""
    # ``table`` is ignored; perfbench/tracing.py passes one until the benchmark is next revised.
    if x.numerator >= x.denominator:
        v = nu(x)
        return _MU_WHOLES.get(v._key) or _MU_WHOLES.setdefault(v._key, MuWhole(v))
    return mu_below_one(x, *base_index_and_exponent(x))


def mu_below_one(x: Rational, n: int, u: int) -> MuFrac:
    """mu of 0 < x < 1 from its denominator's minimal base index n and largest prime exponent u."""
    s = leading_frac_position(x, primorial(n))  # the trailing digit sits at position -u
    v, p, q = nu(x), big_phi(-s, u), psi_prime(-s, u)
    k = (v._key, p._key, q._key)
    return _MU_FRACS.get(k) or _MU_FRACS.setdefault(k, MuFrac(v, p, q))


def alpha(x: Rational, table: PrimeTable | None = None) -> ColourValue:
    """Four-case colouring of the positive rationals."""
    # ``table`` is ignored; perfbench/tracing.py passes one until the benchmark is next revised.
    n, d = x.numerator, x.denominator
    if d == 1:
        t = theta(n)  # theta refuses n < 1
        return _ALPHA_NATS.get(t._key) or _ALPHA_NATS.setdefault(t._key, AlphaNat(t))
    if n < 1:
        raise DomainError(f"expected a positive rational, got {x}")
    if n <= 2 * d:
        return _alpha_head(n, d)
    c = _alpha_prime(x, n, d)
    return _ALPHA_BIGS.get(c) or _ALPHA_BIGS.setdefault(c, AlphaBig(c))


def _alpha_head(n: int, d: int) -> Hashable:
    """alpha's first stage, which is also alpha's shadow: one token for the naturals, alpha's
    one-key value for n <= 2d, else a mod 2 of the big tuple. A pair of natural sum s and
    product p is two integers, as the rational roots of t² − st + p."""
    if d == 1:
        return "natural"
    if n <= 2 * d:
        return ALPHA_NEG_POW2 if n == 1 and is_power_of_two_int(d) else ALPHA_SMALL  # 2^k, k < 0
    return log2_floor(n, d) % 2


def _alpha_prime(x: Rational, n: int, d: int) -> tuple[int, ...]:
    r = minimal_base_index(x)
    a, b, c = abc_exponents(n, d)
    whole, rem = divmod(n, d)
    after = whole + 1
    # For f = rem/d in (0, 1): a(f) = b(1 + f) and epsilon(f) = c(1 + f) + 1.
    _, a_f, c_1f = abc_exponents(d + rem, d)
    er_w = e_int(whole, r)
    er_w1 = e_int(after, r)
    return (
        a % 2,
        a_f % 2,
        (c_1f + 1) % 2,
        er_w % 2,
        ((whole & -whole).bit_length() - 1) % 2,  # end2(whole), the exponent of P_1 = 2
        er_w1 % 2,
        ((after & -after).bit_length() - 1) % 2,
        (b - a) % 3,  # a((x - 2^a) / 2^a) = a(x - 2^a) - a
        0 if is_power_of_two_int(whole) else 1,
        0 if a - b > er_w else 1,
        0 if a - b > er_w1 else 1,
        0 if a - c > er_w else 1,
        0 if a - c > er_w1 else 1,
    )


# --- registry for the value-colouring engines --------------------------------


def _phi_on_rational(x: Rational) -> ColourValue:
    if x.denominator != 1:
        raise DomainError(f"phi colours integers only, got {x}")
    return BITS[phi(x.numerator)]


def _theta_on_rational(x: Rational) -> ColourValue:
    if x.denominator != 1:
        raise DomainError(f"theta colours naturals only, got {x}")
    return theta(x.numerator)


#: colourings accepted by check/search: each maps a positive rational to a ColourValue.
UNARY_COLOURINGS: dict[str, Callable[[Rational], ColourValue]] = {
    "phi": _phi_on_rational,
    "theta": _theta_on_rational,
    "nu": nu,
    "mu": mu,
    "alpha": alpha,
    "const": lambda x: CONST,
}
#: colourings of pairs of integers; usable with `colour` only.
PAIR_COLOURINGS: dict[str, Callable[[int, int], PhiValue]] = {
    "bigphi": big_phi,
    "psi": psi,
    "psiprime": psi_prime,
}


# --- shadows: cheap exact projections of the colour keys ---------------------
# A shadow maps a reduced pair (n, d) to a token equal on any two values of equal key, so
# values whose shadows differ have different keys.

#: the colourings with a shadow; ``phi``, ``theta`` and ``const`` have none. nu's and alpha's
#: shadows are their own first stages, so neither can decide a class two ways.
SHADOWS: dict[str, Callable[[int, int], Hashable]] = {
    "nu": _nu_head, "alpha": _alpha_head,
    "mu": lambda n, d: (n >= d, _nu_head(n, d)),  # MuWhole or MuFrac, then nu's shadow
}

#: the colourings under which a natural's key is a function of its binary profile (see
#: ``theta``); the v2 of a sum or product alone gives that key's end parity and phi(end)
HEADED = ("theta", "alpha")


def colouring_fn(colouring_id: str, table: PrimeTable | None = None) -> Callable[[Rational], ColourValue]:
    """Resolve a colouring id to a function on positive rationals."""
    # ``table`` is ignored; perfbench/tracing.py passes one until the benchmark is next revised.
    if colouring_id in UNARY_COLOURINGS:
        return UNARY_COLOURINGS[colouring_id]
    if colouring_id in PAIR_COLOURINGS:
        raise DomainError(f"colouring {colouring_id!r} applies to pairs, not single values")
    raise DomainError(f"unknown colouring id: {colouring_id!r}")
