"""Exact positive-rational arithmetic and the algebraic predicates built on it.

Rationals are plain ``fractions.Fraction`` values (exact, arbitrary precision,
always reduced); this module adds the domain-checked constructors, the dyadic
shape predicates (powers of two, two-digit and all-ones binary forms), exact
comparisons against the two quadratic-surd boundary families, and the first
``PRIME_CAP`` primes, sieved once per process the first time one is read.
Exponents have no window: each is bounded by its operands' bit lengths, and
the surd comparisons settle one far from x's own unshifted, at a cost bounded by x.
"""

from __future__ import annotations

import functools
import itertools
import math
import re
from enum import Enum
from fractions import Fraction
from typing import Iterator

from .errors import (
    DomainError,
    InternalInvariantError,
    TableExhaustedError,
    UnsupportedPrimeError,
)

Rational = Fraction

#: No exponent is confined to a window; perfbench/workloads.py reads this bound on its
#: generated products until the benchmark is next revised.
EXPONENT_LIMIT = 2**62

#: Integers of more decimal digits than this are refused: CPython by default
#: will not convert one to or from a string, and a constant gives every
#: interpreter the same answer.
MAX_DIGITS = 4300
DIGIT_LIMIT = 10**MAX_DIGITS

_RATIONAL_RE = re.compile(r"^([0-9]+)(?:/([0-9]+))?$")


class Ordering(Enum):
    BELOW = "below"
    ABOVE = "above"


def check_digits(value: int, what: str) -> int:
    """Return ``value`` unchanged, rejecting more than ``MAX_DIGITS`` decimal digits."""
    if value >= DIGIT_LIMIT:
        raise DomainError(f"{what} has more than {MAX_DIGITS} decimal digits")
    return value


def make_rational(num: int, den: int = 1) -> Rational:
    """Build a positive rational in lowest terms from positive integers."""
    if not isinstance(num, int) or not isinstance(den, int):
        raise DomainError("numerator and denominator must be integers")
    if num < 1 or den < 1:
        raise DomainError(f"rational must be positive: got {num}/{den}")
    return Fraction(num, den)


def parse_rational(text: str) -> Rational:
    """Parse ``"p"`` or ``"p/q"`` (decimal, unsigned, nonzero); reduces the result."""
    if not isinstance(text, str):
        raise DomainError(f"not a positive rational: {text!r}")
    m = _RATIONAL_RE.match(text.strip())
    if m is None:
        raise DomainError(f"not a positive rational: {text!r}")
    if max(len(part or "") for part in m.groups()) > MAX_DIGITS:
        raise DomainError(f"numerator or denominator has more than {MAX_DIGITS} decimal digits")
    num = int(m.group(1))
    den = int(m.group(2)) if m.group(2) is not None else 1
    return make_rational(num, den)


def _require_positive(x: Rational) -> None:
    if x.numerator <= 0:
        raise DomainError(f"expected a positive rational, got {x}")


def a_exponent(x: Rational) -> int:
    """The unique a with 2^a <= x < 2^(a+1)."""
    _require_positive(x)
    n, d = x.numerator, x.denominator
    a = log2_floor(n, d)
    if _cmp_pow2(n, d, a) < 0 or _cmp_pow2(n, d, a + 1) >= 0:
        raise InternalInvariantError(f"a-exponent self-check failed for {x}")
    return a


def log2_floor(n: int, d: int) -> int:
    """⌊log₂(n/d)⌋ for positive, not necessarily coprime, integers n and d."""
    a = n.bit_length() - d.bit_length()  # the answer is a or a - 1, as n/d < 2^a or not
    return a - 1 if (n < d << a if a >= 0 else n << -a < d) else a


def _cmp_pow2(n: int, d: int, e: int) -> int:
    """Sign of n/d - 2^e using only integer shifts."""
    lhs, rhs = (n, d << e) if e >= 0 else (n << -e, d)
    return (lhs > rhs) - (lhs < rhs)


def is_power_of_two(x: Rational) -> bool:
    """True iff x = 2^k for some integer k (class C1)."""
    _require_positive(x)
    return is_dyadic(x) and is_power_of_two_int(x.numerator)


def is_dyadic(x: Rational) -> bool:
    """True iff the denominator of x is a power of two."""
    return is_power_of_two_int(x.denominator)


def is_power_of_two_int(m: int) -> bool:
    """True iff the natural number m is a power of two."""
    return m & (m - 1) == 0


def in_C3(x: Rational) -> bool:
    """True iff x = 2^k + 2^l with integers l < k (two binary digits)."""
    _require_positive(x)
    return is_dyadic(x) and two_ones(x.numerator)


def in_C4(x: Rational) -> bool:
    """True iff x = 2^k - 2^l with integers l < k (a contiguous run of 1s)."""
    _require_positive(x)
    return is_dyadic(x) and one_run(x.numerator)


def two_ones(n: int) -> bool:
    """C3 on a dyadic n/d: the natural number n has exactly two binary 1s."""
    return n.bit_count() == 2


def one_run(n: int) -> bool:
    """C4 on a dyadic n/d: the binary 1s of the natural number n are contiguous."""
    odd = n // (n & -n)  # n without trailing zeros
    return odd & (odd + 1) == 0  # all ones


def cmp_pow2_half(x: Rational, k: int) -> Ordering:
    """Compare x against 2^(k+1/2) exactly: the C5 boundary at (a, c) = (k, k - 1)."""
    return cmp_c5_boundary(x, k, k - 1)


def cmp_c5_boundary(x: Rational, a: int, c: int) -> Ordering:
    """Compare x = n/d against 2^(a+1)·(1-2^(c-a))^(1/2), via n^2 vs d^2·(2^(a-c)-1)·2^(a+c+2).

    The boundary lies in [2^(a+1/2), 2^(a+1)), so an x of another a-exponent is settled
    unshifted. Else 2^(a+1) - x > 2^(-L), L = d.bit_length() + max(0, -a - 1), so x is
    below 2^(a+1) - 2^(c+1), itself below the boundary, once c + 1 <= -L.
    """
    _require_positive(x)
    if c >= a:
        raise DomainError(f"need c < a, got c={c}, a={a}")
    n, d = x.numerator, x.denominator
    own = log2_floor(n, d)
    if own != a:
        below = own < a
    else:
        below = c + 1 <= -(d.bit_length() + max(0, -a - 1)) or below_surd(n * n, d * d, a, c)
    return Ordering.BELOW if below else Ordering.ABOVE


def below_surd(nn: int, dd: int, a: int, c: int) -> bool:
    """Whether n/d < 2^(a+1)·(1-2^(c-a))^(1/2), from nn = n^2 and dd = d^2, for c < a.

    At c = a - 1 the boundary is 2^(a+1/2), the half-power one.
    """
    sign = _cmp_pow2(nn, dd * ((1 << (a - c)) - 1), a + c + 2)
    if sign == 0:
        raise InternalInvariantError(f"rational of square {nn}/{dd} on the surd boundary ({a},{c})")
    return sign < 0


# --- primes ------------------------------------------------------------------

#: The package reads only the first 2^14 primes; the last is ``_PRIME_LIMIT``.
PRIME_CAP = 2**14
_PRIME_LIMIT = 180_503


@functools.cache
def _primes() -> list[int]:
    """The first ``PRIME_CAP`` primes, sieved once per process when a prime is first read."""
    flags = bytearray([1]) * (_PRIME_LIMIT // 2 + 1)  # flags[i] is for the odd number 2i + 1
    flags[0] = 0
    for i in range(1, math.isqrt(_PRIME_LIMIT) // 2 + 1):
        if flags[i]:  # p = 2i + 1 is prime: clear its odd multiples from p², at indices p²//2 + kp
            p = 2 * i + 1
            flags[p * p // 2 :: p] = bytes(len(range(p * p // 2, len(flags), p)))
    primes = [2, *itertools.compress(range(1, _PRIME_LIMIT + 1, 2), flags)]
    if len(primes) != PRIME_CAP:
        raise InternalInvariantError(
            f"sieve up to {_PRIME_LIMIT} found {len(primes)} primes, not {PRIME_CAP}"
        )
    return primes


class PrimeTable:
    """The first ``count`` primes, a slice of the one list."""

    def __init__(self, count: int):
        # perfbench/gate.py builds one until the benchmark is next revised.
        nth_prime(count)  # refuses a count outside [1, PRIME_CAP]
        self.primes = _primes()[:count]

    @property
    def count(self) -> int:
        return len(self.primes)


def default_table() -> PrimeTable:
    """All ``PRIME_CAP`` primes as a ``PrimeTable``."""
    # perfbench/common.py and tracing.py call this until the benchmark is next revised.
    return PrimeTable(PRIME_CAP)


def iter_primes() -> Iterator[int]:
    """The first ``PRIME_CAP`` primes in order."""
    return iter(_primes())


def nth_prime(n: int) -> int:
    """The n-th prime, 1-based, for n up to ``PRIME_CAP``."""
    if n < 1:
        raise DomainError(f"prime index must be >= 1, got {n}")
    if n > PRIME_CAP:
        raise TableExhaustedError(f"prime index {n} beyond the cap of {PRIME_CAP} primes")
    return _primes()[n - 1]


@functools.lru_cache(maxsize=32)
def primorial(n: int) -> int:
    """Product of the first n primes, for n up to ``PRIME_CAP``, computed when asked for.

    The 32 most recently used are kept, at most about 1 MiB at the cap, since
    one certificate's values tend to share a base.
    """
    nth_prime(n)  # refuses an index outside [1, PRIME_CAP]
    return math.prod(itertools.islice(_primes(), n))


def divide_out_primes(d: int, count: int = PRIME_CAP) -> tuple[int, int, int]:
    """Divide the first ``count`` primes out of the natural number ``d``; never raises.

    Returns the residue, the 1-based index of the largest prime divided out
    and the largest exponent of any prime divided out (0 and 0 if none).
    """
    if d == 1:
        return 1, 0, 0
    index = exponent = 0
    for i, p in enumerate(itertools.islice(iter_primes(), max(count, 0)), start=1):
        if d % p == 0:
            d //= p
            e = 1
            while d % p == 0:
                d //= p
                e += 1
            index = i
            exponent = max(exponent, e)
            if d == 1:
                break
    return d, index, exponent


def base_index_and_exponent(x: Rational) -> tuple[int, int]:
    """``minimal_base_index(x)`` and the largest prime exponent u of the denominator,
    from one walk; P_n is squarefree, so u is the least power with x·P_n^u integral.
    A prime factor past the cap is rejected after every prime up to it is divided out."""
    _require_positive(x)
    residue, n, u = divide_out_primes(x.denominator)
    if residue != 1:
        raise UnsupportedPrimeError(
            f"denominator of {x} has a prime factor beyond the first {PRIME_CAP} primes"
            f" (residue {residue})"
        )
    return max(n, 1), u


def minimal_base_index(x: Rational, table: PrimeTable | None = None) -> int:
    """Smallest n with every prime factor of the denominator <= the n-th prime; 1 for integers."""
    # ``table`` is ignored; perfbench/tracing.py passes one until the benchmark is next revised.
    return base_index_and_exponent(x)[0]

