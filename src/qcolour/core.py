"""Exact positive-rational arithmetic and the algebraic predicates built on it.

Rationals are plain ``fractions.Fraction`` values (exact, arbitrary precision,
always reduced); this module adds the domain-checked constructors, the dyadic
shape predicates (powers of two, two-digit and all-ones binary forms), exact
comparisons against the two quadratic-surd boundary families, and the prime /
primorial table.
"""

from __future__ import annotations

import bisect
import math
import re
from enum import Enum
from fractions import Fraction

from .errors import (
    DomainError,
    InternalInvariantError,
    PositionOverflowError,
    TableExhaustedError,
    UnsupportedPrimeError,
)

Rational = Fraction

#: Exponents/digit positions are confined to a signed 64-bit-safe window.
EXPONENT_LIMIT = 2**62

_RATIONAL_RE = re.compile(r"^([0-9]+)(?:/([0-9]+))?$")


class Ordering(Enum):
    BELOW = "below"
    ABOVE = "above"


def check_exponent(value: int) -> int:
    """Return ``value`` unchanged, rejecting anything outside the 64-bit window."""
    if not -EXPONENT_LIMIT < value < EXPONENT_LIMIT:
        raise PositionOverflowError(f"exponent {value} outside ±2^62")
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
    m = _RATIONAL_RE.match(text.strip())
    if m is None:
        raise DomainError(f"not a positive rational: {text!r}")
    num = int(m.group(1))
    den = int(m.group(2)) if m.group(2) is not None else 1
    return make_rational(num, den)


def pow2(e: int) -> Rational:
    """2**e as an exact rational, for e of either sign."""
    check_exponent(e)
    if e >= 0:
        return Fraction(1 << e)
    return Fraction(1, 1 << -e)


def _require_positive(x: Rational) -> None:
    if x <= 0:
        raise DomainError(f"expected a positive rational, got {x}")


def a_exponent(x: Rational) -> int:
    """The unique a with 2^a <= x < 2^(a+1)."""
    _require_positive(x)
    n, d = x.numerator, x.denominator
    a = n.bit_length() - d.bit_length()
    # The bit-length estimate can be off by one; fix by exact comparison.
    if _cmp_pow2(n, d, a) < 0:
        a -= 1
    elif _cmp_pow2(n, d, a + 1) >= 0:
        a += 1
    assert _cmp_pow2(n, d, a) >= 0 and _cmp_pow2(n, d, a + 1) < 0
    return check_exponent(a)


def _cmp_pow2(n: int, d: int, e: int) -> int:
    """Sign of n/d - 2^e using only integer shifts."""
    lhs, rhs = (n, d << e) if e >= 0 else (n << -e, d)
    return (lhs > rhs) - (lhs < rhs)


def is_power_of_two(x: Rational) -> bool:
    """True iff x = 2^k for some integer k (class C1)."""
    _require_positive(x)
    n, d = x.numerator, x.denominator
    return (n == 1 or d == 1) and (n & (n - 1)) == 0 and (d & (d - 1)) == 0


def _is_dyadic(x: Rational) -> bool:
    d = x.denominator
    return (d & (d - 1)) == 0


def in_C3(x: Rational) -> bool:
    """True iff x = 2^k + 2^l with integers l < k (two binary digits)."""
    _require_positive(x)
    if not _is_dyadic(x):
        return False
    return bin(x.numerator).count("1") == 2


def in_C4(x: Rational) -> bool:
    """True iff x = 2^k - 2^l with integers l < k (a contiguous run of 1s)."""
    _require_positive(x)
    if not _is_dyadic(x):
        return False
    n = x.numerator
    n >>= (n & -n).bit_length() - 1  # strip trailing zeros
    return (n & (n + 1)) == 0  # all-ones


def cmp_pow2_half(x: Rational, k: int) -> Ordering:
    """Compare x against 2^(k+1/2) exactly, via x^2 vs 2^(2k+1)."""
    _require_positive(x)
    check_exponent(k)
    sq = x * x
    sign = _cmp_pow2(sq.numerator, sq.denominator, 2 * k + 1)
    if sign == 0:
        raise InternalInvariantError(f"rational {x} equals 2^({k}+1/2)")
    return Ordering.BELOW if sign < 0 else Ordering.ABOVE


def cmp_c5_boundary(x: Rational, a: int, c: int) -> Ordering:
    """Compare x against 2^(a+1)·(1-2^(c-a))^(1/2), via x^2 vs 2^(2a+2)-2^(a+c+2)."""
    _require_positive(x)
    check_exponent(a)
    check_exponent(c)
    if c >= a:
        raise DomainError(f"need c < a, got c={c}, a={a}")
    bound = pow2(2 * a + 2) - pow2(a + c + 2)
    sq = x * x
    if sq == bound:
        raise InternalInvariantError(f"rational {x} sits on the surd boundary ({a},{c})")
    return Ordering.BELOW if sq < bound else Ordering.ABOVE


# --- prime / primorial table -------------------------------------------------

DEFAULT_PRIME_COUNT = 64


def _first_primes(count: int) -> list[int]:
    """First ``count`` primes by a plain sieve (deterministic)."""
    if count < 1:
        raise DomainError("prime count must be >= 1")
    limit = 15 if count < 6 else int(count * (math.log(count) + math.log(math.log(count)))) + 10
    while True:
        flags = bytearray([1]) * (limit + 1)
        flags[0] = flags[1] = 0
        for p in range(2, int(limit**0.5) + 1):
            if flags[p]:
                flags[p * p :: p] = bytearray(len(flags[p * p :: p]))
        primes = [i for i, f in enumerate(flags) if f]
        if len(primes) >= count:
            return primes[:count]
        limit *= 2


class PrimeTable:
    """Read-only table of the first ``count`` primes and their prefix products."""

    def __init__(self, count: int = DEFAULT_PRIME_COUNT):
        self.primes = _first_primes(count)
        self._primorials = [1]
        for p in self.primes:
            self._primorials.append(self._primorials[-1] * p)

    @property
    def count(self) -> int:
        return len(self.primes)

    def nth(self, n: int) -> int:
        """The n-th prime, 1-based."""
        if n < 1:
            raise DomainError(f"prime index must be >= 1, got {n}")
        if n > self.count:
            raise TableExhaustedError(f"prime index {n} beyond table of {self.count}")
        return self.primes[n - 1]

    def primorial(self, n: int) -> int:
        """Product of the first n primes."""
        if n < 1:
            raise DomainError(f"primorial index must be >= 1, got {n}")
        if n > self.count:
            raise TableExhaustedError(f"primorial index {n} beyond table of {self.count}")
        return self._primorials[n]

    def index_of(self, p: int) -> int:
        """1-based index of the prime p, or raise if p is not in the table."""
        i = bisect.bisect_left(self.primes, p)
        if i < self.count and self.primes[i] == p:
            return i + 1
        raise UnsupportedPrimeError(f"{p} is not a prime in the table")


_default_table: PrimeTable | None = None


def default_table() -> PrimeTable:
    global _default_table
    if _default_table is None:
        _default_table = PrimeTable(DEFAULT_PRIME_COUNT)
    return _default_table


def nth_prime(n: int, table: PrimeTable | None = None) -> int:
    return (table or default_table()).nth(n)


def primorial(n: int, table: PrimeTable | None = None) -> int:
    return (table or default_table()).primorial(n)


def minimal_base_index(x: Rational, table: PrimeTable | None = None) -> int:
    """Smallest n such that every prime factor of the denominator is <= the n-th prime.

    Returns 1 for integers (denominator 1) by convention.
    """
    _require_positive(x)
    table = table or default_table()
    d = x.denominator
    if d == 1:
        return 1
    best = 0
    for i, p in enumerate(table.primes, start=1):
        if d == 1:
            break
        while d % p == 0:
            d //= p
            best = i
    if d != 1:
        raise UnsupportedPrimeError(
            f"denominator of {x} has a prime factor beyond the table (residue {d})"
        )
    return max(best, 1)


def floor_frac(x: Rational) -> tuple[int, Rational]:
    """Split x into (integer part, fractional part), both exact."""
    _require_positive(x)
    whole, rem = divmod(x.numerator, x.denominator)
    return whole, Fraction(rem, x.denominator)
