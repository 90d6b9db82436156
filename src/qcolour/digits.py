"""Digit-position machinery.

Binary start/end/gap profiles for naturals, primorial-base expansions with
signed digit positions for rationals, and the derived exponent functions
``b``/``c``/``epsilon`` used by the colourings.
"""

from __future__ import annotations

from fractions import Fraction

from .core import (
    PrimeTable,
    Rational,
    Record,
    check_digits,
    divide_out_primes,
    is_power_of_two,
    log2_floor,
    nth_prime,
    primorial,
)
from .errors import DomainError, InternalInvariantError, UnsupportedPrimeError


class BinaryProfile(Record):
    """Positions of the significant binary digits of a natural number.

    ``end``/``start`` are the rightmost/leftmost 1 positions, ``gap`` the
    distance between the two most significant 1s (None for powers of two).
    """

    end: int
    start: int
    gap: int | None
    power_of_two: bool


def binary_profile(m: int) -> BinaryProfile:
    end, start, gap = binary_positions(m)
    return BinaryProfile(end=end, start=start, gap=gap, power_of_two=gap is None)


def binary_positions(m: int) -> tuple[int, int, int | None]:
    """``(end, start, gap)`` of the natural number m, as in ``BinaryProfile``."""
    if m < 1:
        raise DomainError(f"need a natural number, got {m}")
    start = m.bit_length() - 1
    rest = m ^ (1 << start)  # m without its leading 1
    return (m & -m).bit_length() - 1, start, start - rest.bit_length() + 1 if rest else None


def end2(m: int) -> int:
    """Rightmost significant binary position (2-adic valuation)."""
    if m < 1:
        raise DomainError(f"need a natural number, got {m}")
    return (m & -m).bit_length() - 1


def start2(m: int) -> int:
    """Leftmost significant binary position."""
    if m < 1:
        raise DomainError(f"need a natural number, got {m}")
    return m.bit_length() - 1


def right_left_disjoint(a: int, b: int) -> int:
    """0 if the support of b sits strictly left of the support of a, else 1."""
    return 0 if end2(b) > start2(a) else 1


def b_exponent(x: Rational) -> int:
    """The unique b with 2^a + 2^b <= x < 2^a + 2^(b+1), a = a_exponent(x)."""
    if is_power_of_two(x):
        raise DomainError(f"b-exponent undefined on powers of two: {x}")
    return abc_exponents(x.numerator, x.denominator)[1]


def c_exponent(x: Rational) -> int:
    """The unique c < a with 2^(a+1) - 2^(c+1) <= x < 2^(a+1) - 2^c."""
    if is_power_of_two(x):
        raise DomainError(f"c-exponent undefined on powers of two: {x}")
    return abc_exponents(x.numerator, x.denominator)[2]


def abc_exponents(n: int, d: int) -> tuple[int, int, int]:
    """(a, b, c) of x = n/d > 0, not a power of two: ``scaled`` then ``bc_exponents``."""
    a, sn, sd = scaled(n, d)
    return (a, *bc_exponents(a, sn, sd))


def scaled(n: int, d: int) -> tuple[int, int, int]:
    """(a, sn, sd) of x = n/d > 0 in integers: a = ⌊log₂ x⌋ and x·2^(-a) = sn/sd is in [1, 2)."""
    a = log2_floor(n, d)
    sn, sd = (n, d << a) if a >= 0 else (n << -a, d)
    if not sd <= sn < sd << 1:
        raise InternalInvariantError(f"a-exponent self-check failed for {Fraction(n, d)}")
    return a, sn, sd


def bc_exponents(a: int, sn: int, sd: int) -> tuple[int, int]:
    """(b, c) of x = 2^a·sn/sd, not a power of two, from ``scaled(x)``: b - a = ⌊log₂((sn - sd)/sd)⌋,
    and c - a is the k < 0 with 2^k < wn/sd <= 2^(k+1) for wn = 2·sd - sn."""
    t = sn - sd
    i = log2_floor(t, sd)
    if not (i < 0 and t << -i >= sd > t << (-i - 1)):
        raise InternalInvariantError(f"b-exponent self-check failed for {Fraction(2) ** a * sn / sd}")
    wn = 2 * sd - sn
    j = log2_floor(wn, sd)
    k = j - 1 if j <= 0 and wn << -j == sd else j
    if not (k < 0 and wn << -k > sd >= wn << (-k - 1)):
        raise InternalInvariantError(f"c-exponent self-check failed for {Fraction(2) ** a * sn / sd}")
    return a + i, a + k


def epsilon_exponent(f: Rational) -> int:
    """The unique e with 1 - 2^e <= f < 1 - 2^(e-1), for 0 < f < 1: e - 1 is
    the c-exponent of 1 + f, as 2 - 2^e <= 1 + f < 2 - 2^(e-1)."""
    n, d = f.numerator, f.denominator
    if not 0 < n < d:
        raise DomainError(f"epsilon-exponent needs 0 < f < 1, got {f}")
    return abc_exponents(n + d, d)[2] + 1


class DigitExpansion(Record):
    """Sparse base-P_n expansion: only nonzero digits, keyed by signed position."""

    base_index: int
    digits: dict[int, int]

    def leading(self) -> int:
        return max(self.digits)

    def trailing(self) -> int:
        return min(self.digits)

    def value(self) -> Rational:
        """Σ digit·P^pos, as one integer sum over P^(−low), low = min(trailing position, 0)."""
        base = primorial(self.base_index)
        low = min(min(self.digits, default=0), 0)
        return Fraction(sum(digit * base ** (pos - low) for pos, digit in self.digits.items()), base ** -low)

    def positional(self) -> str:
        """Positional string with an explicit radix point.

        Digits are concatenated for bases up to 10 and comma-separated above.
        """
        base = primorial(self.base_index)
        hi = max(self.leading(), 0)
        whole = [str(self.digits.get(p, 0)) for p in range(hi, -1, -1)]
        frac = []
        if self.trailing() < 0:
            frac = [str(self.digits.get(p, 0)) for p in range(-1, self.trailing() - 1, -1)]
        sep = "" if base <= 10 else ","
        return sep.join(whole) + "." + sep.join(frac)


def expand(x: Rational, n: int, table: PrimeTable | None = None) -> DigitExpansion:
    """Greedy exact base-P_n expansion of a positive rational."""
    # ``table`` is ignored; perfbench/tracing.py passes one until the benchmark is next revised.
    base = check_digits(primorial(n), f"base P_{n}")  # its digits must print
    if x.numerator <= 0:
        raise DomainError(f"expected a positive rational, got {x}")
    _trailing_exponent(x, n)  # the domain check
    whole, num = divmod(x.numerator, x.denominator)
    digits: dict[int, int] = {}
    pos = 0
    while whole:
        whole, d = divmod(whole, base)
        if d:
            digits[pos] = d
        pos += 1
    pos = -1
    while num:
        d, num = divmod(num * base, x.denominator)
        if d:
            digits[pos] = d
        pos -= 1
    return DigitExpansion(n, digits)


def s_frac(x: Rational, n: int, table: PrimeTable | None = None) -> int:
    """Leading nonzero digit position of x in base P_n, for 0 < x < 1."""
    # ``table`` is ignored; perfbench/tracing.py passes one until the benchmark is next revised.
    e_frac(x, n)  # the domain checks
    return leading_frac_position(x, n)


def leading_frac_position(x: Rational, n: int) -> int:
    """Leading nonzero digit position of 0 < x < 1 in base P_n, unchecked: minus the least
    k >= 1 with x·P_n^k >= 1. As P_n >= 2^n, bit lengths show k = 1 unless den is within a
    factor 2 of num·2^n or past it, and only then is P_n built."""
    num, den = x.numerator, x.denominator
    if num.bit_length() - 1 + n >= den.bit_length():  # num·P_n >= 2^(bits(num) - 1 + n) > den
        return -1
    base = primorial(n)
    num, s = num * base, -1
    while num < den:
        num *= base
        s -= 1
    return s


def e_frac(x: Rational, n: int, table: PrimeTable | None = None) -> int:
    """Trailing nonzero digit position of x in base P_n, for 0 < x < 1.

    Computed as minus the smallest u with x·P_n^u integral (the base is
    squarefree, so u is the largest prime-power exponent in the denominator).
    """
    # ``table`` is ignored; perfbench/tracing.py passes one until the benchmark is next revised.
    if not 0 < x < 1:
        raise DomainError(f"need 0 < x < 1, got {x}")
    return -_trailing_exponent(x, n)


def _trailing_exponent(x: Rational, n: int) -> int:
    """The least u with x·P_n^u integral; rejects x with no terminating base-P_n expansion."""
    nth_prime(n)  # refuses an index outside [1, PRIME_CAP], as ``primorial`` does
    residue, index, u = divide_out_primes(x.denominator)
    if residue != 1 or index > n:
        raise UnsupportedPrimeError(f"{x} has no terminating base-P_{n} expansion")
    return u


def e_int(m: int, base: int) -> int:
    """Largest k with base^k dividing the natural number m, for a base of at least 2 (as P_n)."""
    if m < 1:
        raise DomainError(f"need a natural number, got {m}")
    k = 0
    while m % base == 0:
        m //= base
        k += 1
    return k
