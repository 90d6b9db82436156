"""Naive second implementations of every colouring, for cross-checking.

These deliberately avoid the primary code paths: binary positions come from
string inspection, exponents from linear scans against the defining
inequalities, class memberships from the set definitions, and leading/trailing
digit positions from full digit-by-digit expansions. Slower, but an
independent route to the same answers.
"""

from __future__ import annotations

from fractions import Fraction

from .colourings import (
    PHI_ZERO,
    AlphaBig,
    AlphaNat,
    AlphaNegPow2,
    AlphaSmall,
    ColourValue,
    MuFrac,
    MuWhole,
    NuClass,
    NuSpecial,
    NuTuple,
    PhiTuple,
    PhiValue,
    ThetaTuple,
)
from .core import PRIME_CAP, Rational
from .errors import DomainError, InternalInvariantError

_SCAN_LIMIT = 10_000


def phi_oracle(k: int) -> int:
    """The defining recurrence, without a memo: phi(0..3) = 0, 1, 0, 1, and
    otherwise phi(k) = 1 - phi(k//2 + 1), which reaches 0..3 from either side;
    unrolled into a loop, each step flips the colour."""
    flips = 0
    while not 0 <= k <= 3:
        k = k // 2 + 1
        flips += 1
    return (k + flips) % 2


def _bits(m: int) -> str:
    return bin(m)[2:]


def _end_str(m: int) -> int:
    s = _bits(m)
    return len(s) - 1 - s.rindex("1")


def _start_str(m: int) -> int:
    return len(_bits(m)) - 1


def _digit_str(m: int, pos: int) -> int:
    s = _bits(m)
    i = len(s) - 1 - pos
    return int(s[i]) if 0 <= i < len(s) else 0


def _require_pair(a: int, b: int, least_first: int = 0) -> None:
    """The pair colourings' domain: both components non-negative, the first at least ``least_first``."""
    if a < least_first or a < 0 or b < 0:
        raise DomainError(f"pair ({a}, {b}) outside the domain of the pair colouring")


def big_phi_oracle(a: int, b: int) -> PhiValue:
    _require_pair(a, b)
    if a == 0 or b == 0 or a >= b:
        return PHI_ZERO
    return PhiTuple(
        c1=_end_str(a) % 2,
        c2=_end_str(b) % 2,
        c3=_digit_str(a, _end_str(a) + 1),
        c4=_digit_str(b, _end_str(b) + 1),
        c5=0 if _end_str(b) > _start_str(a) else 1,
    )


def psi_oracle(a: int, b: int) -> PhiValue:
    _require_pair(a, b)
    return big_phi_oracle(a, b + 1)


def psi_prime_oracle(a: int, b: int) -> PhiValue:
    _require_pair(a, b, least_first=1)
    if a == 1:
        return big_phi_oracle(1, 2)
    return big_phi_oracle(a - 1, b)


def theta_oracle(m: int) -> ThetaTuple:
    s = _bits(m)
    power = s.count("1") == 1
    end, start = _end_str(m), _start_str(m)
    if power:
        gap_parity, tail = 0, 0
    else:
        one_positions = [len(s) - 1 - i for i, ch in enumerate(s) if ch == "1"]
        gap = one_positions[0] - one_positions[1]
        gap_parity, tail = gap % 2, 0 if gap == 1 else 1
    return ThetaTuple(
        power=1 if power else 0,
        end_parity=end % 2,
        gap_parity=gap_parity,
        phi_inner=big_phi_oracle(end, start),
        phi_inner_shift=big_phi_oracle(end, start + 1),
        phi_of_end=phi_oracle(end),
        tail=tail,
    )


def _is_pow2_nat(n: int) -> bool:
    while n % 2 == 0:
        n //= 2
    return n == 1


def _in_c1(x: Rational) -> bool:
    n, d = x.numerator, x.denominator
    return (n == 1 or d == 1) and _is_pow2_nat(n) and _is_pow2_nat(d)


def _pow2_frac(e: int) -> Fraction:
    return Fraction(2) ** e


def _a_scan(x: Rational) -> int:
    a = 0
    guard = 0
    while x < _pow2_frac(a):
        a -= 1
        guard += 1
        if guard > _SCAN_LIMIT:
            raise InternalInvariantError(f"a-scan runaway for {x}")
    while x >= _pow2_frac(a + 1):
        a += 1
        guard += 1
        if guard > _SCAN_LIMIT:
            raise InternalInvariantError(f"a-scan runaway for {x}")
    return a


def _in_c3(x: Rational) -> bool:
    if _in_c1(x):
        return False
    w = x - _pow2_frac(_a_scan(x))
    return w > 0 and _in_c1(w)


def _in_c4(x: Rational) -> bool:
    w = _pow2_frac(_a_scan(x) + 1) - x
    return w > 0 and _in_c1(w)


def _b_scan(x: Rational) -> int:
    a = _a_scan(x)
    for l in range(a - 1, a - _SCAN_LIMIT, -1):
        if _pow2_frac(a) + _pow2_frac(l) <= x < _pow2_frac(a) + _pow2_frac(l + 1):
            return l
    raise InternalInvariantError(f"b-scan exhausted for {x}")


def _c_scan(x: Rational) -> int:
    a = _a_scan(x)
    for c in range(a - 1, a - _SCAN_LIMIT, -1):
        if _pow2_frac(a + 1) - _pow2_frac(c + 1) <= x < _pow2_frac(a + 1) - _pow2_frac(c):
            return c
    raise InternalInvariantError(f"c-scan exhausted for {x}")


def _epsilon_scan(f: Rational) -> int:
    for e in range(1, -_SCAN_LIMIT, -1):
        if 1 - _pow2_frac(e) <= f < 1 - _pow2_frac(e - 1):
            return e
    raise InternalInvariantError(f"epsilon-scan exhausted for {f}")


def nu_oracle(x: Rational) -> ColourValue:
    if _in_c1(x):
        return NuSpecial(NuClass.C1)
    c3, c4 = _in_c3(x), _in_c4(x)
    if c3 and not c4:
        return NuSpecial(NuClass.C3mC4)
    if c4:
        return NuSpecial(NuClass.C4mC1)
    a, b, c = _a_scan(x), _b_scan(x), _c_scan(x)
    w1 = 0 if x * x < _pow2_frac(2 * a + 1) else 1
    below_surd = x * x < _pow2_frac(2 * a + 2) * (1 - _pow2_frac(c - a))
    w5 = (a - c) % 3 if below_surd else (a - c - 1) % 3
    return NuTuple(w1=w1, w2=phi_oracle(a), w3=(a - b) % 3, w4=(a - c) % 3, w5=w5)


def _prime_gen():
    """Primes by trial division, independently of the sieve table."""
    p = 2
    while True:
        if all(p % q for q in range(2, int(p**0.5) + 1)):
            yield p
        p += 1


def _minimal_base_scan(x: Rational) -> int:
    d = x.denominator
    if d == 1:
        return 1
    index = 0
    best = 1
    for p in _prime_gen():
        index += 1
        while d % p == 0:
            d //= p
            best = index
        if d == 1:
            return best
        if index > PRIME_CAP:
            raise DomainError(f"denominator of {x} not supported by the oracle")


def _primorial_scan(n: int) -> int:
    gen = _prime_gen()
    out = 1
    for _ in range(n):
        out *= next(gen)
    return out


def _frac_digit_positions(x: Rational, base: int) -> tuple[int, int]:
    """(leading, trailing) nonzero positions of x in (0,1) by full expansion."""
    digits = {}
    pos = -1
    f = x
    while f:
        f *= base
        d = int(f)
        f -= d
        if d:
            digits[pos] = d
        pos -= 1
        if pos < -_SCAN_LIMIT:
            raise DomainError(f"{x} does not terminate in base {base}")
    return max(digits), min(digits)


def mu_oracle(x: Rational) -> ColourValue:
    if x >= 1:
        return MuWhole(nu=nu_oracle(x))
    n = _minimal_base_scan(x)
    s, e = _frac_digit_positions(x, _primorial_scan(n))
    return MuFrac(
        nu=nu_oracle(x),
        phi=big_phi_oracle(-s, -e),
        psi_prime=psi_prime_oracle(-s, -e),
    )


def _int_trailing_position(m: int, base: int) -> int:
    digits = []
    while m:
        m, d = divmod(m, base)
        digits.append(d)
    for i, d in enumerate(digits):
        if d:
            return i
    raise InternalInvariantError("zero has no trailing digit")


def alpha_oracle(x: Rational) -> ColourValue:
    if x.denominator == 1:
        return AlphaNat(theta=theta_oracle(x.numerator))
    if _in_c1(x):
        return AlphaNegPow2()
    if x <= 2:
        return AlphaSmall()
    r = _minimal_base_scan(x)
    base = _primorial_scan(r)
    a, b, c = _a_scan(x), _b_scan(x), _c_scan(x)
    whole = x.numerator // x.denominator
    frac = x - whole
    er_w = _int_trailing_position(whole, base)
    e2_w = _int_trailing_position(whole, 2)
    er_w1 = _int_trailing_position(whole + 1, base)
    e2_w1 = _int_trailing_position(whole + 1, 2)
    rx = (x - _pow2_frac(a)) / _pow2_frac(a)
    return AlphaBig(
        components=(
            a % 2,
            _a_scan(frac) % 2,
            _epsilon_scan(frac) % 2,
            er_w % 2,
            e2_w % 2,
            er_w1 % 2,
            e2_w1 % 2,
            _a_scan(rx) % 3,
            0 if _is_pow2_nat(whole) else 1,
            0 if a - b > er_w else 1,
            0 if a - b > er_w1 else 1,
            0 if a - c > er_w else 1,
            0 if a - c > er_w1 else 1,
        )
    )

