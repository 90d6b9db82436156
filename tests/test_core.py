"""Exact rational primitives: parsing, dyadic helpers, prime table."""
from __future__ import annotations

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qcolour.core import (
    PRIME_CAP,
    Ordering,
    a_exponent,
    cmp_c5_boundary,
    cmp_pow2_half,
    floor_frac,
    in_C3,
    in_C4,
    is_power_of_two,
    make_rational,
    minimal_base_index,
    nth_prime,
    parse_rational,
    pow2,
    primorial,
)
from qcolour.errors import DomainError, TableExhaustedError, UnsupportedPrimeError

positive_rationals = st.fractions(min_value=Fraction(1, 10**6), max_value=10**6)


class TestParsing:
    @pytest.mark.parametrize(
        "text, num, den",
        [("3", 3, 1), ("11/4", 11, 4), ("6/4", 3, 2), ("0014/7", 2, 1)],
    )
    def test_parse(self, text, num, den):
        x = parse_rational(text)
        assert (x.numerator, x.denominator) == (num, den)

    @pytest.mark.parametrize("text", ["0", "0/1", "-3", "3/0", "a", "1/2/3", ""])
    def test_parse_rejects(self, text):
        with pytest.raises(DomainError):
            parse_rational(text)

    def test_make_rational_positive_only(self):
        assert make_rational(6, 4) == Fraction(3, 2)
        for num, den in [(0, 1), (-1, 2), (1, 0), (1, -2)]:
            with pytest.raises(DomainError):
                make_rational(num, den)

    @given(st.integers(1, 10**9), st.integers(1, 10**9))
    @settings(deadline=None)
    def test_make_parse_round_trip(self, num, den):
        x = make_rational(num, den)
        assert parse_rational(str(x)) == x


class TestDyadicHelpers:
    @pytest.mark.parametrize(
        "x, a",
        [
            (Fraction(1), 0),
            (Fraction(8), 3),
            (Fraction(11, 4), 1),
            (Fraction(5, 6), -1),
            (Fraction(1, 3), -2),
        ],
    )
    def test_a_exponent_values(self, x, a):
        assert a_exponent(x) == a

    @given(positive_rationals)
    @settings(deadline=None)
    def test_a_exponent_brackets(self, x):
        a = a_exponent(x)
        assert pow2(a) <= x < pow2(a + 1)

    def test_pow2(self):
        assert pow2(5) == 32
        assert pow2(-3) == Fraction(1, 8)

    def test_is_power_of_two(self):
        assert is_power_of_two(Fraction(16))
        assert is_power_of_two(Fraction(1, 8))
        assert not is_power_of_two(Fraction(6))
        assert not is_power_of_two(Fraction(3, 2))

    def test_membership_sets(self):
        # two binary digits vs a contiguous run of ones
        assert [m for m in range(1, 21) if in_C3(Fraction(m))] == [3, 5, 6, 9, 10, 12, 17, 18, 20]
        assert [m for m in range(1, 21) if in_C4(Fraction(m))] == [1, 2, 3, 4, 6, 7, 8, 12, 14, 15, 16]
        assert in_C3(Fraction(5, 4)) and in_C4(Fraction(3, 4))
        assert not in_C3(Fraction(5, 6)) and not in_C4(Fraction(5, 6))

    def test_cmp_pow2_half(self):
        assert cmp_pow2_half(Fraction(3, 2), 0) is Ordering.ABOVE
        assert cmp_pow2_half(Fraction(7, 5), 0) is Ordering.BELOW
        assert cmp_pow2_half(Fraction(181, 128), 0) is Ordering.BELOW
        assert cmp_pow2_half(Fraction(3), 1) is Ordering.ABOVE

    @given(positive_rationals, st.integers(-10, 10))
    @settings(deadline=None)
    def test_cmp_pow2_half_matches_square(self, x, k):
        expected = (x * x).__gt__(pow2(2 * k + 1))
        got = cmp_pow2_half(x, k)
        if x * x == pow2(2 * k + 1):  # unreachable for rationals: 2^(2k+1) is no square
            pytest.fail("rational hit an irrational boundary")
        assert (got is Ordering.ABOVE) == expected

    def test_cmp_c5_boundary(self):
        assert cmp_c5_boundary(Fraction(7, 2), 2, 0) is Ordering.BELOW
        with pytest.raises(DomainError):
            cmp_c5_boundary(Fraction(7, 2), 2, 2)

    @given(positive_rationals)
    @settings(deadline=None)
    def test_floor_frac(self, x):
        whole, frac = floor_frac(x)
        assert whole == math.floor(x) and whole + frac == x and 0 <= frac < 1


class TestPrimeTable:
    def test_first_primes(self):
        assert [nth_prime(i) for i in range(1, 7)] == [2, 3, 5, 7, 11, 13]
        assert nth_prime(64) == 311

    def test_primorials(self):
        assert [primorial(n) for n in range(1, 5)] == [2, 6, 30, 210]
        with pytest.raises(DomainError):
            primorial(0)

    def test_exhaustion(self):
        # the table grows on demand, up to the cap and no further
        assert nth_prime(PRIME_CAP) == 180_503
        with pytest.raises(TableExhaustedError, match=f"cap of {PRIME_CAP} primes"):
            nth_prime(PRIME_CAP + 1)
        with pytest.raises(TableExhaustedError):
            primorial(PRIME_CAP + 1)

    @pytest.mark.parametrize(
        "x, n",
        [
            (Fraction(7), 1),
            (Fraction(3, 8), 1),
            (Fraction(14305, 96), 2),
            (Fraction(1, 3), 2),
            (Fraction(1, 10), 3),
            (Fraction(9, 77), 5),
        ],
    )
    def test_minimal_base_index(self, x, n):
        assert minimal_base_index(x) == n

    def test_minimal_base_unsupported_prime(self):
        # 313 is the 65th prime and 180,503 the last one under the cap
        assert minimal_base_index(Fraction(1, 313)) == 65
        assert minimal_base_index(Fraction(1, 180_503)) == PRIME_CAP
        for den in (180_511, 2 * 180_511):  # the first prime past the cap
            with pytest.raises(UnsupportedPrimeError, match=f"first {PRIME_CAP} primes"):
                minimal_base_index(Fraction(1, den))

    @given(
        num=st.integers(1, 500),
        i=st.integers(0, 5),
        j=st.integers(0, 3),
        k=st.integers(0, 2),
    )
    @settings(deadline=None)
    def test_minimal_base_strips_exactly(self, num, i, j, k):
        # denominator built from the first three primes: index is the largest used
        den = 2**i * 3**j * 5**k
        x = make_rational(num * den + num, den)  # keep it reduced-ish but arbitrary
        n = minimal_base_index(x)
        d = x.denominator
        for p in [2, 3, 5, 7, 11][:n]:
            while d % p == 0:
                d //= p
        assert d == 1
        if n > 1:
            assert x.denominator % nth_prime(n) == 0
