"""Binary profiles and primorial-base digit expansions."""
from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qcolour.core import minimal_base_index, primorial
from qcolour.digits import (
    b_exponent,
    binary_profile,
    c_exponent,
    e_frac,
    e_int,
    end2,
    epsilon_exponent,
    expand,
    right_left_disjoint,
    s_frac,
    start2,
)
from qcolour.errors import DomainError


class TestBinaryProfile:
    def test_worked_profile(self):
        p = binary_profile(138)  # 10001010
        assert (p.start, p.end, p.gap) == (7, 1, 4)

    @pytest.mark.parametrize(
        "m, start, end, gap, nxt",
        [(1, 0, 0, None, 0), (6, 2, 1, 1, 1), (8, 3, 3, None, 0),
         (96, 6, 5, 1, 1), (138, 7, 1, 4, 0), (2**20, 20, 20, None, 0)],
    )
    def test_profiles(self, m, start, end, gap, nxt):
        p = binary_profile(m)
        assert (p.start, p.end, p.gap, p.next_digit) == (start, end, gap, nxt)
        assert p.power_of_two == (gap is None)
        assert (start2(m), end2(m)) == (start, end)

    @given(st.integers(1, 2**64))
    @settings(deadline=None)
    def test_profile_matches_bit_twiddling(self, m):
        p = binary_profile(m)
        assert p.start == m.bit_length() - 1
        assert p.end == (m & -m).bit_length() - 1
        rest = m - (1 << p.start)
        assert p.gap == (None if rest == 0 else p.start - rest.bit_length() + 1)
        assert p.next_digit == (m >> (p.end + 1)) & 1

    def test_right_left_disjoint(self):
        # 0 exactly when the second support sits strictly left of the first
        assert right_left_disjoint(3, 12) == 0
        assert right_left_disjoint(12, 3) == 1
        assert right_left_disjoint(6, 3) == 1  # end2(3)=0 not above start2(6)=2

    def test_rejects_nonpositive(self):
        for bad in (0, -5):
            with pytest.raises(DomainError):
                binary_profile(bad)


class TestIntervalExponents:
    @pytest.mark.parametrize(
        "x, b, c",
        [
            (Fraction(11, 4), -1, 0),
            (Fraction(5, 6), -2, -3),
            (Fraction(1, 3), -4, -3),
        ],
    )
    def test_b_and_c(self, x, b, c):
        assert b_exponent(x) == b and c_exponent(x) == c

    def test_epsilon(self):
        assert epsilon_exponent(Fraction(3, 4)) == -2
        assert epsilon_exponent(Fraction(1, 3)) == 0
        assert epsilon_exponent(Fraction(5, 6)) == -2
        with pytest.raises(DomainError):
            epsilon_exponent(Fraction(11, 4))


tiny = st.integers(0, 4)


class TestExpansion:
    def test_worked_expansion(self):
        x = Fraction(149) + Fraction(1, 96)
        d = expand(x, 2)
        assert d.leading() == 2 and d.trailing() == -5
        assert d.digits == {2: 4, 0: 5, -3: 2, -4: 1, -5: 3}
        assert d.positional() == "405.00213"
        assert d.value() == x

    def test_binary_base(self):
        d = expand(Fraction(11, 4), 1)  # 10.11
        assert d.digits == {1: 1, -1: 1, -2: 1}
        assert (d.leading(), d.trailing()) == (1, -2)

    def test_non_terminating_rejected(self):
        with pytest.raises(DomainError):
            expand(Fraction(1, 3), 1)

    @given(
        num=st.integers(1, 10**6),
        i=tiny, j=tiny, k=tiny,
        n=st.integers(1, 3),
    )
    @settings(deadline=None)
    def test_round_trip(self, num, i, j, k, n):
        den = 2**i * 3**j * 5**k
        x = Fraction(num, den)
        base_n = max(n, minimal_base_index(x))
        d = expand(x, base_n)
        assert d.value() == x
        base = primorial(base_n)
        assert all(0 < digit < base for digit in d.digits.values())


class TestPositionFunctions:
    def test_fractional_positions(self):
        assert s_frac(Fraction(1, 4), 2) == -1
        assert e_frac(Fraction(1, 4), 2) == -2
        assert s_frac(Fraction(5, 6), 2) == -1
        assert e_frac(Fraction(5, 6), 2) == -1

    def test_integer_end(self):
        assert e_int(96, 1) == 5
        assert e_int(96, 2) == 1
        assert e_int(5, 1) == 0

    def test_whole_inputs_rejected_for_frac(self):
        with pytest.raises(DomainError):
            s_frac(Fraction(3, 2), 2)
